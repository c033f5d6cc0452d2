//! The simulation loop: replicas over the simulated network, a fault
//! schedule, a client workload, and metrics.
//!
//! [`Runner::step`] is the one definition of a tick, shared by the paper's
//! figures, the protocol chaos harness and the root safety tests. Time
//! advances in fixed ticks (default 1 ms); each tick, in order:
//!
//! 1. **deliver** — due messages and session events reach live servers;
//! 2. **fire** — scheduled [`Fault`]s fire through the [`Nemesis`];
//! 3. **tick** — live replicas advance their timers;
//! 4. **client** — every live server's newly decided batch is polled once,
//!    and the [`Workload`] reads them and proposes;
//! 5. **send** — live replicas' outgoing messages enter the network.
//!
//! Replicas talk to the network only through [`net::SimLink`]s on one
//! [`net::SimHub`]. Cut/heal surface as session events on the links (the
//! same events the TCP transport emits from real sockets), so the
//! reconnect → `PrepareReq` re-sync path is driven identically under
//! simulation and deployment.

use crate::client::Client;
use crate::metrics::RunReport;
use crate::nemesis::{Fault, Nemesis, Servers};
use crate::protocol::{
    MpReplica, OmniReplica, ProtoMsg, ProtocolKind, RaftReplica, Replica, VrReplica,
};
use crate::{ClientConfig, Cmd, NodeId};
use net::LinkEvent;
use omnipaxos::MigrationScheme;
use simulator::{ms, sec, LinkConfig, NetworkConfig, SimTime};

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub protocol: ProtocolKind,
    /// Members of the initial configuration: pids `1..=n`.
    pub n: usize,
    /// Extra servers outside the initial configuration (pids `n+1..`),
    /// available as reconfiguration targets.
    pub joiners: usize,
    /// Client workload.
    pub client: ClientConfig,
    /// Simulation tick (timer granularity), µs.
    pub tick_us: SimTime,
    /// Election timeout (BLE heartbeat round / Raft election base / FD
    /// timeout), µs.
    pub election_timeout_us: SimTime,
    /// Default one-way link latency, µs (LAN: 100 ⇒ RTT 0.2 ms).
    pub latency_us: SimTime,
    /// Per-pair one-way latency overrides (for the WAN settings).
    pub latency_overrides: Vec<(NodeId, NodeId, SimTime)>,
    /// Outgoing NIC bandwidth per server (bytes/s); `None` = unconstrained.
    pub nic_bytes_per_sec: Option<u64>,
    /// Simulated run length, µs.
    pub duration: SimTime,
    /// Number of pre-loaded history entries (reconfiguration experiments).
    pub initial_log: usize,
    /// Declared size of each pre-loaded entry, bytes.
    pub initial_entry_size: u32,
    /// Throughput window length (5 s in the paper's Fig. 9), µs.
    pub window_us: SimTime,
    /// Gaps in decided replies at least this long count as down-time, µs.
    pub gap_threshold_us: SimTime,
    /// Scheduled faults, fired in time order at tick boundaries.
    pub schedule: Vec<(SimTime, Fault)>,
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            protocol: ProtocolKind::OmniPaxos,
            n: 3,
            joiners: 0,
            client: ClientConfig::default(),
            tick_us: ms(1),
            election_timeout_us: ms(5),
            latency_us: 100,
            latency_overrides: Vec::new(),
            nic_bytes_per_sec: None,
            duration: sec(10),
            initial_log: 0,
            initial_entry_size: 8,
            window_us: sec(5),
            gap_threshold_us: ms(100),
            schedule: Vec::new(),
            seed: 1,
        }
    }
}

/// One server's newly decided commands of one tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decided {
    pub pid: NodeId,
    /// Absolute log position of `ids[0]` ([`Replica::decided_base`]).
    pub base: u64,
    pub ids: Vec<u64>,
}

/// The client phase of a tick: reads [`Runner::decided`] and proposes.
pub trait Workload {
    fn step(&mut self, run: &mut Runner);
}

/// A [`Fault::ReconfigureTo`] in progress. The runner plays the operator:
/// it submits the change to the live leader until one accepts it, then
/// re-submits every 2 s until the target configuration is live, since a
/// leader change can strand an in-flight change (the paper observed Raft
/// needing multiple attempts, §7.3).
struct Reconfig {
    target: Vec<NodeId>,
    /// The last submission once one was accepted.
    submitted_at: Option<SimTime>,
    done_at: Option<SimTime>,
}

/// One simulation run in progress.
pub struct Runner {
    config: RunConfig,
    replicas: Vec<Box<dyn Replica>>,
    nemesis: Nemesis<ProtoMsg>,
    /// Pending faults, latest first (`pop` yields the earliest).
    schedule: Vec<(SimTime, Fault)>,
    now: SimTime,
    /// This tick's fired faults, as resolved.
    fired: Vec<String>,
    /// This tick's decided batches, one per live server.
    decided: Vec<Decided>,
    /// This tick's halted servers that tried to send, and how much.
    halted_sends: Vec<(NodeId, usize)>,
    reconfig: Option<Reconfig>,
}

/// The replica of `pid` for `config`'s protocol: pids `1..=n` start in
/// the initial configuration, higher pids as joiners.
pub fn replica_for(config: &RunConfig, pid: NodeId) -> Box<dyn Replica> {
    let all: Vec<NodeId> = (1..=config.n as NodeId).collect();
    let member = pid <= config.n as NodeId;
    let ticks_per_election = (config.election_timeout_us / config.tick_us).max(1);
    let initial_log: Vec<Cmd> = (0..config.initial_log as u64)
        .filter(|_| member)
        .map(|i| Cmd::sized(i, config.initial_entry_size))
        .collect();
    match config.protocol {
        ProtocolKind::OmniPaxos | ProtocolKind::OmniPaxosLeaderMigration => {
            let scheme = if config.protocol == ProtocolKind::OmniPaxos {
                MigrationScheme::Parallel
            } else {
                MigrationScheme::LeaderOnly
            };
            if member {
                Box::new(OmniReplica::new(
                    pid,
                    all,
                    scheme,
                    ticks_per_election,
                    initial_log,
                ))
            } else {
                Box::new(OmniReplica::joiner(pid, scheme, ticks_per_election))
            }
        }
        ProtocolKind::Raft | ProtocolKind::RaftPvCq => Box::new(RaftReplica::new(
            pid,
            all,
            config.protocol == ProtocolKind::RaftPvCq,
            ticks_per_election,
            config.seed,
            initial_log,
        )),
        ProtocolKind::MultiPaxos => {
            assert!(config.joiners == 0, "Multi-Paxos: no reconfiguration");
            Box::new(MpReplica::new(pid, all, ticks_per_election * 4))
        }
        ProtocolKind::Vr => {
            assert!(config.joiners == 0, "VR baseline: no reconfiguration");
            Box::new(VrReplica::new(pid, all, ticks_per_election * 4))
        }
    }
}

impl Runner {
    /// Build a run: replicas and network.
    pub fn new(config: RunConfig) -> Self {
        let total = (config.n + config.joiners) as NodeId;
        let replicas = (1..=total).map(|pid| replica_for(&config, pid)).collect();
        Self::with_replicas(config, replicas)
    }

    /// Build a run over the given replicas (pid `i + 1` at index `i`).
    pub fn with_replicas(config: RunConfig, replicas: Vec<Box<dyn Replica>>) -> Self {
        let nemesis = Nemesis::new(
            NetworkConfig {
                nodes: (1..=replicas.len() as NodeId).collect(),
                default_latency_us: config.latency_us,
                jitter_us: 0,
                nic_bytes_per_sec: config.nic_bytes_per_sec,
                priority_bytes: 256,
                seed: config.seed,
            },
            (1..=config.n as NodeId).collect(),
        );
        nemesis.hub().with_net(|net| {
            for &(a, b, latency_us) in &config.latency_overrides {
                let link = LinkConfig {
                    latency_us,
                    loss: 0.0,
                };
                net.links_mut().set_config_sym(a, b, link);
            }
            // Per-node IO windows for the Fig. 9 peak-IO metric.
            net.stats_mut().enable_io_windows(config.window_us);
        });
        let mut schedule = config.schedule.clone();
        schedule.sort_by_key(|(t, _)| *t);
        schedule.reverse();
        Runner {
            replicas,
            nemesis,
            schedule,
            now: 0,
            fired: Vec::new(),
            decided: Vec::new(),
            halted_sends: Vec::new(),
            reconfig: None,
            config,
        }
    }

    /// Execute the run to completion under the closed-loop client, and
    /// report.
    pub fn run(mut self) -> RunReport {
        let mut client = Client::new(
            self.config.client.clone(),
            self.config.window_us,
            self.config.gap_threshold_us,
        );
        while self.now < self.config.duration {
            self.step(&mut client);
        }
        self.finish(client)
    }

    /// Run one tick: deliver, fire, tick, client, send.
    pub fn step(&mut self, workload: &mut dyn Workload) {
        let next = self.now + self.config.tick_us;
        let replicas = &mut self.replicas;
        self.nemesis.deliver(next, |pid, ev| {
            let r = &mut replicas[(pid - 1) as usize];
            match ev {
                LinkEvent::Message { from, msg } => r.handle(from, msg),
                // A fresh session means messages may have been lost:
                // re-sync (PrepareReq on the Omni side).
                LinkEvent::SessionEstablished { peer, .. } => r.reconnected(peer),
                LinkEvent::SessionDropped { .. } => {}
            }
        });
        self.now = next;
        self.fired.clear();
        while self.schedule.last().is_some_and(|(t, _)| *t <= next) {
            let (_, fault) = self.schedule.pop().expect("checked");
            let desc = self.fire(&fault);
            self.fired.push(desc);
        }
        self.operate_reconfig();
        for r in self.replicas.iter_mut() {
            if self.nemesis.live(r.pid()) {
                r.tick();
            }
        }
        self.decided.clear();
        for r in self.replicas.iter_mut() {
            if self.nemesis.live(r.pid()) {
                let base = r.decided_base();
                let ids = r.poll_decided();
                self.decided.push(Decided {
                    pid: r.pid(),
                    base,
                    ids,
                });
            }
        }
        workload.step(self);
        self.halted_sends.clear();
        let total = self.replicas.len() as NodeId;
        for r in self.replicas.iter_mut() {
            let (from, out) = (r.pid(), r.outgoing());
            if !self.nemesis.live(from) {
                continue; // a down server sends nothing; backlog discarded
            }
            if r.is_halted() {
                // Fail-stop: anything a server emits after failing to
                // persist could ack state its disk never took.
                if !out.is_empty() {
                    self.halted_sends.push((from, out.len()));
                }
                continue;
            }
            for (to, msg) in out {
                if (1..=total).contains(&to) {
                    self.nemesis.send(from, to, msg);
                }
            }
        }
        self.check_reconfig_done();
    }

    /// Fire one fault now and return its resolved form.
    pub fn fire(&mut self, fault: &Fault) -> String {
        if let Fault::ReconfigureTo(target) = fault {
            self.reconfig = Some(Reconfig {
                target: target.clone(),
                submitted_at: None,
                done_at: None,
            });
        }
        self.nemesis.fire(fault, self.replicas.as_mut_slice())
    }

    /// Restart every live server halted on a storage error; returns them.
    pub fn restart_halted(&mut self) -> Vec<NodeId> {
        self.nemesis.restart_halted(self.replicas.as_mut_slice())
    }

    /// Simulated time at the end of the last tick.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The faults fired in the last tick, as resolved.
    pub fn fired(&self) -> &[String] {
        &self.fired
    }

    /// Every live server's newly decided batch of the current tick, in pid
    /// order (empty batches included).
    pub fn decided(&self) -> &[Decided] {
        &self.decided
    }

    /// Halted servers that tried to send in the last tick, with the
    /// number of messages each tried (their sends were dropped).
    pub fn halted_sends(&self) -> &[(NodeId, usize)] {
        &self.halted_sends
    }

    pub fn live(&self, pid: NodeId) -> bool {
        self.nemesis.live(pid)
    }

    /// Every server's pid.
    pub fn pids(&self) -> impl Iterator<Item = NodeId> {
        1..=self.replicas.len() as NodeId
    }

    pub fn replica(&self, pid: NodeId) -> &dyn Replica {
        self.replicas[(pid - 1) as usize].as_ref()
    }

    /// The freshest live leadership claimant, if any.
    pub fn leader(&self) -> Option<NodeId> {
        self.replicas.leader(self.nemesis.crashed())
    }

    /// Propose `cmd` at `pid`; a down server takes nothing.
    pub fn propose(&mut self, pid: NodeId, cmd: Cmd) -> bool {
        self.live(pid) && self.replicas[(pid - 1) as usize].propose(cmd)
    }

    fn submit_reconfig(&mut self, target: &[NodeId]) -> bool {
        match self.leader() {
            Some(l) => self.replicas[(l - 1) as usize].reconfigure(target.to_vec()),
            None => false,
        }
    }

    fn operate_reconfig(&mut self) {
        let now = self.now;
        let Some(rc) = &self.reconfig else {
            return;
        };
        let first = rc.submitted_at.is_none();
        let due = match (rc.submitted_at, rc.done_at) {
            (None, _) => true,
            (Some(at), None) => now.saturating_sub(at) >= sec(2),
            (Some(_), Some(_)) => false,
        };
        if !due {
            return;
        }
        let target = rc.target.clone();
        // Retried every tick until a leader takes it; after that, every
        // 2 s whatever the answer.
        if self.submit_reconfig(&target) || !first {
            self.reconfig.as_mut().expect("checked").submitted_at = Some(now);
        }
    }

    fn check_reconfig_done(&mut self) {
        let Some(rc) = &mut self.reconfig else {
            return;
        };
        let target = &rc.target;
        if rc.done_at.is_some()
            || rc.submitted_at.is_none()
            || !target
                .iter()
                .all(|&p| self.replicas[(p - 1) as usize].reconfigured_to(target))
        {
            return;
        }
        rc.done_at = Some(self.now);
        // The operator shuts down the servers that left. A removed but
        // uninformed Raft server otherwise disrupts the cluster with
        // ever-higher terms (Raft §6's disruptive-server problem); real
        // deployments (e.g. TiKV) destroy the removed peer at the
        // application layer once the change is through.
        let gone: Vec<NodeId> = (1..=self.config.n as NodeId)
            .filter(|p| !target.contains(p))
            .collect();
        for p in gone {
            self.nemesis.crash(p);
        }
    }

    fn finish(self, mut client: Client) -> RunReport {
        let end = self.now;
        client.decides.finalize(end);
        let leader_changes = (self.replicas.iter())
            .map(|r| r.leader_changes())
            .max()
            .unwrap_or(0);
        let final_rank = (self.replicas.iter())
            .map(|r| r.leader_rank())
            .max()
            .unwrap_or(0);
        let n = self.replicas.len() as NodeId;
        let (bytes_sent, peak_window_bytes) = self.nemesis.hub().with_net(|net| {
            let stats = net.stats();
            let bytes = (1..=n).map(|p| (p, stats.bytes_sent(p))).collect();
            let peak = (1..=n).map(|p| (p, stats.peak_window_bytes(p))).collect();
            (bytes, peak)
        });
        RunReport {
            protocol: self.config.protocol.name().to_string(),
            total_decided: client.completed(),
            leader_changes,
            final_rank,
            bytes_sent,
            peak_window_bytes,
            reconfig_done_at: self.reconfig.and_then(|rc| rc.done_at),
            latency: client.latencies,
            decides: client.decides,
            duration: end,
        }
    }
}

/// The runner's servers as a fault sees them.
impl Servers for [Box<dyn Replica>] {
    fn leader(&self, crashed: &std::collections::BTreeSet<NodeId>) -> Option<NodeId> {
        self.iter()
            .filter(|r| !crashed.contains(&r.pid()) && r.is_leader())
            .max_by_key(|r| r.leader_rank())
            .map(|r| r.pid())
    }

    fn recover(&mut self, pid: NodeId) {
        self[(pid - 1) as usize].fail_recovery();
    }

    fn is_halted(&self, pid: NodeId) -> bool {
        self[(pid - 1) as usize].is_halted()
    }

    fn compact(&mut self, pid: NodeId) -> String {
        match self[(pid - 1) as usize].compact() {
            Some(upto) => format!("upto={upto}"),
            None => "(nothing to trim)".to_string(),
        }
    }

    fn upgrade(&mut self, pid: NodeId) -> bool {
        self[(pid - 1) as usize].upgrade()
    }

    fn arm_disk(&mut self, pid: NodeId, kind: omnipaxos::StorageFaultKind) -> Option<String> {
        self[(pid - 1) as usize]
            .inject_disk_fault(kind)
            .then(String::new)
    }
}
