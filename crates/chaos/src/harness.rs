//! The chaos simulation loop: replicas over the simulated network under a
//! fault schedule, with continuous invariant checking and trace capture.

use crate::buggy::BuggyOmniReplica;
use crate::monitor::{Breach, Monitor};
use crate::nemesis::{Nemesis, Servers};
use crate::schedule::{generate, Fault, ScheduledFault, HEAL};
use crate::trace::{fingerprint, ChaosReport, Counters, TraceEvent, Violation};
use crate::NodeId;
use cluster::protocol::{
    MpReplica, OmniReplica, ProtoMsg, ProtocolKind, RaftReplica, Replica, VrReplica,
};
use cluster::Cmd;
use omnipaxos::{MigrationScheme, SnapshotData, StorageFaultKind};
use std::collections::BTreeSet;

/// Election timeout in ticks (BLE round / Raft election base; the failure
/// detectors of Multi-Paxos and VR run at 4× this, as in the runner).
const ELECTION_TICKS: u64 = 5;
/// How often the retained decided logs are fully re-scanned, in ticks.
/// Delivered batches, cursors and leadership are checked every tick.
const SCAN_EVERY: u64 = 8;
/// Liveness probe commands proposed after the forced heal.
const PROBES: u64 = 4;

/// An intentionally injected bug, for harness regression tests: the
/// harness must *fail* runs under these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// Servers acknowledge decided entries before persisting them; a
    /// crash loses the decided tail (see [`BuggyOmniReplica`]).
    AckBeforePersist,
}

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub protocol: ProtocolKind,
    /// Cluster size (pids `1..=n`).
    pub n: usize,
    /// Seed for both schedule generation and the network.
    pub seed: u64,
    /// Number of faults to generate.
    pub fault_events: usize,
    /// Ticks of the fault phase.
    pub horizon_ticks: u64,
    /// Bounded-recovery window after the forced heal, in ticks.
    pub liveness_ticks: u64,
    /// Maximum commands proposed during the fault phase.
    pub propose_cap: u64,
    /// Injected bug (Omni-Paxos only), for regression tests.
    pub bug: Option<Bug>,
    /// Use the disk-fault schedule profile: a third of the generated
    /// events arm storage failpoints ([`Fault::DiskFault`]) instead of
    /// attacking only the network.
    pub disk_faults: bool,
}

impl ChaosConfig {
    /// Default-sized run for `protocol` under `seed`.
    pub fn new(protocol: ProtocolKind, seed: u64) -> Self {
        ChaosConfig {
            protocol,
            n: 5,
            seed,
            fault_events: 14,
            horizon_ticks: 1_200,
            liveness_ticks: 6_000,
            propose_cap: 200,
            bug: None,
            disk_faults: false,
        }
    }
}

/// One replica with chaos-specific side doors (compaction, forced
/// same-membership reconfiguration) that the uniform trait keeps closed.
enum ChaosNode {
    Omni(OmniReplica),
    Buggy(BuggyOmniReplica),
    Raft(RaftReplica),
    Mp(MpReplica),
    Vr(VrReplica),
}

impl ChaosNode {
    fn replica(&self) -> &dyn Replica {
        match self {
            ChaosNode::Omni(r) => r,
            ChaosNode::Buggy(r) => r,
            ChaosNode::Raft(r) => r,
            ChaosNode::Mp(r) => r,
            ChaosNode::Vr(r) => r,
        }
    }

    fn replica_mut(&mut self) -> &mut dyn Replica {
        match self {
            ChaosNode::Omni(r) => r,
            ChaosNode::Buggy(r) => r,
            ChaosNode::Raft(r) => r,
            ChaosNode::Mp(r) => r,
            ChaosNode::Vr(r) => r,
        }
    }
}

fn build_nodes(cfg: &ChaosConfig) -> Vec<ChaosNode> {
    let members: Vec<NodeId> = (1..=cfg.n as NodeId).collect();
    if cfg.bug.is_some() {
        assert_eq!(
            cfg.protocol,
            ProtocolKind::OmniPaxos,
            "bug injection wraps the Omni-Paxos adapter"
        );
    }
    members
        .iter()
        .map(|&pid| match cfg.protocol {
            ProtocolKind::OmniPaxos | ProtocolKind::OmniPaxosLeaderMigration => {
                if cfg.bug == Some(Bug::AckBeforePersist) {
                    ChaosNode::Buggy(BuggyOmniReplica::new(pid, members.clone(), ELECTION_TICKS))
                } else {
                    let scheme = if cfg.protocol == ProtocolKind::OmniPaxos {
                        MigrationScheme::Parallel
                    } else {
                        MigrationScheme::LeaderOnly
                    };
                    ChaosNode::Omni(OmniReplica::new(
                        pid,
                        members.clone(),
                        scheme,
                        ELECTION_TICKS,
                        Vec::new(),
                    ))
                }
            }
            ProtocolKind::Raft | ProtocolKind::RaftPvCq => ChaosNode::Raft(RaftReplica::new(
                pid,
                members.clone(),
                cfg.protocol == ProtocolKind::RaftPvCq,
                ELECTION_TICKS,
                cfg.seed,
                Vec::new(),
            )),
            ProtocolKind::MultiPaxos => {
                ChaosNode::Mp(MpReplica::new(pid, members.clone(), ELECTION_TICKS * 4))
            }
            ProtocolKind::Vr => {
                ChaosNode::Vr(VrReplica::new(pid, members.clone(), ELECTION_TICKS * 4))
            }
        })
        .collect()
}

impl Servers for [ChaosNode] {
    fn leader(&self, crashed: &BTreeSet<NodeId>) -> Option<NodeId> {
        self.iter()
            .map(ChaosNode::replica)
            .filter(|r| !crashed.contains(&r.pid()) && r.is_leader())
            .max_by_key(|r| r.leader_rank())
            .map(|r| r.pid())
    }

    fn reconnected(&mut self, pid: NodeId, peer: NodeId) {
        self[(pid - 1) as usize].replica_mut().reconnected(peer);
    }

    fn recover(&mut self, pid: NodeId) {
        self[(pid - 1) as usize].replica_mut().fail_recovery();
    }

    fn is_halted(&self, pid: NodeId) -> bool {
        self[(pid - 1) as usize].replica().is_halted()
    }

    /// Snapshot-compact at everything applied (Omni-Paxos only). The
    /// snapshot payload is an opaque marker: the harness replicates plain
    /// commands, so there is no state machine to serialize — what matters
    /// is that the log prefix is gone and lagging peers must adopt the
    /// snapshot instead of fetching entries.
    fn compact(&mut self, pid: NodeId) -> String {
        let ChaosNode::Omni(r) = &mut self[(pid - 1) as usize] else {
            return "(nothing to trim)".to_string();
        };
        let upto = r.server_ref().applied_cursor();
        let data: SnapshotData = std::sync::Arc::from(&b"chaos-snapshot"[..]);
        if upto > r.server_ref().log_start() && r.server().provide_snapshot(upto, data).is_ok() {
            format!("upto={upto}")
        } else {
            "(nothing to trim)".to_string()
        }
    }

    /// Submit a same-membership reconfiguration (software-upgrade style,
    /// §6.1). Bypasses the adapter's duplicate-membership guard, which
    /// exists for the runner's retry loop, not for chaos injection.
    fn reconfigure(&mut self, pid: NodeId, members: Vec<NodeId>) -> bool {
        match &mut self[(pid - 1) as usize] {
            ChaosNode::Omni(r) => r.server().reconfigure(members).is_ok(),
            ChaosNode::Raft(r) => r.reconfigure(members),
            _ => false,
        }
    }

    fn arm_disk(&mut self, pid: NodeId, kind: StorageFaultKind) -> Option<String> {
        self[(pid - 1) as usize]
            .replica_mut()
            .inject_disk_fault(kind)
            .then(String::new)
    }
}

/// The live simulation state of one chaos run.
struct Sim {
    nodes: Vec<ChaosNode>,
    nemesis: Nemesis<ProtoMsg>,
    monitor: Monitor,
    trace: Vec<TraceEvent>,
    last_epoch: Vec<Option<(u64, NodeId)>>,
    next_id: u64,
    proposed_count: u64,
    violation: Option<Violation>,
}

impl Sim {
    fn new(cfg: &ChaosConfig) -> Self {
        let members: Vec<NodeId> = (1..=cfg.n as NodeId).collect();
        Sim {
            nodes: build_nodes(cfg),
            nemesis: Nemesis::new(members.clone(), members.clone(), cfg.seed),
            monitor: Monitor::new(cfg.n),
            trace: Vec::new(),
            last_epoch: vec![None; cfg.n],
            next_id: 0,
            proposed_count: 0,
            violation: None,
        }
    }

    /// Index of the freshest live leadership claimant.
    fn leader_idx(&self) -> Option<usize> {
        let leader = self.nodes.leader(&self.nemesis.crashed)?;
        Some((leader - 1) as usize)
    }

    fn breach_at(&mut self, tick: u64, b: Breach) {
        let desc = format!("[{}] {}", b.invariant, b.detail);
        self.trace.push(TraceEvent::Violation { tick, desc });
        self.violation = Some(Violation {
            tick,
            invariant: b.invariant.to_string(),
            detail: b.detail,
        });
    }

    /// Deliver everything due in the tick ending at `t`.
    fn deliver(&mut self, t: u64) {
        let nodes = &mut self.nodes;
        self.nemesis.deliver(t, |src, dst, msg| {
            nodes[(dst - 1) as usize].replica_mut().handle(src, msg)
        });
    }

    /// Fire one fault and record its resolved form in the trace.
    fn fire(&mut self, t: u64, fault: &Fault) {
        let desc = self.nemesis.fire(fault, self.nodes.as_mut_slice());
        self.trace.push(TraceEvent::Fault { tick: t, desc });
    }

    /// Propose one command at the current leader; id is re-used until some
    /// leader accepts it.
    fn propose_next(&mut self) -> bool {
        let Some(li) = self.leader_idx() else {
            return false;
        };
        let id = self.next_id;
        if self.nodes[li].replica_mut().propose(Cmd::noop(id)) {
            self.monitor.on_proposed(id);
            self.next_id += 1;
            self.proposed_count += 1;
            true
        } else {
            false
        }
    }

    /// Timers, outgoing traffic, decided drains and per-tick checks.
    fn step_rest(&mut self, t: u64) {
        for i in 0..self.nodes.len() {
            let pid = self.nemesis.members[i];
            if self.nemesis.live(pid) {
                self.nodes[i].replica_mut().tick();
            }
        }
        for i in 0..self.nodes.len() {
            let from = self.nemesis.members[i];
            let out = self.nodes[i].replica_mut().outgoing();
            if !self.nemesis.live(from) {
                continue; // a down server sends nothing; backlog discarded
            }
            if self.nodes[i].replica().is_halted() {
                // Fail-stop contract: a server that failed to persist must
                // look crashed — any message it emits could be an ack of
                // state its disk never took.
                if !out.is_empty() {
                    self.breach_at(
                        t,
                        Breach {
                            invariant: "fail-stop",
                            detail: format!(
                                "server {from} emitted {} message(s) while halted \
                                 on a storage error",
                                out.len()
                            ),
                        },
                    );
                    return;
                }
                continue;
            }
            for (to, msg) in out {
                if to >= 1 && to <= self.nemesis.members.len() as NodeId {
                    let bytes = msg.size_bytes();
                    self.nemesis.net.send(from, to, bytes, msg);
                }
            }
        }
        for i in 0..self.nodes.len() {
            let pid = self.nemesis.members[i];
            if !self.nemesis.live(pid) {
                continue;
            }
            let base = self.nodes[i].replica().decided_base();
            let ids = self.nodes[i].replica_mut().poll_decided();
            if !ids.is_empty() {
                self.trace.push(TraceEvent::Decide {
                    tick: t,
                    pid,
                    base,
                    ids: ids.clone(),
                });
            }
            if let Err(b) = self.monitor.on_decided(pid, base, &ids) {
                self.breach_at(t, b);
                return;
            }
            if let Err(b) = self.monitor.check_leadership(self.nodes[i].replica()) {
                self.breach_at(t, b);
                return;
            }
            let epoch = self.nodes[i].replica().leader_epoch();
            if epoch != self.last_epoch[i] {
                if let Some((e, o)) = epoch {
                    self.trace.push(TraceEvent::Leader {
                        tick: t,
                        pid,
                        epoch: e,
                        owner: o,
                    });
                }
                self.last_epoch[i] = epoch;
            }
        }
        if t.is_multiple_of(SCAN_EVERY) {
            self.scan_all(t);
        }
    }

    /// Full retained-log cross-check of every live server.
    fn scan_all(&mut self, t: u64) {
        for i in 0..self.nodes.len() {
            if !self.nemesis.live(self.nemesis.members[i]) {
                continue;
            }
            if let Err(b) = self.monitor.scan_retained(self.nodes[i].replica()) {
                self.breach_at(t, b);
                return;
            }
        }
    }
}

/// Generate the schedule for `cfg` and run it.
pub fn run(cfg: &ChaosConfig) -> ChaosReport {
    let schedule = generate(
        cfg.seed,
        cfg.n,
        cfg.fault_events,
        cfg.horizon_ticks,
        cfg.disk_faults,
    );
    run_schedule(cfg, &schedule)
}

/// Run one specific schedule (replay and minimization entry point).
pub fn run_schedule(cfg: &ChaosConfig, schedule: &[ScheduledFault]) -> ChaosReport {
    let mut sim = Sim::new(cfg);
    sim.trace.push(TraceEvent::Phase {
        tick: 0,
        desc: format!(
            "start protocol={} n={} seed={}",
            cfg.protocol.name(),
            cfg.n,
            cfg.seed
        ),
    });
    let mut si = 0;
    for t in 1..=cfg.horizon_ticks {
        sim.deliver(t);
        while si < schedule.len() && schedule[si].at_tick <= t {
            let fault = schedule[si].fault.clone();
            si += 1;
            sim.fire(t, &fault);
        }
        if sim.proposed_count < cfg.propose_cap && t % 3 == 0 {
            sim.propose_next();
        }
        sim.step_rest(t);
        if sim.violation.is_some() {
            break;
        }
    }

    // Bounded-recovery liveness: heal everything, recover everyone, then
    // freshly proposed probes must decide at *every* server in time.
    let mut converged_in = None;
    if sim.violation.is_none() {
        let t0 = cfg.horizon_ticks;
        for fault in HEAL {
            sim.fire(t0, &fault);
        }
        sim.trace.push(TraceEvent::Phase {
            tick: t0,
            desc: "forced heal; liveness probes".to_string(),
        });
        let probes: Vec<u64> = (0..PROBES).map(|k| sim.next_id + k).collect();
        sim.next_id += PROBES;
        let mut last_submit = 0u64;
        for t in t0 + 1..=t0 + cfg.liveness_ticks {
            sim.deliver(t);
            // (Re-)propose probes that not everyone has yet; duplicate
            // decides of the same id are legal (client-level retries).
            if last_submit == 0 || t - last_submit >= 200 {
                if let Some(li) = sim.leader_idx() {
                    let mut submitted = false;
                    for &id in &probes {
                        let everyone =
                            (sim.nemesis.members.iter()).all(|&p| sim.monitor.has_delivered(p, id));
                        if !everyone && sim.nodes[li].replica_mut().propose(Cmd::noop(id)) {
                            sim.monitor.on_proposed(id);
                            submitted = true;
                        }
                    }
                    if submitted {
                        last_submit = t;
                    }
                }
            }
            sim.step_rest(t);
            if sim.violation.is_some() {
                break;
            }
            // A failpoint armed late in the schedule may only fire now, on
            // the server's next storage operation. The bounded-recovery
            // contract says faults stop at the forced heal, so a server
            // that halts during the probe phase is restarted immediately
            // (its unsynced tail rolls back; it re-syncs via PrepareReq).
            for p in sim.nemesis.restart_halted(sim.nodes.as_mut_slice()) {
                sim.trace.push(TraceEvent::Fault {
                    tick: t,
                    desc: format!("restart {p} (disk fault fired after the heal)"),
                });
            }
            let done = probes.iter().all(|&id| {
                sim.nemesis
                    .members
                    .iter()
                    .all(|&p| sim.monitor.has_delivered(p, id))
            });
            if done {
                converged_in = Some(t - t0);
                sim.trace.push(TraceEvent::Phase {
                    tick: t,
                    desc: format!("liveness converged in {} ticks", t - t0),
                });
                break;
            }
        }
        if sim.violation.is_none() && converged_in.is_none() {
            let tick = t0 + cfg.liveness_ticks;
            sim.breach_at(
                tick,
                Breach {
                    invariant: "liveness",
                    detail: format!(
                        "probes {probes:?} were not decided at every server within \
                         {} ticks after the full heal",
                        cfg.liveness_ticks
                    ),
                },
            );
        }
    }

    if sim.violation.is_none() {
        sim.scan_all(cfg.horizon_ticks + cfg.liveness_ticks);
    }

    let mut stats = Counters::default();
    stats.add("decided_positions", sim.monitor.decided_positions());
    if let Some(ticks) = converged_in {
        stats.add("converge_ticks", ticks);
    }
    ChaosReport {
        header: format!("protocol: {}\nnodes: {}\n", cfg.protocol.name(), cfg.n),
        seed: cfg.seed,
        schedule: schedule.to_vec(),
        fingerprint: fingerprint(&sim.trace),
        trace: sim.trace,
        violation: sim.violation,
        stats,
    }
}
