//! The protocol chaos harness: the figures' tick loop ([`cluster::Runner`])
//! under a seeded fault schedule, with continuous invariant checking and
//! trace capture.
//!
//! The harness adds only a client and a referee to the loop. Its
//! [`Proposer`] is the loop's client phase: a fresh command every third
//! tick during the fault phase (every other one handed to a follower),
//! liveness probes after the forced heal.
//! After every tick the [`Monitor`] reads the decided batches the loop
//! polled, each server's leadership, and (every [`SCAN_EVERY`] ticks) the
//! retained logs.

use crate::monitor::{Breach, Monitor};
use crate::schedule::{generate, ScheduledFault, HEAL};
use crate::trace::{fingerprint, ChaosReport, Counters, TraceEvent, Violation};
use crate::NodeId;
use cluster::protocol::{OmniReplica, ProtocolKind, Replica};
use cluster::{Cmd, RunConfig, Runner, Workload};

/// Election timeout in ticks (BLE round / Raft election base; the failure
/// detectors of Multi-Paxos and VR run at 4× this, as in the figures).
const ELECTION_TICKS: u64 = 5;
/// Simulated microseconds per tick.
const TICK_US: u64 = 1_000;
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
    /// crash loses the decided tail
    /// ([`OmniReplica::losing_decided_tail`]). The monitor must flag the
    /// shrunken decided log as a durability breach.
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
    /// events arm storage failpoints ([`cluster::Fault::DiskFault`])
    /// instead of attacking only the network.
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

/// The client phase of a chaos tick, and the monitor its proposals feed.
struct Proposer {
    monitor: Monitor,
    /// The next command id; re-used until some server accepts it.
    next_id: u64,
    proposed: u64,
    cap: u64,
    /// After the forced heal: the probe ids, and the tick they were last
    /// (re)submitted at.
    probes: Vec<u64>,
    probed_at: Option<u64>,
}

impl Proposer {
    /// Every other command goes to a live follower first: an Omni-Paxos
    /// follower buffers it and forwards it to its leader; the baselines
    /// refuse, and the command goes to the leader.
    fn propose_next(&mut self, run: &mut Runner) {
        let id = self.next_id;
        let follower = (id % 2 == 1)
            .then(|| (run.pids()).find(|&p| run.live(p) && !run.replica(p).is_leader()))
            .flatten();
        let leader = run.leader();
        let mut propose_at = |p: Option<NodeId>| p.is_some_and(|p| run.propose(p, Cmd::noop(id)));
        if propose_at(follower) || propose_at(leader) {
            self.monitor.on_proposed(id);
            self.next_id += 1;
            self.proposed += 1;
        }
    }

    /// (Re-)propose the probes not everyone has yet, every 200 ticks;
    /// duplicate decides of one id are legal (client-level retries).
    fn reprobe(&mut self, run: &mut Runner, t: u64) {
        if self.probed_at.is_some_and(|at| t - at < 200) {
            return;
        }
        let Some(leader) = run.leader() else {
            return;
        };
        let mut submitted = false;
        for &id in &self.probes {
            if !self.everyone_has(run, id) && run.propose(leader, Cmd::noop(id)) {
                self.monitor.on_proposed(id);
                submitted = true;
            }
        }
        if submitted {
            self.probed_at = Some(t);
        }
    }

    fn everyone_has(&self, run: &Runner, id: u64) -> bool {
        run.pids().all(|p| self.monitor.has_delivered(p, id))
    }
}

impl Workload for Proposer {
    fn step(&mut self, run: &mut Runner) {
        let t = run.now() / TICK_US;
        if !self.probes.is_empty() {
            self.reprobe(run, t);
        } else if self.proposed < self.cap && t.is_multiple_of(3) {
            self.propose_next(run);
        }
    }
}

/// One chaos run in progress: the loop, its client, and the record.
struct Chaos {
    run: Runner,
    proposer: Proposer,
    trace: Vec<TraceEvent>,
    last_epoch: Vec<Option<(u64, NodeId)>>,
    violation: Option<Violation>,
}

impl Chaos {
    fn new(cfg: &ChaosConfig, schedule: &[ScheduledFault]) -> Self {
        let members: Vec<NodeId> = (1..=cfg.n as NodeId).collect();
        let config = RunConfig {
            protocol: cfg.protocol,
            n: cfg.n,
            tick_us: TICK_US,
            election_timeout_us: ELECTION_TICKS * TICK_US,
            // Faults scheduled past the horizon never fire: the forced
            // heal ends the fault phase.
            schedule: (schedule.iter())
                .filter(|f| f.at_tick <= cfg.horizon_ticks)
                .map(|f| (f.at_tick * TICK_US, f.fault.clone()))
                .collect(),
            seed: cfg.seed,
            ..RunConfig::default()
        };
        let run = match cfg.bug {
            Some(Bug::AckBeforePersist) => {
                assert_eq!(
                    cfg.protocol,
                    ProtocolKind::OmniPaxos,
                    "bug injection wraps the Omni-Paxos adapter"
                );
                let replicas = (members.iter())
                    .map(|&pid| {
                        let r =
                            OmniReplica::losing_decided_tail(pid, members.clone(), ELECTION_TICKS);
                        Box::new(r) as Box<dyn Replica>
                    })
                    .collect();
                Runner::with_replicas(config, replicas)
            }
            None => Runner::new(config),
        };
        Chaos {
            run,
            proposer: Proposer {
                monitor: Monitor::new(cfg.n),
                next_id: 0,
                proposed: 0,
                cap: cfg.propose_cap,
                probes: Vec::new(),
                probed_at: None,
            },
            trace: Vec::new(),
            last_epoch: vec![None; cfg.n],
            violation: None,
        }
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

    /// Fire `fault` between ticks and trace it.
    fn fire(&mut self, tick: u64, fault: &cluster::Fault) {
        let desc = self.run.fire(fault);
        self.trace.push(TraceEvent::Fault { tick, desc });
    }

    /// Run one tick of the loop and check what it did.
    fn step(&mut self) {
        self.run.step(&mut self.proposer);
        let t = self.run.now() / TICK_US;
        for desc in self.run.fired() {
            let desc = desc.clone();
            self.trace.push(TraceEvent::Fault { tick: t, desc });
        }
        if let Err(b) = self.check(t) {
            self.breach_at(t, b);
        }
    }

    fn check(&mut self, t: u64) -> Result<(), Breach> {
        // Fail-stop contract: a server that failed to persist must look
        // crashed.
        if let Some(&(pid, n)) = self.run.halted_sends().first() {
            return Err(Breach {
                invariant: "fail-stop",
                detail: format!(
                    "server {pid} emitted {n} message(s) while halted on a storage error"
                ),
            });
        }
        let (run, monitor) = (&self.run, &mut self.proposer.monitor);
        for d in run.decided() {
            if !d.ids.is_empty() {
                self.trace.push(TraceEvent::Decide {
                    tick: t,
                    pid: d.pid,
                    base: d.base,
                    ids: d.ids.clone(),
                });
            }
            monitor.on_decided(d.pid, d.base, &d.ids)?;
            let r = run.replica(d.pid);
            monitor.check_leadership(r)?;
            let epoch = r.leader_epoch();
            let last = &mut self.last_epoch[(d.pid - 1) as usize];
            if epoch != *last {
                if let Some((e, o)) = epoch {
                    self.trace.push(TraceEvent::Leader {
                        tick: t,
                        pid: d.pid,
                        epoch: e,
                        owner: o,
                    });
                }
                *last = epoch;
            }
        }
        if t.is_multiple_of(SCAN_EVERY) {
            self.scan_all()?;
        }
        Ok(())
    }

    /// Full retained-log cross-check of every live server.
    fn scan_all(&mut self) -> Result<(), Breach> {
        for pid in self.run.pids().filter(|&p| self.run.live(p)) {
            (self.proposer.monitor).scan_retained(self.run.replica(pid))?;
        }
        Ok(())
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
    let mut sim = Chaos::new(cfg, schedule);
    sim.trace.push(TraceEvent::Phase {
        tick: 0,
        desc: format!(
            "start protocol={} n={} seed={}",
            cfg.protocol.name(),
            cfg.n,
            cfg.seed
        ),
    });
    for _ in 1..=cfg.horizon_ticks {
        sim.step();
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
        let p = &mut sim.proposer;
        p.probes = (p.next_id..p.next_id + PROBES).collect();
        p.next_id += PROBES;
        for t in t0 + 1..=t0 + cfg.liveness_ticks {
            sim.step();
            if sim.violation.is_some() {
                break;
            }
            // A failpoint armed late in the schedule may only fire now, on
            // the server's next storage operation. The bounded-recovery
            // contract says faults stop at the forced heal, so a server
            // that halts during the probe phase is restarted immediately
            // (its unsynced tail rolls back; it re-syncs via PrepareReq).
            for p in sim.run.restart_halted() {
                sim.trace.push(TraceEvent::Fault {
                    tick: t,
                    desc: format!("restart {p} (disk fault fired after the heal)"),
                });
            }
            let p = &sim.proposer;
            if p.probes.iter().all(|&id| p.everyone_has(&sim.run, id)) {
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
            let detail = format!(
                "probes {:?} were not decided at every server within {} ticks after the \
                 full heal",
                sim.proposer.probes, cfg.liveness_ticks
            );
            sim.breach_at(
                tick,
                Breach {
                    invariant: "liveness",
                    detail,
                },
            );
        }
    }

    if sim.violation.is_none() {
        if let Err(b) = sim.scan_all() {
            sim.breach_at(cfg.horizon_ticks + cfg.liveness_ticks, b);
        }
    }

    let mut stats = Counters::default();
    stats.add(
        "decided_positions",
        sim.proposer.monitor.decided_positions(),
    );
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
