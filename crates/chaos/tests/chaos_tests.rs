//! Integration tests for the chaos drivers themselves: replay, the
//! injected-bug regression (the harness must catch a broken protocol), the
//! schedule minimizer, and clean sweeps across every protocol and kv
//! workload.

use chaos::driver::{self, Cluster, Shape, Workload};
use chaos::harness::{run, run_schedule, Bug, ChaosConfig};
use chaos::minimize::minimize;
use chaos::monitor::Breach;
use chaos::schedule::{generate_kv, Fault, ScheduledFault};
use chaos::KV_WORKLOADS;
use cluster::protocol::ProtocolKind;
use omnipaxos::StorageFaultKind;

const ALL_PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::OmniPaxos,
    ProtocolKind::Raft,
    ProtocolKind::RaftPvCq,
    ProtocolKind::MultiPaxos,
    ProtocolKind::Vr,
];

#[test]
fn same_seed_produces_bit_identical_trace() {
    for protocol in [ProtocolKind::OmniPaxos, ProtocolKind::Raft] {
        let cfg = ChaosConfig::new(protocol, 42);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.fingerprint, b.fingerprint, "{protocol:?}");
        assert_eq!(
            format!("{:?}", a.trace),
            format!("{:?}", b.trace),
            "replay of the same seed must reproduce the trace event-for-event"
        );
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.violation, b.violation);
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = run(&ChaosConfig::new(ProtocolKind::OmniPaxos, 1));
    let b = run(&ChaosConfig::new(ProtocolKind::OmniPaxos, 2));
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// The harness regression test demanded by the issue: wire in a replica
/// that acknowledges decided entries before persisting them (loses its
/// decided tail on crash) and assert the harness *fails* the run with a
/// durability violation. A harness that lets this pass is broken.
#[test]
fn ack_before_persist_bug_is_caught() {
    let mut cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, 3);
    cfg.bug = Some(Bug::AckBeforePersist);
    // A targeted schedule: let the cluster decide entries, crash a node,
    // recover it. The buggy recovery drops the decided tail, which the
    // monitor must flag as a durability breach.
    let schedule = vec![
        ScheduledFault {
            at_tick: 400,
            fault: Fault::Crash(2),
        },
        ScheduledFault {
            at_tick: 500,
            fault: Fault::Recover(2),
        },
    ];
    let report = run_schedule(&cfg, &schedule);
    let v = report
        .violation
        .expect("the harness must catch ack-before-persist");
    assert_eq!(v.invariant, "durability", "wrong invariant: {v:?}");
}

/// Same bug, but through the randomized generator: the sweep finds it too.
#[test]
fn ack_before_persist_bug_is_caught_by_random_sweep() {
    let caught = (1..=10u64).any(|seed| {
        let mut cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, seed);
        cfg.bug = Some(Bug::AckBeforePersist);
        run(&cfg).violation.is_some()
    });
    assert!(caught, "10 random schedules must include a crash+recover");
}

/// The same schedules against the real implementation pass: the bug
/// regression above is detecting the bug, not the harness tripping over
/// crashes in general.
#[test]
fn correct_implementation_passes_the_same_targeted_schedule() {
    let cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, 3);
    let schedule = vec![
        ScheduledFault {
            at_tick: 400,
            fault: Fault::Crash(2),
        },
        ScheduledFault {
            at_tick: 500,
            fault: Fault::Recover(2),
        },
    ];
    let report = run_schedule(&cfg, &schedule);
    assert_eq!(report.violation, None, "{:?}", report.violation);
}

#[test]
fn minimizer_shrinks_a_failing_schedule() {
    let mut cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, 7);
    cfg.bug = Some(Bug::AckBeforePersist);
    let report = run(&cfg);
    assert!(report.violation.is_some(), "seed 7 must fail under the bug");
    let reduced = minimize(&report.schedule, |s| {
        run_schedule(&cfg, s).violation.is_some()
    });
    assert!(reduced.len() <= report.schedule.len());
    assert!(
        run_schedule(&cfg, &reduced).violation.is_some(),
        "minimized schedule must still fail"
    );
    // 1-minimality: removing any single remaining fault loses the failure.
    for i in 0..reduced.len() {
        let mut cand = reduced.clone();
        cand.remove(i);
        assert_eq!(
            run_schedule(&cfg, &cand).violation,
            None,
            "fault {i} of the minimized schedule is removable"
        );
    }
}

/// A small clean sweep: every protocol survives randomized fault schedules
/// with no safety or bounded-liveness violation. (The CI quick gate runs a
/// larger version of this; here it guards `cargo test` alone.)
#[test]
fn clean_sweep_across_all_protocols() {
    for protocol in ALL_PROTOCOLS {
        for seed in 201..=203 {
            let report = run(&ChaosConfig::new(protocol, seed));
            assert_eq!(
                report.violation,
                None,
                "{} seed {seed}: {:?}",
                protocol.name(),
                report.violation
            );
        }
    }
}

/// Regressions the sweep itself found (each seed reproduced a real,
/// since-fixed protocol bug; the seeds replay the schedules that exposed
/// them):
///
/// * Omni seed 136 — a joiner catching up via a snapshot extending past
///   the configuration boundary started the new instance with a shifted
///   `base`, re-delivering entries at wrong positions (prefix-agreement).
/// * Omni seed 760 — a donor compacting mid-migration left joiners
///   striping segments that no longer existed anywhere; the retried
///   `StartConfig` now upgrades the migration with a snapshot pull
///   (liveness).
/// * MP seed 746 — a recovered ex-leader still marked active proposed new
///   commands into already-chosen slots below its watermark
///   (prefix-agreement).
/// * MP seed 952 — a stale same-ballot P2a overwrote a chosen slot below
///   the receiver's decision watermark (prefix-agreement).
#[test]
fn sweep_found_regressions_stay_fixed() {
    for seed in [136, 760, 1272, 1653, 1727] {
        let report = run(&ChaosConfig::new(ProtocolKind::OmniPaxos, seed));
        assert_eq!(
            report.violation, None,
            "omni seed {seed}: {:?}",
            report.violation
        );
    }
    for seed in [746, 952, 1167] {
        let report = run(&ChaosConfig::new(ProtocolKind::MultiPaxos, seed));
        assert_eq!(
            report.violation, None,
            "mp seed {seed}: {:?}",
            report.violation
        );
    }
}

/// A targeted disk-fault run: a follower's fsync fails mid-replication,
/// the server fail-stops, and a later recovery re-syncs it — with no
/// durability or agreement breach and full liveness afterwards.
#[test]
fn disk_fault_halts_then_recovery_resyncs() {
    let cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, 5);
    let schedule = vec![
        ScheduledFault {
            at_tick: 300,
            fault: Fault::DiskFault(2, StorageFaultKind::SyncFailed),
        },
        ScheduledFault {
            at_tick: 700,
            fault: Fault::Recover(2),
        },
    ];
    let report = run_schedule(&cfg, &schedule);
    assert_eq!(report.violation, None, "{:?}", report.violation);
    assert!(
        report
            .trace
            .iter()
            .any(|e| format!("{e:?}").contains("disk-fault 2")),
        "the fault must actually have fired"
    );
}

/// The worst case: the leader's disk dies. The cluster must elect around
/// it and keep deciding; the halted ex-leader recovers at the forced heal.
#[test]
fn leader_disk_fault_does_not_stall_the_cluster() {
    for kind in [
        StorageFaultKind::SyncFailed,
        StorageFaultKind::ShortWrite,
        StorageFaultKind::NoSpace,
        StorageFaultKind::Corruption,
        StorageFaultKind::CheckpointCrash,
    ] {
        let cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, 9);
        let schedule = vec![ScheduledFault {
            at_tick: 300,
            fault: Fault::DiskFaultLeader(kind),
        }];
        let report = run_schedule(&cfg, &schedule);
        assert_eq!(report.violation, None, "{kind:?}: {:?}", report.violation);
    }
}

/// Baselines have no fallible-storage model; a disk fault degrades to a
/// crash and the run must still be clean.
#[test]
fn disk_faults_degrade_to_crashes_on_baselines() {
    for protocol in [
        ProtocolKind::Raft,
        ProtocolKind::MultiPaxos,
        ProtocolKind::Vr,
    ] {
        let cfg = ChaosConfig::new(protocol, 5);
        let schedule = vec![
            ScheduledFault {
                at_tick: 300,
                fault: Fault::DiskFault(2, StorageFaultKind::SyncFailed),
            },
            ScheduledFault {
                at_tick: 700,
                fault: Fault::Recover(2),
            },
        ];
        let report = run_schedule(&cfg, &schedule);
        assert_eq!(
            report.violation,
            None,
            "{}: {:?}",
            protocol.name(),
            report.violation
        );
        assert!(
            report
                .trace
                .iter()
                .any(|e| format!("{e:?}").contains("degraded to crash")),
            "{}: the fault must degrade to a crash",
            protocol.name()
        );
    }
}

/// A small clean sweep under the disk-fault schedule profile, every
/// protocol. (The nightly job runs the 500-seed version.)
#[test]
fn disk_fault_sweep_is_clean() {
    for protocol in ALL_PROTOCOLS {
        for seed in 301..=303 {
            let mut cfg = ChaosConfig::new(protocol, seed);
            cfg.disk_faults = true;
            let report = run(&cfg);
            assert_eq!(
                report.violation,
                None,
                "{} seed {seed}: {:?}",
                protocol.name(),
                report.violation
            );
        }
    }
}

/// Disk-profile runs replay bit-identically, like every other run.
#[test]
fn disk_runs_are_deterministic() {
    let mut cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, 77);
    cfg.disk_faults = true;
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(format!("{:?}", a.trace), format!("{:?}", b.trace));
}

/// Every run replays: three runs of the same case in one process give
/// identical statistics and trace fingerprints. Peers or transactions
/// iterated in hash order would make these differ from run to run.
#[test]
fn every_run_replays() {
    let mut cases: Vec<(String, Box<dyn Fn() -> String>)> = Vec::new();
    for w in KV_WORKLOADS {
        for seed in 1..=4 {
            cases.push((
                format!("{} seed {seed}", w.name),
                Box::new(move || {
                    let r = w.run(seed);
                    assert_eq!(r.violation, None, "{} seed {seed}", w.name);
                    format!("{} {:016x}", r.stats, r.fingerprint)
                }),
            ));
        }
    }
    cases.push((
        "Omni-Paxos harness seed 13".into(),
        Box::new(|| {
            let r = run(&ChaosConfig::new(ProtocolKind::OmniPaxos, 13));
            format!("{} {:016x}", r.stats, r.fingerprint)
        }),
    ));
    for (name, case) in &cases {
        let first = case();
        for _ in 0..2 {
            assert_eq!(case(), first, "{name} does not replay");
        }
    }
}

#[test]
fn kv_store_sessions_survive_chaos() {
    let report = KV_WORKLOADS[0].run(11);
    assert_eq!(report.violation, None, "{:?}", report.violation);
    let stats = report.stats;
    assert!(
        stats.get("applied") > 0,
        "the run must actually apply commands"
    );
    assert!(
        stats.get("retries") > 0,
        "the run must actually inject retries"
    );
}

/// Cross-shard 2PC bank transfers survive chaos: balances match the
/// replicated decision log, money is conserved, and no prepare lock
/// outlives the heal. (The nightly job runs the 500-seed version; seed
/// 2 also migrates a shard mid-traffic.)
#[test]
fn cross_shard_txns_survive_chaos() {
    for seed in [1, 2] {
        let report = KV_WORKLOADS[5].run(seed);
        assert_eq!(report.violation, None, "seed {seed}");
        let stats = report.stats;
        assert!(
            stats.get("committed") > 0,
            "seed {seed}: some transfers commit"
        );
        assert!(
            stats.get("aborted_overdrawn") + stats.get("aborted_other") > 0,
            "seed {seed}: some transfers abort"
        );
        assert!(
            stats.get("cross_shard") > 0,
            "seed {seed}: workload must span shards"
        );
    }
}

/// A test-only workload whose audit fails iff node 2 was ever down.
#[derive(Default)]
struct FailsIfNodeTwoCrashed {
    crashed: bool,
}

impl Workload for FailsIfNodeTwoCrashed {
    fn shape(&self) -> Shape {
        Shape {
            shards: 1,
            compact: true,
            disk: false,
        }
    }

    fn traffic(&mut self, _t: u64, cx: &mut Cluster) {
        self.crashed |= !cx.live(1);
    }

    fn audit(&mut self, _cx: &mut Cluster) -> Result<(), Breach> {
        if !self.crashed {
            return Ok(());
        }
        Err(Breach {
            invariant: "node-2-crashed",
            detail: "node 2 was down during the fault phase".into(),
        })
    }
}

/// The kv driver reports a workload's violation, and a failing kv
/// schedule minimizes like a protocol one: to a single `Crash(2)`.
#[test]
fn kv_failures_minimize() {
    let (seed, schedule) = (1..)
        .map(|seed| (seed, generate_kv(seed, 3, driver::FAULT_TICKS, true, false)))
        .find(|(_, s)| s.len() >= 8 && s.iter().any(|f| f.fault == Fault::Crash(2)))
        .expect("some seed crashes node 2");
    let fails = |s: &[ScheduledFault]| {
        let report = driver::run(Box::new(FailsIfNodeTwoCrashed::default()), seed, s);
        report.violation.is_some()
    };
    let report = driver::run(Box::new(FailsIfNodeTwoCrashed::default()), seed, &schedule);
    let v = report.violation.expect("the driver must report the audit");
    assert_eq!(v.invariant, "node-2-crashed");
    let reduced = minimize(&schedule, fails);
    let faults: Vec<&Fault> = reduced.iter().map(|f| &f.fault).collect();
    assert_eq!(faults, [&Fault::Crash(2)], "from {} faults", schedule.len());
}
