//! Plain timing benchmarks — one section per paper table/figure plus micro
//! benches and the parallel-migration ablation.
//!
//! These are *performance* benches of the reproduction itself (engine
//! throughput, recovery latency, migration speed). The paper-shaped
//! numbers are produced by the `table1`/`fig7`/`fig8`/`fig9` binaries; the
//! benches keep regressions visible while staying fast enough for CI.
//!
//! This uses a dependency-free harness (`harness = false` + `Instant`)
//! instead of criterion so the workspace builds offline. Run with
//! `cargo bench -p bench` or `cargo bench -p bench -- --quick`.

use std::hint::black_box;
use std::time::Instant;

use cluster::client::ClientConfig;
use cluster::protocol::ProtocolKind;
use cluster::runner::{RunConfig, Runner};
use cluster::scenarios::{partition_run, Scenario};
use cluster::Fault;
use omnipaxos::{
    BallotLeaderElection, BleConfig, MemoryStorage, OmniPaxos, OmniPaxosConfig, Storage,
};
use simulator::{ms, sec};

/// Time `iters` runs of `f`, reporting mean wall-clock per iteration.
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    // One warmup iteration, excluded from timing.
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed() / iters;
    println!("{name:<44} {per_iter:>12.2?}/iter  ({iters} iters)");
}

fn iters(quick: bool, normal: u32) -> u32 {
    if quick {
        1
    } else {
        normal
    }
}

/// Fig. 7 counterpart: decided commands per simulated second, per protocol.
fn normal_execution(quick: bool) {
    for protocol in [
        ProtocolKind::OmniPaxos,
        ProtocolKind::Raft,
        ProtocolKind::MultiPaxos,
        ProtocolKind::Vr,
    ] {
        bench(
            &format!("normal_execution/{}", protocol.name()),
            iters(quick, 3),
            || {
                let config = RunConfig {
                    protocol,
                    n: 3,
                    client: ClientConfig {
                        cp: 500,
                        entry_size: 8,
                        max_inject_per_tick: 500,
                        retry_ticks: 500,
                    },
                    duration: sec(1),
                    ..Default::default()
                };
                let report = Runner::new(config).run();
                report.total_decided
            },
        );
    }
}

/// Fig. 8 counterpart: recovery from the quorum-loss partition.
fn partition_recovery(quick: bool) {
    for (name, protocol) in [
        ("omni-paxos", ProtocolKind::OmniPaxos),
        ("raft-pv-cq", ProtocolKind::RaftPvCq),
    ] {
        bench(
            &format!("partition_recovery/{name}"),
            iters(quick, 3),
            || {
                let o = partition_run(protocol, Scenario::QuorumLoss, ms(20), sec(2), 3);
                o.downtime_us
            },
        );
    }
}

/// Fig. 9 / §6.1 ablation: parallel vs leader-only log migration. The
/// measured quantity is a whole short reconfiguration run.
fn reconfiguration_migration(quick: bool) {
    for (name, protocol) in [
        ("parallel", ProtocolKind::OmniPaxos),
        ("leader-only", ProtocolKind::OmniPaxosLeaderMigration),
        ("raft-leader-driven", ProtocolKind::Raft),
    ] {
        bench(
            &format!("reconfiguration_migration/{name}"),
            iters(quick, 3),
            || {
                let config = RunConfig {
                    protocol,
                    n: 5,
                    joiners: 1,
                    client: ClientConfig {
                        cp: 500,
                        entry_size: 8,
                        max_inject_per_tick: 50,
                        retry_ticks: 500,
                    },
                    election_timeout_us: ms(20),
                    nic_bytes_per_sec: Some(25_000_000),
                    duration: sec(8),
                    initial_log: 50_000,
                    initial_entry_size: 160,
                    window_us: sec(1),
                    schedule: vec![(sec(2), Fault::ReconfigureTo(vec![2, 3, 4, 5, 6]))],
                    ..Default::default()
                };
                let report = Runner::new(config).run();
                report.reconfig_done_at
            },
        );
    }
}

/// Micro: Sequence Paxos replication throughput without the network
/// harness — three replicas driven directly.
fn sequence_paxos_micro(quick: bool) {
    bench("sequence_paxos_replicate_10k", iters(quick, 10), || {
        let nodes = vec![1u64, 2, 3];
        let mut replicas: Vec<OmniPaxos<u64, MemoryStorage<u64>>> = nodes
            .iter()
            .map(|&pid| {
                OmniPaxos::new(
                    OmniPaxosConfig::with(1, pid, nodes.clone()),
                    MemoryStorage::new(),
                )
            })
            .collect();
        let deliver = |replicas: &mut Vec<OmniPaxos<u64, MemoryStorage<u64>>>| {
            for _ in 0..12 {
                for i in 0..replicas.len() {
                    replicas[i].tick();
                    for m in replicas[i].outgoing_messages() {
                        let to = m.to() as usize - 1;
                        replicas[to].handle_message(m);
                    }
                }
            }
        };
        deliver(&mut replicas);
        let leader = replicas.iter().position(|r| r.is_leader()).expect("leader");
        for v in 0..10_000u64 {
            replicas[leader].append(v).expect("append");
        }
        deliver(&mut replicas);
        replicas[leader].decided_idx()
    });
}

/// Micro: one full BLE heartbeat round for a 5-server cluster.
fn ble_micro(quick: bool) {
    let nodes: Vec<u64> = (1..=5).collect();
    let mut bles: Vec<BallotLeaderElection> = nodes
        .iter()
        .map(|&pid| BallotLeaderElection::new(BleConfig::with(pid, &nodes, 1)))
        .collect();
    bench("ble_round_5_servers", iters(quick, 1_000), || {
        for i in 0..bles.len() {
            let _ = bles[i].tick();
            for m in bles[i].outgoing_messages() {
                let to = m.to as usize - 1;
                bles[to].handle_message(m);
            }
        }
        bles[0].leader()
    });
}

/// Micro: storage append / read / trim cycle.
fn storage_micro(quick: bool) {
    bench("storage_append_read_trim_10k", iters(quick, 50), || {
        let mut s: MemoryStorage<u64> = MemoryStorage::new();
        for v in 0..10_000u64 {
            s.append_entry(omnipaxos::LogEntry::Normal(v))
                .expect("append");
        }
        s.set_decided_idx(10_000).expect("decide");
        let mid = s.get_entries(4_000, 6_000);
        s.trim(8_000).expect("trim");
        (mid.len(), s.get_suffix(9_000).len())
    });
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    normal_execution(quick);
    partition_recovery(quick);
    reconfiguration_migration(quick);
    sequence_paxos_micro(quick);
    ble_micro(quick);
    storage_micro(quick);
}
