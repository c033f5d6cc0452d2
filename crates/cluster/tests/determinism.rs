//! Determinism of the full harness: the zero-copy hot path (shared
//! batches, cached donor segments, WAL group commit) must not introduce
//! any schedule- or allocation-dependent behaviour — two runs with the
//! same seed must produce byte-identical observable results.

use cluster::client::ClientConfig;
use cluster::protocol::ProtocolKind;
use cluster::runner::{RunConfig, Runner};
use cluster::Fault;
use cluster::RunReport;
use simulator::{ms, sec};

fn config(seed: u64) -> RunConfig {
    RunConfig {
        protocol: ProtocolKind::OmniPaxos,
        n: 5,
        client: ClientConfig {
            cp: 20,
            entry_size: 8,
            max_inject_per_tick: 20,
            retry_ticks: 100,
        },
        election_timeout_us: ms(20),
        duration: sec(6),
        window_us: sec(1),
        gap_threshold_us: ms(40),
        // A partial partition plus heal mid-run exercises elections,
        // resynchronization (AcceptSync) and retransmissions.
        schedule: vec![(sec(2), Fault::QuorumLoss), (sec(4), Fault::HealAll)],
        seed,
        ..Default::default()
    }
}

type Observables = (u64, u64, u64, Vec<(u64, u64)>, Vec<(u64, u64)>, u64);

fn observables(r: &RunReport) -> Observables {
    (
        r.total_decided,
        r.leader_changes,
        r.final_rank,
        r.bytes_sent.clone(),
        r.peak_window_bytes.clone(),
        r.decides.total(),
    )
}

#[test]
fn same_seed_reproduces_the_run_exactly() {
    let a = Runner::new(config(42)).run();
    let b = Runner::new(config(42)).run();
    assert_eq!(
        observables(&a),
        observables(&b),
        "fixed-seed runs must be identical"
    );
}

#[test]
fn different_seeds_still_decide_everything_submitted() {
    // Sanity companion: determinism is per seed, not degenerate identity
    // of the workload — different seeds may produce different schedules,
    // but each run is self-consistent and makes progress.
    let a = Runner::new(config(7)).run();
    assert!(a.total_decided > 0, "run must make progress");
}
