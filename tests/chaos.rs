//! Sequence Consensus safety under arbitrary partial partitions, heals,
//! crashes and proposals — pinned seed ranges of the chaos harness, which
//! runs on the same simulated loop as the paper's figures
//! (`cluster::Runner`).
//!
//! For every generated fault schedule, the paper's safety properties (§4)
//! must hold after every tick:
//!
//! * **SC1 Validity** — decided logs contain only proposed commands;
//! * **SC2 Uniform Agreement** — decided logs are prefixes of one another;
//! * **SC3 Integrity** — a server's decided log only grows by extension
//!   (no decided position is ever rewritten or lost, across crashes too).
//!
//! Half of the commands are handed to a follower, which buffers and
//! forwards them to its leader. After the schedule every link heals and
//! every server recovers; fresh probe commands must then decide at every
//! server within a bound.

use chaos::{run, ChaosConfig, ChaosReport};
use cluster::ProtocolKind;

fn omni_paxos(n: usize, seed: u64) -> ChaosReport {
    let mut cfg = ChaosConfig::new(ProtocolKind::OmniPaxos, seed);
    cfg.n = n;
    run(&cfg)
}

fn assert_clean(n: usize, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let report = omni_paxos(n, seed);
        assert_eq!(report.violation, None, "n={n} seed {seed}");
    }
}

/// Safety holds for any chaos schedule on a 3-server cluster.
#[test]
fn sequence_consensus_safety_3() {
    assert_clean(3, 0x5AFE3..0x5AFE3 + 48);
}

/// Safety holds for any chaos schedule on a 5-server cluster.
#[test]
fn sequence_consensus_safety_5() {
    assert_clean(5, 0x5AFE5..0x5AFE5 + 48);
}

/// Liveness after healing: once fully connected and everyone recovered,
/// the cluster converges and decides new proposals at every server.
#[test]
fn converges_after_healing() {
    for seed in 0xC0471..0xC0471 + 24 {
        let report = omni_paxos(3, seed);
        assert_eq!(report.violation, None, "seed {seed}");
        assert!(
            report.stats.get("converge_ticks") > 0,
            "seed {seed}: the probes must decide everywhere after the heal"
        );
        assert!(report.stats.get("decided_positions") > 0, "seed {seed}");
    }
}
