//! Integration tests asserting the paper's Table 1: which protocols make
//! stable progress under each partial-connectivity scenario.
//!
//! Each test runs the full simulation (warmup, partition injection, heal)
//! and asserts the qualitative outcome — ✓ (stable progress) or ✗
//! (unavailable) — exactly as the table states. Down-times are additionally
//! bounded in units of election timeouts where the paper claims constants.

use cluster::protocol::ProtocolKind;
use cluster::scenarios::{partition_run, PartitionOutcome, Scenario};
use simulator::{ms, sec};

const TIMEOUT: u64 = ms(50);
const PARTITION: u64 = sec(6);

fn run(protocol: ProtocolKind, scenario: Scenario) -> PartitionOutcome {
    partition_run(protocol, scenario, TIMEOUT, PARTITION, 7)
}

// ----------------------------------------------------------------------
// Quorum-loss scenario (Table 1 column 1, Fig. 8a)
// ----------------------------------------------------------------------

#[test]
fn quorum_loss_omni_paxos_recovers_in_constant_time() {
    let o = run(ProtocolKind::OmniPaxos, Scenario::QuorumLoss);
    assert!(o.recovered_during_partition, "{o:?}");
    // Paper: ~4 heartbeat rounds; allow a margin for round phase.
    assert!(
        o.downtime_us <= 6 * TIMEOUT,
        "downtime {}us exceeds 6 election timeouts",
        o.downtime_us
    );
}

#[test]
fn quorum_loss_raft_recovers() {
    let o = run(ProtocolKind::Raft, Scenario::QuorumLoss);
    assert!(o.recovered_during_partition, "{o:?}");
    // The paper reports repeated term increments by disconnected followers.
    assert!(o.final_rank > 1, "expected term inflation, got {o:?}");
}

#[test]
fn quorum_loss_raft_pv_cq_recovers() {
    let o = run(ProtocolKind::RaftPvCq, Scenario::QuorumLoss);
    assert!(o.recovered_during_partition, "{o:?}");
}

#[test]
fn quorum_loss_multipaxos_deadlocks() {
    let o = run(ProtocolKind::MultiPaxos, Scenario::QuorumLoss);
    // The QC server keeps receiving heartbeats from the stale leader and
    // never campaigns; nobody else can win (§7.2).
    assert!(!o.recovered_during_partition, "{o:?}");
    assert_eq!(o.decided_during, 0, "{o:?}");
}

#[test]
fn quorum_loss_vr_deadlocks() {
    let o = run(ProtocolKind::Vr, Scenario::QuorumLoss);
    // EQC cannot be satisfied with a single QC server.
    assert!(!o.recovered_during_partition, "{o:?}");
    assert_eq!(o.decided_during, 0, "{o:?}");
}

// ----------------------------------------------------------------------
// Constrained-election scenario (Table 1 column 2, Fig. 8b)
// ----------------------------------------------------------------------

#[test]
fn constrained_omni_paxos_elects_outdated_qc_server() {
    let o = run(ProtocolKind::OmniPaxos, Scenario::ConstrainedElection);
    assert!(o.recovered_during_partition, "{o:?}");
    // Paper: constant ~3 timeouts, shorter than quorum-loss.
    assert!(
        o.downtime_us <= 5 * TIMEOUT,
        "downtime {}us exceeds 5 election timeouts",
        o.downtime_us
    );
}

#[test]
fn constrained_multipaxos_recovers() {
    let o = run(ProtocolKind::MultiPaxos, Scenario::ConstrainedElection);
    assert!(o.recovered_during_partition, "{o:?}");
}

#[test]
fn constrained_raft_deadlocks_on_max_log_requirement() {
    let o = run(ProtocolKind::Raft, Scenario::ConstrainedElection);
    // The only QC server has an outdated log and is denied votes; the
    // up-to-date servers are not QC. Terms inflate with futile campaigns.
    assert!(!o.recovered_during_partition, "{o:?}");
    assert!(o.final_rank > 10, "expected futile campaigns, got {o:?}");
}

#[test]
fn constrained_raft_pv_cq_deadlocks() {
    let o = run(ProtocolKind::RaftPvCq, Scenario::ConstrainedElection);
    assert!(!o.recovered_during_partition, "{o:?}");
}

#[test]
fn constrained_vr_deadlocks() {
    let o = run(ProtocolKind::Vr, Scenario::ConstrainedElection);
    assert!(!o.recovered_during_partition, "{o:?}");
}

// ----------------------------------------------------------------------
// Chained scenario (Table 1 column 3, Fig. 8c)
// ----------------------------------------------------------------------

#[test]
fn chained_omni_paxos_single_leader_change_and_full_throughput() {
    let o = run(ProtocolKind::OmniPaxos, Scenario::Chained);
    assert!(o.recovered_during_partition, "{o:?}");
    // One leader change when the partition hits (§7.2 / Fig. 5c); the
    // initial election counts as the first change.
    assert_eq!(o.leader_changes, 2, "{o:?}");
}

#[test]
fn chained_raft_pv_cq_no_leader_changes() {
    let o = run(ProtocolKind::RaftPvCq, Scenario::Chained);
    assert!(o.recovered_during_partition, "{o:?}");
    // PreVote: A never votes for another server while its leader is alive
    // (§7.2) — no change beyond the initial election.
    assert!(o.leader_changes <= 1, "{o:?}");
}

#[test]
fn chained_raft_recovers_with_term_inflation() {
    let o = run(ProtocolKind::Raft, Scenario::Chained);
    assert!(o.recovered_during_partition, "{o:?}");
    assert!(o.final_rank > 1, "{o:?}");
}

#[test]
fn chained_multipaxos_livelocks_with_reduced_throughput() {
    let mp = run(ProtocolKind::MultiPaxos, Scenario::Chained);
    let omni = run(ProtocolKind::OmniPaxos, Scenario::Chained);
    // Paper: up to 30 % fewer decided requests and many leader changes.
    assert!(
        (mp.decided_during as f64) < 0.95 * omni.decided_during as f64,
        "Multi-Paxos should decide measurably less: {} vs {}",
        mp.decided_during,
        omni.decided_during
    );
    assert!(
        mp.leader_changes >= 5,
        "expected the preemption livelock: {mp:?}"
    );
    // But unlike the deadlock scenarios it keeps making progress.
    assert!(mp.recovered_during_partition, "{mp:?}");
}

#[test]
fn chained_vr_recovers_after_round_robin_view_changes() {
    let o = run(ProtocolKind::Vr, Scenario::Chained);
    assert!(o.recovered_during_partition, "{o:?}");
}

// ----------------------------------------------------------------------
// Cross-scenario: Omni-Paxos is the only all-✓ row (Table 1)
// ----------------------------------------------------------------------

#[test]
fn omni_paxos_is_the_only_protocol_recovering_everywhere() {
    let mut all_green = Vec::new();
    for p in ProtocolKind::partition_lineup() {
        let ok = [
            Scenario::QuorumLoss,
            Scenario::ConstrainedElection,
            Scenario::Chained,
        ]
        .iter()
        .all(|&s| run(p, s).recovered_during_partition);
        if ok {
            all_green.push(p.name());
        }
    }
    assert_eq!(all_green, vec!["Omni-Paxos"]);
}

// ----------------------------------------------------------------------
// Five-server chain (§2c's general argument; the table's chained column)
// ----------------------------------------------------------------------

#[test]
fn chained_five_omni_paxos_stays_stable() {
    let o = run(ProtocolKind::OmniPaxos, Scenario::ChainedFive);
    assert!(o.recovered_during_partition, "{o:?}");
    assert!(o.leader_changes <= 2, "{o:?}");
}

#[test]
fn chained_five_raft_pv_cq_stays_stable() {
    let o = run(ProtocolKind::RaftPvCq, Scenario::ChainedFive);
    assert!(o.recovered_during_partition, "{o:?}");
    assert!(o.leader_changes <= 2, "{o:?}");
}

#[test]
fn chained_five_raft_livelocks() {
    let o = run(ProtocolKind::Raft, Scenario::ChainedFive);
    // The end servers never hear a leader and disrupt with rising terms.
    assert!(o.leader_changes >= 10, "{o:?}");
    let omni = run(ProtocolKind::OmniPaxos, Scenario::ChainedFive);
    assert!(
        (o.decided_during as f64) < 0.8 * omni.decided_during as f64,
        "raft {} vs omni {}",
        o.decided_during,
        omni.decided_during
    );
}

#[test]
fn chained_five_multipaxos_and_vr_livelock() {
    for p in [ProtocolKind::MultiPaxos, ProtocolKind::Vr] {
        let o = run(p, Scenario::ChainedFive);
        assert!(o.leader_changes >= 10, "{o:?}");
    }
}

// ----------------------------------------------------------------------
// Figure 8's shape claims, at the figure's own settings: a refreshed
// results_fig8.txt is a refresh, not a regression, only while these hold
// ----------------------------------------------------------------------

/// The first of the seeds `fig8` averages over. The Omni-Paxos and
/// Multi-Paxos rows these tests read have zero spread across the
/// figure's seeds, so one seed gives the figure's mean at a third of the
/// cost.
const FIG8_SEED: u64 = 11;

#[test]
fn fig8a_omni_paxos_downtime_is_about_three_election_timeouts() {
    for timeout in [ms(10), ms(50), ms(500)] {
        let o = partition_run(
            ProtocolKind::OmniPaxos,
            Scenario::QuorumLoss,
            timeout,
            sec(12),
            FIG8_SEED,
        );
        let timeouts = o.downtime_us as f64 / timeout as f64;
        assert!(
            (3.0..=3.5).contains(&timeouts),
            "timeout {timeout}us: down for {timeouts:.3} election timeouts"
        );
    }
}

#[test]
fn fig8c_multipaxos_decides_a_fifth_to_a_third_less_than_omni_paxos() {
    for partition in [sec(10), sec(20), sec(40)] {
        let decided = |p| {
            partition_run(p, Scenario::Chained, TIMEOUT, partition, FIG8_SEED).decided_during as f64
        };
        let (mp, omni) = (
            decided(ProtocolKind::MultiPaxos),
            decided(ProtocolKind::OmniPaxos),
        );
        let fewer = 1.0 - mp / omni;
        assert!(
            (0.20..=0.35).contains(&fewer),
            "partition {partition}us: Multi-Paxos decided {:.1} % fewer",
            fewer * 100.0
        );
    }
}
