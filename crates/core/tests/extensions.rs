//! Tests for the paper's §8 extensions: half-duplex partial connectivity
//! and connectivity-prioritized takeover ballots.

mod common;

use common::TestCluster;
use omnipaxos::NodeId;

const SETTLE: usize = 400;

// ----------------------------------------------------------------------
// Half-duplex links (§8): BLE's request/reply heartbeats only count
// full-duplex connectivity, so a leader that can send but not receive
// (or vice versa) is correctly not quorum-connected.
// ----------------------------------------------------------------------

#[test]
fn half_duplex_leader_loses_quorum_connectivity_and_is_replaced() {
    let mut c = TestCluster::new(3);
    c.run_until(SETTLE, |c| c.leader_pid().is_some());
    let leader = c.leader_pid().unwrap();
    for v in 1..=3 {
        c.propose_via_leader(v);
    }
    c.run_until(SETTLE, |c| c.servers.iter().all(|s| s.log().count() == 3));
    // Break only the *inbound* direction of both of the leader's links:
    // the leader can still send heartbeat requests, but no replies reach
    // it, so it is not full-duplex quorum-connected.
    for other in (1..=3).filter(|&p| p != leader) {
        c.cut_directed(other, leader);
    }
    // The followers still hear the leader; without the QC flag in its
    // heartbeats they would keep trusting it. BLE's request/reply design
    // makes the leader detect the loss itself and give up leadership.
    c.run_until(SETTLE, |c| {
        c.servers.iter().any(|s| s.is_leader() && s.pid() != leader)
    });
    let new_leader = c
        .servers
        .iter()
        .filter(|s| s.is_leader() && s.pid() != leader)
        .max_by_key(|s| s.leader())
        .unwrap()
        .pid();
    c.server(new_leader).propose(4).unwrap();
    c.run_until(SETTLE, |c| {
        c.servers.iter().filter(|s| s.log().count() == 4).count() >= 2
    });
    c.assert_log_prefixes();
}

#[test]
fn half_duplex_follower_link_does_not_disturb_leadership() {
    // Losing one direction of a follower<->follower link leaves the leader
    // quorum-connected: no leader change may occur.
    let mut c = TestCluster::new(3);
    c.run_until(SETTLE, |c| c.leader_pid().is_some());
    let leader = c.leader_pid().unwrap();
    let followers: Vec<NodeId> = (1..=3).filter(|&p| p != leader).collect();
    c.cut_directed(followers[0], followers[1]);
    let ballot_before = c.server(leader).leader();
    c.run(SETTLE);
    assert_eq!(
        c.server(leader).leader(),
        ballot_before,
        "leadership must not churn on a follower half-duplex failure"
    );
    c.propose_via_leader(1);
    c.run_until(SETTLE, |c| c.servers.iter().all(|s| s.log().eq(&[1])));
}

// ----------------------------------------------------------------------
// Connectivity-prioritized ballots (§8)
// ----------------------------------------------------------------------

#[test]
fn takeover_prefers_the_better_connected_candidate() {
    // Five servers with connectivity priority; the leader gets fully
    // partitioned. Two QC candidates remain, one seeing 4 servers, one
    // seeing 3: the better-connected must win, even with a lower pid.
    let mut c = TestCluster::with_config(5, |cfg| cfg.connectivity_priority = true);
    c.run_until(SETTLE, |c| c.leader_pid().is_some());
    let leader = c.leader_pid().unwrap();
    let others: Vec<NodeId> = (1..=5).filter(|&p| p != leader).collect();
    let (well, poorly) = (others[0], others[3]);
    // Shape: `well` stays connected to all three other survivors;
    // `poorly` loses one more link (to others[1]) so it sees only 3 of 5;
    // both remain QC.
    c.isolate(leader);
    c.cut_link(poorly, others[1]);
    c.run_until(SETTLE, |c| {
        c.servers.iter().any(|s| s.is_leader() && s.pid() != leader)
    });
    c.run(100); // settle any takeover race
    let final_leader = c
        .servers
        .iter()
        .filter(|s| s.is_leader() && s.pid() != leader)
        .max_by_key(|s| s.leader())
        .unwrap()
        .pid();
    assert_ne!(final_leader, poorly, "the weakly connected candidate lost");
    // Progress with the new leader.
    c.server(final_leader).propose(7).unwrap();
    c.run_until(SETTLE, |c| {
        c.servers.iter().filter(|s| s.log().eq(&[7])).count() >= 3
    });
    let _ = well;
}

#[test]
fn connectivity_priority_does_not_affect_stable_leadership() {
    // §8: the extension only breaks ties during takeover; a stable leader
    // is never preempted just because someone is better connected.
    let mut c = TestCluster::with_config(5, |cfg| cfg.connectivity_priority = true);
    c.run_until(SETTLE, |c| c.leader_pid().is_some());
    let leader = c.leader_pid().unwrap();
    // Degrade the leader's connectivity to exactly a majority (itself + 2):
    // it stays QC, so nothing may change.
    let others: Vec<NodeId> = (1..=5).filter(|&p| p != leader).collect();
    c.cut_link(leader, others[0]);
    c.cut_link(leader, others[1]);
    let ballot_before = c.server(leader).leader();
    c.run(SETTLE);
    assert_eq!(
        c.server(leader).leader(),
        ballot_before,
        "a QC leader must not be preempted by better-connected servers"
    );
}
