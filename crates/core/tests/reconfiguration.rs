//! Service-layer reconfiguration tests (§6): stop-signs, configuration
//! handover, and parallel/leader-only log migration to new servers.

mod common;

use common::TestCluster;
use omnipaxos::service::ServerRole;
use omnipaxos::{MigrationScheme, NodeId};

const SETTLE: usize = 400;

/// Bootstrap a 3-server cluster with `n_entries` decided entries.
fn warmed_cluster(n_entries: u64) -> TestCluster {
    let mut c = TestCluster::new(3);
    c.run_until(SETTLE, |c| c.leader_pid().is_some());
    for v in 0..n_entries {
        c.propose_via_leader(v);
    }
    c.run_until(SETTLE, |c| {
        c.servers
            .iter()
            .all(|s| s.log().count() == n_entries as usize)
    });
    c
}

#[test]
fn stop_sign_blocks_further_proposals() {
    let mut c = warmed_cluster(5);
    let leader = c.leader_pid().unwrap();
    c.server(leader).reconfigure(vec![1, 2, 3]).unwrap();
    // Proposals after the stop-sign are buffered, not lost.
    c.server(leader).propose(100).unwrap();
    c.run_until(SETTLE, |c| c.servers.iter().all(|s| s.config_id() == 2));
    // The buffered proposal lands in configuration 2.
    c.run_until(SETTLE, |c| c.servers.iter().all(|s| s.log().count() == 6));
    assert_eq!(c.servers[0].log().last(), Some(&100));
}

#[test]
fn replace_one_server_with_parallel_migration() {
    let mut c = warmed_cluster(50);
    c.add_joiner(4);
    let leader = c.leader_pid().unwrap();
    // Keep the leader; replace one follower with server 4.
    let replaced = (1..=3).find(|&p| p != leader).unwrap();
    let new_nodes: Vec<NodeId> = (1..=4).filter(|&p| p != replaced).collect();
    c.server(leader).reconfigure(new_nodes.clone()).unwrap();
    c.run_until(SETTLE, |c| {
        c.servers[3].role() == ServerRole::Active && c.servers[3].log().count() == 50
    });
    assert_eq!(c.server(replaced).role(), ServerRole::Retired);
    assert_eq!(c.server(4).config_id(), 2);
    // The new configuration can decide entries.
    c.run_until(SETTLE, |c| {
        c.servers
            .iter()
            .filter(|s| new_nodes.contains(&s.pid()))
            .any(|s| s.is_leader())
    });
    let new_leader = c
        .servers
        .iter()
        .filter(|s| new_nodes.contains(&s.pid()) && s.is_leader())
        .max_by_key(|s| s.leader())
        .unwrap()
        .pid();
    c.server(new_leader).propose(999).unwrap();
    c.run_until(SETTLE, |c| {
        c.servers
            .iter()
            .filter(|s| new_nodes.contains(&s.pid()))
            .all(|s| s.log().last() == Some(&999))
    });
    c.assert_log_prefixes();
}

#[test]
fn replace_majority_of_servers() {
    let mut c = warmed_cluster(30);
    c.add_joiner(4);
    c.add_joiner(5);
    let leader = c.leader_pid().unwrap();
    // Keep only the leader from the old configuration.
    let new_nodes: Vec<NodeId> = vec![leader, 4, 5];
    c.server(leader).reconfigure(new_nodes.clone()).unwrap();
    c.run_until(800, |c| {
        c.servers[3].role() == ServerRole::Active
            && c.servers[4].role() == ServerRole::Active
            && c.servers[3].log().count() == 30
            && c.servers[4].log().count() == 30
    });
    // New configuration makes progress.
    c.run_until(SETTLE, |c| {
        c.servers
            .iter()
            .filter(|s| new_nodes.contains(&s.pid()))
            .any(|s| s.is_leader())
    });
    c.assert_log_prefixes();
}

#[test]
fn leader_only_migration_also_completes() {
    let mut c = TestCluster::with_scheme(3, MigrationScheme::LeaderOnly);
    c.run_until(SETTLE, |c| c.leader_pid().is_some());
    for v in 0..40 {
        c.propose_via_leader(v);
    }
    c.run_until(SETTLE, |c| c.servers.iter().all(|s| s.log().count() == 40));
    c.add_joiner(4);
    let leader = c.leader_pid().unwrap();
    let mut new_nodes: Vec<NodeId> = vec![4];
    new_nodes.extend((1..=3).filter(|&p| p != leader).take(2));
    new_nodes.push(leader);
    c.server(leader).reconfigure(new_nodes).unwrap();
    c.run_until(800, |c| {
        c.servers[3].role() == ServerRole::Active && c.servers[3].log().count() == 40
    });
}

#[test]
fn migration_survives_a_dead_donor() {
    // The paper's resilience argument (§6.1): a new server can fetch the
    // log from *any* server, so one unreachable donor must not block the
    // reconfiguration.
    let mut c = warmed_cluster(60);
    c.add_joiner(4);
    let leader = c.leader_pid().unwrap();
    let dead_donor = (1..=3).find(|&p| p != leader).unwrap();
    // The joiner cannot talk to one old server at all.
    c.cut_link(4, dead_donor);
    let new_nodes: Vec<NodeId> = (1..=4).filter(|&p| p != dead_donor).collect();
    c.server(leader).reconfigure(new_nodes).unwrap();
    c.run_until(2000, |c| {
        c.servers[3].role() == ServerRole::Active && c.servers[3].log().count() == 60
    });
    c.assert_log_prefixes();
}

#[test]
fn chained_reconfigurations() {
    let mut c = warmed_cluster(10);
    c.add_joiner(4);
    c.add_joiner(5);
    let leader = c.leader_pid().unwrap();
    let keep: Vec<NodeId> = (1..=3).filter(|&p| p != leader).collect();
    // c_1 {1,2,3} -> c_2 {keep[0], keep[1], 4}.
    let second = vec![keep[0], keep[1], 4];
    c.server(leader).reconfigure(second.clone()).unwrap();
    c.run_until(800, |c| {
        second
            .iter()
            .all(|&p| c.servers[p as usize - 1].config_id() == 2)
    });
    // c_2 -> c_3 {keep[0], 4, 5}.
    c.run_until(SETTLE, |c| {
        c.servers
            .iter()
            .filter(|s| second.contains(&s.pid()))
            .any(|s| s.is_leader())
    });
    let l2 = c
        .servers
        .iter()
        .filter(|s| second.contains(&s.pid()) && s.is_leader())
        .max_by_key(|s| s.leader())
        .unwrap()
        .pid();
    let third = vec![keep[0], 4, 5];
    c.server(l2).reconfigure(third.clone()).unwrap();
    c.run_until(1200, |c| {
        third
            .iter()
            .all(|&p| c.servers[p as usize - 1].config_id() == 3)
    });
    assert_eq!(c.server(5).log().count(), 10);
    c.assert_log_prefixes();
}

#[test]
fn proposals_during_migration_are_buffered_and_flushed() {
    let mut c = warmed_cluster(20);
    c.add_joiner(4);
    let leader = c.leader_pid().unwrap();
    let replaced = (1..=3).find(|&p| p != leader).unwrap();
    let new_nodes: Vec<NodeId> = (1..=4).filter(|&p| p != replaced).collect();
    c.server(leader).reconfigure(new_nodes.clone()).unwrap();
    // Keep proposing at the leader throughout the switch.
    for v in 1000..1020 {
        c.server(leader).propose(v).unwrap();
        c.step();
    }
    c.run_until(1200, |c| {
        c.servers
            .iter()
            .filter(|s| new_nodes.contains(&s.pid()))
            .all(|s| s.log().count() == 40)
    });
    let log = c.servers[leader as usize - 1]
        .log()
        .copied()
        .collect::<Vec<_>>();
    assert_eq!(&log[20..], &(1000..1020).collect::<Vec<u64>>()[..]);
}
