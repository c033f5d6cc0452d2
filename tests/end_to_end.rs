//! Cross-crate end-to-end tests: the replicated KV service running over
//! the simulator, surviving the paper's partial partitions, and the full
//! reconfiguration pipeline through the cluster harness.

use kvstore::{KvCommand, KvNode, KvOp};
use omnipaxos::NodeId;
use simulator::{ms, Network, NetworkConfig};

/// KV cluster over the real simulator (latency, FIFO, partitions).
struct KvSim {
    nodes: Vec<KvNode>,
    net: Network<omnipaxos::ServiceMsg<KvCommand>>,
}

impl KvSim {
    fn new(n: usize) -> Self {
        let ids: Vec<NodeId> = (1..=n as NodeId).collect();
        KvSim {
            nodes: ids.iter().map(|&p| KvNode::new(p, ids.clone())).collect(),
            net: Network::new(NetworkConfig {
                nodes: ids,
                default_latency_us: 100,
                ..Default::default()
            }),
        }
    }

    fn step(&mut self) {
        let next = self.net.now() + ms(1);
        while let Some(d) = self.net.pop_next_before(next) {
            self.nodes[(d.dst - 1) as usize].handle(d.src, d.msg);
        }
        self.net.advance_to(next);
        for n in &mut self.nodes {
            n.tick();
        }
        for i in 0..self.nodes.len() {
            let from = (i + 1) as NodeId;
            for (to, msg) in self.nodes[i].outgoing() {
                let bytes = msg.size_bytes();
                self.net.send(from, to, bytes, msg);
            }
        }
    }

    fn run_until(&mut self, max: usize, mut pred: impl FnMut(&Self) -> bool) {
        for _ in 0..max {
            if pred(self) {
                return;
            }
            self.step();
        }
        panic!("condition not reached in {max} steps");
    }

    fn leader(&self) -> Option<usize> {
        self.nodes.iter().position(|n| n.is_leader())
    }
}

#[test]
fn kv_store_survives_chained_partition() {
    let mut sim = KvSim::new(3);
    sim.run_until(500, |s| s.leader().is_some());
    let li = sim.leader().unwrap();
    // Write some state.
    for seq in 1..=5u64 {
        sim.nodes[li]
            .submit(KvCommand {
                client: 1,
                seq,
                op: KvOp::Add {
                    key: "counter".into(),
                    delta: 1,
                },
            })
            .unwrap();
    }
    sim.run_until(500, |s| {
        s.nodes.iter().all(|n| n.read_local("counter") == Some(5))
    });
    // Chained partition: cut the leader from one follower.
    let leader_pid = (li + 1) as NodeId;
    let other = (1..=3u64).find(|&p| p != leader_pid).unwrap();
    sim.net.links_mut().set_link(leader_pid, other, false);
    // Find whoever can still commit and write through it.
    for _ in 0..500 {
        sim.step();
    }
    let writer = {
        let mut best: Option<(usize, omnipaxos::Ballot)> = None;
        for i in 0..sim.nodes.len() {
            if sim.nodes[i].is_leader() {
                let ballot = sim.nodes[i].server().leader().expect("leader has ballot");
                if best.is_none_or(|(_, b)| ballot > b) {
                    best = Some((i, ballot));
                }
            }
        }
        best.expect("a leader exists during the chained partition")
            .0
    };
    sim.nodes[writer]
        .submit(KvCommand {
            client: 1,
            seq: 6,
            op: KvOp::Put {
                key: "during".into(),
                value: 1,
            },
        })
        .unwrap();
    sim.run_until(1_000, |s| {
        s.nodes
            .iter()
            .filter(|n| n.read_local("during") == Some(1))
            .count()
            >= 2
    });
    // Heal; everyone converges.
    sim.net.links_mut().set_link(leader_pid, other, true);
    sim.nodes[(leader_pid - 1) as usize]
        .server()
        .reconnected(other);
    sim.nodes[(other - 1) as usize]
        .server()
        .reconnected(leader_pid);
    sim.run_until(1_000, |s| {
        s.nodes
            .iter()
            .all(|n| n.read_local("counter") == Some(5) && n.read_local("during") == Some(1))
    });
    // All state machines identical.
    let reference = sim.nodes[0].state().clone();
    for n in &sim.nodes[1..] {
        assert_eq!(n.state(), &reference);
    }
}

#[test]
fn kv_store_linearizable_read_after_partition_heal() {
    let mut sim = KvSim::new(3);
    sim.run_until(500, |s| s.leader().is_some());
    let li = sim.leader().unwrap();
    sim.nodes[li]
        .submit(KvCommand {
            client: 7,
            seq: 1,
            op: KvOp::Put {
                key: "x".into(),
                value: 99,
            },
        })
        .unwrap();
    sim.run_until(500, |s| s.nodes.iter().all(|n| n.read_local("x").is_some()));
    // Linearizable read goes through the log and returns the value.
    sim.nodes[li].read_linearizable(7, 2, "x").unwrap();
    sim.run_until(500, |s| {
        // read marker decided everywhere
        s.nodes.iter().all(|n| n.read_local("x") == Some(99))
    });
    for _ in 0..50 {
        sim.step();
    }
    let results = sim.nodes[li].take_results();
    let read = results
        .iter()
        .find(|r| r.client == 7 && r.seq == 2)
        .expect("read result");
    assert_eq!(read.value, Some(99));
}

#[test]
fn cluster_harness_runs_all_protocols_through_one_interface() {
    use cluster::client::ClientConfig;
    use cluster::protocol::ProtocolKind;
    use cluster::runner::{RunConfig, Runner};
    use simulator::sec;

    // Smoke: every protocol adapter reaches steady state on the same
    // workload through the same harness.
    for protocol in [
        ProtocolKind::OmniPaxos,
        ProtocolKind::Raft,
        ProtocolKind::RaftPvCq,
        ProtocolKind::MultiPaxos,
        ProtocolKind::Vr,
    ] {
        let config = RunConfig {
            protocol,
            n: 3,
            client: ClientConfig {
                cp: 50,
                entry_size: 8,
                max_inject_per_tick: 50,
                retry_ticks: 200,
            },
            duration: sec(3),
            ..Default::default()
        };
        let report = Runner::new(config).run();
        assert!(
            report.total_decided > 10_000,
            "{}: only {} decided",
            report.protocol,
            report.total_decided
        );
    }
}

#[test]
fn reconfiguration_through_harness_replaces_a_server() {
    use cluster::client::ClientConfig;
    use cluster::protocol::ProtocolKind;
    use cluster::runner::{RunConfig, Runner};
    use cluster::Fault;
    use simulator::sec;

    for protocol in [ProtocolKind::OmniPaxos, ProtocolKind::Raft] {
        let config = RunConfig {
            protocol,
            n: 3,
            joiners: 1,
            client: ClientConfig {
                cp: 50,
                entry_size: 8,
                max_inject_per_tick: 25,
                retry_ticks: 200,
            },
            election_timeout_us: ms(20),
            duration: sec(8),
            initial_log: 5_000,
            initial_entry_size: 64,
            nic_bytes_per_sec: Some(25_000_000),
            window_us: sec(1),
            schedule: vec![(sec(2), Fault::ReconfigureTo(vec![2, 3, 4]))],
            ..Default::default()
        };
        let report = Runner::new(config).run();
        assert!(
            report.reconfig_done_at.is_some(),
            "{}: reconfiguration never completed",
            report.protocol
        );
        // Service resumed after the switch.
        let done = report.reconfig_done_at.unwrap();
        assert!(
            report.decides.decided_in(done, sec(8)) > 0,
            "{}: no progress after reconfiguration",
            report.protocol
        );
    }
}
