//! A tiny in-memory cluster harness for protocol tests.
//!
//! Messages are delivered in FIFO order per directed link; links can be cut
//! and healed to build the partial-connectivity scenarios of the paper
//! without pulling in the full simulator crate.

// Different integration-test binaries use different subsets of this
// harness; silence per-binary dead-code analysis.
#![allow(dead_code)]

use omnipaxos::service::{OmniPaxosServer, ServerConfig, ServiceMsg};
use omnipaxos::{MigrationScheme, NodeId};
use std::collections::{HashSet, VecDeque};

/// A cluster of [`OmniPaxosServer`]s over a controllable network.
pub struct TestCluster {
    pub servers: Vec<OmniPaxosServer<u64>>,
    /// Directed links currently cut.
    cut: HashSet<(NodeId, NodeId)>,
    /// In-flight messages, FIFO.
    wire: VecDeque<(NodeId, NodeId, ServiceMsg<u64>)>,
}

impl TestCluster {
    /// A fresh cluster of `n` servers (pids `1..=n`) in configuration 1.
    pub fn new(n: usize) -> Self {
        Self::with_scheme(n, MigrationScheme::Parallel)
    }

    /// A fresh cluster with an explicit migration scheme.
    pub fn with_scheme(n: usize, scheme: MigrationScheme) -> Self {
        Self::with_config(n, |cfg| cfg.scheme = scheme)
    }

    /// A fresh cluster with arbitrary per-server configuration tweaks.
    pub fn with_config(n: usize, tweak: impl Fn(&mut ServerConfig)) -> Self {
        let nodes: Vec<NodeId> = (1..=n as NodeId).collect();
        let servers = nodes
            .iter()
            .map(|&pid| {
                let mut cfg = ServerConfig::with(pid);
                tweak(&mut cfg);
                OmniPaxosServer::new(cfg, nodes.clone())
            })
            .collect();
        TestCluster {
            servers,
            cut: HashSet::new(),
            wire: VecDeque::new(),
        }
    }

    /// Cut only the direction `a -> b` (half-duplex failure, §8).
    pub fn cut_directed(&mut self, a: NodeId, b: NodeId) {
        self.cut.insert((a, b));
    }

    /// Add a fresh joiner with the given pid (outside the configuration).
    pub fn add_joiner(&mut self, pid: NodeId) {
        assert_eq!(pid as usize, self.servers.len() + 1, "pids must be dense");
        self.servers
            .push(OmniPaxosServer::new_joiner(ServerConfig::with(pid)));
    }

    pub fn server(&mut self, pid: NodeId) -> &mut OmniPaxosServer<u64> {
        &mut self.servers[pid as usize - 1]
    }

    /// Cut both directions between `a` and `b`.
    pub fn cut_link(&mut self, a: NodeId, b: NodeId) {
        self.cut.insert((a, b));
        self.cut.insert((b, a));
    }

    /// Heal both directions between `a` and `b` and run the session-drop
    /// protocol (`PrepareReq`, §4.1.3).
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) {
        let was_cut = self.cut.remove(&(a, b)) | self.cut.remove(&(b, a));
        if was_cut {
            self.server(a).reconnected(b);
            self.server(b).reconnected(a);
        }
    }

    /// Completely isolate `pid`.
    pub fn isolate(&mut self, pid: NodeId) {
        let n = self.servers.len() as NodeId;
        for other in 1..=n {
            if other != pid {
                self.cut_link(pid, other);
            }
        }
    }

    /// Heal all links.
    pub fn heal_all(&mut self) {
        let pairs: Vec<(NodeId, NodeId)> = self.cut.iter().copied().collect();
        for (a, b) in pairs {
            self.heal_link(a, b);
        }
    }

    /// One step: tick every server, collect outgoing, deliver everything
    /// currently on the wire (messages sent this step are delivered next
    /// step, giving a 1-step latency).
    pub fn step(&mut self) {
        for s in &mut self.servers {
            s.tick();
        }
        let n = self.servers.len();
        for i in 0..n {
            let from = (i + 1) as NodeId;
            for (to, msg) in self.servers[i].outgoing() {
                if to == 0 || to as usize > n {
                    continue; // addressed outside the harness
                }
                self.wire.push_back((from, to, msg));
            }
        }
        let in_flight = std::mem::take(&mut self.wire);
        for (from, to, msg) in in_flight {
            if self.cut.contains(&(from, to)) {
                continue; // systematically dropped during partition
            }
            self.servers[to as usize - 1].handle(from, msg);
        }
    }

    /// Run `steps` steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Run until `pred` holds, up to `max_steps`; panics on timeout.
    pub fn run_until(&mut self, max_steps: usize, mut pred: impl FnMut(&Self) -> bool) {
        for _ in 0..max_steps {
            if pred(self) {
                return;
            }
            self.step();
        }
        panic!(
            "condition not reached within {max_steps} steps; servers: {:?}",
            self.servers
        );
    }

    /// The pid of the unique active leader, if exactly one server leads.
    pub fn leader_pid(&self) -> Option<NodeId> {
        let leaders: Vec<NodeId> = self
            .servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_leader())
            .map(|(i, _)| (i + 1) as NodeId)
            .collect();
        (leaders.len() == 1).then(|| leaders[0])
    }

    /// Propose through the current leader; panics if there is none.
    pub fn propose_via_leader(&mut self, value: u64) {
        let leader = self.leader_pid().expect("no unique leader");
        self.server(leader).propose(value).expect("propose");
    }

    /// Assert the prefix property across all servers' service logs
    /// (Sequence Consensus SC2).
    pub fn assert_log_prefixes(&self) {
        let longest = self
            .servers
            .iter()
            .max_by_key(|s| s.log().count())
            .expect("non-empty cluster");
        for s in &self.servers {
            let log: Vec<u64> = s.log().copied().collect();
            let prefix: Vec<u64> = longest.log().take(log.len()).copied().collect();
            assert_eq!(log, prefix, "log of pid {} is not a prefix", s.pid());
        }
    }
}
