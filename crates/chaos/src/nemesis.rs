//! The fault side of every chaos run: the simulated network, the crashed
//! and cut sets, and the one place a [`Fault`] is fired.
//!
//! Both drivers — the protocol harness and the kv driver — own a
//! [`Nemesis`] and reach their servers through [`Servers`], so a fault
//! means the same thing, and renders the same trace line, whichever
//! driver fires it.

use crate::schedule::Fault;
use crate::NodeId;
use cluster::scenarios::{chained_line_cuts, constrained_stage2_cuts, quorum_loss_cuts};
use omnipaxos::StorageFaultKind;
use simulator::{Network, NetworkConfig};
use std::collections::BTreeSet;

/// Simulated microseconds per tick (timer granularity).
const TICK_US: u64 = 1_000;
/// One-way link latency, µs.
const LATENCY_US: u64 = 100;

/// What a fault needs from the servers it hits.
pub(crate) trait Servers {
    /// The freshest live leadership claimant, if any.
    fn leader(&self, crashed: &BTreeSet<NodeId>) -> Option<NodeId>;
    /// A healed link's session came back: `pid` re-syncs with `peer`.
    fn reconnected(&mut self, pid: NodeId, peer: NodeId);
    /// Restart `pid` from its persistent state (crash or disk halt).
    fn recover(&mut self, pid: NodeId);
    /// Has `pid` fail-stopped on a storage error?
    fn is_halted(&self, pid: NodeId) -> bool;
    /// Snapshot-compact `pid`'s log; describes what was trimmed.
    fn compact(&mut self, pid: NodeId) -> String;
    /// Submit a reconfiguration to `members` via `pid`; was it accepted?
    /// Servers whose fault mix has no `Reconfigure` keep the default.
    fn reconfigure(&mut self, _pid: NodeId, _members: Vec<NodeId>) -> bool {
        false
    }
    /// Arm `kind` at `pid`'s storage and describe where, or `None` if
    /// `pid` has no fallible storage (the fault then degrades to a crash).
    fn arm_disk(&mut self, pid: NodeId, kind: StorageFaultKind) -> Option<String>;
}

/// The network and fault state of one run.
pub(crate) struct Nemesis<M> {
    pub(crate) net: Network<M>,
    /// Every server on the network.
    all: Vec<NodeId>,
    /// The servers partition patterns range over.
    pub(crate) members: Vec<NodeId>,
    pub(crate) crashed: BTreeSet<NodeId>,
    /// Cut pairs, normalized `(min, max)`; ordered so `HealAll` heals in a
    /// deterministic order.
    cut: BTreeSet<(NodeId, NodeId)>,
    /// Remembered by `ConstrainedStage1` for stage 2: `(hub, old_leader)`.
    constrained: Option<(NodeId, NodeId)>,
}

impl<M> Nemesis<M> {
    /// A fully connected network over `nodes`, with `members` the servers
    /// partition patterns cut between.
    pub(crate) fn new(nodes: Vec<NodeId>, members: Vec<NodeId>, seed: u64) -> Self {
        Nemesis {
            net: Network::new(NetworkConfig {
                nodes: nodes.clone(),
                default_latency_us: LATENCY_US,
                jitter_us: 0,
                nic_bytes_per_sec: None,
                priority_bytes: 256,
                seed,
            }),
            all: nodes,
            members,
            crashed: BTreeSet::new(),
            cut: BTreeSet::new(),
            constrained: None,
        }
    }

    pub(crate) fn live(&self, pid: NodeId) -> bool {
        !self.crashed.contains(&pid)
    }

    /// Deliver everything due in the tick ending at `t` to live servers.
    pub(crate) fn deliver(&mut self, t: u64, mut handle: impl FnMut(NodeId, NodeId, M)) {
        let deadline = t * TICK_US;
        while let Some(d) = self.net.pop_next_before(deadline) {
            if self.live(d.dst) {
                handle(d.src, d.dst, d.msg);
            }
        }
        self.net.advance_to(deadline);
    }

    fn cut_link(&mut self, a: NodeId, b: NodeId) {
        self.net.links_mut().set_link(a, b, false);
        self.cut.insert((a.min(b), a.max(b)));
    }

    fn heal_link(&mut self, a: NodeId, b: NodeId, servers: &mut (impl Servers + ?Sized)) {
        if self.net.links_mut().set_link(a, b, true) {
            // Session-drop protocol: both ends resynchronize, provided
            // they are up to notice.
            if self.live(a) {
                servers.reconnected(a, b);
            }
            if self.live(b) {
                servers.reconnected(b, a);
            }
        }
        self.cut.remove(&(a.min(b), a.max(b)));
    }

    fn crash(&mut self, pid: NodeId) -> bool {
        if !self.crashed.insert(pid) {
            return false;
        }
        self.net.drop_in_flight_for(pid);
        true
    }

    /// Arm `kind` at `p`. Servers without a fallible-storage model get
    /// crashed instead — externally the same fail-stop, so every driver
    /// sees an equivalent schedule shape.
    fn disk_fault_at(
        &mut self,
        p: NodeId,
        kind: StorageFaultKind,
        servers: &mut (impl Servers + ?Sized),
    ) -> String {
        if !self.live(p) {
            return format!("disk-fault {p} {kind:?} (down)");
        }
        match servers.arm_disk(p, kind) {
            Some(at) => format!("disk-fault {p} {kind:?}{at}"),
            None => {
                self.crash(p);
                format!("disk-fault {p} {kind:?} (degraded to crash)")
            }
        }
    }

    /// Restart every live server halted on a storage error; returns them.
    pub(crate) fn restart_halted(&mut self, servers: &mut (impl Servers + ?Sized)) -> Vec<NodeId> {
        let halted: Vec<NodeId> = (self.all.iter().copied())
            .filter(|&p| self.live(p) && servers.is_halted(p))
            .collect();
        for &p in &halted {
            servers.recover(p);
        }
        halted
    }

    /// Fire one fault, resolving leader-relative patterns, and return its
    /// resolved form for the trace.
    pub(crate) fn fire(&mut self, fault: &Fault, servers: &mut (impl Servers + ?Sized)) -> String {
        let leader = servers.leader(&self.crashed).unwrap_or(0);
        // Partition patterns need a concrete pivot node even while no
        // leader is elected; fall back to the lowest member then.
        let pivot = if leader != 0 { leader } else { self.members[0] };
        let first_non = |l: NodeId, members: &[NodeId]| {
            members.iter().copied().find(|&p| p != l).expect("n >= 2")
        };
        match fault {
            Fault::CutLink(a, b) => {
                self.cut_link(*a, *b);
                format!("cut {a}<->{b}")
            }
            Fault::HealLink(a, b) => {
                self.heal_link(*a, *b, servers);
                format!("heal {a}<->{b}")
            }
            Fault::HealAll => {
                let pairs: Vec<(NodeId, NodeId)> = self.cut.iter().copied().collect();
                for (a, b) in &pairs {
                    self.heal_link(*a, *b, servers);
                }
                format!("heal-all ({} links)", pairs.len())
            }
            Fault::SessionDrop(a, b) => {
                self.cut_link(*a, *b);
                self.net.drop_in_flight_between(*a, *b);
                format!("session-drop {a}<->{b}")
            }
            Fault::QuorumLoss => {
                let hub = first_non(pivot, &self.members);
                for (a, b) in quorum_loss_cuts(&self.members.clone(), hub) {
                    self.cut_link(a, b);
                }
                format!("quorum-loss hub={hub} leader={pivot}")
            }
            Fault::ConstrainedStage1 => {
                let hub = first_non(pivot, &self.members);
                self.constrained = Some((hub, pivot));
                self.cut_link(hub, pivot);
                format!("constrained-1 hub={hub} leader={pivot}")
            }
            Fault::ConstrainedStage2 => {
                let (hub, old) = self
                    .constrained
                    .unwrap_or_else(|| (first_non(pivot, &self.members), pivot));
                for (a, b) in constrained_stage2_cuts(&self.members.clone(), hub, old) {
                    self.cut_link(a, b);
                }
                format!("constrained-2 hub={hub} old-leader={old}")
            }
            Fault::ChainedLine => {
                for (a, b) in chained_line_cuts(&self.members.clone()) {
                    self.cut_link(a, b);
                }
                "chained-line".to_string()
            }
            Fault::Crash(p) => {
                let did = self.crash(*p);
                format!("crash {p}{}", if did { "" } else { " (already down)" })
            }
            Fault::CrashLeader => {
                if leader != 0 {
                    self.crash(leader);
                    format!("crash-leader {leader}")
                } else {
                    "crash-leader (no leader)".to_string()
                }
            }
            Fault::Recover(p) => {
                if self.crashed.remove(p) {
                    servers.recover(*p);
                    format!("recover {p}")
                } else if servers.is_halted(*p) {
                    // A disk-halted server never left the process table,
                    // but recovers the same way: reopen storage (rolling
                    // back the unsynced tail), re-sync via PrepareReq.
                    servers.recover(*p);
                    format!("recover {p} (disk-halted)")
                } else {
                    format!("recover {p} (not down)")
                }
            }
            Fault::RecoverAll => {
                let down = std::mem::take(&mut self.crashed);
                for &p in &down {
                    servers.recover(p);
                }
                let healed = down.len() + self.restart_halted(servers).len();
                format!("recover-all ({healed} servers)")
            }
            Fault::DelaySpike(j) => {
                self.net.set_jitter_us(*j);
                format!("delay-spike jitter={j}us")
            }
            Fault::DelayCalm => {
                self.net.set_jitter_us(0);
                "delay-calm".to_string()
            }
            Fault::Compact(p) => {
                if self.live(*p) {
                    format!("compact {p} {}", servers.compact(*p))
                } else {
                    format!("compact {p} (down)")
                }
            }
            Fault::Reconfigure => {
                if leader != 0 {
                    let ok = servers.reconfigure(leader, self.members.clone());
                    format!("reconfigure via {leader} accepted={ok}")
                } else {
                    "reconfigure (no leader)".to_string()
                }
            }
            Fault::DiskFault(p, kind) => self.disk_fault_at(*p, *kind, servers),
            Fault::DiskFaultLeader(kind) => {
                if leader != 0 {
                    self.disk_fault_at(leader, *kind, servers)
                } else {
                    format!("disk-fault-leader {kind:?} (no leader)")
                }
            }
        }
    }
}
