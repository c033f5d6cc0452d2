//! The fault side of every simulated run: the network, the crashed and cut
//! sets, and the one place a [`Fault`] is fired.
//!
//! The figures' [`Runner`](crate::Runner) and both chaos drivers own a
//! [`Nemesis`] and reach their servers through [`Servers`], so a fault
//! means the same thing, and renders the same trace line, whoever fires
//! it. Every fault goes through the [`SimHub`]: a cut or heal emits the
//! session events the TCP transport emits from real sockets, so a healed
//! link's re-sync (`reconnected` → `PrepareReq`) arrives as a
//! [`LinkEvent::SessionEstablished`] at the next delivery, not as a side
//! door.

use crate::scenarios::{chained_line_cuts, constrained_stage2_cuts, quorum_loss_cuts};
use crate::NodeId;
use net::{LinkEvent, MsgSize, NetworkLink, SimHub, SimLink};
use omnipaxos::StorageFaultKind;
use simulator::{NetworkConfig, SimTime};
use std::collections::BTreeSet;

/// One injectable fault. Leader-relative patterns (`QuorumLoss`,
/// `ConstrainedStage*`, `Chained`, `CrashLeader`) are resolved against the
/// live leader when they fire, as the paper's testbed scripts did — the
/// same schedule therefore means the same *shape*, not the same pids,
/// across protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Cut both directions between two servers.
    CutLink(NodeId, NodeId),
    /// Heal both directions (runs the session-drop/reconnect protocol).
    HealLink(NodeId, NodeId),
    /// Heal every cut link.
    HealAll,
    /// Cut the link *and* lose the bytes already on the wire — a TCP
    /// session teardown rather than a silent blackhole.
    SessionDrop(NodeId, NodeId),
    /// §2a: everyone keeps only their link to a non-leader hub.
    QuorumLoss,
    /// §2b stage 1: disconnect a designated hub from the leader so the
    /// hub's log goes stale.
    ConstrainedStage1,
    /// §2b stage 2: fully partition the old leader; everyone else keeps
    /// only the (stale) hub.
    ConstrainedStage2,
    /// §2c with 3 servers: cut the leader from one follower, leaving the
    /// third server connected to both (Fig. 1c).
    Chained,
    /// §2c: connect the servers in a pid-line; with ≥4 servers no
    /// quorum-connected server exists.
    ChainedLine,
    /// Crash a specific server (volatile state lost, storage kept).
    Crash(NodeId),
    /// Crash whoever currently leads.
    CrashLeader,
    /// Recover a crashed server from its persistent state.
    Recover(NodeId),
    /// Recover every crashed server.
    RecoverAll,
    /// Raise delivery jitter to `µs`, reordering across links (never
    /// within one — per-link FIFO is part of the link model, §3).
    DelaySpike(u64),
    /// Jitter back to zero.
    DelayCalm,
    /// Snapshot-compact one server's log at everything it has applied
    /// (Omni-Paxos only; a no-op for protocols without compaction).
    Compact(NodeId),
    /// Submit a same-membership reconfiguration to the current leader
    /// (Omni-Paxos stop-sign handover; no-op for the baselines).
    Reconfigure,
    /// Move the cluster to exactly these members. The [`Runner`]
    /// (crate::Runner) submits it to the live leader, retries until one
    /// accepts, and shuts down the servers that left once every new member
    /// runs the new configuration.
    ReconfigureTo(Vec<NodeId>),
    /// Arm a disk fault at one server: its next matching storage
    /// operation fails, after which the server must fail-stop — ack
    /// nothing, emit nothing — until a `Recover` heals it. Protocol
    /// adapters without a fallible-storage model degrade this to a plain
    /// crash, which is the same externally visible behaviour.
    DiskFault(NodeId, StorageFaultKind),
    /// Arm a disk fault at whoever currently leads — the worst case: the
    /// one server everyone waits on silently stops persisting.
    DiskFaultLeader(StorageFaultKind),
}

/// The forced heal that ends every chaos fault phase: calm the links,
/// restart every crashed or disk-halted server, heal every cut.
pub const HEAL: [Fault; 3] = [Fault::DelayCalm, Fault::RecoverAll, Fault::HealAll];

/// What a fault needs from the servers it hits.
pub trait Servers {
    /// The freshest live leadership claimant, if any.
    fn leader(&self, crashed: &BTreeSet<NodeId>) -> Option<NodeId>;
    /// Restart `pid` from its persistent state (crash or disk halt).
    fn recover(&mut self, pid: NodeId);
    /// Has `pid` fail-stopped on a storage error?
    fn is_halted(&self, pid: NodeId) -> bool;
    /// Snapshot-compact `pid`'s log; describes what was trimmed.
    fn compact(&mut self, pid: NodeId) -> String;
    /// Submit a same-membership reconfiguration via `pid`; was it
    /// accepted? Servers whose fault mix has no `Reconfigure` keep the
    /// default.
    fn upgrade(&mut self, _pid: NodeId) -> bool {
        false
    }
    /// Arm `kind` at `pid`'s storage and describe where, or `None` if
    /// `pid` has no fallible storage (the fault then degrades to a crash).
    fn arm_disk(&mut self, pid: NodeId, kind: StorageFaultKind) -> Option<String>;
}

/// The network and fault state of one simulated run.
pub struct Nemesis<M> {
    hub: SimHub<M>,
    /// One link per server; server `pid` is at `pid - 1`.
    links: Vec<SimLink<M>>,
    /// The servers partition patterns range over.
    members: Vec<NodeId>,
    crashed: BTreeSet<NodeId>,
    /// Cut pairs, normalized `(min, max)`; ordered so `HealAll` heals in a
    /// deterministic order.
    cut: BTreeSet<(NodeId, NodeId)>,
    /// Remembered by `ConstrainedStage1` for stage 2: `(hub, old_leader)`.
    constrained: Option<(NodeId, NodeId)>,
}

impl<M: MsgSize + Send> Nemesis<M> {
    /// A fully connected network over `net.nodes` (pids `1..=N`), with
    /// `members` the servers partition patterns cut between.
    pub fn new(net: NetworkConfig, members: Vec<NodeId>) -> Self {
        let nodes = net.nodes.clone();
        assert!(
            nodes.iter().copied().eq(1..=nodes.len() as NodeId),
            "servers are pids 1..=N"
        );
        let hub = SimHub::new(net);
        Nemesis {
            links: nodes.iter().map(|&p| hub.link(p)).collect(),
            hub,
            members,
            crashed: BTreeSet::new(),
            cut: BTreeSet::new(),
            constrained: None,
        }
    }

    /// The hub underneath (statistics, per-link latencies).
    pub fn hub(&self) -> &SimHub<M> {
        &self.hub
    }

    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    pub fn crashed(&self) -> &BTreeSet<NodeId> {
        &self.crashed
    }

    pub fn live(&self, pid: NodeId) -> bool {
        !self.crashed.contains(&pid)
    }

    /// Deliver everything due by `deadline`: every live server's link
    /// events, server by server, each in arrival order. Handling a message
    /// only touches its receiver, so this has the global delivery order's
    /// effect exactly. A down server's events drain to the floor.
    pub fn deliver(&mut self, deadline: SimTime, mut handle: impl FnMut(NodeId, LinkEvent<M>)) {
        self.hub.drain_due(deadline);
        for (i, link) in self.links.iter_mut().enumerate() {
            let pid = i as NodeId + 1;
            let events = link.poll();
            if !self.crashed.contains(&pid) {
                events.into_iter().for_each(|ev| handle(pid, ev));
            }
        }
    }

    /// Queue `msg` from `from` to `to`; dropped if the link is cut.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.links[(from - 1) as usize].send(to, msg);
    }

    /// Take `pid` down: its in-flight and undelivered traffic is lost.
    /// Returns whether it was up.
    pub fn crash(&mut self, pid: NodeId) -> bool {
        if !self.crashed.insert(pid) {
            return false;
        }
        self.hub.crash(pid);
        true
    }

    fn cut_link(&mut self, a: NodeId, b: NodeId) {
        self.hub.cut(a, b);
        self.cut.insert((a.min(b), a.max(b)));
    }

    fn heal_link(&mut self, a: NodeId, b: NodeId) {
        self.hub.heal(a, b);
        self.cut.remove(&(a.min(b), a.max(b)));
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
    pub fn restart_halted(&mut self, servers: &mut (impl Servers + ?Sized)) -> Vec<NodeId> {
        let halted: Vec<NodeId> = (1..=self.links.len() as NodeId)
            .filter(|&p| self.live(p) && servers.is_halted(p))
            .collect();
        for &p in &halted {
            servers.recover(p);
        }
        halted
    }

    /// Fire one fault, resolving leader-relative patterns, and return its
    /// resolved form for the trace.
    pub fn fire(&mut self, fault: &Fault, servers: &mut (impl Servers + ?Sized)) -> String {
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
                self.heal_link(*a, *b);
                format!("heal {a}<->{b}")
            }
            Fault::HealAll => {
                let pairs = std::mem::take(&mut self.cut);
                for &(a, b) in &pairs {
                    self.heal_link(a, b);
                }
                format!("heal-all ({} links)", pairs.len())
            }
            Fault::SessionDrop(a, b) => {
                self.cut_link(*a, *b);
                self.hub.drop_in_flight_between(*a, *b);
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
            Fault::Chained => {
                assert_eq!(self.members.len(), 3, "the chained scenario has 3 servers");
                // The first other server stays connected to both.
                let far = self.members.iter().rev().find(|&&p| p != pivot);
                let far = *far.expect("n >= 2");
                self.cut_link(pivot, far);
                format!("chained leader={pivot} cut-from={far}")
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
                self.hub.with_net(|n| n.set_jitter_us(*j));
                format!("delay-spike jitter={j}us")
            }
            Fault::DelayCalm => {
                self.hub.with_net(|n| n.set_jitter_us(0));
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
                    let ok = servers.upgrade(leader);
                    format!("reconfigure via {leader} accepted={ok}")
                } else {
                    "reconfigure (no leader)".to_string()
                }
            }
            Fault::ReconfigureTo(members) => format!("reconfigure to {members:?}"),
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
