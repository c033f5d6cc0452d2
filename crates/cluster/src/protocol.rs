//! The uniform replica interface and one adapter per evaluated protocol.
//!
//! Experiments run against [`Replica`] so the same workload, partition
//! schedule and metrics apply identically to every protocol — the paper's
//! apples-to-apples setup (all protocols ran on the same Kompact/TCP
//! harness; here, on the same simulator).

use crate::cmd::Cmd;
use crate::NodeId;
use multipaxos::{MpConfig, MpMsg, MpNode};
use omnipaxos::service::{OmniPaxosServer, ServerConfig, ServiceMsg};
use omnipaxos::{FaultyStorage, MemoryStorage, MigrationScheme, StorageFaultKind};
use raft::{RaftConfig, RaftMsg, RaftNode};
use vr::{VrConfig, VrMsg, VrNode};

/// Which protocol an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    OmniPaxos,
    /// Omni-Paxos restricted to leader-only log migration (ablation of the
    /// §6.1 parallel-migration design choice).
    OmniPaxosLeaderMigration,
    Raft,
    /// Raft with PreVote + CheckQuorum (the paper's "Raft PV+CQ").
    RaftPvCq,
    MultiPaxos,
    Vr,
}

impl ProtocolKind {
    /// All protocols of the §7.2 partial-connectivity comparison.
    pub fn partition_lineup() -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::OmniPaxos,
            ProtocolKind::Raft,
            ProtocolKind::RaftPvCq,
            ProtocolKind::MultiPaxos,
            ProtocolKind::Vr,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::OmniPaxos => "Omni-Paxos",
            ProtocolKind::OmniPaxosLeaderMigration => "Omni-Paxos (leader-only migration)",
            ProtocolKind::Raft => "Raft",
            ProtocolKind::RaftPvCq => "Raft PV+CQ",
            ProtocolKind::MultiPaxos => "Multi-Paxos",
            ProtocolKind::Vr => "VR",
        }
    }
}

/// A protocol message of whichever protocol the experiment runs.
#[derive(Debug, Clone)]
pub enum ProtoMsg {
    Omni(Box<ServiceMsg<Cmd>>),
    Raft(RaftMsg<Cmd>),
    Mp(MpMsg<Cmd>),
    Vr(Box<VrMsg<Cmd>>),
}

/// Approximate wire size in bytes.
impl net::MsgSize for ProtoMsg {
    fn size_bytes(&self) -> usize {
        match self {
            ProtoMsg::Omni(m) => m.size_bytes(),
            ProtoMsg::Raft(m) => m.size_bytes(),
            ProtoMsg::Mp(m) => m.size_bytes(),
            ProtoMsg::Vr(m) => m.size_bytes(),
        }
    }
}

/// The uniform replica interface the harness drives.
pub trait Replica {
    fn pid(&self) -> NodeId;
    /// Advance logical time by one tick.
    fn tick(&mut self);
    /// Feed one incoming message.
    fn handle(&mut self, from: NodeId, msg: ProtoMsg);
    /// Drain outgoing messages.
    fn outgoing(&mut self) -> Vec<(NodeId, ProtoMsg)>;
    /// Propose a command (only succeeds where the protocol accepts it:
    /// at the leader, or at an Omni-Paxos follower, which forwards it).
    fn propose(&mut self, cmd: Cmd) -> bool;
    /// Ids of commands newly decided at this server.
    fn poll_decided(&mut self) -> Vec<u64>;
    /// Does this server believe it is the leader?
    fn is_leader(&self) -> bool;
    /// A monotone rank of this server's leadership claim (ballot number,
    /// term, or view) — clients prefer the freshest claimant.
    fn leader_rank(&self) -> u64;
    /// Number of leader changes observed by this server.
    fn leader_changes(&self) -> u64;
    /// Notification that the link to `pid` healed (session-drop protocol).
    fn reconnected(&mut self, _pid: NodeId) {}
    /// Rebuild volatile state from persistent storage after a crash
    /// (fail-recovery model, §3). Protocols without modelled persistence
    /// restart from scratch.
    fn fail_recovery(&mut self) {}
    /// Start a reconfiguration to `new_nodes`; `false` if unsupported here.
    fn reconfigure(&mut self, _new_nodes: Vec<NodeId>) -> bool {
        false
    }
    /// Is this server operating in a configuration with exactly
    /// `new_nodes` as members?
    fn reconfigured_to(&self, _new_nodes: &[NodeId]) -> bool {
        false
    }
    /// Start a same-membership reconfiguration (a software upgrade,
    /// §6.1); `false` if unsupported here.
    fn upgrade(&mut self) -> bool {
        false
    }
    /// Snapshot-compact the log at everything applied; the new log start,
    /// or `None` if nothing was trimmed (or the protocol cannot).
    fn compact(&mut self) -> Option<u64> {
        None
    }

    // ---- Chaos-harness observation hooks ------------------------------

    /// Absolute log position of the next command `poll_decided` will
    /// deliver. Jumps forward past undelivered history when a snapshot is
    /// adopted wholesale (Omni-Paxos snapshot-first catch-up).
    fn decided_base(&self) -> u64;

    /// The decided command ids still retained in the log, together with
    /// the absolute position of the first retained entry (non-zero once
    /// compaction trimmed a prefix).
    fn decided_log_ids(&self) -> (u64, Vec<u64>);

    /// The epoch `(number, owner)` under which this server currently
    /// claims leadership, if it claims one. Raft/VR encode only the
    /// term/view with owner 0 — at most one leader may exist per epoch.
    /// Omni-Paxos and Multi-Paxos encode the full ballot including the
    /// owning pid, because two leaders with equal round numbers but
    /// different pids can legitimately coexist under partial
    /// connectivity; their uniqueness invariant lives in the ballot.
    fn leader_epoch(&self) -> Option<(u64, NodeId)>;

    /// Every ballot `(n, priority, pid)` this server elected since it
    /// last recovered, in election order — the BLE LE3 audit (elected
    /// ballots strictly increase). Empty for protocols without a BLE.
    fn audit_elections(&self) -> Vec<(u64, u64, u64)> {
        Vec::new()
    }

    // ---- Disk-fault injection ----------------------------------------

    /// Arm one storage fault: the next matching disk operation fails and
    /// the replica must fail-stop (never ack, go silent) until
    /// [`Replica::fail_recovery`]. Returns `false` where the protocol
    /// adapter has no fallible-storage model — the harness then degrades
    /// the fault to a plain crash, which is the same externally visible
    /// behaviour.
    fn inject_disk_fault(&mut self, _kind: StorageFaultKind) -> bool {
        false
    }

    /// Has this replica fail-stopped on a storage error?
    fn is_halted(&self) -> bool {
        false
    }
}

// ----------------------------------------------------------------------
// Omni-Paxos
// ----------------------------------------------------------------------

/// The storage the harness adapters run on: in-memory, wrapped with
/// armable failpoints so chaos schedules can attack the disk. Unarmed,
/// the wrapper forwards everything at zero cost, so throughput
/// experiments are unaffected.
pub type ChaosStorage = FaultyStorage<Cmd, MemoryStorage<Cmd>>;

/// Adapter around [`OmniPaxosServer`].
pub struct OmniReplica {
    server: OmniPaxosServer<Cmd, ChaosStorage>,
    leader_changes: u64,
    last_leader: Option<omnipaxos::Ballot>,
    lossy: Option<LossyRecovery>,
}

/// The ack-before-persist bug: a crash loses the last `lost` decided
/// entries, as a write-behind store without fsync-before-ack would. The
/// server rebuilds as a fresh member of `nodes` from the shortened log.
struct LossyRecovery {
    lost: usize,
    nodes: Vec<NodeId>,
    hb_timeout_ticks: u64,
}

impl OmniReplica {
    /// A member of the initial configuration, optionally pre-loaded.
    pub fn new(
        pid: NodeId,
        nodes: Vec<NodeId>,
        scheme: MigrationScheme,
        hb_timeout_ticks: u64,
        initial_log: Vec<Cmd>,
    ) -> Self {
        let mut cfg = ServerConfig::with(pid);
        cfg.scheme = scheme;
        cfg.hb_timeout_ticks = hb_timeout_ticks;
        cfg.resend_ticks = (hb_timeout_ticks * 10).max(20);
        cfg.retry_ticks = (hb_timeout_ticks * 20).max(40);
        let mut server = if initial_log.is_empty() {
            OmniPaxosServer::new(cfg, nodes)
        } else {
            let storage = FaultyStorage::new(MemoryStorage::with_decided_log(initial_log));
            OmniPaxosServer::with_storage(cfg, nodes, storage)
        };
        // Absorb the pre-loaded history so it is not reported as new.
        server.tick();
        let _ = server.poll_applied();
        OmniReplica {
            server,
            leader_changes: 0,
            last_leader: None,
            lossy: None,
        }
    }

    /// A fresh joiner outside the initial configuration.
    pub fn joiner(pid: NodeId, scheme: MigrationScheme, hb_timeout_ticks: u64) -> Self {
        let mut cfg = ServerConfig::with(pid);
        cfg.scheme = scheme;
        cfg.hb_timeout_ticks = hb_timeout_ticks;
        cfg.resend_ticks = (hb_timeout_ticks * 10).max(20);
        cfg.retry_ticks = (hb_timeout_ticks * 20).max(40);
        OmniReplica {
            server: OmniPaxosServer::new_joiner(cfg),
            leader_changes: 0,
            last_leader: None,
            lossy: None,
        }
    }

    /// An initial member with the ack-before-persist bug: it acknowledges
    /// and delivers decided entries before they are durable, so each
    /// crash loses the last `lost` of them. For harness regression tests —
    /// the chaos monitor must catch the shrunken decided log. Only
    /// reproducible while the full log is retained: after compaction the
    /// lost prefix could not be re-seeded, so recovery is correct there.
    pub fn losing_decided_tail(pid: NodeId, nodes: Vec<NodeId>, hb_timeout_ticks: u64) -> Self {
        let scheme = MigrationScheme::Parallel;
        let mut r = Self::new(pid, nodes.clone(), scheme, hb_timeout_ticks, Vec::new());
        r.lossy = Some(LossyRecovery {
            lost: 2,
            nodes,
            hb_timeout_ticks,
        });
        r
    }
}

impl Replica for OmniReplica {
    fn pid(&self) -> NodeId {
        self.server.pid()
    }

    fn tick(&mut self) {
        self.server.tick();
        let leader = self.server.leader();
        if leader != self.last_leader && leader.is_some() {
            self.leader_changes += 1;
            self.last_leader = leader;
        }
    }

    fn handle(&mut self, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Omni(m) => self.server.handle(from, *m),
            other => panic!("Omni replica got {other:?}"),
        }
    }

    fn outgoing(&mut self) -> Vec<(NodeId, ProtoMsg)> {
        self.server
            .outgoing()
            .into_iter()
            .map(|(to, m)| (to, ProtoMsg::Omni(Box::new(m))))
            .collect()
    }

    /// A follower buffers the command and forwards it to its leader.
    fn propose(&mut self, cmd: Cmd) -> bool {
        self.server.propose(cmd).is_ok()
    }

    fn poll_decided(&mut self) -> Vec<u64> {
        self.server.poll_applied().map(|c| c.id).collect()
    }

    fn is_leader(&self) -> bool {
        self.server.is_leader()
    }

    fn leader_rank(&self) -> u64 {
        self.server.leader().map(|b| b.n).unwrap_or(0)
    }

    fn leader_changes(&self) -> u64 {
        self.leader_changes
    }

    fn reconnected(&mut self, pid: NodeId) {
        self.server.reconnected(pid);
    }

    fn fail_recovery(&mut self) {
        match self.lossy.take() {
            Some(bug) if self.server.log_start() == 0 => {
                let mut log: Vec<Cmd> = self.server.log().cloned().collect();
                log.truncate(log.len().saturating_sub(bug.lost));
                let (pid, scheme) = (self.pid(), MigrationScheme::Parallel);
                *self = Self::new(pid, bug.nodes.clone(), scheme, bug.hb_timeout_ticks, log);
                self.lossy = Some(bug);
            }
            lossy => {
                self.lossy = lossy;
                self.server.fail_recovery();
            }
        }
    }

    fn reconfigure(&mut self, new_nodes: Vec<NodeId>) -> bool {
        // The runner retries reconfiguration requests; reject duplicates
        // of the membership we already run (the library itself allows
        // same-membership changes for software upgrades, §6.1).
        !self.reconfigured_to(&new_nodes) && self.server.reconfigure(new_nodes).is_ok()
    }

    fn reconfigured_to(&self, new_nodes: &[NodeId]) -> bool {
        let mut mine: Vec<NodeId> = self.server.nodes().to_vec();
        let mut want: Vec<NodeId> = new_nodes.to_vec();
        mine.sort_unstable();
        want.sort_unstable();
        self.server.role() == omnipaxos::ServerRole::Active && mine == want
    }

    /// Bypasses [`Replica::reconfigure`]'s duplicate-membership guard,
    /// which exists for the runner's retry loop.
    fn upgrade(&mut self) -> bool {
        let nodes = self.server.nodes().to_vec();
        self.server.reconfigure(nodes).is_ok()
    }

    /// The snapshot payload is an opaque marker: the adapter replicates
    /// plain commands, so there is no state machine to serialize — what
    /// matters is that the log prefix is gone and lagging peers must adopt
    /// the snapshot instead of fetching entries.
    fn compact(&mut self) -> Option<u64> {
        let upto = self.server.applied_cursor();
        let data: omnipaxos::SnapshotData = std::sync::Arc::from(&b"chaos-snapshot"[..]);
        (upto > self.server.log_start() && self.server.provide_snapshot(upto, data).is_ok())
            .then_some(upto)
    }

    fn decided_base(&self) -> u64 {
        self.server.applied_cursor()
    }

    fn decided_log_ids(&self) -> (u64, Vec<u64>) {
        (
            self.server.log_start(),
            self.server.log().map(|c| c.id).collect(),
        )
    }

    fn leader_epoch(&self) -> Option<(u64, NodeId)> {
        if !self.server.is_leader() {
            return None;
        }
        self.server.leader().map(|b| (b.n, b.pid))
    }

    fn audit_elections(&self) -> Vec<(u64, u64, u64)> {
        self.server
            .ballot_audit()
            .iter()
            .map(|b| (b.n, b.priority, b.pid))
            .collect()
    }

    fn inject_disk_fault(&mut self, kind: StorageFaultKind) -> bool {
        match self.server.omni() {
            Some(omni) => {
                omni.sequence_paxos().storage().arm(kind);
                true
            }
            // Mid-handover (no active configuration): nothing to arm.
            None => false,
        }
    }

    fn is_halted(&self) -> bool {
        self.server.is_halted()
    }
}

// ----------------------------------------------------------------------
// Raft (plain and PV+CQ)
// ----------------------------------------------------------------------

/// Adapter around [`RaftNode`].
pub struct RaftReplica {
    node: RaftNode<Cmd>,
    /// Commands delivered via `poll_decided` so far (absolute cursor in
    /// command positions, noops/config entries excluded).
    delivered: u64,
}

impl RaftReplica {
    /// A member (or learner-to-be, if outside `voters`) of the cluster.
    pub fn new(
        pid: NodeId,
        voters: Vec<NodeId>,
        pv_cq: bool,
        election_ticks: u64,
        seed: u64,
        initial_log: Vec<Cmd>,
    ) -> Self {
        let mut cfg = if pv_cq {
            RaftConfig::with_pv_cq(pid, voters)
        } else {
            RaftConfig::with(pid, voters)
        };
        cfg.election_ticks = election_ticks;
        cfg.heartbeat_ticks = (election_ticks / 4).max(1);
        cfg.seed = seed ^ pid;
        let mut delivered = 0;
        let node = if initial_log.is_empty() {
            RaftNode::new(cfg)
        } else {
            let mut n = RaftNode::with_initial_log(cfg, initial_log);
            delivered = n.poll_decided().len() as u64;
            n
        };
        RaftReplica { node, delivered }
    }
}

impl Replica for RaftReplica {
    fn pid(&self) -> NodeId {
        self.node.pid()
    }

    fn tick(&mut self) {
        self.node.tick();
    }

    fn handle(&mut self, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Raft(m) => self.node.handle(from, m),
            other => panic!("Raft replica got {other:?}"),
        }
    }

    fn outgoing(&mut self) -> Vec<(NodeId, ProtoMsg)> {
        self.node
            .outgoing_messages()
            .into_iter()
            .map(|(to, m)| (to, ProtoMsg::Raft(m)))
            .collect()
    }

    fn propose(&mut self, cmd: Cmd) -> bool {
        self.node.propose(cmd)
    }

    fn poll_decided(&mut self) -> Vec<u64> {
        let ids: Vec<u64> = self.node.poll_decided().into_iter().map(|c| c.id).collect();
        self.delivered += ids.len() as u64;
        ids
    }

    fn is_leader(&self) -> bool {
        self.node.is_leader()
    }

    fn leader_rank(&self) -> u64 {
        self.node.term()
    }

    fn leader_changes(&self) -> u64 {
        self.node.leader_changes()
    }

    fn reconfigure(&mut self, new_nodes: Vec<NodeId>) -> bool {
        self.node.propose_membership(new_nodes)
    }

    fn reconfigured_to(&self, new_nodes: &[NodeId]) -> bool {
        let mut mine: Vec<NodeId> = self.node.voters().to_vec();
        let mut want: Vec<NodeId> = new_nodes.to_vec();
        mine.sort_unstable();
        want.sort_unstable();
        mine == want && !self.node.reconfiguring()
    }

    fn decided_base(&self) -> u64 {
        self.delivered
    }

    fn decided_log_ids(&self) -> (u64, Vec<u64>) {
        (0, self.node.committed_log().map(|c| c.id).collect())
    }

    fn leader_epoch(&self) -> Option<(u64, NodeId)> {
        self.node.is_leader().then(|| (self.node.term(), 0))
    }
}

// ----------------------------------------------------------------------
// Multi-Paxos
// ----------------------------------------------------------------------

/// Adapter around [`MpNode`].
pub struct MpReplica {
    node: MpNode<Cmd>,
    delivered: u64,
}

impl MpReplica {
    pub fn new(pid: NodeId, nodes: Vec<NodeId>, fd_timeout_ticks: u64) -> Self {
        let mut cfg = MpConfig::with(pid, nodes);
        cfg.fd_timeout_ticks = fd_timeout_ticks;
        cfg.ping_ticks = (fd_timeout_ticks / 4).max(1);
        MpReplica {
            node: MpNode::new(cfg),
            delivered: 0,
        }
    }
}

impl Replica for MpReplica {
    fn pid(&self) -> NodeId {
        self.node.pid()
    }

    fn tick(&mut self) {
        self.node.tick();
    }

    fn handle(&mut self, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Mp(m) => self.node.handle(from, m),
            other => panic!("Multi-Paxos replica got {other:?}"),
        }
    }

    fn outgoing(&mut self) -> Vec<(NodeId, ProtoMsg)> {
        self.node
            .outgoing_messages()
            .into_iter()
            .map(|(to, m)| (to, ProtoMsg::Mp(m)))
            .collect()
    }

    fn propose(&mut self, cmd: Cmd) -> bool {
        self.node.propose(cmd)
    }

    fn poll_decided(&mut self) -> Vec<u64> {
        let ids: Vec<u64> = self.node.poll_decided().into_iter().map(|c| c.id).collect();
        self.delivered += ids.len() as u64;
        ids
    }

    fn is_leader(&self) -> bool {
        self.node.is_leader()
    }

    fn leader_rank(&self) -> u64 {
        // The believed ballot's round number.
        self.node.leader_changes() // monotone enough for client preference
    }

    fn leader_changes(&self) -> u64 {
        self.node.leader_changes()
    }

    fn decided_base(&self) -> u64 {
        self.delivered
    }

    fn decided_log_ids(&self) -> (u64, Vec<u64>) {
        (0, self.node.decided_log().map(|c| c.id).collect())
    }

    fn leader_epoch(&self) -> Option<(u64, NodeId)> {
        if !self.node.is_leader() {
            return None;
        }
        let b = self.node.current_ballot();
        Some((b.n, b.pid))
    }
}

// ----------------------------------------------------------------------
// VR
// ----------------------------------------------------------------------

/// Adapter around [`VrNode`].
pub struct VrReplica {
    node: VrNode<Cmd>,
    delivered: u64,
}

impl VrReplica {
    pub fn new(pid: NodeId, nodes: Vec<NodeId>, timeout_ticks: u64) -> Self {
        let mut cfg = VrConfig::with(pid, nodes);
        cfg.timeout_ticks = timeout_ticks;
        cfg.ping_ticks = (timeout_ticks / 4).max(1);
        VrReplica {
            node: VrNode::new(cfg),
            delivered: 0,
        }
    }
}

impl Replica for VrReplica {
    fn pid(&self) -> NodeId {
        self.node.pid()
    }

    fn tick(&mut self) {
        self.node.tick();
    }

    fn handle(&mut self, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Vr(m) => self.node.handle(from, *m),
            other => panic!("VR replica got {other:?}"),
        }
    }

    fn outgoing(&mut self) -> Vec<(NodeId, ProtoMsg)> {
        self.node
            .outgoing_messages()
            .into_iter()
            .map(|(to, m)| (to, ProtoMsg::Vr(Box::new(m))))
            .collect()
    }

    fn propose(&mut self, cmd: Cmd) -> bool {
        self.node.is_leader() && self.node.propose(cmd)
    }

    fn poll_decided(&mut self) -> Vec<u64> {
        let ids: Vec<u64> = self.node.poll_decided().into_iter().map(|c| c.id).collect();
        self.delivered += ids.len() as u64;
        ids
    }

    fn is_leader(&self) -> bool {
        self.node.is_leader()
    }

    fn leader_rank(&self) -> u64 {
        self.node.view()
    }

    fn leader_changes(&self) -> u64 {
        self.node.view_changes()
    }

    fn reconnected(&mut self, pid: NodeId) {
        self.node.reconnected(pid);
    }

    fn decided_base(&self) -> u64 {
        self.delivered
    }

    fn decided_log_ids(&self) -> (u64, Vec<u64>) {
        (
            0,
            self.node.decided_log().into_iter().map(|c| c.id).collect(),
        )
    }

    fn leader_epoch(&self) -> Option<(u64, NodeId)> {
        self.node.is_leader().then(|| (self.node.view(), 0))
    }
}
