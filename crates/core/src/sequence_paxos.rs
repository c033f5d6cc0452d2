//! Sequence Paxos — the log replication protocol of Omni-Paxos (§4).
//!
//! A replica is a passive state machine: the owner feeds it incoming
//! [`Message`]s with [`SequencePaxos::handle_message`], leader events from
//! BLE with [`SequencePaxos::handle_leader`], and client proposals with
//! [`SequencePaxos::append`]; it queues outgoing messages which the owner
//! drains with [`SequencePaxos::outgoing_messages`]. There is no internal
//! clock or IO, which is what lets the same implementation run in the
//! deterministic simulator and in tests.
//!
//! # Protocol summary
//!
//! Replication proceeds in rounds identified by [`Ballot`]s. A round has a
//! *Prepare* phase — log synchronization, so a newly elected (possibly
//! lagging, §5.2) leader adopts the most updated log among a majority — and
//! an *Accept* phase, where entries are pipelined to promised followers in
//! FIFO order and decided once a majority has accepted them. Recovery and
//! link-session drops are handled with `PrepareReq` (§4.1.3).
//!
//! Outgoing `AcceptDecide` messages are batched per drain of
//! [`SequencePaxos::outgoing_messages`]: all entries appended since the last
//! drain travel in one message per follower, with the newest decided index
//! piggybacked.

use crate::ballot::{Ballot, NodeId};
use crate::messages::{
    AcceptDecide, AcceptSync, Accepted, Decide, Message, PaxosMsg, Prepare, Promise, ReadCheck,
    ReadCheckAck, ReadIndexReq, ReadIndexResp, SnapshotAck, SnapshotChunk, SnapshotMeta,
};
use crate::snapshot::SnapshotData;
use crate::storage::{take_entries, EntryBatch, Storage, StorageError, TrimError};
use crate::util::{majority, Entry, LogEntry, StopSign};
use std::collections::HashMap;

/// Replica role. A server acts as follower until BLE elects it (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Follower,
    Leader,
}

/// Progress within the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Log synchronization in progress (leader: collecting promises;
    /// follower: promised, awaiting `AcceptSync`).
    Prepare,
    /// Synchronized; entries are being replicated.
    Accept,
    /// Recovering from a crash: only `Prepare` messages and leader events
    /// are handled until the log is re-synchronized (§4.1.3).
    Recover,
}

/// Why a proposal was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposeErr {
    /// A stop-sign has been accepted: the configuration is ending and no
    /// further entries may be proposed in it (§6).
    PendingReconfig,
    /// A reconfiguration was already proposed.
    AlreadyReconfiguring,
    /// The internal proposal buffer is full (no elected leader for too
    /// long); retry later.
    BufferFull,
    /// The replica halted on a storage failure (fail-stop): it accepts
    /// nothing until it recovers via the crash path.
    Halted(StorageError),
}

impl std::fmt::Display for ProposeErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeErr::PendingReconfig => write!(f, "configuration is being stopped"),
            ProposeErr::AlreadyReconfiguring => write!(f, "reconfiguration already in progress"),
            ProposeErr::BufferFull => write!(f, "proposal buffer full"),
            ProposeErr::Halted(e) => write!(f, "replica halted on storage failure: {e}"),
        }
    }
}

impl std::error::Error for ProposeErr {}

/// Why a read-index request could not be issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadIndexErr {
    /// The replica halted on a storage failure (fail-stop).
    Halted,
    /// No elected leader is known to forward the request to; retry after
    /// the next election settles.
    NoLeader,
}

/// One read barrier awaiting round confirmation on the leader: `from`
/// asked for a linearizable read index, `idx` was captured when the
/// request arrived, and the barrier is released once a majority has acked
/// a [`ReadCheck`] with sequence number `>= seq`.
#[derive(Debug, Clone, Copy)]
struct ReadBarrier {
    from: NodeId,
    token: u64,
    idx: u64,
    seq: u64,
}

/// Static configuration of a replica.
#[derive(Debug, Clone)]
pub struct SequencePaxosConfig {
    /// Configuration (segment) id this instance belongs to.
    pub config_id: u32,
    /// This server.
    pub pid: NodeId,
    /// All other servers of the configuration.
    pub peers: Vec<NodeId>,
    /// Max buffered proposals while no leader is elected.
    pub buffer_size: usize,
    /// Window size for chunked snapshot transfer: a lagging follower whose
    /// log was compacted away receives the snapshot in chunks of this many
    /// bytes, one per acknowledgement (self-clocked).
    pub snapshot_chunk_bytes: usize,
}

impl SequencePaxosConfig {
    /// Configuration for server `pid` among `nodes` (which must contain
    /// `pid`).
    pub fn with(config_id: u32, pid: NodeId, nodes: &[NodeId]) -> Self {
        assert!(nodes.contains(&pid), "pid {pid} not in nodes {nodes:?}");
        assert!(pid != 0, "pid 0 is reserved");
        SequencePaxosConfig {
            config_id,
            pid,
            peers: nodes.iter().copied().filter(|&p| p != pid).collect(),
            buffer_size: 1_000_000,
            snapshot_chunk_bytes: 256 * 1024,
        }
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.peers.len() + 1
    }
}

/// What a follower promised: the state it reported in its `Promise`.
#[derive(Debug, Clone, Copy)]
struct PromiseMeta {
    acc_rnd: Ballot,
    log_idx: u64,
    decided_idx: u64,
}

/// One in-flight chunked snapshot transfer to a lagging follower. The
/// `data` Arc *pins* the snapshot for the duration of the transfer: a
/// newer `compact()` on the leader may replace the storage's snapshot
/// record, but the bytes this follower is receiving stay alive and
/// consistent (the compaction safety invariant — never invalidate an
/// in-flight transfer's base).
#[derive(Debug, Clone)]
struct SnapshotXfer {
    /// Log index the snapshot covers (exclusive).
    idx: u64,
    /// The pinned snapshot bytes.
    data: SnapshotData,
}

/// Follower-side reassembly buffer of an incoming snapshot transfer.
#[derive(Debug)]
struct IncomingSnapshot {
    /// Round the transfer belongs to; a new leader restarts the transfer.
    n: Ballot,
    /// Log index the snapshot covers.
    idx: u64,
    /// Total expected size.
    total: u64,
    /// Bytes received so far (always a prefix — chunks arrive in order,
    /// out-of-order chunks are dropped and re-requested by cumulative ack).
    buf: Vec<u8>,
}

/// Volatile state a leader keeps about its round.
#[derive(Debug)]
struct LeaderState<T> {
    n: Ballot,
    /// Promise metadata per server (including self).
    promises: HashMap<NodeId, PromiseMeta>,
    /// Suffix of the best promise (empty if the leader's own log is best).
    max_suffix: Vec<LogEntry<T>>,
    /// Absolute index at which `max_suffix` starts (from the promise).
    max_suffix_start: u64,
    /// Snapshot shipped with the best promise when that follower's log was
    /// compacted above where the leader's suffix would need to start.
    max_snapshot: Option<(u64, SnapshotData)>,
    /// `(acc_rnd, log_idx, pid)` of the best promise seen.
    max_meta: (Ballot, u64, NodeId),
    /// Highest log index each promised server has accepted in round `n`.
    accepted: HashMap<NodeId, u64>,
    /// Log index up to which each follower has been sent entries.
    sent_idx: HashMap<NodeId, u64>,
    /// Decided index already announced to each follower.
    sent_decided: HashMap<NodeId, u64>,
    /// Did we already complete the Prepare phase (reached Accept)?
    synced: bool,
    /// Shared suffix batches materialized this drain, keyed by start
    /// index. Fanning a batch out to N followers costs one allocation
    /// plus N refcount bumps. Invalidated whenever the log length
    /// changes and cleared at the end of every drain.
    batch_cache: HashMap<u64, EntryBatch<T>>,
    /// Log length the cached batches were cut at.
    batch_cache_len: u64,
    /// In-flight chunked snapshot transfers, per lagging follower.
    snap_xfers: HashMap<NodeId, SnapshotXfer>,
    /// Chunk windows cut this drain, keyed by `(snapshot_idx, offset)`:
    /// several followers at the same offset share one allocation.
    chunk_cache: HashMap<(u64, u64), SnapshotData>,
    /// Log length when this leader entered the Accept phase. Every write
    /// that *completed* in an earlier round is below it (it was accepted
    /// by a majority, which intersects our Prepare majority), so a
    /// linearizable read barrier is `max(accept_base, decided_idx)`; the
    /// decided index alone could still lag behind adopted-but-not-yet-
    /// re-decided entries from the previous round.
    accept_base: u64,
    /// Last broadcast [`ReadCheck`] sequence number of this term.
    read_seq: u64,
    /// Read barriers awaiting round confirmation, in arrival order.
    read_pending: Vec<ReadBarrier>,
    /// Highest [`ReadCheckAck`] sequence received per follower this term.
    read_acks: HashMap<NodeId, u64>,
}

impl<T> LeaderState<T> {
    fn new(n: Ballot) -> Self {
        LeaderState {
            n,
            promises: HashMap::new(),
            max_suffix: Vec::new(),
            max_suffix_start: 0,
            max_snapshot: None,
            max_meta: (Ballot::bottom(), 0, 0),
            accepted: HashMap::new(),
            sent_idx: HashMap::new(),
            sent_decided: HashMap::new(),
            synced: false,
            batch_cache: HashMap::new(),
            batch_cache_len: 0,
            snap_xfers: HashMap::new(),
            chunk_cache: HashMap::new(),
            accept_base: 0,
            read_seq: 0,
            read_pending: Vec::new(),
            read_acks: HashMap::new(),
        }
    }
}

/// A Sequence Paxos replica. See the [module docs](self).
pub struct SequencePaxos<T: Entry, S: Storage<T>> {
    config: SequencePaxosConfig,
    storage: S,
    state: (Role, Phase),
    /// Highest ballot this server believes is elected (from BLE or
    /// `Prepare` messages). Used to address forwarded proposals.
    leader: Ballot,
    /// Client proposals buffered while there is no usable leader.
    pending: Vec<LogEntry<T>>,
    /// Log index of an accepted stop-sign, if any.
    stopsign_idx: Option<u64>,
    leader_state: LeaderState<T>,
    /// Leader state snapshot when `Prepare` was sent: (accepted_rnd,
    /// log_idx, decided_idx). Promise suffixes are relative to these.
    prep_snapshot: (Ballot, u64, u64),
    /// Reassembly buffer of a snapshot transfer in progress (follower).
    incoming_snap: Option<IncomingSnapshot>,
    /// A snapshot installed from a peer, waiting for the owner to restore
    /// it into the application state machine
    /// ([`SequencePaxos::take_installed_snapshot`]).
    installed_snapshot: Option<(u64, SnapshotData)>,
    outgoing: Vec<Message<T>>,
    /// Confirmed read barriers for reads *this* replica requested:
    /// `(token, idx)` pairs ready for the owner to collect with
    /// [`SequencePaxos::take_read_grants`] — apply the log through `idx`,
    /// then serve from the local state machine.
    read_grants: Vec<(u64, u64)>,
    /// Set when a storage mutation failed: the replica is **halted** —
    /// fail-stop. It sends nothing (a failed persist must never be
    /// acked), handles nothing, and accepts no proposals until
    /// [`SequencePaxos::fail_recovery`] re-establishes durable state.
    halted: Option<StorageError>,
}

impl<T: Entry, S: Storage<T>> SequencePaxos<T, S> {
    /// Create a replica. If `storage` contains state from a previous
    /// incarnation, the caller should follow up with
    /// [`SequencePaxos::fail_recovery`].
    pub fn new(config: SequencePaxosConfig, storage: S) -> Self {
        SequencePaxos {
            config,
            storage,
            state: (Role::Follower, Phase::Accept),
            leader: Ballot::bottom(),
            pending: Vec::new(),
            stopsign_idx: None,
            leader_state: LeaderState::new(Ballot::bottom()),
            prep_snapshot: (Ballot::bottom(), 0, 0),
            incoming_snap: None,
            installed_snapshot: None,
            outgoing: Vec::new(),
            read_grants: Vec::new(),
            halted: None,
        }
    }

    /// This server's id.
    pub fn pid(&self) -> NodeId {
        self.config.pid
    }

    /// The configuration id of this instance.
    pub fn config_id(&self) -> u32 {
        self.config.config_id
    }

    /// Current `(role, phase)`.
    pub fn state(&self) -> (Role, Phase) {
        self.state
    }

    /// The storage failure this replica halted on, if any. A halted
    /// replica behaves like a crashed one: it emits and accepts nothing
    /// until [`SequencePaxos::fail_recovery`] succeeds.
    pub fn halted(&self) -> Option<StorageError> {
        self.halted
    }

    /// Would [`SequencePaxos::append`] refuse with
    /// [`ProposeErr::PendingReconfig`]? A stop-sign is in the log and this
    /// replica is not halted.
    pub(crate) fn pending_reconfig(&self) -> bool {
        self.halted.is_none() && self.stopsign_idx.is_some()
    }

    /// Enter the halted (fail-stop) state: discard every queued outgoing
    /// message — some may acknowledge state that just failed to persist —
    /// and refuse all further work. The first failure is kept as the cause.
    fn halt(&mut self, e: StorageError) {
        if self.halted.is_none() {
            self.halted = Some(e);
        }
        self.outgoing.clear();
    }

    /// Run a storage mutation under the fail-stop rule: `Err` halts the
    /// replica and yields `None`, which callers treat as "stop what you
    /// were doing, ack nothing".
    fn guard<V>(&mut self, res: Result<V, StorageError>) -> Option<V> {
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.halt(e);
                None
            }
        }
    }

    /// The ballot of the current leader as known to this server
    /// ([`Ballot::bottom`] if none yet).
    pub fn leader(&self) -> Ballot {
        self.leader
    }

    /// The highest round this replica has promised (persisted).
    pub fn promised(&self) -> Ballot {
        self.storage.get_promise()
    }

    /// Index up to which the log is decided (exclusive).
    pub fn decided_idx(&self) -> u64 {
        self.storage.get_decided_idx()
    }

    /// Index up to which decided entries would survive a crash right now
    /// (see [`Storage::durable_decided_idx`]).
    pub(crate) fn durable_decided_idx(&self) -> u64 {
        self.storage.durable_decided_idx()
    }

    /// Where the stop-sign sits in the log, decided or not.
    pub(crate) fn stopsign_idx(&self) -> Option<u64> {
        self.stopsign_idx
    }

    /// Read decided entries in `[from, decided_idx)`.
    pub fn read_decided(&self, from: u64) -> Vec<LogEntry<T>> {
        self.decided_ref(from).to_vec()
    }

    /// Borrowed view of the decided entries in `[from, decided_idx)`; the
    /// zero-copy read used by the service layer's apply loop.
    pub fn decided_ref(&self, from: u64) -> &[LogEntry<T>] {
        let to = self.storage.get_decided_idx();
        if from >= to {
            return &[];
        }
        self.storage.entries_ref(from, to)
    }

    /// Read raw log entries (decided or not); for tests and invariants.
    pub fn read_log(&self, from: u64, to: u64) -> Vec<LogEntry<T>> {
        self.storage.get_entries(from, to)
    }

    /// Absolute log length.
    pub fn log_len(&self) -> u64 {
        self.storage.get_log_len()
    }

    /// Access to the underlying storage (e.g. to trim after applying).
    pub fn storage(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Index below which the log has been compacted away (superseded by a
    /// snapshot or a plain trim).
    pub fn compacted_idx(&self) -> u64 {
        self.storage.get_compacted_idx()
    }

    /// Compact the log up to `idx`: record `data` as the snapshot covering
    /// `[0, idx)`, trim that prefix, and checkpoint the storage, in one
    /// safe operation. Fails with [`TrimError`] if `idx` exceeds the
    /// decided index (undecided entries may still be overwritten) or falls
    /// below an earlier compaction point. In-flight snapshot transfers to
    /// lagging followers are unaffected: they hold their own pin on the
    /// snapshot they started with.
    pub fn compact(&mut self, idx: u64, data: SnapshotData) -> Result<(), TrimError> {
        if let Some(e) = self.halted {
            return Err(TrimError::Storage(e));
        }
        match self.storage.set_snapshot(idx, data) {
            Ok(()) => {}
            Err(TrimError::Storage(e)) => {
                self.halt(e);
                return Err(TrimError::Storage(e));
            }
            Err(e) => return Err(e),
        }
        let res = self.storage.checkpoint();
        if let Err(e) = res {
            self.halt(e);
            return Err(TrimError::Storage(e));
        }
        Ok(())
    }

    /// Take the snapshot this replica installed from a peer, if any: the
    /// owner must restore it into the application state machine before
    /// applying further decided entries. Returns `(idx, data)` where the
    /// snapshot reproduces the state after entries `[0, idx)`.
    pub fn take_installed_snapshot(&mut self) -> Option<(u64, SnapshotData)> {
        self.installed_snapshot.take()
    }

    /// The decided stop-sign, if this configuration has been stopped (§6).
    pub fn decided_stopsign(&self) -> Option<StopSign> {
        let idx = self.stopsign_idx?;
        if self.storage.get_decided_idx() > idx {
            match self.storage.get_entries(idx, idx + 1).into_iter().next() {
                Some(LogEntry::StopSign(ss)) => Some(*ss),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Drain queued outgoing messages. Entries appended since the previous
    /// drain are flushed (batched) here.
    ///
    /// This is also the group-commit point: [`Storage::flush`] runs before
    /// any message leaves, so acknowledgements (`Promise`, `Accepted`) and
    /// the entries that outgoing batches refer to are durable by the time
    /// a peer can observe them.
    /// A halted replica drains nothing: every queued message was built on
    /// state that may not be durable, and a failed flush must never release
    /// the acknowledgements it was meant to make durable (the fsyncgate
    /// rule — retrying the fsync and acking anyway is how acked data gets
    /// lost).
    pub fn outgoing_messages(&mut self) -> Vec<Message<T>> {
        if self.halted.is_some() {
            self.outgoing.clear();
            return Vec::new();
        }
        self.flush_accepts();
        self.flush_forwards();
        self.flush_read_checks();
        if let Err(e) = self.storage.flush() {
            self.halt(e);
            return Vec::new();
        }
        // Outgoing messages keep their own clones of shared batches; the
        // caches themselves must not pin large suffixes (or snapshot
        // windows) past the drain.
        self.leader_state.batch_cache.clear();
        self.leader_state.chunk_cache.clear();
        std::mem::take(&mut self.outgoing)
    }

    // ------------------------------------------------------------------
    // Client API
    // ------------------------------------------------------------------

    /// Propose a client command for replication.
    pub fn append(&mut self, entry: T) -> Result<(), ProposeErr> {
        self.propose_entry(LogEntry::Normal(entry))
    }

    /// Propose stopping this configuration and starting `ss.next_nodes`
    /// (§6). Decided like any other entry.
    pub fn reconfigure(&mut self, ss: StopSign) -> Result<(), ProposeErr> {
        if self.stopsign_idx.is_some() || self.pending.iter().any(LogEntry::is_stopsign) {
            return Err(ProposeErr::AlreadyReconfiguring);
        }
        self.propose_entry(LogEntry::stopsign(ss))
    }

    fn propose_entry(&mut self, entry: LogEntry<T>) -> Result<(), ProposeErr> {
        if let Some(e) = self.halted {
            return Err(ProposeErr::Halted(e));
        }
        if self.stopsign_idx.is_some() {
            return Err(ProposeErr::PendingReconfig);
        }
        match self.state {
            (Role::Leader, Phase::Accept) => {
                let is_ss = entry.is_stopsign();
                let res = self.storage.append_entry(entry);
                let Some(len) = self.guard(res) else {
                    return Err(ProposeErr::Halted(self.halted.expect("guard halted")));
                };
                if is_ss {
                    self.stopsign_idx = Some(len - 1);
                }
                self.leader_state.accepted.insert(self.config.pid, len);
                self.maybe_decide();
                Ok(())
            }
            _ => {
                // Buffer; flushed to the leader (or appended when this
                // server completes its own Prepare phase).
                if self.pending.len() >= self.config.buffer_size {
                    return Err(ProposeErr::BufferFull);
                }
                self.pending.push(entry);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Log-free linearizable reads (read barriers)
    // ------------------------------------------------------------------

    /// The index a *leader-local* linearizable read must wait for: once the
    /// owner has applied the log through it, the local state machine
    /// reflects every write that completed before this call. Only valid on
    /// the leader in the Accept phase — and only *safe* to act on while an
    /// external leadership guarantee (the BLE leader lease) holds;
    /// otherwise use [`SequencePaxos::request_read_index`], which confirms
    /// the round with a majority instead.
    pub fn read_barrier(&self) -> Option<u64> {
        if self.halted.is_some() || self.state != (Role::Leader, Phase::Accept) {
            return None;
        }
        Some(
            self.leader_state
                .accept_base
                .max(self.storage.get_decided_idx()),
        )
    }

    /// Request a linearizable read index (the read-index protocol): the
    /// leader captures its read barrier, re-confirms its round with one
    /// lightweight majority exchange, and answers with the index; the
    /// grant arrives via [`SequencePaxos::take_read_grants`]. Works from
    /// any replica — this is the follower-read path. Fire-and-forget: a
    /// leader change in flight drops the request, so the owner should
    /// retry on a deadline.
    pub fn request_read_index(&mut self, token: u64) -> Result<(), ReadIndexErr> {
        if self.halted.is_some() {
            return Err(ReadIndexErr::Halted);
        }
        if self.state == (Role::Leader, Phase::Accept) {
            self.push_read_barrier(self.config.pid, token);
            return Ok(());
        }
        let leader_pid = self.leader.pid;
        if leader_pid == 0 || leader_pid == self.config.pid {
            // No usable leader (an own stale ballot cannot serve either).
            return Err(ReadIndexErr::NoLeader);
        }
        self.send(leader_pid, PaxosMsg::ReadIndexReq(ReadIndexReq { token }));
        Ok(())
    }

    /// Drain confirmed read grants: `(token, idx)` pairs for reads this
    /// replica requested via [`SequencePaxos::request_read_index`].
    pub fn take_read_grants(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.read_grants)
    }

    /// Leader: capture a barrier for `from`'s read and queue it behind the
    /// next round confirmation.
    fn push_read_barrier(&mut self, from: NodeId, token: u64) {
        let idx = self
            .leader_state
            .accept_base
            .max(self.storage.get_decided_idx());
        let barrier = ReadBarrier {
            from,
            token,
            idx,
            // Confirmed by the next check broadcast; everything queued
            // between two drains shares one sequence number.
            seq: self.leader_state.read_seq + 1,
        };
        self.leader_state.read_pending.push(barrier);
        // A single-server cluster confirms immediately (majority = self).
        self.confirm_read_barriers();
    }

    /// Leader: release every pending barrier whose check sequence a
    /// majority (counting ourselves) has acked.
    fn confirm_read_barriers(&mut self) {
        if self.leader_state.read_pending.is_empty() {
            return;
        }
        let maj = majority(self.config.cluster_size());
        let acks = &self.leader_state.read_acks;
        let confirmed: Vec<ReadBarrier> = {
            let pending = &mut self.leader_state.read_pending;
            let mut out = Vec::new();
            pending.retain(|b| {
                let votes = 1 + acks.values().filter(|&&s| s >= b.seq).count();
                if votes >= maj {
                    out.push(*b);
                    false
                } else {
                    true
                }
            });
            out
        };
        for b in confirmed {
            if b.from == self.config.pid {
                self.read_grants.push((b.token, b.idx));
            } else {
                self.send(
                    b.from,
                    PaxosMsg::ReadIndexResp(ReadIndexResp {
                        token: b.token,
                        idx: b.idx,
                    }),
                );
            }
        }
    }

    /// Leader: broadcast one `ReadCheck` covering every barrier queued
    /// since the last broadcast. Called at drain time, so an admission
    /// window's worth of reads costs a single message pair per follower.
    fn flush_read_checks(&mut self) {
        if self.state != (Role::Leader, Phase::Accept) {
            return;
        }
        let next = self.leader_state.read_seq + 1;
        if !self.leader_state.read_pending.iter().any(|b| b.seq == next) {
            return;
        }
        self.leader_state.read_seq = next;
        let n = self.leader_state.n;
        let peers = self.config.peers.clone();
        for peer in peers {
            self.send(peer, PaxosMsg::ReadCheck(ReadCheck { n, seq: next }));
        }
    }

    fn handle_read_index_req(&mut self, req: ReadIndexReq, from: NodeId) {
        if self.state != (Role::Leader, Phase::Accept) {
            return; // requester's deadline will retry after the election
        }
        self.push_read_barrier(from, req.token);
    }

    fn handle_read_index_resp(&mut self, resp: ReadIndexResp) {
        self.read_grants.push((resp.token, resp.idx));
    }

    /// Follower: ack a round confirmation iff `n` is *exactly* our
    /// promised round. A majority of such acks proves no higher ballot had
    /// completed a Prepare phase at a majority — so no write the leader
    /// does not hold can have been committed.
    fn handle_read_check(&mut self, check: ReadCheck, from: NodeId) {
        if self.storage.get_promise() != check.n {
            return;
        }
        self.send(
            from,
            PaxosMsg::ReadCheckAck(ReadCheckAck {
                n: check.n,
                seq: check.seq,
            }),
        );
    }

    fn handle_read_check_ack(&mut self, ack: ReadCheckAck, from: NodeId) {
        if self.state != (Role::Leader, Phase::Accept) || ack.n != self.leader_state.n {
            return;
        }
        let e = self.leader_state.read_acks.entry(from).or_insert(0);
        *e = (*e).max(ack.seq);
        self.confirm_read_barriers();
    }

    // ------------------------------------------------------------------
    // BLE integration and recovery
    // ------------------------------------------------------------------

    /// Notify this replica that `ballot` has been elected (BLE output,
    /// Fig. 2). If the ballot is our own, start the Prepare phase.
    pub fn handle_leader(&mut self, ballot: Ballot) {
        if self.halted.is_some() {
            return; // fail-stop: no role changes while halted
        }
        if ballot <= self.leader && self.state != (Role::Follower, Phase::Recover) {
            return; // stale election
        }
        self.leader = self.leader.max(ballot);
        if ballot.pid == self.config.pid {
            if ballot > self.storage.get_promise() {
                self.become_leader(ballot);
            }
        } else if self.state.0 == Role::Leader {
            // A higher ballot is elected elsewhere: step down. The new
            // leader's Prepare will re-synchronize us.
            self.state = (Role::Follower, Phase::Accept);
        }
    }

    fn become_leader(&mut self, n: Ballot) {
        let res = self.storage.set_promise(n);
        if self.guard(res).is_none() {
            return; // halted before any Prepare could be sent
        }
        self.state = (Role::Leader, Phase::Prepare);
        self.leader_state = LeaderState::new(n);
        let acc_rnd = self.storage.get_accepted_round();
        let log_idx = self.storage.get_log_len();
        let decided_idx = self.storage.get_decided_idx();
        self.prep_snapshot = (acc_rnd, log_idx, decided_idx);
        // Self-promise.
        self.leader_state.promises.insert(
            self.config.pid,
            PromiseMeta {
                acc_rnd,
                log_idx,
                decided_idx,
            },
        );
        self.leader_state.max_meta = (acc_rnd, log_idx, self.config.pid);
        let prep = Prepare {
            n,
            decided_idx,
            accepted_rnd: acc_rnd,
            log_idx,
        };
        let peers = self.config.peers.clone();
        for peer in peers {
            self.send(peer, PaxosMsg::Prepare(prep.clone()));
        }
        self.maybe_majority_promised();
    }

    /// Rebuild volatile state after a crash (§4.1.3). The persistent state
    /// in storage is kept; the replica asks its peers who the leader is and
    /// re-synchronizes before participating again.
    ///
    /// This is also the only exit from the halted (fail-stop) state: the
    /// storage is asked to [`Storage::recover`] — re-establish a consistent
    /// durable view, discarding whatever the failed operation left behind.
    /// If recovery itself fails the replica stays halted.
    pub fn fail_recovery(&mut self) {
        match self.storage.recover() {
            Ok(()) => self.halted = None,
            Err(e) => {
                self.halt(e);
                return;
            }
        }
        self.state = (Role::Follower, Phase::Recover);
        self.leader = Ballot::bottom();
        self.pending.clear();
        self.leader_state = LeaderState::new(Ballot::bottom());
        self.incoming_snap = None;
        self.installed_snapshot = None;
        self.read_grants.clear();
        self.outgoing.clear();
        self.rescan_stopsign();
        let peers = self.config.peers.clone();
        for peer in peers {
            self.send(peer, PaxosMsg::PrepareReq);
        }
    }

    /// Notify that the link to `pid` was re-established after a session
    /// drop (§4.1.3): either side might have missed a leader change, so ask.
    pub fn reconnected(&mut self, pid: NodeId) {
        if self.halted.is_some() {
            return;
        }
        if pid != self.config.pid {
            self.send(pid, PaxosMsg::PrepareReq);
        }
    }

    /// Periodic retransmission driver, called on a coarse timer. Re-sends
    /// `Prepare` to peers that have not promised (their copy may have been
    /// lost to a dead link) and `PrepareReq` while recovering.
    pub fn resend_timeout(&mut self) {
        if self.halted.is_some() {
            return;
        }
        match self.state {
            (Role::Leader, _) => {
                let n = self.leader_state.n;
                let (acc_rnd, log_idx, decided_idx) = self.prep_snapshot;
                let unpromised: Vec<NodeId> = self
                    .config
                    .peers
                    .iter()
                    .copied()
                    .filter(|p| !self.leader_state.promises.contains_key(p))
                    .collect();
                for peer in unpromised {
                    self.send(
                        peer,
                        PaxosMsg::Prepare(Prepare {
                            n,
                            decided_idx,
                            accepted_rnd: acc_rnd,
                            log_idx,
                        }),
                    );
                }
                // Re-announce in-flight snapshot transfers: a lost chunk or
                // ack stalls the self-clocked stream; the meta makes the
                // follower re-ack its progress and resume from there.
                let mut xfers: Vec<(NodeId, u64, u64)> = self
                    .leader_state
                    .snap_xfers
                    .iter()
                    .map(|(&p, x)| (p, x.idx, x.data.len() as u64))
                    .collect();
                xfers.sort_unstable();
                for (pid, idx, total_bytes) in xfers {
                    self.send(
                        pid,
                        PaxosMsg::SnapshotMeta(SnapshotMeta {
                            n,
                            snapshot_idx: idx,
                            total_bytes,
                        }),
                    );
                }
                // Re-broadcast the latest round check: a lost ReadCheck or
                // ack would otherwise stall pending read barriers forever.
                if !self.leader_state.read_pending.is_empty() {
                    let seq = self.leader_state.read_seq;
                    let peers = self.config.peers.clone();
                    for peer in peers {
                        self.send(peer, PaxosMsg::ReadCheck(ReadCheck { n, seq }));
                    }
                }
            }
            (Role::Follower, Phase::Recover) => {
                let peers = self.config.peers.clone();
                for peer in peers {
                    self.send(peer, PaxosMsg::PrepareReq);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Feed one incoming message. A halted replica drops everything — to
    /// its peers it is indistinguishable from a crashed one.
    pub fn handle_message(&mut self, m: Message<T>) {
        if self.halted.is_some() {
            return;
        }
        let from = m.from;
        if self.state == (Role::Follower, Phase::Recover) {
            // While recovering only Prepare leads to resynchronization.
            if let PaxosMsg::Prepare(p) = m.msg {
                self.handle_prepare(p, from);
            }
            return;
        }
        match m.msg {
            PaxosMsg::PrepareReq => self.handle_prepare_req(from),
            PaxosMsg::Prepare(p) => self.handle_prepare(p, from),
            PaxosMsg::Promise(p) => self.handle_promise(p, from),
            PaxosMsg::AcceptSync(a) => self.handle_accept_sync(a, from),
            PaxosMsg::AcceptDecide(a) => self.handle_accept_decide(a, from),
            PaxosMsg::Accepted(a) => self.handle_accepted(a, from),
            PaxosMsg::Decide(d) => self.handle_decide(d),
            PaxosMsg::SnapshotMeta(m) => self.handle_snapshot_meta(m, from),
            PaxosMsg::SnapshotChunk(c) => self.handle_snapshot_chunk(c, from),
            PaxosMsg::SnapshotAck(a) => self.handle_snapshot_ack(a, from),
            PaxosMsg::ProposalForward(entries) => self.handle_forwarded(entries),
            PaxosMsg::ReadIndexReq(r) => self.handle_read_index_req(r, from),
            PaxosMsg::ReadIndexResp(r) => self.handle_read_index_resp(r),
            PaxosMsg::ReadCheck(c) => self.handle_read_check(c, from),
            PaxosMsg::ReadCheckAck(a) => self.handle_read_check_ack(a, from),
        }
    }

    fn handle_prepare_req(&mut self, from: NodeId) {
        if self.state.0 == Role::Leader {
            let n = self.leader_state.n;
            let (acc_rnd, log_idx, decided_idx) = self.prep_snapshot;
            // Re-start the follower from scratch in this round.
            self.leader_state.promises.remove(&from);
            self.leader_state.accepted.remove(&from);
            self.leader_state.snap_xfers.remove(&from);
            self.leader_state.sent_idx.remove(&from);
            self.send(
                from,
                PaxosMsg::Prepare(Prepare {
                    n,
                    decided_idx,
                    accepted_rnd: acc_rnd,
                    log_idx,
                }),
            );
        }
    }

    fn handle_prepare(&mut self, prep: Prepare, from: NodeId) {
        if self.storage.get_promise() > prep.n {
            return; // stale round
        }
        let res = self.storage.set_promise(prep.n);
        if self.guard(res).is_none() {
            return; // promise not durable: send no Promise
        }
        self.leader = self.leader.max(prep.n);
        self.state = (Role::Follower, Phase::Prepare);
        let acc_rnd = self.storage.get_accepted_round();
        let log_idx = self.storage.get_log_len();
        let decided_idx = self.storage.get_decided_idx();
        // Which part of our log might the leader be missing? (§4.1.1)
        let wanted_start = if acc_rnd > prep.accepted_rnd {
            // We are more updated: send everything above the leader's
            // decided index (its non-chosen tail may be overwritten).
            Some(prep.decided_idx.min(log_idx))
        } else if acc_rnd == prep.accepted_rnd && log_idx > prep.log_idx {
            Some(prep.log_idx)
        } else {
            None
        };
        let (suffix_start, suffix, snapshot) = match wanted_start {
            Some(start) => {
                let compacted = self.storage.get_compacted_idx();
                if start < compacted {
                    // Our log no longer reaches down to `start`: ship the
                    // snapshot that supersedes the compacted prefix and the
                    // suffix from the compaction point.
                    let snap = self
                        .storage
                        .get_snapshot()
                        .map(|s| (s.idx, s.data))
                        .filter(|&(idx, _)| idx == compacted);
                    (compacted, self.storage.get_suffix(compacted), snap)
                } else {
                    (start, self.storage.get_suffix(start), None)
                }
            }
            None => (log_idx, Vec::new(), None),
        };
        self.send(
            from,
            PaxosMsg::Promise(Promise {
                n: prep.n,
                accepted_rnd: acc_rnd,
                log_idx,
                decided_idx,
                suffix_start,
                suffix,
                snapshot,
            }),
        );
    }

    fn handle_promise(&mut self, prom: Promise<T>, from: NodeId) {
        if self.state.0 != Role::Leader || prom.n != self.leader_state.n {
            return; // stale or not ours
        }
        let meta = PromiseMeta {
            acc_rnd: prom.accepted_rnd,
            log_idx: prom.log_idx,
            decided_idx: prom.decided_idx,
        };
        let first_promise = self.leader_state.promises.insert(from, meta).is_none();
        match self.state.1 {
            Phase::Prepare => {
                // Track the best (most updated) promise (§4.1.1).
                let key = (prom.accepted_rnd, prom.log_idx);
                let (max_rnd, max_idx, _) = self.leader_state.max_meta;
                if key > (max_rnd, max_idx) {
                    self.leader_state.max_meta = (prom.accepted_rnd, prom.log_idx, from);
                    self.leader_state.max_suffix = prom.suffix;
                    self.leader_state.max_suffix_start = prom.suffix_start;
                    self.leader_state.max_snapshot = prom.snapshot;
                }
                if first_promise {
                    self.maybe_majority_promised();
                }
            }
            Phase::Accept => {
                // Straggler promising after the Prepare phase (§4.1.2), or a
                // follower re-promising after a PrepareReq.
                self.sync_follower(from, meta);
            }
            Phase::Recover => {}
        }
    }

    fn maybe_majority_promised(&mut self) {
        let maj = majority(self.config.cluster_size());
        if self.leader_state.promises.len() < maj || self.leader_state.synced {
            return;
        }
        // Adopt the most updated log among the majority (P2c, §4.2).
        let (max_rnd, max_idx, max_pid) = self.leader_state.max_meta;
        let (my_prep_rnd, my_prep_log_idx, _) = self.prep_snapshot;
        if max_pid != self.config.pid {
            debug_assert!(
                max_rnd > my_prep_rnd || (max_rnd == my_prep_rnd && max_idx > my_prep_log_idx)
            );
            // The promise states where its suffix starts (the follower's
            // mirror of our Prepare, or its compaction point).
            let start = self.leader_state.max_suffix_start;
            let suffix = std::mem::take(&mut self.leader_state.max_suffix);
            if let Some((snap_idx, snap_data)) = self.leader_state.max_snapshot.take() {
                // The best promise's log was compacted above where our log
                // ends: adopt its snapshot (superseding everything we
                // hold), then its suffix on top. The owner must restore the
                // snapshot into the state machine before applying further.
                debug_assert_eq!(snap_idx, start);
                let res = self.storage.install_snapshot(snap_idx, snap_data.clone());
                if self.guard(res).is_none() {
                    return;
                }
                self.installed_snapshot = Some((snap_idx, snap_data));
                self.stopsign_idx = None;
                self.update_stopsign_after_overwrite(start, &suffix);
                let res = self.storage.append_on_prefix(start, suffix);
                if self.guard(res).is_none() {
                    return;
                }
            } else {
                // Clamp for the unreachable-in-practice case of a gap with
                // no snapshot (a peer trimmed without snapshotting).
                let start = start.min(self.storage.get_log_len());
                self.update_stopsign_after_overwrite(start, &suffix);
                let res = self.storage.append_on_prefix(start, suffix);
                if self.guard(res).is_none() {
                    return;
                }
            }
        }
        let n = self.leader_state.n;
        let res = self.storage.set_accepted_round(n);
        if self.guard(res).is_none() {
            return;
        }
        // Append proposals buffered during the Prepare phase.
        let pending = std::mem::take(&mut self.pending);
        for entry in pending {
            if self.stopsign_idx.is_some() {
                break; // drop proposals behind a stop-sign
            }
            let is_ss = entry.is_stopsign();
            let res = self.storage.append_entry(entry);
            let Some(len) = self.guard(res) else {
                return;
            };
            if is_ss {
                self.stopsign_idx = Some(len - 1);
            }
        }
        let log_len = self.storage.get_log_len();
        self.leader_state.accepted.insert(self.config.pid, log_len);
        self.leader_state.synced = true;
        self.leader_state.accept_base = log_len;
        self.state = (Role::Leader, Phase::Accept);
        // Synchronize every promised follower.
        let mut followers: Vec<(NodeId, PromiseMeta)> = self
            .leader_state
            .promises
            .iter()
            .filter(|(&p, _)| p != self.config.pid)
            .map(|(&p, &m)| (p, m))
            .collect();
        followers.sort_unstable_by_key(|&(p, _)| p);
        for (pid, meta) in followers {
            self.sync_follower(pid, meta);
        }
        self.maybe_decide();
    }

    /// Send `AcceptSync` bringing `pid` in line with the leader's log.
    fn sync_follower(&mut self, pid: NodeId, meta: PromiseMeta) {
        debug_assert_eq!(self.state, (Role::Leader, Phase::Accept));
        let (max_rnd, max_idx, _) = self.leader_state.max_meta;
        let log_len = self.storage.get_log_len();
        // If the follower accepted in the same round as the adopted maximum
        // and within its length, its log is a *prefix* of ours (FIFO), so we
        // can sync from its end. Otherwise its non-chosen tail may conflict
        // and we overwrite from its decided index (§4.1.2, e.g. server C in
        // Fig. 3a).
        let sync_idx = if meta.acc_rnd == max_rnd && meta.log_idx <= max_idx {
            meta.log_idx
        } else if meta.acc_rnd == self.leader_state.n {
            // Re-promise within our own round (after PrepareReq): already
            // consistent up to its length.
            meta.log_idx.min(log_len)
        } else {
            meta.decided_idx
        };
        debug_assert!(sync_idx <= log_len, "sync_idx {sync_idx} > log {log_len}");
        let sync_idx = sync_idx.min(log_len);
        self.sync_from(pid, sync_idx);
    }

    /// Synchronize `pid` from absolute index `sync_idx`: an `AcceptSync`
    /// with the log suffix when our log still reaches that far down, or a
    /// chunked snapshot transfer when `sync_idx` lies inside the compacted
    /// prefix (the follower's log is older than anything we still hold).
    fn sync_from(&mut self, pid: NodeId, sync_idx: u64) {
        let compacted = self.storage.get_compacted_idx();
        if sync_idx < compacted {
            // The snapshot can only bridge the gap if it covers the whole
            // compacted prefix (it always does when compaction goes through
            // `compact()`; a later plain `trim` could outrun it).
            if let Some(snap) = self.storage.get_snapshot().filter(|s| s.idx == compacted) {
                self.start_snapshot_xfer(pid, snap.idx, snap.data);
                return;
            }
            // No snapshot covers the gap (a plain trim): the best we can
            // do is sync from the compaction point; the follower rewrites
            // its tail from there. This only arises if the owner trimmed
            // without snapshotting while a peer still needed the prefix.
            return self.sync_from(pid, compacted);
        }
        let log_len = self.storage.get_log_len();
        let decided_idx = self.storage.get_decided_idx();
        // Followers that promised at the same index (the common case when
        // the cluster was in sync before the election) share one batch.
        let suffix = self.shared_suffix_cached(sync_idx);
        self.leader_state.snap_xfers.remove(&pid);
        self.leader_state.sent_idx.insert(pid, log_len);
        self.leader_state.sent_decided.insert(pid, decided_idx);
        self.send(
            pid,
            PaxosMsg::AcceptSync(AcceptSync {
                n: self.leader_state.n,
                sync_idx,
                decided_idx,
                suffix,
            }),
        );
    }

    /// Begin (or restart) a chunked snapshot transfer to `pid`. The
    /// follower answers the meta with a cumulative [`SnapshotAck`] — zero
    /// normally, its buffered prefix when resuming — and each ack clocks
    /// out the next chunk.
    fn start_snapshot_xfer(&mut self, pid: NodeId, idx: u64, data: SnapshotData) {
        let total_bytes = data.len() as u64;
        // Streaming entries to this follower is suspended until the
        // transfer completes and `sync_from` runs for the tail.
        self.leader_state.sent_idx.remove(&pid);
        self.leader_state.sent_decided.remove(&pid);
        self.leader_state
            .snap_xfers
            .insert(pid, SnapshotXfer { idx, data });
        self.send(
            pid,
            PaxosMsg::SnapshotMeta(SnapshotMeta {
                n: self.leader_state.n,
                snapshot_idx: idx,
                total_bytes,
            }),
        );
    }

    fn handle_accept_sync(&mut self, acc: AcceptSync<T>, from: NodeId) {
        // A follower already in the Accept phase of this round still takes
        // the sync: a duplicated Prepare (a recovery and a reconnect both
        // asking) makes it promise twice, and the leader answers each
        // promise with a sync. FIFO links deliver them in order, each the
        // leader's log as of its sending, so applying the later one only
        // extends the log; dropping it would leave the follower short of
        // where the leader streams from, for good.
        if self.storage.get_promise() != acc.n || self.state.0 != Role::Follower {
            return;
        }
        let res = self.storage.set_accepted_round(acc.n);
        if self.guard(res).is_none() {
            return;
        }
        // A log sync supersedes any half-finished snapshot transfer.
        self.incoming_snap = None;
        // In the Prepare phase `sync_idx` is at least the decided index we
        // promised with. A late sync reaching us in the Accept phase
        // answers an earlier promise, so its `sync_idx` may lie below what
        // we have decided (and perhaps compacted) since: as for a
        // retransmitted batch, skip that part — never rewrite the decided
        // prefix — and apply only what is fresh.
        let start = acc.sync_idx.max(self.storage.get_decided_idx());
        let skip = (start - acc.sync_idx) as usize;
        if skip == 0 || skip < acc.suffix.len() {
            // Everything from `start` on is replaced by the rest of the
            // suffix, so the stop-sign scan only needs to cover that — not
            // the whole log as a full rescan would.
            self.update_stopsign_after_overwrite(start, &acc.suffix[skip..]);
            let res = self
                .storage
                .append_on_prefix(start, take_entries(acc.suffix, skip));
            if self.guard(res).is_none() {
                return;
            }
        }
        let log_len = self.storage.get_log_len();
        let decided = acc.decided_idx.min(log_len);
        if decided > self.storage.get_decided_idx() {
            let res = self.storage.set_decided_idx(decided);
            if self.guard(res).is_none() {
                return;
            }
        }
        self.state = (Role::Follower, Phase::Accept);
        self.send(
            from,
            PaxosMsg::Accepted(Accepted {
                n: acc.n,
                log_idx: log_len,
            }),
        );
    }

    // ------------------------------------------------------------------
    // Chunked snapshot transfer
    // ------------------------------------------------------------------

    /// Follower: the leader announced that we will be synchronized by
    /// snapshot. Open (or resume) the reassembly buffer and report how far
    /// we already are — the ack clocks the first/next chunk out.
    fn handle_snapshot_meta(&mut self, meta: SnapshotMeta, from: NodeId) {
        if self.storage.get_promise() != meta.n || self.state.0 != Role::Follower {
            return;
        }
        // The transfer takes the place of log synchronization: stay in the
        // Prepare phase until the tail arrives via AcceptSync.
        self.state = (Role::Follower, Phase::Prepare);
        let resume = self.incoming_snap.as_ref().is_some_and(|s| {
            s.n == meta.n && s.idx == meta.snapshot_idx && s.total == meta.total_bytes
        });
        if !resume {
            self.incoming_snap = Some(IncomingSnapshot {
                n: meta.n,
                idx: meta.snapshot_idx,
                total: meta.total_bytes,
                buf: Vec::new(),
            });
        }
        self.snapshot_progress(from);
    }

    /// Follower: one in-order window of the snapshot byte stream.
    fn handle_snapshot_chunk(&mut self, chunk: SnapshotChunk, from: NodeId) {
        if self.storage.get_promise() != chunk.n || self.state != (Role::Follower, Phase::Prepare) {
            return;
        }
        let Some(snap) = self.incoming_snap.as_mut() else {
            return; // meta lost; the leader's resend sweep re-announces
        };
        if snap.n != chunk.n || snap.idx != chunk.snapshot_idx {
            return; // a stale transfer's chunk
        }
        if chunk.offset == snap.buf.len() as u64 {
            snap.buf.extend_from_slice(&chunk.data);
        }
        // Duplicates and out-of-order chunks fall through to a cumulative
        // ack, which tells the leader where to continue.
        self.snapshot_progress(from);
    }

    /// Follower: install the snapshot if complete, then ack progress.
    fn snapshot_progress(&mut self, from: NodeId) {
        let Some(snap) = self.incoming_snap.as_ref() else {
            return;
        };
        let (n, idx, received) = (snap.n, snap.idx, snap.buf.len() as u64);
        if received >= snap.total {
            let snap = self.incoming_snap.take().expect("checked above");
            let data: SnapshotData = snap.buf.into();
            // The snapshot supersedes our whole log (it only travels when
            // our log ended below the leader's compaction point).
            let res = self.storage.install_snapshot(idx, data.clone());
            if self.guard(res).is_none() {
                return; // not durable: no ack
            }
            let res = self.storage.set_accepted_round(n);
            if self.guard(res).is_none() {
                return;
            }
            self.installed_snapshot = Some((idx, data));
            self.stopsign_idx = None;
            // Remain in (Follower, Prepare): the final ack makes the
            // leader ship the tail above `idx` as a normal AcceptSync.
        }
        self.send(
            from,
            PaxosMsg::SnapshotAck(SnapshotAck {
                n,
                snapshot_idx: idx,
                received,
            }),
        );
    }

    /// Leader: a follower's cumulative progress report — completion makes
    /// us ship the log tail; anything else clocks out the next chunk.
    fn handle_snapshot_ack(&mut self, ack: SnapshotAck, from: NodeId) {
        if self.state != (Role::Leader, Phase::Accept) || ack.n != self.leader_state.n {
            return;
        }
        let Some(xfer) = self.leader_state.snap_xfers.get(&from).cloned() else {
            return; // superseded; a fresh Promise will restart the sync
        };
        let total = xfer.data.len() as u64;
        if ack.snapshot_idx != xfer.idx {
            // Ack of an older transfer (we compacted again and restarted
            // with a newer snapshot): re-announce the current one.
            self.send(
                from,
                PaxosMsg::SnapshotMeta(SnapshotMeta {
                    n: ack.n,
                    snapshot_idx: xfer.idx,
                    total_bytes: total,
                }),
            );
            return;
        }
        if ack.received >= total {
            // Transfer complete: the follower's log now starts at the
            // snapshot index; everything above travels as a normal
            // AcceptSync. If we compacted past `xfer.idx` in the meantime,
            // sync_from starts a fresh transfer of the newer snapshot.
            self.leader_state.snap_xfers.remove(&from);
            self.sync_from(from, xfer.idx);
            return;
        }
        let offset = ack.received;
        let end = total.min(offset + self.config.snapshot_chunk_bytes as u64);
        // Chunk windows are cut once and shared: several lagging followers
        // at the same offset (or retransmissions) reuse the allocation.
        let key = (xfer.idx, offset);
        let data = match self.leader_state.chunk_cache.get(&key) {
            Some(d) => d.clone(),
            None => {
                let d: SnapshotData = xfer.data[offset as usize..end as usize].into();
                self.leader_state.chunk_cache.insert(key, d.clone());
                d
            }
        };
        self.send(
            from,
            PaxosMsg::SnapshotChunk(SnapshotChunk {
                n: ack.n,
                snapshot_idx: xfer.idx,
                offset,
                total_bytes: total,
                data,
            }),
        );
    }

    fn handle_accept_decide(&mut self, acc: AcceptDecide<T>, from: NodeId) {
        if self.storage.get_promise() != acc.n || self.state != (Role::Follower, Phase::Accept) {
            return;
        }
        if !acc.entries.is_empty() {
            let log_len = self.storage.get_log_len();
            if acc.start_idx > log_len {
                // A predecessor batch was lost to a dead link: the session
                // FIFO assumption no longer holds for this stream. Ask the
                // leader to re-synchronize (§4.1.3) instead of misplacing
                // the entries.
                self.send(from, PaxosMsg::PrepareReq);
                return;
            }
            // Overlapping retransmissions carry identical entries (same
            // round, same positions); skip what we already hold — but never
            // rewrite the decided prefix.
            let decided_idx = self.storage.get_decided_idx();
            let effective_start = acc.start_idx.max(decided_idx);
            let skip = (effective_start - acc.start_idx) as usize;
            if skip < acc.entries.len() {
                self.update_stopsign_after_overwrite(effective_start, &acc.entries[skip..]);
                let fresh = take_entries(acc.entries, skip);
                let res = self.storage.append_on_prefix(effective_start, fresh);
                if self.guard(res).is_none() {
                    return; // entries not durable: send no Accepted
                }
            }
            // Acknowledge unconditionally — even a batch lying entirely
            // below our decided index (skip >= entries.len()) must produce
            // an `Accepted` with the current log length, or the leader's
            // view of this follower would stall.
            let log_len = self.storage.get_log_len();
            self.send(
                from,
                PaxosMsg::Accepted(Accepted {
                    n: acc.n,
                    log_idx: log_len,
                }),
            );
        }
        let log_len = self.storage.get_log_len();
        let decided = acc.decided_idx.min(log_len);
        if decided > self.storage.get_decided_idx() {
            let res = self.storage.set_decided_idx(decided);
            let _ = self.guard(res);
        }
    }

    fn handle_accepted(&mut self, acc: Accepted, from: NodeId) {
        if self.state != (Role::Leader, Phase::Accept) || acc.n != self.leader_state.n {
            return;
        }
        let e = self.leader_state.accepted.entry(from).or_insert(0);
        *e = (*e).max(acc.log_idx);
        self.maybe_decide();
    }

    /// An index accepted by a majority in the current round is chosen
    /// (§4.1.2); advance the decided index accordingly.
    fn maybe_decide(&mut self) {
        if self.state != (Role::Leader, Phase::Accept) {
            return;
        }
        let maj = majority(self.config.cluster_size());
        // The majority-th largest acknowledged length, found without
        // allocating (quadratic in the cluster size, which is small).
        let acks = &self.leader_state.accepted;
        let Some(chosen) = acks
            .values()
            .copied()
            .filter(|&v| acks.values().filter(|&&w| w >= v).count() >= maj)
            .max()
        else {
            return;
        };
        if chosen > self.storage.get_decided_idx() {
            let res = self.storage.set_decided_idx(chosen);
            let _ = self.guard(res);
            // Propagation to followers is piggybacked by flush_accepts(), or
            // sent standalone there when no entries are pending.
        }
    }

    fn handle_decide(&mut self, d: Decide) {
        if self.storage.get_promise() != d.n || self.state != (Role::Follower, Phase::Accept) {
            return;
        }
        let decided = d.decided_idx.min(self.storage.get_log_len());
        if decided > self.storage.get_decided_idx() {
            let res = self.storage.set_decided_idx(decided);
            let _ = self.guard(res);
        }
    }

    fn handle_forwarded(&mut self, entries: Vec<LogEntry<T>>) {
        for e in entries {
            // Failed proposals are dropped; clients retry (at-least-once is
            // the service layer's concern).
            let _ = self.propose_entry(e);
        }
    }

    // ------------------------------------------------------------------
    // Outgoing batching
    // ------------------------------------------------------------------

    /// Send all unsent entries (and the newest decided index) to each
    /// promised follower. Called when the owner drains messages, so all
    /// appends between drains batch into one `AcceptDecide` per follower.
    fn flush_accepts(&mut self) {
        if self.state != (Role::Leader, Phase::Accept) {
            return;
        }
        let n = self.leader_state.n;
        let log_len = self.storage.get_log_len();
        let decided_idx = self.storage.get_decided_idx();
        // Peers in config order, so every run sends in the same order.
        for k in 0..self.config.peers.len() {
            let pid = self.config.peers[k];
            // Only stream to followers that have completed AcceptSync
            // (sent_idx is set by sync_follower, and only for promised
            // followers).
            let Some(&sent) = self.leader_state.sent_idx.get(&pid) else {
                continue;
            };
            let sent_dec = self
                .leader_state
                .sent_decided
                .get(&pid)
                .copied()
                .unwrap_or(0);
            if log_len > sent {
                // One shared batch per distinct start index; all followers
                // at the same position share the allocation.
                let entries = self.shared_suffix_cached(sent);
                self.leader_state.sent_idx.insert(pid, log_len);
                self.leader_state.sent_decided.insert(pid, decided_idx);
                self.send(
                    pid,
                    PaxosMsg::AcceptDecide(AcceptDecide {
                        n,
                        start_idx: sent,
                        decided_idx,
                        entries,
                    }),
                );
            } else if decided_idx > sent_dec {
                self.leader_state.sent_decided.insert(pid, decided_idx);
                self.send(pid, PaxosMsg::Decide(Decide { n, decided_idx }));
            }
        }
    }

    /// Forward buffered proposals to the current leader (if we are a
    /// follower and know one).
    fn flush_forwards(&mut self) {
        if self.pending.is_empty() || self.state.0 == Role::Leader || self.state.1 == Phase::Recover
        {
            return;
        }
        let leader_pid = self.leader.pid;
        if leader_pid == 0 || leader_pid == self.config.pid {
            return;
        }
        let entries = std::mem::take(&mut self.pending);
        self.send(leader_pid, PaxosMsg::ProposalForward(entries));
    }

    /// Shared suffix `[from, log_len)`, memoized per drain in the leader's
    /// batch cache so fan-out to N followers performs one allocation.
    fn shared_suffix_cached(&mut self, from: u64) -> EntryBatch<T> {
        let log_len = self.storage.get_log_len();
        if self.leader_state.batch_cache_len != log_len {
            self.leader_state.batch_cache.clear();
            self.leader_state.batch_cache_len = log_len;
        }
        if let Some(batch) = self.leader_state.batch_cache.get(&from) {
            return batch.clone();
        }
        let batch = self.storage.shared_suffix(from);
        self.leader_state.batch_cache.insert(from, batch.clone());
        batch
    }

    /// Re-derive `stopsign_idx` after the log was truncated at `start` and
    /// `appended` written there: an O(|appended|) scan of only the new
    /// suffix. A stop-sign strictly below `start` is untouched; anything at
    /// or above it was overwritten.
    fn update_stopsign_after_overwrite(&mut self, start: u64, appended: &[LogEntry<T>]) {
        if self.stopsign_idx.is_some_and(|i| i >= start) {
            self.stopsign_idx = None;
        }
        if self.stopsign_idx.is_none() {
            for (i, e) in appended.iter().enumerate() {
                if e.is_stopsign() {
                    self.stopsign_idx = Some(start + i as u64);
                    break;
                }
            }
        }
    }

    /// Full-log stop-sign scan; only needed after a crash, when no prior
    /// `stopsign_idx` is available to update incrementally.
    fn rescan_stopsign(&mut self) {
        self.stopsign_idx = None;
        let from = self.storage.get_compacted_idx();
        let log_len = self.storage.get_log_len();
        for (i, e) in self.storage.entries_ref(from, log_len).iter().enumerate() {
            if e.is_stopsign() {
                self.stopsign_idx = Some(from + i as u64);
                break;
            }
        }
    }

    fn send(&mut self, to: NodeId, msg: PaxosMsg<T>) {
        self.outgoing.push(Message {
            from: self.config.pid,
            to,
            msg,
        });
    }
}

impl<T: Entry, S: Storage<T>> std::fmt::Debug for SequencePaxos<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequencePaxos")
            .field("pid", &self.config.pid)
            .field("state", &self.state)
            .field("leader", &self.leader)
            .field("promised", &self.storage.get_promise())
            .field("log_len", &self.storage.get_log_len())
            .field("decided_idx", &self.storage.get_decided_idx())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStorage;

    type Sp = SequencePaxos<u64, MemoryStorage<u64>>;

    fn replica(pid: NodeId) -> Sp {
        SequencePaxos::new(
            SequencePaxosConfig::with(1, pid, &[1, 2, 3]),
            MemoryStorage::new(),
        )
    }

    fn ballot(n: u64, pid: NodeId) -> Ballot {
        Ballot::new(n, 0, pid)
    }

    /// Collect the tags of queued messages per destination.
    fn drain(sp: &mut Sp) -> Vec<(NodeId, &'static str)> {
        sp.outgoing_messages()
            .iter()
            .map(|m| (m.to, m.msg.tag()))
            .collect()
    }

    fn deliver(from: &mut Sp, to: &mut Sp) {
        let to_pid = to.pid();
        for m in from.outgoing_messages() {
            if m.to == to_pid {
                to.handle_message(m);
            }
        }
    }

    #[test]
    fn becoming_leader_sends_prepare_to_all_peers() {
        let mut sp = replica(1);
        sp.handle_leader(ballot(1, 1));
        assert_eq!(sp.state(), (Role::Leader, Phase::Prepare));
        let out = drain(&mut sp);
        assert!(out.contains(&(2, "Prepare")));
        assert!(out.contains(&(3, "Prepare")));
    }

    #[test]
    fn election_not_exceeding_promise_is_ignored() {
        let mut sp = replica(1);
        sp.handle_message(Message::with(
            2,
            1,
            PaxosMsg::Prepare(Prepare {
                n: ballot(5, 2),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        // Stale own election (<= promised) must not seize leadership.
        sp.handle_leader(ballot(3, 1));
        assert_eq!(sp.state().0, Role::Follower);
        // A higher own election does.
        sp.handle_leader(ballot(6, 1));
        assert_eq!(sp.state().0, Role::Leader);
    }

    #[test]
    fn majority_promises_move_leader_to_accept_phase() {
        let mut leader = replica(1);
        let mut f2 = replica(2);
        leader.handle_leader(ballot(1, 1));
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.state(), (Role::Follower, Phase::Prepare));
        deliver(&mut f2, &mut leader);
        // 2 of 3 promised (leader + f2): Accept phase begins.
        assert_eq!(leader.state(), (Role::Leader, Phase::Accept));
        // f2 receives AcceptSync and completes.
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.state(), (Role::Follower, Phase::Accept));
    }

    #[test]
    fn leader_adopts_the_most_updated_promise() {
        // Follower 2 holds entries accepted in an older round; the new
        // leader (with an empty log) must adopt them (P2c).
        let mut leader = replica(1);
        let mut f2 = replica(2);
        f2.storage().set_accepted_round(ballot(1, 3)).unwrap();
        f2.storage()
            .append_entries(vec![LogEntry::Normal(7), LogEntry::Normal(8)])
            .unwrap();
        leader.handle_leader(ballot(2, 1));
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader);
        assert_eq!(leader.log_len(), 2);
        assert_eq!(
            leader.read_log(0, 2),
            vec![LogEntry::Normal(7), LogEntry::Normal(8)]
        );
    }

    #[test]
    fn non_chosen_suffix_is_overwritten_by_sync() {
        // Fig. 3a: follower C has [4,5,6] beyond its decided prefix; the
        // leader's adopted log wins.
        let mut leader = replica(1);
        let mut f2 = replica(2);
        let mut f3 = replica(3);
        // f3 has stale accepted entries from an old round.
        f3.storage().set_accepted_round(ballot(1, 3)).unwrap();
        f3.storage()
            .append_entries(vec![
                LogEntry::Normal(4),
                LogEntry::Normal(5),
                LogEntry::Normal(6),
            ])
            .unwrap();
        // f2 has newer chosen entries.
        f2.storage().set_accepted_round(ballot(2, 2)).unwrap();
        f2.storage()
            .append_entries(vec![LogEntry::Normal(1), LogEntry::Normal(2)])
            .unwrap();
        leader.handle_leader(ballot(3, 1));
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader); // majority: adopt f2's log
                                       // The straggler's original Prepare was dropped by the test's
                                       // point-to-point delivery; the retransmission sweep re-sends it,
                                       // as it would after a real link outage.
        leader.resend_timeout();
        deliver(&mut leader, &mut f3); // Prepare reaches the straggler
        deliver(&mut f3, &mut leader); // late promise
        deliver(&mut leader, &mut f3); // AcceptSync overwrites
        assert_eq!(
            f3.read_log(0, 10),
            vec![LogEntry::Normal(1), LogEntry::Normal(2)],
            "f3's non-chosen [4,5,6] must be overwritten"
        );
    }

    #[test]
    fn accept_decide_with_gap_triggers_resync_not_misplacement() {
        // Regression for the safety bug found by the chaos suite: an
        // AcceptDecide whose predecessor was lost must not append at the
        // wrong index.
        let mut f = replica(2);
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(1, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        let _ = f.outgoing_messages();
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptSync(AcceptSync {
                n: ballot(1, 1),
                sync_idx: 0,
                decided_idx: 0,
                suffix: vec![].into(),
            }),
        ));
        let _ = f.outgoing_messages();
        // Batch starting at index 1 while the log has 0 entries: a batch
        // was lost.
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptDecide(AcceptDecide {
                n: ballot(1, 1),
                start_idx: 1,
                decided_idx: 2,
                entries: vec![LogEntry::Normal(99)].into(),
            }),
        ));
        assert_eq!(f.log_len(), 0, "gapped batch must be rejected");
        assert_eq!(f.decided_idx(), 0);
        let out = drain(&mut f);
        assert!(
            out.contains(&(1, "PrepareReq")),
            "must ask the leader to resynchronize: {out:?}"
        );
    }

    #[test]
    fn overlapping_accept_decide_is_idempotent() {
        let mut f = replica(2);
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(1, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptSync(AcceptSync {
                n: ballot(1, 1),
                sync_idx: 0,
                decided_idx: 0,
                suffix: vec![LogEntry::Normal(1), LogEntry::Normal(2)].into(),
            }),
        ));
        // Retransmission overlapping the existing prefix.
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptDecide(AcceptDecide {
                n: ballot(1, 1),
                start_idx: 1,
                decided_idx: 0,
                entries: vec![LogEntry::Normal(2), LogEntry::Normal(3)].into(),
            }),
        ));
        assert_eq!(
            f.read_log(0, 10),
            vec![
                LogEntry::Normal(1),
                LogEntry::Normal(2),
                LogEntry::Normal(3)
            ]
        );
    }

    #[test]
    fn follower_buffers_and_forwards_proposals() {
        let mut f = replica(2);
        f.append(42).expect("buffered");
        assert!(drain(&mut f).is_empty(), "no leader known yet: buffered");
        // Learn a leader via Prepare.
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(1, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        let out = drain(&mut f);
        assert!(
            out.contains(&(1, "ProposalForward")),
            "buffered proposal flushed to the leader: {out:?}"
        );
    }

    #[test]
    fn stopsign_blocks_append_until_overwritten() {
        let mut leader = replica(1);
        let mut f2 = replica(2);
        leader.handle_leader(ballot(1, 1));
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader);
        leader.append(1).unwrap();
        leader.reconfigure(StopSign::new(2, vec![4, 5, 6])).unwrap();
        assert_eq!(leader.append(2), Err(ProposeErr::PendingReconfig));
        assert_eq!(
            leader.reconfigure(StopSign::new(2, vec![7])),
            Err(ProposeErr::AlreadyReconfiguring)
        );
    }

    #[test]
    fn stopsign_decides_through_normal_protocol() {
        let mut leader = replica(1);
        let mut f2 = replica(2);
        leader.handle_leader(ballot(1, 1));
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader);
        deliver(&mut leader, &mut f2); // AcceptSync
        deliver(&mut f2, &mut leader); // Accepted
        leader.reconfigure(StopSign::new(2, vec![1, 2, 4])).unwrap();
        deliver(&mut leader, &mut f2); // AcceptDecide with the stop-sign
        deliver(&mut f2, &mut leader); // Accepted -> chosen
        assert_eq!(leader.decided_stopsign().map(|ss| ss.config_id), Some(2));
        // Propagate the decide to the follower.
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.decided_stopsign().map(|ss| ss.config_id), Some(2));
    }

    #[test]
    fn recovering_replica_only_listens_to_prepare() {
        let mut f = replica(2);
        f.fail_recovery();
        assert_eq!(f.state(), (Role::Follower, Phase::Recover));
        // AcceptDecide in recover state is ignored entirely.
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptDecide(AcceptDecide {
                n: ballot(1, 1),
                start_idx: 0,
                decided_idx: 1,
                entries: vec![LogEntry::Normal(1)].into(),
            }),
        ));
        assert_eq!(f.log_len(), 0);
        // Prepare resynchronizes and exits recovery (via AcceptSync).
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(1, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        assert_eq!(f.state(), (Role::Follower, Phase::Prepare));
    }

    #[test]
    fn stale_round_messages_are_ignored() {
        let mut f = replica(2);
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(5, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        let _ = f.outgoing_messages();
        // Prepare from a lower round: no promise may be sent.
        f.handle_message(Message::with(
            3,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(4, 3),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        assert!(drain(&mut f).is_empty(), "stale Prepare must be ignored");
        assert_eq!(f.promised(), ballot(5, 1));
    }

    #[test]
    fn prepare_req_makes_leader_restart_the_follower() {
        let mut leader = replica(1);
        let mut f2 = replica(2);
        leader.handle_leader(ballot(1, 1));
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader);
        leader.append(1).unwrap();
        let _ = leader.outgoing_messages();
        // Session drop: follower asks who leads.
        leader.handle_message(Message::with(2, 1, PaxosMsg::PrepareReq));
        let out = drain(&mut leader);
        assert!(out.contains(&(2, "Prepare")), "leader re-prepares: {out:?}");
    }

    #[test]
    fn duplicated_prepare_still_syncs_the_follower() {
        let mut leader = replica(1);
        let mut f2 = replica(2);
        leader.handle_leader(ballot(1, 1));
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader);
        deliver(&mut leader, &mut f2);
        // f2 asks twice (say, a recovery and a reconnect): two Prepares,
        // two promises, and the leader's log grows between them.
        leader.handle_message(Message::with(2, 1, PaxosMsg::PrepareReq));
        leader.handle_message(Message::with(2, 1, PaxosMsg::PrepareReq));
        deliver(&mut leader, &mut f2);
        let mut promises =
            (f2.outgoing_messages().into_iter()).filter(|m| m.msg.tag() == "Promise");
        leader.handle_message(promises.next().expect("first promise"));
        leader.append(1).unwrap();
        leader.append(2).unwrap();
        for m in promises {
            leader.handle_message(m);
        }
        // The second sync reaches f2 in the Accept phase and still counts.
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.state(), (Role::Follower, Phase::Accept));
        assert_eq!(f2.log_len(), leader.log_len());
        leader.append(3).unwrap();
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.log_len(), leader.log_len());
    }

    #[test]
    fn late_sync_never_rewrites_the_decided_prefix() {
        let mut leader = replica(1);
        let mut f2 = replica(2);
        leader.handle_leader(ballot(1, 1));
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader);
        deliver(&mut leader, &mut f2);
        // Two promises at log index 0; the first is answered at once.
        leader.handle_message(Message::with(2, 1, PaxosMsg::PrepareReq));
        leader.handle_message(Message::with(2, 1, PaxosMsg::PrepareReq));
        deliver(&mut leader, &mut f2);
        let mut promises =
            (f2.outgoing_messages().into_iter()).filter(|m| m.msg.tag() == "Promise");
        leader.handle_message(promises.next().expect("first promise"));
        // f2 syncs, accepts [1, 2], learns them decided and compacts them
        // away before the second sync (still from index 0) arrives.
        leader.append(1).unwrap();
        leader.append(2).unwrap();
        deliver(&mut leader, &mut f2);
        deliver(&mut f2, &mut leader);
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.decided_idx(), 2);
        f2.compact(2, vec![7u8].into()).unwrap();
        for m in promises {
            leader.handle_message(m);
        }
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.state(), (Role::Follower, Phase::Accept));
        assert_eq!((f2.log_len(), f2.decided_idx()), (2, 2));
        assert_eq!(f2.compacted_idx(), 2);
        leader.append(3).unwrap();
        deliver(&mut leader, &mut f2);
        assert_eq!(f2.log_len(), leader.log_len());
    }

    #[test]
    fn resend_timeout_reissues_prepare_to_unpromised_peers() {
        let mut leader = replica(1);
        leader.handle_leader(ballot(1, 1));
        let _ = leader.outgoing_messages(); // initial prepares lost
        leader.resend_timeout();
        let out = drain(&mut leader);
        assert!(out.contains(&(2, "Prepare")));
        assert!(out.contains(&(3, "Prepare")));
    }

    #[test]
    fn decide_is_clamped_to_local_log_length() {
        let mut f = replica(2);
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(1, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptSync(AcceptSync {
                n: ballot(1, 1),
                sync_idx: 0,
                decided_idx: 0,
                suffix: vec![LogEntry::Normal(1)].into(),
            }),
        ));
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Decide(Decide {
                n: ballot(1, 1),
                decided_idx: 10,
            }),
        ));
        assert_eq!(f.decided_idx(), 1, "cannot decide beyond the local log");
    }

    #[test]
    fn failed_append_halts_the_replica_and_acks_nothing() {
        use crate::faults::{FaultyStorage, StorageFaultKind};
        let mut f: SequencePaxos<u64, FaultyStorage<u64, MemoryStorage<u64>>> = SequencePaxos::new(
            SequencePaxosConfig::with(1, 2, &[1, 2, 3]),
            FaultyStorage::new(MemoryStorage::new()),
        );
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(1, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptSync(AcceptSync {
                n: ballot(1, 1),
                sync_idx: 0,
                decided_idx: 0,
                suffix: vec![].into(),
            }),
        ));
        let _ = f.outgoing_messages();
        // The next append hits a short write: the entries are not durable,
        // so no Accepted may ever leave this replica.
        f.storage().arm(StorageFaultKind::ShortWrite);
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::AcceptDecide(AcceptDecide {
                n: ballot(1, 1),
                start_idx: 0,
                decided_idx: 0,
                entries: vec![LogEntry::Normal(7)].into(),
            }),
        ));
        assert!(f.halted().is_some(), "failed persist must halt");
        assert!(
            f.outgoing_messages().is_empty(),
            "halted replica sends nothing"
        );
        // Everything is dropped until recovery, like a crashed process.
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Decide(Decide {
                n: ballot(1, 1),
                decided_idx: 1,
            }),
        ));
        assert_eq!(f.decided_idx(), 0);
        assert_eq!(f.append(9), Err(ProposeErr::Halted(f.halted().unwrap())));
        // fail_recovery rolls storage back to its durable state and
        // re-enters the protocol through the crash path.
        f.fail_recovery();
        assert!(f.halted().is_none());
        assert_eq!(f.state(), (Role::Follower, Phase::Recover));
        let out: Vec<(NodeId, &'static str)> = f
            .outgoing_messages()
            .iter()
            .map(|m| (m.to, m.msg.tag()))
            .collect();
        assert!(
            out.contains(&(1, "PrepareReq")),
            "re-sync via §4.1.3: {out:?}"
        );
    }

    #[test]
    fn failed_flush_withholds_queued_acks() {
        use crate::faults::{FaultyStorage, StorageFaultKind};
        let mut f: SequencePaxos<u64, FaultyStorage<u64, MemoryStorage<u64>>> = SequencePaxos::new(
            SequencePaxosConfig::with(1, 2, &[1, 2, 3]),
            FaultyStorage::new(MemoryStorage::new()),
        );
        f.handle_message(Message::with(
            1,
            2,
            PaxosMsg::Prepare(Prepare {
                n: ballot(1, 1),
                decided_idx: 0,
                accepted_rnd: Ballot::bottom(),
                log_idx: 0,
            }),
        ));
        // The Promise is queued but the group-commit flush fails: the
        // promise was never made durable, so the message must not leave
        // (fsyncgate — never ack after a failed fsync).
        f.storage().arm(StorageFaultKind::SyncFailed);
        assert!(f.outgoing_messages().is_empty());
        assert!(f.halted().is_some());
    }
}
