//! The service layer: cross-configuration log, reconfiguration, and log
//! migration (§6).
//!
//! A configuration `c_i` is a fixed set of servers running one
//! [`OmniPaxos`] instance. To reconfigure, a stop-sign is decided in `c_i`
//! through normal Sequence Paxos; the service layer then starts `c_{i+1}`:
//! servers in both configurations switch over immediately (they already hold
//! the whole log), while **new** servers first *migrate* the decided log and
//! only then start their BLE and Sequence Paxos components — that is the
//! safety rule of §6.
//!
//! Migration runs entirely in the service layer, decoupled from log
//! replication, which enables the paper's headline reconfiguration results
//! (§6.1, §7.3):
//!
//! * **Parallel migration** ([`MigrationScheme::Parallel`]): the missing log
//!   range is split across *all* reachable donors, so no single server — in
//!   particular not the leader — becomes an IO bottleneck.
//! * **Leader-only migration** ([`MigrationScheme::LeaderOnly`]): the scheme
//!   used by Raft-like protocols, provided for ablation; the notifying
//!   server transfers the whole log alone.
//!
//! Donors serve decided entries even if they have not reached the stop-sign
//! themselves — decided entries can never be retracted (§6.1, Fig. 6b).
//!
//! Each decided entry lives once per server: the running configuration's
//! entries are read in place from its storage, and the service layer keeps
//! only the *history* — entries of closed configurations and chunks
//! migrated from donors — which grows when the running instance closes,
//! never per decide. Entries are delivered only up to what the storage
//! would keep across a crash ([`Storage::durable_decided_idx`]): apply
//! after persist.

use crate::ballot::{Ballot, NodeId};
use crate::omni::{OmniMessage, OmniPaxos, OmniPaxosConfig};
use crate::sequence_paxos::{ProposeErr, ReadIndexErr};
use crate::snapshot::SnapshotData;
use crate::storage::{MemoryStorage, Storage, StorageError, TrimError};
use crate::util::{Entry, LogEntry, StopSign};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// How a new server sources the log during reconfiguration (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationScheme {
    /// Split the missing range across all donors (Omni-Paxos default).
    Parallel,
    /// Fetch everything from the server that announced the configuration
    /// (models leader-driven migration; ablation baseline).
    LeaderOnly,
}

/// Service-layer message alphabet.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceMsg<T> {
    /// A protocol message of configuration `config_id`.
    Omni { config_id: u32, msg: OmniMessage<T> },
    /// Tell a new server that `ss.config_id` is starting and it must first
    /// migrate `log_len` entries of history. `snap_idx` is the notifier's
    /// compaction point: entries below it are no longer available as log
    /// segments and must be sourced as a state-machine snapshot (0 = the
    /// notifier holds the full log).
    StartConfig {
        ss: StopSign,
        old_nodes: Vec<NodeId>,
        log_len: u64,
        snap_idx: u64,
    },
    /// Ack: the new server has started (stop re-notifying it).
    ConfigStarted { config_id: u32 },
    /// Request decided entries `[from, to)` of the service-layer log.
    SegmentReq { from: u64, to: u64 },
    /// A chunk of decided entries starting at `start`. `served_to` reports
    /// how far the donor could serve of the `requested_to` range, so the
    /// requester can re-plan a shortfall onto another donor. The chunk is a
    /// shared `Arc<[T]>`: when several joiners pull the same stripe-aligned
    /// range (replace-majority reconfigurations), the donor materializes it
    /// once and every response is a refcount bump.
    SegmentResp {
        start: u64,
        entries: Arc<[T]>,
        served_to: u64,
        requested_to: u64,
    },
    /// Request the donor's state-machine snapshot from byte `offset`
    /// (snapshot-first migration; the transfer is pull-based and resumable
    /// like segment migration).
    SnapReq { offset: u64 },
    /// A chunk of the snapshot covering service-log entries `[0, idx)`,
    /// `total` bytes overall. `total == 0` means the donor has no snapshot
    /// and the requester must fall back to full log migration. The chunk is
    /// a shared `Arc<[u8]>` so fan-out to several joiners is a refcount
    /// bump per response.
    SnapResp {
        idx: u64,
        offset: u64,
        chunk: Arc<[u8]>,
        total: u64,
    },
    /// Multi-group envelope (§ multigroup): `msg` belongs to consensus
    /// group `group`. Groups multiplex many independent Omni-Paxos
    /// instances (e.g. keyspace shards) over one session; a bare
    /// un-enveloped message is, by convention, group 0, so single-group
    /// deployments keep their pre-envelope wire format.
    Group { group: u32, msg: Box<ServiceMsg<T>> },
    /// Shared-BLE heartbeat carrier: all groups' ballot-leader-election
    /// traffic to one peer, coalesced into a single frame per flush.
    /// Each beat is `(group, config_id, ble message)` — per-group ballots
    /// over one amortized failure-detector stream.
    GroupBle {
        beats: Vec<(u32, u32, crate::messages::BleMessage)>,
    },
}

impl<T> ServiceMsg<T> {
    /// Stable wire discriminant (append-only; forward-compatibility rules
    /// in [`crate::messages::PaxosMsg`] docs).
    pub const fn discriminant(&self) -> u8 {
        match self {
            ServiceMsg::Omni { .. } => 0,
            ServiceMsg::StartConfig { .. } => 1,
            ServiceMsg::ConfigStarted { .. } => 2,
            ServiceMsg::SegmentReq { .. } => 3,
            ServiceMsg::SegmentResp { .. } => 4,
            ServiceMsg::SnapReq { .. } => 5,
            ServiceMsg::SnapResp { .. } => 6,
            ServiceMsg::Group { .. } => 7,
            ServiceMsg::GroupBle { .. } => 8,
        }
    }
}

impl<T: Entry> ServiceMsg<T> {
    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        use crate::messages::HEADER_BYTES;
        match self {
            ServiceMsg::Omni { msg, .. } => msg.size_bytes(),
            ServiceMsg::StartConfig { ss, old_nodes, .. } => {
                HEADER_BYTES + ss.size_bytes() + old_nodes.len() * 8
            }
            ServiceMsg::ConfigStarted { .. } => HEADER_BYTES,
            ServiceMsg::SegmentReq { .. } => HEADER_BYTES,
            ServiceMsg::SegmentResp { entries, .. } => {
                HEADER_BYTES + entries.iter().map(Entry::size_bytes).sum::<usize>()
            }
            ServiceMsg::SnapReq { .. } => HEADER_BYTES,
            ServiceMsg::SnapResp { chunk, .. } => HEADER_BYTES + chunk.len(),
            // Envelope adds the 4-byte group id to the inner message.
            ServiceMsg::Group { msg, .. } => 4 + msg.size_bytes(),
            ServiceMsg::GroupBle { beats } => {
                HEADER_BYTES
                    + beats
                        .iter()
                        .map(|(_, _, b)| 8 + b.msg.size_bytes())
                        .sum::<usize>()
            }
        }
    }
}

/// Configuration of an [`OmniPaxosServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server.
    pub pid: NodeId,
    /// BLE heartbeat round length in ticks.
    pub hb_timeout_ticks: u64,
    /// Retransmission sweep period in ticks.
    pub resend_ticks: u64,
    /// Migration scheme (§6.1).
    pub scheme: MigrationScheme,
    /// Max entries per migration chunk message.
    pub chunk_entries: u64,
    /// Max bytes per migration chunk message (whichever bound hits first).
    pub chunk_bytes: usize,
    /// Stripe length for assigning migration ranges to donors. Striping
    /// balances donors by *position* in the log, so a history with mixed
    /// entry sizes still spreads bytes roughly evenly.
    pub stripe_entries: u64,
    /// Ticks between migration/notification retries.
    pub retry_ticks: u64,
    /// Ballot priority for tie-breaking (§8).
    pub priority: u64,
    /// Stamp takeover ballots with connectivity (§8's optimization).
    pub connectivity_priority: bool,
    /// Leader-lease duration in ticks; `0` disables lease reads (see
    /// [`OmniPaxosConfig::lease_ticks`] and DESIGN.md §14).
    pub lease_ticks: u64,
    /// Clock-skew safety margin for leases (see
    /// [`OmniPaxosConfig::lease_epsilon_ticks`]).
    pub lease_epsilon_ticks: u64,
}

impl ServerConfig {
    /// Defaults matching the evaluation harness.
    pub fn with(pid: NodeId) -> Self {
        ServerConfig {
            pid,
            hb_timeout_ticks: 5,
            resend_ticks: 50,
            scheme: MigrationScheme::Parallel,
            chunk_entries: 64 * 1024,
            chunk_bytes: 2 * 1024 * 1024,
            stripe_entries: 64 * 1024,
            retry_ticks: 100,
            priority: 0,
            connectivity_priority: false,
            lease_ticks: 0,
            lease_epsilon_ticks: 0,
        }
    }
}

/// What this server is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRole {
    /// Waiting to be told about a configuration (fresh joiner).
    Idle,
    /// Running an active configuration.
    Active,
    /// Migrating the log before joining a configuration.
    Migrating,
    /// Was in an old configuration and is not part of the new one; keeps
    /// donating log segments.
    Retired,
}

struct ActiveConfig<T: Entry, S: Storage<T>> {
    nodes: Vec<NodeId>,
    omni: OmniPaxos<T, S>,
    /// Absolute service-log index where this configuration's own log
    /// begins: entry `i` of the instance is service entry `base + i` (until
    /// the stop-sign). Maps instance-level snapshots to service indices.
    base: u64,
}

impl<T: Entry, S: Storage<T>> ActiveConfig<T, S> {
    /// The instance's deliverable entries from instance index `from`:
    /// decided, and kept by its storage across a crash.
    fn decided(&self, from: u64) -> &[LogEntry<T>] {
        let to = self.omni.durable_decided_idx();
        if from >= to {
            return &[];
        }
        &self.omni.decided_ref(from)[..(to - from) as usize]
    }

    /// Absolute service index one past the last deliverable entry (the
    /// stop-sign is not a service entry).
    fn decided_end(&self) -> u64 {
        let to = self.omni.durable_decided_idx();
        self.base + self.omni.stopsign_idx().map_or(to, |ss| ss.min(to))
    }
}

/// An in-flight snapshot pull during migration (snapshot-first catch-up):
/// one donor streams the state-machine snapshot while the log tail above
/// `idx` is striped across the other donors in parallel.
struct SnapPull {
    donor: NodeId,
    /// The snapshot covers service-log entries `[0, idx)`.
    idx: u64,
    /// Total snapshot bytes; 0 until the first response arrives.
    total: u64,
    buf: Vec<u8>,
}

struct MigrationState<T> {
    ss: StopSign,
    donors: Vec<NodeId>,
    target_len: u64,
    /// Out-of-order received chunks, keyed by absolute start index.
    chunks: BTreeMap<u64, Arc<[T]>>,
    next_donor: usize,
    /// Ranges assigned to each donor, fetched front to back.
    assigned: HashMap<NodeId, VecDeque<(u64, u64)>>,
    /// Progress marker at the last retry sweep; a stalled migration (no
    /// growth between sweeps) re-requests its missing ranges.
    last_progress: u64,
    /// Snapshot transfer replacing the compacted log prefix, if the
    /// notifier's log no longer reaches back to what we are missing.
    snap: Option<SnapPull>,
}

/// A complete Omni-Paxos server: the service layer plus the per-
/// configuration protocol components (Fig. 2).
///
/// Generic over the replication storage `S` (defaulting to
/// [`MemoryStorage`]): the deterministic harnesses run it over
/// [`crate::faults::FaultyStorage`] to inject disk faults, deployments can
/// run it over [`crate::wal::WalStorage`]. New configurations start on
/// `S::default()` unless a storage factory is installed
/// ([`OmniPaxosServer::with_storage_factory`]), which is how durable or
/// multi-group deployments namespace each configuration's storage.
pub struct OmniPaxosServer<T: Entry, S: Storage<T> = MemoryStorage<T>> {
    config: ServerConfig,
    /// Decided entries that the running configuration's storage does not
    /// hold: those of closed configurations and migrated chunks.
    /// `history[0]` is service entry `log_start`, and the history ends
    /// where the running configuration begins (or is empty when a snapshot
    /// reaches past that point). The prefix below `log_start` has been
    /// compacted away and is superseded by `snapshot`.
    history: Vec<T>,
    /// Absolute index of `history[0]` (0 until the owner compacts).
    log_start: u64,
    /// State-machine snapshot covering entries `[0, idx)` where
    /// `idx == log_start`; served to joiners instead of the trimmed prefix.
    snapshot: Option<(u64, SnapshotData)>,
    /// A snapshot adopted from a peer (migration or replication-layer
    /// transfer) that the owner has not yet restored; see
    /// [`OmniPaxosServer::take_snapshot_event`].
    snapshot_event: Option<(u64, SnapshotData)>,
    /// Delivery cursor for [`OmniPaxosServer::poll_applied`] (absolute
    /// index, never below `log_start`).
    delivered: u64,
    config_id: u32,
    role: ServerRole,
    active: Option<ActiveConfig<T, S>>,
    migration: Option<MigrationState<T>>,
    /// New servers we must keep notifying until they ack.
    notify_pending: Vec<(NodeId, StopSign, Vec<NodeId>, u64)>,
    /// Proposals buffered while the configuration is switching (§7.3: they
    /// are proposed in a batch when the new configuration starts).
    pending: Vec<T>,
    ticks_since_retry: u64,
    outgoing: Vec<(NodeId, ServiceMsg<T>)>,
    /// Donor-side cache of recently served segments, keyed by start index.
    /// Decided entries are immutable, so a cached chunk never goes stale;
    /// joiners issue stripe-aligned requests, so during a reconfiguration
    /// with several joiners each chunk is materialized once and every
    /// further response to the same range is a refcount bump.
    segment_cache: HashMap<u64, (u64, Arc<[T]>)>,
    /// Builds the replication storage for a newly started configuration
    /// (argument: its `config_id`). Defaults to `S::default()`; durable
    /// deployments install a factory that opens a namespaced WAL, so each
    /// group/configuration keeps its own on-disk log.
    make_storage: Box<dyn Fn(u32) -> S + Send>,
}

/// Bound on [`OmniPaxosServer::segment_cache`]: enough for the in-flight
/// window of every concurrent joiner, small enough that the cache never
/// holds more than a few chunks' worth of memory after migration ends.
const SEGMENT_CACHE_MAX: usize = 64;

impl<T: Entry, S: Storage<T> + Default> OmniPaxosServer<T, S> {
    /// Start a server of the initial configuration (`config_id` 1) with
    /// membership `nodes`.
    pub fn new(config: ServerConfig, nodes: Vec<NodeId>) -> Self {
        Self::with_storage(config, nodes, S::default())
    }

    /// Start an initial-configuration server whose replication storage is
    /// pre-existing (experiments that begin with a long history, or a WAL
    /// reopened after a crash).
    pub fn with_storage(config: ServerConfig, nodes: Vec<NodeId>, storage: S) -> Self {
        Self::with_storage_factory(config, nodes, storage, |_| S::default())
    }

    /// Create a fresh joiner: it stays [`ServerRole::Idle`] until an
    /// existing server announces a configuration that includes it.
    pub fn new_joiner(config: ServerConfig) -> Self {
        Self::empty(config, Box::new(|_| S::default()))
    }
}

impl<T: Entry, S: Storage<T>> OmniPaxosServer<T, S> {
    /// Like [`OmniPaxosServer::with_storage`], but with an explicit
    /// factory producing the storage of each *later* configuration
    /// (keyed by its `config_id`). This is how storage without a
    /// meaningful `Default` — a [`crate::wal::WalStorage`] that must open
    /// a file — survives reconfigurations: the factory opens a fresh,
    /// namespaced log per configuration.
    pub fn with_storage_factory(
        config: ServerConfig,
        nodes: Vec<NodeId>,
        storage: S,
        make_storage: impl Fn(u32) -> S + Send + 'static,
    ) -> Self {
        assert!(nodes.contains(&config.pid));
        let mut server = OmniPaxosServer::empty(config, Box::new(make_storage));
        server.config_id = 1;
        server.role = ServerRole::Active;
        let omni_config = server.omni_config(1, nodes.clone());
        let omni = OmniPaxos::new(omni_config, storage);
        server.active = Some(ActiveConfig {
            nodes,
            omni,
            base: 0,
        });
        server
    }

    fn empty(config: ServerConfig, make_storage: Box<dyn Fn(u32) -> S + Send>) -> Self {
        OmniPaxosServer {
            config,
            history: Vec::new(),
            log_start: 0,
            snapshot: None,
            snapshot_event: None,
            delivered: 0,
            config_id: 0,
            role: ServerRole::Idle,
            active: None,
            migration: None,
            notify_pending: Vec::new(),
            pending: Vec::new(),
            ticks_since_retry: 0,
            outgoing: Vec::new(),
            segment_cache: HashMap::new(),
            make_storage,
        }
    }

    fn omni_config(&self, config_id: u32, nodes: Vec<NodeId>) -> OmniPaxosConfig {
        OmniPaxosConfig {
            config_id,
            pid: self.config.pid,
            nodes,
            hb_timeout_ticks: self.config.hb_timeout_ticks,
            resend_ticks: self.config.resend_ticks,
            priority: self.config.priority,
            connectivity_priority: self.config.connectivity_priority,
            buffer_size: 1_000_000,
            // One knob sizes both bulk transfers: migration segments and
            // replication-layer snapshot chunks.
            snapshot_chunk_bytes: self.config.chunk_bytes,
            lease_ticks: self.config.lease_ticks,
            lease_epsilon_ticks: self.config.lease_epsilon_ticks,
        }
    }

    /// This server's id.
    pub fn pid(&self) -> NodeId {
        self.config.pid
    }

    /// The current configuration id (0 while idle).
    pub fn config_id(&self) -> u32 {
        self.config_id
    }

    /// Current role in the system.
    pub fn role(&self) -> ServerRole {
        self.role
    }

    /// The decided service-layer log above the compaction point: the
    /// `i`-th entry is service entry `log_start() + i`.
    pub fn log(&self) -> impl Iterator<Item = &T> + '_ {
        self.entries_from(self.log_start)
    }

    /// Absolute index of the first retained log entry (0 until the owner
    /// compacts via [`OmniPaxosServer::provide_snapshot`]).
    pub fn log_start(&self) -> u64 {
        self.log_start
    }

    /// Total decided service-log length, counting the compacted prefix.
    pub fn decided_len(&self) -> u64 {
        let history_end = self.history_end();
        self.active
            .as_ref()
            .map_or(history_end, |a| history_end.max(a.decided_end()))
    }

    fn history_end(&self) -> u64 {
        self.log_start + self.history.len() as u64
    }

    /// Decided entries from absolute index `from` on: the history first,
    /// then the running configuration's, read in place from its storage.
    fn entries_from(&self, from: u64) -> impl Iterator<Item = &T> + '_ {
        let from = from.max(self.log_start);
        let history_end = self.history_end();
        let past = &self.history[(from.min(history_end) - self.log_start) as usize..];
        // The history ends where the running configuration begins, or past
        // it if a snapshot does.
        let live = self
            .active
            .as_ref()
            .map_or(&[][..], |a| a.decided(from.max(history_end) - a.base));
        past.iter()
            .chain(live.iter().filter_map(LogEntry::as_normal))
    }

    /// The state-machine snapshot superseding the compacted prefix, if any:
    /// `(idx, data)` where `data` reproduces the state after entries
    /// `[0, idx)`.
    pub fn snapshot(&self) -> Option<(u64, SnapshotData)> {
        self.snapshot.clone()
    }

    /// Compact the service log: `data` must be the owner's state-machine
    /// snapshot covering entries `[0, upto)`. The prefix below `upto` is
    /// dropped from the service log (joiners migrating it receive the
    /// snapshot instead), and the active replication instance compacts and
    /// checkpoints its own log up to the same point. Fails with
    /// [`TrimError`] if `upto` exceeds the decided length or does not
    /// advance the compaction point.
    pub fn provide_snapshot(&mut self, upto: u64, data: SnapshotData) -> Result<(), TrimError> {
        let len = self.decided_len();
        if upto > len {
            return Err(TrimError::BeyondDecided {
                decided_idx: len,
                requested: upto,
            });
        }
        if upto <= self.log_start {
            return Err(TrimError::AlreadyTrimmed {
                compacted_idx: self.log_start,
                requested: upto,
            });
        }
        // Compact the replication instance first so its validation (and its
        // durable checkpoint) runs before the service log forgets the
        // prefix; any error surfaces with nothing mutated.
        if let Some(active) = &mut self.active {
            if upto > active.base {
                let omni_idx = upto - active.base;
                if omni_idx > active.omni.compacted_idx() {
                    active.omni.compact(omni_idx, data.clone())?;
                }
            }
        }
        self.trim_history(upto);
        self.snapshot = Some((upto, data));
        Ok(())
    }

    /// Move the compaction point up to `idx`, which a snapshot covers.
    fn trim_history(&mut self, idx: u64) {
        let drop = idx.min(self.history_end()) - self.log_start;
        self.history.drain(..drop as usize);
        self.log_start = idx;
        self.delivered = self.delivered.max(idx);
        self.segment_cache.clear();
    }

    /// A snapshot adopted from a peer since the last call (snapshot-first
    /// migration, or a replication-layer transfer after this server's
    /// prefix was compacted away cluster-wide). The owner must restore its
    /// state machine from it before applying further
    /// [`OmniPaxosServer::poll_applied`] entries; those entries resume
    /// above the snapshot index.
    pub fn take_snapshot_event(&mut self) -> Option<(u64, SnapshotData)> {
        self.snapshot_event.take()
    }

    /// Entries decided since the last call (client notifications),
    /// borrowed from the log: the caller applies them by reference.
    pub fn poll_applied(&mut self) -> impl Iterator<Item = &T> + '_ {
        let from = self.delivered;
        self.delivered = from.max(self.decided_len());
        self.entries_from(from)
    }

    /// Absolute service-log index of the first entry the next
    /// [`OmniPaxosServer::poll_applied`] call will return. Jumps forward
    /// when a snapshot is adopted (the covered prefix is never delivered as
    /// entries); the chaos harness uses it to position drained entries in
    /// the cluster-wide decided history.
    pub fn applied_cursor(&self) -> u64 {
        self.delivered
    }

    /// The active instance's ballot audit log (every ballot this server
    /// elected in its current BLE lifetime, strictly increasing under LE3).
    /// Empty while no configuration is active.
    pub fn ballot_audit(&self) -> &[Ballot] {
        self.active
            .as_ref()
            .map(|a| a.omni.ballot_audit())
            .unwrap_or(&[])
    }

    /// Is this server the leader of the active configuration?
    pub fn is_leader(&self) -> bool {
        self.active.as_ref().is_some_and(|a| a.omni.is_leader())
    }

    /// The leader ballot of the active configuration, if known.
    pub fn leader(&self) -> Option<Ballot> {
        let b = self.active.as_ref()?.omni.leader();
        (b != Ballot::bottom()).then_some(b)
    }

    /// Members of the active configuration.
    pub fn nodes(&self) -> &[NodeId] {
        self.active
            .as_ref()
            .map(|a| a.nodes.as_slice())
            .unwrap_or(&[])
    }

    /// Propose a client command. While the configuration is switching the
    /// proposal is buffered and flushed as a batch into the next
    /// configuration (§7.3).
    pub fn propose(&mut self, entry: T) -> Result<(), ProposeErr> {
        if let Some(active) = &mut self.active {
            // Asked before appending, so the entry moves in uncopied.
            if !active.omni.sequence_paxos().pending_reconfig() {
                return active.omni.append(entry);
            }
        }
        self.pending.push(entry);
        Ok(())
    }

    /// Propose a whole batch of client commands as one contiguous append
    /// run. Entries are appended back to back with no message processing
    /// in between, so the next [`OmniPaxosServer::outgoing`] drain ships
    /// them as a single `AcceptDecide` per follower (sharing one batch
    /// allocation across the fan-out) and the storage layer group-commits
    /// them under one flush. Stops at the first hard error, reporting how
    /// many entries were accepted.
    pub fn propose_batch(
        &mut self,
        entries: impl IntoIterator<Item = T>,
    ) -> Result<usize, (usize, ProposeErr)> {
        let mut accepted = 0;
        for entry in entries {
            match self.propose(entry) {
                Ok(()) => accepted += 1,
                Err(e) => return Err((accepted, e)),
            }
        }
        Ok(accepted)
    }

    /// Propose replacing the membership with `new_nodes` (§6). Proposing
    /// the *same* membership is allowed: a new configuration with unchanged
    /// members is how in-place software upgrades roll out (§6.1).
    pub fn reconfigure(&mut self, new_nodes: Vec<NodeId>) -> Result<(), ProposeErr> {
        let active = self.active.as_mut().ok_or(ProposeErr::PendingReconfig)?;
        let ss = StopSign::new(self.config_id + 1, new_nodes);
        active.omni.reconfigure(ss)
    }

    /// Feed one incoming service-layer message.
    pub fn handle(&mut self, from: NodeId, msg: ServiceMsg<T>) {
        // Fail-stop: a server halted on a storage fault behaves like a
        // crashed process — it ignores every message (replication *and*
        // service-layer) until `fail_recovery` succeeds. Senders retransmit,
        // so dropping here is safe.
        if self.is_halted() {
            return;
        }
        match msg {
            ServiceMsg::Omni { config_id, msg } => {
                if let Some(active) = &mut self.active {
                    if config_id == self.config_id {
                        active.omni.handle_message(msg);
                        self.pump_active();
                    }
                }
                // Messages for other configurations are dropped: their
                // senders retransmit (heartbeats are periodic, Prepare is
                // re-sent) so no buffering is needed.
            }
            ServiceMsg::StartConfig {
                ss,
                old_nodes,
                log_len,
                snap_idx,
            } => self.handle_start_config(from, ss, old_nodes, log_len, snap_idx),
            ServiceMsg::ConfigStarted { config_id } => {
                self.notify_pending
                    .retain(|(pid, ss, _, _)| !(*pid == from && ss.config_id <= config_id));
            }
            ServiceMsg::SegmentReq { from: lo, to } => self.handle_segment_req(from, lo, to),
            ServiceMsg::SegmentResp {
                start,
                entries,
                served_to,
                requested_to,
            } => self.handle_segment_resp(from, start, entries, served_to, requested_to),
            ServiceMsg::SnapReq { offset } => self.handle_snap_req(from, offset),
            ServiceMsg::SnapResp {
                idx,
                offset,
                chunk,
                total,
            } => self.handle_snap_resp(from, idx, offset, chunk, total),
            // A single-group server is group 0: accept envelopes addressed
            // to it (a multi-group peer may envelope everything), drop the
            // rest — senders retransmit, exactly like the cross-config case.
            ServiceMsg::Group { group, msg } => {
                if group == 0 {
                    self.handle(from, *msg);
                }
            }
            ServiceMsg::GroupBle { beats } => {
                for (group, config_id, ble) in beats {
                    if group == 0 {
                        self.handle(
                            from,
                            ServiceMsg::Omni {
                                config_id,
                                msg: OmniMessage::Ble(ble),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Advance logical time by one tick.
    pub fn tick(&mut self) {
        if let Some(active) = &mut self.active {
            active.omni.tick();
        }
        self.pump_active();
        self.ticks_since_retry += 1;
        if self.ticks_since_retry >= self.config.retry_ticks {
            self.ticks_since_retry = 0;
            // A storage-halted server emits nothing, so queueing migration
            // or reconfiguration retries would only pile up messages to be
            // discarded; `fail_recovery` restarts the migration itself.
            if !self.is_halted() {
                self.retry_migration();
                self.retry_notifications();
            }
        }
    }

    /// Drain queued outgoing messages.
    pub fn outgoing(&mut self) -> Vec<(NodeId, ServiceMsg<T>)> {
        self.drain_omni();
        if self.is_halted() {
            // Fail-stop darkness extends to the service layer: segment
            // responses, stop-sign handover traffic, and notification
            // retries queued before (or while) the halt are dropped, same
            // as a crash losing its in-flight messages. Peers retransmit.
            self.outgoing.clear();
            return Vec::new();
        }
        // The drain can itself decide: a configuration of one accepts its
        // own proposal while flushing it. Absorb that now, so the caller
        // can apply it in this cycle instead of at the next tick.
        self.pump_active();
        std::mem::take(&mut self.outgoing)
    }

    /// Crash-recover this server: protocol state is rebuilt from the
    /// (simulated) persistent storage, which drops its unsynced tail. No
    /// delivered entry is in that tail (apply after persist), and the
    /// history of closed configurations survives.
    pub fn fail_recovery(&mut self) {
        self.outgoing.clear();
        if let Some(active) = &mut self.active {
            active.omni.fail_recovery();
        }
        // A migrating server restarts its migration from what it has.
        if self.migration.is_some() {
            self.retry_migration();
        }
    }

    /// Notify that the link to `pid` has been re-established (§4.1.3).
    pub fn reconnected(&mut self, pid: NodeId) {
        if let Some(active) = &mut self.active {
            active.omni.reconnected(pid);
        }
    }

    // ------------------------------------------------------------------
    // Linearizable local reads (leases + read index) — DESIGN.md §14
    // ------------------------------------------------------------------

    /// May this server serve a lease-protected local read right now? True
    /// only when it is the Accept-phase leader holding live lease grants
    /// from a majority AND its configuration is not ending: once the
    /// stop-sign is decided the next configuration may already be running
    /// elsewhere, so a lease must never span a reconfiguration boundary.
    /// (While the lease is valid, only its holder can have decided the
    /// stop-sign — no higher ballot can complete a Prepare phase at a
    /// majority — so checking our own decided stop-sign suffices.)
    ///
    /// Non-sticky: re-check per read or per admission batch, never cache.
    pub fn lease_valid(&self) -> bool {
        self.active
            .as_ref()
            .is_some_and(|a| a.omni.decided_stopsign().is_none() && a.omni.lease_valid())
    }

    /// The absolute service-log index a lease read must wait for: serve
    /// only once [`OmniPaxosServer::applied_cursor`] has reached it (and
    /// the owner has applied everything polled). `None` when this server
    /// is not an Accept-phase leader or its configuration is ending.
    pub fn read_barrier(&self) -> Option<u64> {
        let a = self.active.as_ref()?;
        if a.omni.decided_stopsign().is_some() {
            return None;
        }
        Some(a.base + a.omni.read_barrier()?)
    }

    /// Request a linearizable read index from any replica (the read-index
    /// protocol; no lease required). The confirmed grant arrives via
    /// [`OmniPaxosServer::take_read_grants`] as an absolute service-log
    /// index. Fire-and-forget: a leader change or reconfiguration in
    /// flight drops the request — the owner retries on a deadline (in the
    /// next configuration, if one started meanwhile).
    pub fn request_read_index(&mut self, token: u64) -> Result<(), ReadIndexErr> {
        let Some(a) = &mut self.active else {
            return Err(ReadIndexErr::NoLeader);
        };
        if a.omni.decided_stopsign().is_some() {
            return Err(ReadIndexErr::NoLeader);
        }
        a.omni.request_read_index(token)
    }

    /// Drain confirmed read-index grants: `(token, absolute_idx)` pairs.
    /// Grants die with their configuration's instance, so nothing here can
    /// refer to a superseded configuration's log positions.
    pub fn take_read_grants(&mut self) -> Vec<(u64, u64)> {
        let Some(a) = &mut self.active else {
            return Vec::new();
        };
        let base = a.base;
        a.omni
            .take_read_grants()
            .into_iter()
            .map(|(token, idx)| (token, base + idx))
            .collect()
    }

    /// Direct access to the active protocol instance (tests, invariants).
    pub fn omni(&mut self) -> Option<&mut OmniPaxos<T, S>> {
        self.active.as_mut().map(|a| &mut a.omni)
    }

    /// Is this server halted on a storage failure (fail-stop)? A halted
    /// server is indistinguishable from a crashed one: it ignores every
    /// incoming message and emits nothing — replication traffic *and*
    /// service-layer traffic (segment serving, migration/notification
    /// retries) — until [`OmniPaxosServer::fail_recovery`] succeeds.
    pub fn is_halted(&self) -> bool {
        self.active.as_ref().is_some_and(|a| a.omni.is_halted())
    }

    /// The storage failure the active instance halted on, if any.
    pub fn storage_error(&self) -> Option<StorageError> {
        self.active.as_ref().and_then(|a| a.omni.storage_error())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Adopt a snapshot the active instance installed, and run the
    /// reconfiguration handover once its stop-sign is decided and durable.
    /// Entries stay in the instance's storage; nothing is copied here.
    fn pump_active(&mut self) {
        // A snapshot installed by the replication layer (chunked transfer
        // from the leader after this follower's missing prefix was
        // compacted away) supersedes the service log below its index: the
        // delivery cursor skips past it, and the owner restores the state
        // machine from the snapshot.
        let installed = self.active.as_mut().and_then(|a| {
            let (omni_idx, data) = a.omni.take_installed_snapshot()?;
            Some((a.base + omni_idx, data))
        });
        if let Some((abs, data)) = installed {
            self.adopt_snapshot(abs, data);
        }
        let stopsign = self.active.as_ref().and_then(|a| {
            let durable = a.omni.stopsign_idx()? < a.omni.durable_decided_idx();
            durable.then(|| a.omni.decided_stopsign()).flatten()
        });
        if let Some(ss) = stopsign {
            self.handover(ss);
        }
    }

    /// Adopt a peer's snapshot as the new service-log prefix: entries below
    /// `idx` are superseded, the owner is handed the snapshot to restore
    /// from, and the delivery cursor jumps past it.
    fn adopt_snapshot(&mut self, idx: u64, data: SnapshotData) {
        if idx <= self.log_start {
            return; // stale: already compacted at least this far
        }
        self.trim_history(idx);
        self.snapshot = Some((idx, data.clone()));
        self.snapshot_event = Some((idx, data));
    }

    /// Stop running the active configuration. Its decided entries move
    /// into the history first: one copy per reconfiguration, never one
    /// per decide. Returns its members.
    fn close_active(&mut self) -> Vec<NodeId> {
        let Some(a) = self.active.take() else {
            return Vec::new();
        };
        let from = self.history_end() - a.base;
        let entries = a.decided(from).iter().filter_map(LogEntry::as_normal);
        self.history.extend(entries.cloned());
        a.nodes
    }

    /// The stop-sign has been decided in the current configuration (§6):
    /// start the next configuration and notify new servers.
    fn handover(&mut self, ss: StopSign) {
        let old_nodes = self.close_active();
        let log_len = self.decided_len();
        // Notify every other server involved in the switch: new servers of
        // c_{i+1} missed the stop-sign entirely, and old servers may not
        // have seen it *decided* before this server tore c_i down (the
        // leader switches as soon as the stop-sign is chosen, so a lagging
        // follower can no longer learn it from the replication protocol).
        let mut targets: Vec<NodeId> = ss.next_nodes.clone();
        for &p in &old_nodes {
            if !targets.contains(&p) {
                targets.push(p);
            }
        }
        targets.retain(|&p| p != self.config.pid);
        for pid in targets {
            self.notify_pending
                .push((pid, ss.clone(), old_nodes.clone(), log_len));
            self.outgoing.push((
                pid,
                ServiceMsg::StartConfig {
                    ss: ss.clone(),
                    old_nodes: old_nodes.clone(),
                    log_len,
                    snap_idx: self.log_start,
                },
            ));
        }
        if ss.next_nodes.contains(&self.config.pid) {
            // We hold the complete log: start the next configuration
            // directly (§6).
            self.start_config(ss, log_len);
        } else {
            self.role = ServerRole::Retired;
        }
    }

    fn handle_start_config(
        &mut self,
        from: NodeId,
        ss: StopSign,
        old_nodes: Vec<NodeId>,
        log_len: u64,
        snap_idx: u64,
    ) {
        if self.config_id >= ss.config_id {
            // Already there (duplicate notification): just ack.
            self.outgoing.push((
                from,
                ServiceMsg::ConfigStarted {
                    config_id: self.config_id,
                },
            ));
            return;
        }
        if !ss.next_nodes.contains(&self.config.pid) {
            // We are being told our configuration ended and we are not part
            // of the next one: retire (keep donating segments).
            if self.config_id == ss.config_id - 1 {
                self.role = ServerRole::Retired;
                self.close_active();
                self.outgoing.push((
                    from,
                    ServiceMsg::ConfigStarted {
                        config_id: self.config_id,
                    },
                ));
            }
            return;
        }
        if self.migration.is_some() {
            // Already migrating this configuration. The notifier retries
            // `StartConfig` until we ack, and each retry carries its
            // *current* compaction point: if the donor compacted past what
            // we hold since the migration started, the entries we are
            // striping no longer exist anywhere as segments — upgrade the
            // in-flight migration with a snapshot pull or it deadlocks
            // (segment requests below the donor's `log_start` report a
            // shortfall forever).
            let have = self.decided_len();
            let needs_snap = self.migration.as_ref().is_some_and(|m| {
                m.ss.config_id == ss.config_id
                    && m.snap.is_none()
                    && snap_idx > have
                    && snap_idx > self.log_start
            });
            if needs_snap {
                self.outgoing
                    .push((from, ServiceMsg::SnapReq { offset: 0 }));
                if let Some(mig) = &mut self.migration {
                    mig.snap = Some(SnapPull {
                        donor: from,
                        idx: snap_idx,
                        total: 0,
                        buf: Vec::new(),
                    });
                    // Chunks below the snapshot are superseded.
                    mig.chunks
                        .retain(|&start, c| start + c.len() as u64 > snap_idx);
                }
                self.request_missing();
            }
            return;
        }
        if self.decided_len() >= log_len {
            // Nothing to migrate (fresh system or we somehow have it all).
            self.start_config(ss, log_len);
            self.ack_started(&old_nodes);
            return;
        }
        // Safety rule of §6: do not start BLE/Sequence Paxos until the
        // complete log has been fetched. A continuing-but-lagging old
        // server also takes this path for its missing suffix; its old
        // instance is stopped (c_i can decide nothing after the stop-sign).
        self.close_active();
        self.role = ServerRole::Migrating;
        let donors = match self.config.scheme {
            MigrationScheme::Parallel => old_nodes.clone(),
            MigrationScheme::LeaderOnly => vec![from],
        };
        // Snapshot-first catch-up (the tentpole of the snapshot subsystem):
        // if the notifier compacted past what we are missing, the prefix
        // below its `snap_idx` no longer exists as log entries anywhere we
        // can rely on — pull the state-machine snapshot from the notifier
        // while the tail above `snap_idx` is striped across the other
        // donors in parallel. The local log is only rewritten once the
        // snapshot actually arrives (a donor without one answers
        // `total == 0` and we fall back to full log migration).
        let snap = (snap_idx > self.decided_len() && snap_idx > self.log_start).then(|| {
            self.outgoing
                .push((from, ServiceMsg::SnapReq { offset: 0 }));
            SnapPull {
                donor: from,
                idx: snap_idx,
                total: 0,
                buf: Vec::new(),
            }
        });
        // The migration's end state is known up front: reserve the log once
        // instead of re-copying it through capacity doublings as chunks
        // fold in.
        let floor = snap.as_ref().map_or(self.decided_len(), |s| s.idx);
        self.history.reserve(log_len.saturating_sub(floor) as usize);
        self.migration = Some(MigrationState {
            ss,
            donors,
            target_len: log_len,
            chunks: BTreeMap::new(),
            next_donor: 0,
            assigned: HashMap::new(),
            last_progress: u64::MAX,
            snap,
        });
        self.request_missing();
    }

    /// Compute the ranges still missing, stripe them round-robin over the
    /// donors, and start one pull stream per donor. Striping spreads byte
    /// volume evenly even when entry sizes vary across the log.
    fn request_missing(&mut self) {
        let stripe = self.config.stripe_entries.max(1);
        let have = self.decided_len();
        let Some(mig) = &mut self.migration else {
            return;
        };
        let mut missing: Vec<(u64, u64)> = Vec::new();
        // Entries below an in-flight snapshot pull arrive as the snapshot,
        // not as log segments: stripe only the tail above it.
        let mut cursor = have.max(mig.snap.as_ref().map_or(0, |s| s.idx));
        for (&start, chunk) in &mig.chunks {
            let end = start + chunk.len() as u64;
            if start > cursor {
                missing.push((cursor, start));
            }
            cursor = cursor.max(end);
        }
        if cursor < mig.target_len {
            missing.push((cursor, mig.target_len));
        }
        if missing.is_empty() {
            return;
        }
        let n_donors = mig.donors.len().max(1);
        mig.assigned.clear();
        for (mut lo, hi) in missing {
            while lo < hi {
                let take = stripe.min(hi - lo);
                // Rotate the starting donor across sweeps so retries move
                // away from a dead donor.
                let donor = mig.donors[mig.next_donor % n_donors];
                mig.next_donor += 1;
                mig.assigned
                    .entry(donor)
                    .or_insert_with(VecDeque::new)
                    .push_back((lo, lo + take));
                lo += take;
            }
        }
        let firsts: Vec<(NodeId, u64, u64)> = mig
            .assigned
            .iter()
            .filter_map(|(&d, q)| q.front().map(|&(lo, hi)| (d, lo, hi)))
            .collect();
        for (donor, lo, hi) in firsts {
            self.outgoing
                .push((donor, ServiceMsg::SegmentReq { from: lo, to: hi }));
        }
    }

    fn handle_segment_req(&mut self, from: NodeId, lo: u64, to: u64) {
        // Serve what we have decided; decided entries cannot be retracted
        // (§6.1) so this is safe even mid-configuration. Only ONE chunk is
        // sent per request: the requester pulls the next chunk when this
        // one arrives, so the transfer is self-clocked at the path rate and
        // bulk migration cannot monopolize the donor's NIC (the flow
        // control a TCP stream would provide).
        let have = self.decided_len();
        let served_to = to.min(have);
        if lo < self.log_start || lo >= served_to {
            // Nothing to serve: the range is beyond what we have decided,
            // or below our compaction point (those entries only exist as
            // the snapshot now — the requester must pull that instead).
            // Report the shortfall immediately.
            self.outgoing.push((
                from,
                ServiceMsg::SegmentResp {
                    start: lo,
                    entries: Vec::new().into(),
                    served_to: lo.min(have),
                    requested_to: to,
                },
            ));
            return;
        }
        // Decided entries are immutable, so a chunk computed once can be
        // handed to every joiner asking for the same range (requests are
        // stripe-aligned, so concurrent joiners ask for identical ranges):
        // a hit skips both the byte-bounding scan and the copy, and the
        // response is a refcount bump. The hit is only valid if the cached
        // chunk does not overshoot what this request may be served
        // (`served_to` can be smaller if the requester asked for less).
        let entries = match self.segment_cache.get(&lo) {
            Some((cached_end, batch)) if *cached_end <= served_to => Arc::clone(batch),
            _ => {
                let mut bytes = 0usize;
                let batch: Arc<[T]> = self
                    .entries_from(lo)
                    .take((served_to - lo).min(self.config.chunk_entries) as usize)
                    .take_while(|e| {
                        let more = bytes < self.config.chunk_bytes;
                        bytes += e.size_bytes();
                        more
                    })
                    .cloned()
                    .collect();
                let end = lo + batch.len() as u64;
                if self.segment_cache.len() >= SEGMENT_CACHE_MAX {
                    self.segment_cache.clear();
                }
                self.segment_cache.insert(lo, (end, Arc::clone(&batch)));
                batch
            }
        };
        self.outgoing.push((
            from,
            ServiceMsg::SegmentResp {
                start: lo,
                entries,
                served_to,
                requested_to: to,
            },
        ));
    }

    fn handle_segment_resp(
        &mut self,
        from: NodeId,
        start: u64,
        entries: Arc<[T]>,
        _served_to: u64,
        requested_to: u64,
    ) {
        let Some(mig) = &mut self.migration else {
            return;
        };
        let chunk_end = start + entries.len() as u64;
        if !entries.is_empty() {
            // Folded into the history below once contiguous with it.
            mig.chunks.insert(start, entries);
        }
        if chunk_end > start && chunk_end < requested_to {
            // Pull the next chunk of this donor's current range.
            self.outgoing.push((
                from,
                ServiceMsg::SegmentReq {
                    from: chunk_end,
                    to: requested_to,
                },
            ));
        } else if chunk_end >= requested_to && requested_to > 0 {
            // Range complete: move to the donor's next assigned range.
            if let Some(queue) = mig.assigned.get_mut(&from) {
                if queue.front().is_some_and(|&(_, hi)| hi == requested_to) {
                    queue.pop_front();
                }
                if let Some(&(lo, hi)) = queue.front() {
                    self.outgoing
                        .push((from, ServiceMsg::SegmentReq { from: lo, to: hi }));
                }
            }
        }
        self.fold_chunks();
        self.maybe_finish_migration();
        // Shortfalls (served_to < requested_to) are re-planned by the
        // periodic retry, which recomputes all missing ranges.
    }

    /// Fold out-of-order chunks that have become contiguous with the log.
    fn fold_chunks(&mut self) {
        let Some(mig) = &mut self.migration else {
            return;
        };
        loop {
            let cursor = self.log_start + self.history.len() as u64;
            let Some((&start, _)) = mig.chunks.range(..=cursor).next_back() else {
                break;
            };
            let chunk = mig.chunks.remove(&start).expect("key exists");
            let end = start + chunk.len() as u64;
            if end <= cursor {
                continue; // fully duplicate (or superseded by a snapshot)
            }
            let skip = (cursor - start) as usize;
            self.history.extend_from_slice(&chunk[skip..]);
        }
    }

    /// Start the configuration once the log is complete: both the snapshot
    /// (if one is being pulled) and every entry up to the target length
    /// must have arrived.
    fn maybe_finish_migration(&mut self) {
        let done = self
            .migration
            .as_ref()
            .is_some_and(|mig| mig.snap.is_none() && self.history_end() >= mig.target_len);
        if done {
            let mig = self.migration.take().expect("checked above");
            let donors = mig.donors.clone();
            let base = mig.target_len;
            self.start_config(mig.ss, base);
            self.ack_started(&donors);
        }
    }

    /// Donor side of the snapshot transfer: serve one bounded chunk of our
    /// snapshot from `offset`; the requester pulls the next chunk when this
    /// one arrives (self-clocked, like segment migration).
    fn handle_snap_req(&mut self, from: NodeId, offset: u64) {
        let Some((idx, data)) = &self.snapshot else {
            // No snapshot here: tell the requester to fall back to full
            // log migration.
            self.outgoing.push((
                from,
                ServiceMsg::SnapResp {
                    idx: 0,
                    offset,
                    chunk: Vec::new().into(),
                    total: 0,
                },
            ));
            return;
        };
        let total = data.len() as u64;
        let lo = offset.min(total);
        let hi = total.min(lo + self.config.chunk_bytes as u64);
        let chunk: Arc<[u8]> = data[lo as usize..hi as usize].into();
        self.outgoing.push((
            from,
            ServiceMsg::SnapResp {
                idx: *idx,
                offset: lo,
                chunk,
                total,
            },
        ));
    }

    /// Joiner side of the snapshot transfer.
    fn handle_snap_resp(
        &mut self,
        from: NodeId,
        idx: u64,
        offset: u64,
        chunk: Arc<[u8]>,
        total: u64,
    ) {
        let Some(mig) = &mut self.migration else {
            return;
        };
        let Some(snap) = &mut mig.snap else {
            return;
        };
        if snap.donor != from {
            return;
        }
        if total == 0 {
            // The donor has no snapshot after all: fall back to migrating
            // the full missing range as log segments.
            mig.snap = None;
            self.request_missing();
            return;
        }
        if idx != snap.idx {
            // The donor compacted further while we were pulling: its
            // snapshot now covers more of the log. Restart the pull at the
            // new index and re-plan the tail stripes (fetched segments
            // below the new index are dropped when folding).
            snap.idx = idx;
            snap.total = total;
            snap.buf.clear();
            self.outgoing
                .push((from, ServiceMsg::SnapReq { offset: 0 }));
            self.request_missing();
            return;
        }
        snap.total = total;
        if offset == snap.buf.len() as u64 && !chunk.is_empty() {
            snap.buf.extend_from_slice(&chunk);
        }
        if (snap.buf.len() as u64) < total {
            let next = snap.buf.len() as u64;
            self.outgoing
                .push((from, ServiceMsg::SnapReq { offset: next }));
            return;
        }
        // Complete: adopt it as the service-log prefix, hand it to the
        // owner to restore from, and fold any tail chunks that became
        // contiguous with the new start.
        let data: SnapshotData = std::mem::take(&mut snap.buf).into();
        let snap_idx = snap.idx;
        mig.snap = None;
        self.adopt_snapshot(snap_idx, data);
        self.fold_chunks();
        self.maybe_finish_migration();
    }

    fn ack_started(&mut self, peers: &[NodeId]) {
        for &pid in peers {
            if pid != self.config.pid {
                self.outgoing.push((
                    pid,
                    ServiceMsg::ConfigStarted {
                        config_id: self.config_id,
                    },
                ));
            }
        }
    }

    /// Start the protocol components of configuration `ss.config_id` (§6).
    ///
    /// `base` is the absolute service-log index where the new
    /// configuration's log begins — the total length of the old
    /// configuration's log. It must come from the stop-sign handover, not
    /// from `self.decided_len()`: a joiner that caught up via
    /// snapshot-first catch-up may hold a snapshot extending *past* the
    /// boundary (the donor had compacted into the new configuration's
    /// entries), in which case its decided length already includes a
    /// prefix of the new instance's log. The delivery cursor already sits
    /// past that prefix, so it is not delivered a second time at shifted
    /// positions.
    fn start_config(&mut self, ss: StopSign, base: u64) {
        debug_assert!(ss.next_nodes.contains(&self.config.pid));
        self.close_active();
        debug_assert!(self.log_start > base || self.history_end() == base);
        self.config_id = ss.config_id;
        self.role = ServerRole::Active;
        self.migration = None;
        let omni_config = self.omni_config(ss.config_id, ss.next_nodes.clone());
        let mut omni = OmniPaxos::new(omni_config, (self.make_storage)(ss.config_id));
        // Flush proposals buffered during the switch as one batch (§7.3).
        for entry in std::mem::take(&mut self.pending) {
            let _ = omni.append(entry);
        }
        self.active = Some(ActiveConfig {
            nodes: ss.next_nodes,
            omni,
            base,
        });
    }

    fn retry_migration(&mut self) {
        let progress = self.decided_len()
            + self.migration.as_ref().map_or(0, |m| {
                m.chunks.len() as u64 + m.snap.as_ref().map_or(0, |s| s.buf.len() as u64)
            });
        let Some(mig) = &mut self.migration else {
            return;
        };
        let stalled = mig.last_progress == progress;
        mig.last_progress = progress;
        if stalled {
            // Nothing arrived since the last sweep: a donor died or a
            // request was lost — re-plan the missing ranges and resume the
            // snapshot pull from where it stopped.
            if let Some(snap) = &mig.snap {
                let (donor, offset) = (snap.donor, snap.buf.len() as u64);
                self.outgoing.push((donor, ServiceMsg::SnapReq { offset }));
            }
            self.request_missing();
        }
    }

    fn retry_notifications(&mut self) {
        let pending = self.notify_pending.clone();
        let snap_idx = self.log_start;
        for (pid, ss, old_nodes, log_len) in pending {
            self.outgoing.push((
                pid,
                ServiceMsg::StartConfig {
                    ss,
                    old_nodes,
                    log_len,
                    snap_idx,
                },
            ));
        }
    }

    fn drain_omni(&mut self) {
        let config_id = self.config_id;
        if let Some(active) = &mut self.active {
            for msg in active.omni.outgoing_messages() {
                let to = msg.to();
                self.outgoing
                    .push((to, ServiceMsg::Omni { config_id, msg }));
            }
        }
    }
}

impl<T: Entry, S: Storage<T>> std::fmt::Debug for OmniPaxosServer<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmniPaxosServer")
            .field("pid", &self.config.pid)
            .field("config_id", &self.config_id)
            .field("role", &self.role)
            .field("decided_len", &self.decided_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(pid: NodeId) -> OmniPaxosServer<u64> {
        OmniPaxosServer::new(ServerConfig::with(pid), vec![1, 2, 3])
    }

    #[test]
    fn initial_server_is_active_in_config_one() {
        let s = server(1);
        assert_eq!(s.config_id(), 1);
        assert_eq!(s.role(), ServerRole::Active);
        assert_eq!(s.nodes(), &[1, 2, 3]);
    }

    #[test]
    fn joiner_is_idle_and_buffers_proposals() {
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(9));
        assert_eq!(j.role(), ServerRole::Idle);
        assert_eq!(j.config_id(), 0);
        // Proposals while idle are parked, not lost or errored.
        j.propose(5).expect("buffered");
        assert_eq!(j.log().count(), 0);
    }

    #[test]
    fn start_config_not_addressed_to_us_is_ignored_by_joiner() {
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(9));
        j.handle(
            1,
            ServiceMsg::StartConfig {
                ss: StopSign::new(2, vec![4, 5, 6]),
                old_nodes: vec![1, 2, 3],
                log_len: 10,
                snap_idx: 0,
            },
        );
        assert_eq!(j.role(), ServerRole::Idle, "not in next_nodes: ignore");
    }

    #[test]
    fn start_config_with_empty_history_starts_immediately() {
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(4));
        j.handle(
            1,
            ServiceMsg::StartConfig {
                ss: StopSign::new(2, vec![1, 2, 4]),
                old_nodes: vec![1, 2, 3],
                log_len: 0,
                snap_idx: 0,
            },
        );
        assert_eq!(j.role(), ServerRole::Active);
        assert_eq!(j.config_id(), 2);
        // It also acked the donors so they stop re-notifying.
        let acks: Vec<NodeId> = j
            .outgoing()
            .into_iter()
            .filter(|(_, m)| matches!(m, ServiceMsg::ConfigStarted { .. }))
            .map(|(to, _)| to)
            .collect();
        assert!(acks.contains(&1));
    }

    #[test]
    fn start_config_with_history_enters_migration_and_requests_stripes() {
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(4));
        j.handle(
            2,
            ServiceMsg::StartConfig {
                ss: StopSign::new(2, vec![1, 2, 4]),
                old_nodes: vec![1, 2, 3],
                log_len: 100,
                snap_idx: 0,
            },
        );
        assert_eq!(j.role(), ServerRole::Migrating);
        let reqs: Vec<(NodeId, u64, u64)> = j
            .outgoing()
            .into_iter()
            .filter_map(|(to, m)| match m {
                ServiceMsg::SegmentReq { from, to: hi } => Some((to, from, hi)),
                _ => None,
            })
            .collect();
        assert!(!reqs.is_empty(), "must request the missing history");
        // Ranges jointly start at 0.
        assert!(reqs.iter().any(|&(_, lo, _)| lo == 0));
    }

    #[test]
    fn duplicate_start_config_is_acked_not_restarted() {
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(4));
        let ss = StopSign::new(2, vec![1, 2, 4]);
        j.handle(
            1,
            ServiceMsg::StartConfig {
                ss: ss.clone(),
                old_nodes: vec![1, 2, 3],
                log_len: 0,
                snap_idx: 0,
            },
        );
        assert_eq!(j.config_id(), 2);
        let _ = j.outgoing();
        j.handle(
            3,
            ServiceMsg::StartConfig {
                ss,
                old_nodes: vec![1, 2, 3],
                log_len: 0,
                snap_idx: 0,
            },
        );
        assert_eq!(j.config_id(), 2, "no restart");
        let out = j.outgoing();
        assert!(
            out.iter()
                .any(|(to, m)| *to == 3 && matches!(m, ServiceMsg::ConfigStarted { .. })),
            "duplicate notifier gets an ack: {out:?}"
        );
    }

    #[test]
    fn segment_req_serves_one_bounded_chunk() {
        let mut cfg = ServerConfig::with(1);
        cfg.chunk_entries = 4;
        let mut s = OmniPaxosServer::with_storage(
            cfg,
            vec![1, 2, 3],
            crate::storage::MemoryStorage::with_decided_log((0..20u64).collect()),
        );
        s.tick(); // absorb the pre-loaded history into the service log
        let _ = s.outgoing();
        s.handle(9, ServiceMsg::SegmentReq { from: 0, to: 20 });
        let resps: Vec<(u64, usize, u64)> = s
            .outgoing()
            .into_iter()
            .filter_map(|(_, m)| match m {
                ServiceMsg::SegmentResp {
                    start,
                    entries,
                    served_to,
                    ..
                } => Some((start, entries.len(), served_to)),
                _ => None,
            })
            .collect();
        assert_eq!(resps.len(), 1, "one chunk per request (pull streaming)");
        assert_eq!(resps[0], (0, 4, 20), "chunk bounded by chunk_entries");
    }

    #[test]
    fn segment_req_beyond_decided_reports_shortfall() {
        let mut s = server(1);
        s.handle(9, ServiceMsg::SegmentReq { from: 5, to: 10 });
        let out = s.outgoing();
        let resp = out
            .iter()
            .find_map(|(_, m)| match m {
                ServiceMsg::SegmentResp {
                    entries, served_to, ..
                } => Some((entries.len(), *served_to)),
                _ => None,
            })
            .expect("shortfall response");
        assert_eq!(resp, (0, 0), "nothing served, shortfall reported");
    }

    #[test]
    fn reconfigure_requires_an_active_configuration() {
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(4));
        assert!(j.reconfigure(vec![4, 5, 6]).is_err());
    }

    #[test]
    fn service_msg_sizes_scale_with_content() {
        let small: ServiceMsg<u64> = ServiceMsg::SegmentReq { from: 0, to: 10 };
        let big: ServiceMsg<u64> = ServiceMsg::SegmentResp {
            start: 0,
            entries: vec![1; 100].into(),
            served_to: 100,
            requested_to: 100,
        };
        assert!(big.size_bytes() > small.size_bytes() + 700);
        let sc: ServiceMsg<u64> = ServiceMsg::StartConfig {
            ss: StopSign::new(2, vec![1, 2, 3]),
            old_nodes: vec![1, 2, 3],
            log_len: 10,
            snap_idx: 0,
        };
        assert!(sc.size_bytes() > 32);
    }

    /// A donor of configuration 1 with entries `0..20` applied and the
    /// prefix below 15 compacted into a snapshot.
    fn compacted_donor(pid: NodeId) -> (OmniPaxosServer<u64>, SnapshotData) {
        let mut s = OmniPaxosServer::with_storage(
            ServerConfig::with(pid),
            vec![1, 2, 3],
            crate::storage::MemoryStorage::with_decided_log((0..20u64).collect()),
        );
        s.tick(); // absorb the pre-loaded history into the service log
        let _ = s.outgoing();
        let snap: SnapshotData = vec![0xAB; 64].into();
        s.provide_snapshot(15, snap.clone()).expect("compact");
        (s, snap)
    }

    #[test]
    fn provide_snapshot_compacts_log_and_replication_instance() {
        let (mut s, snap) = compacted_donor(1);
        assert_eq!(s.log_start(), 15);
        assert_eq!(s.decided_len(), 20);
        assert!(s.log().eq(&[15, 16, 17, 18, 19]));
        assert_eq!(s.snapshot(), Some((15, snap.clone())));
        assert_eq!(s.omni().unwrap().compacted_idx(), 15);
        // Errors surface instead of silently trimming.
        assert_eq!(
            s.provide_snapshot(25, snap.clone()),
            Err(TrimError::BeyondDecided {
                decided_idx: 20,
                requested: 25
            })
        );
        assert_eq!(
            s.provide_snapshot(10, snap),
            Err(TrimError::AlreadyTrimmed {
                compacted_idx: 15,
                requested: 10
            })
        );
    }

    #[test]
    fn segment_req_below_the_compaction_point_reports_shortfall() {
        let (mut s, _) = compacted_donor(1);
        s.handle(9, ServiceMsg::SegmentReq { from: 5, to: 20 });
        let out = s.outgoing();
        let resp = out
            .iter()
            .find_map(|(_, m)| match m {
                ServiceMsg::SegmentResp {
                    entries, served_to, ..
                } => Some((entries.len(), *served_to)),
                _ => None,
            })
            .expect("shortfall response");
        assert_eq!(resp, (0, 5), "compacted prefix is not served as entries");
    }

    #[test]
    fn snap_req_serves_the_snapshot_in_bounded_chunks() {
        let (mut s, snap) = compacted_donor(1);
        s.handle(9, ServiceMsg::SnapReq { offset: 0 });
        let out = s.outgoing();
        let (idx, offset, chunk, total) = out
            .iter()
            .find_map(|(to, m)| match m {
                ServiceMsg::SnapResp {
                    idx,
                    offset,
                    chunk,
                    total,
                } if *to == 9 => Some((*idx, *offset, chunk.clone(), *total)),
                _ => None,
            })
            .expect("snapshot chunk");
        assert_eq!((idx, offset, total), (15, 0, 64));
        assert_eq!(chunk[..], snap[..]);
    }

    #[test]
    fn snap_req_without_a_snapshot_signals_fallback() {
        let mut s = server(1);
        s.handle(9, ServiceMsg::SnapReq { offset: 0 });
        let out = s.outgoing();
        assert!(
            out.iter()
                .any(|(to, m)| *to == 9 && matches!(m, ServiceMsg::SnapResp { total: 0, .. })),
            "no snapshot: fallback signal: {out:?}"
        );
    }

    #[test]
    fn joiner_migrates_snapshot_first_with_parallel_tail() {
        let (mut donor, snap) = compacted_donor(1);
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(4));
        j.handle(
            1,
            ServiceMsg::StartConfig {
                ss: StopSign::new(2, vec![1, 2, 4]),
                old_nodes: vec![1, 2, 3],
                log_len: 20,
                snap_idx: 15,
            },
        );
        assert_eq!(j.role(), ServerRole::Migrating);
        let out = j.outgoing();
        // The snapshot is pulled from the notifier...
        assert!(
            out.iter()
                .any(|(to, m)| *to == 1 && matches!(m, ServiceMsg::SnapReq { offset: 0 })),
            "snapshot requested from the notifier: {out:?}"
        );
        // ...while the tail above the snapshot is requested as segments (in
        // parallel, from the donor set).
        let seg_reqs: Vec<(NodeId, u64, u64)> = out
            .iter()
            .filter_map(|(to, m)| match m {
                ServiceMsg::SegmentReq { from, to: hi } => Some((*to, *from, *hi)),
                _ => None,
            })
            .collect();
        assert_eq!(seg_reqs.iter().map(|&(_, lo, _)| lo).min(), Some(15));
        assert!(seg_reqs.iter().all(|&(_, lo, _)| lo >= 15));
        // Deliver the tail segment FIRST (out of order w.r.t. the
        // snapshot): it must be buffered, not applied at position 0.
        let (seg_donor, lo, hi) = seg_reqs[0];
        donor.handle(4, ServiceMsg::SegmentReq { from: lo, to: hi });
        let seg_resp = donor
            .outgoing()
            .into_iter()
            .find_map(|(to, m)| (to == 4).then_some(m))
            .expect("segment response");
        assert_eq!(seg_donor, 1, "single-donor test setup");
        j.handle(1, seg_resp);
        assert_eq!(j.role(), ServerRole::Migrating, "snapshot still missing");
        // Now the snapshot chunk arrives and completes the migration.
        donor.handle(4, ServiceMsg::SnapReq { offset: 0 });
        let snap_resp = donor
            .outgoing()
            .into_iter()
            .find_map(|(to, m)| (to == 4 && matches!(m, ServiceMsg::SnapResp { .. })).then_some(m))
            .expect("snapshot response");
        j.handle(1, snap_resp);
        assert_eq!(j.role(), ServerRole::Active);
        assert_eq!(j.config_id(), 2);
        assert_eq!(j.log_start(), 15);
        assert_eq!(j.decided_len(), 20);
        assert!(j.log().eq(&[15, 16, 17, 18, 19]));
        assert_eq!(
            j.take_snapshot_event(),
            Some((15, snap)),
            "owner is handed the snapshot to restore from"
        );
    }

    #[test]
    fn joiner_falls_back_to_log_migration_when_donor_lost_its_snapshot() {
        let mut j: OmniPaxosServer<u64> = OmniPaxosServer::new_joiner(ServerConfig::with(4));
        j.handle(
            1,
            ServiceMsg::StartConfig {
                ss: StopSign::new(2, vec![1, 2, 4]),
                old_nodes: vec![1, 2, 3],
                log_len: 20,
                snap_idx: 15,
            },
        );
        let _ = j.outgoing();
        // The supposed snapshot donor answers `total == 0`: re-plan the
        // whole range as log segments.
        j.handle(
            1,
            ServiceMsg::SnapResp {
                idx: 0,
                offset: 0,
                chunk: Vec::new().into(),
                total: 0,
            },
        );
        let reqs: Vec<u64> = j
            .outgoing()
            .into_iter()
            .filter_map(|(_, m)| match m {
                ServiceMsg::SegmentReq { from, .. } => Some(from),
                _ => None,
            })
            .collect();
        assert_eq!(
            reqs.iter().min(),
            Some(&0),
            "full range re-planned: {reqs:?}"
        );
    }
}
