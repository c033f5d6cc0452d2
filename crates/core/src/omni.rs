//! The combined Omni-Paxos node of one configuration: a [`SequencePaxos`]
//! replica plus its accompanying [`BallotLeaderElection`] (Fig. 2).
//!
//! The two components run concurrently and in isolation (§3): BLE elects a
//! quorum-connected ballot and its output is fed into Sequence Paxos as a
//! leader event; nothing else is shared. [`OmniPaxos`] is the glue that
//! multiplexes their messages and timers behind one interface.

use crate::ballot::{Ballot, NodeId};
use crate::ble::{BallotLeaderElection, BleConfig};
use crate::messages::{BleMessage, Message, PaxosMsg};
use crate::sequence_paxos::{
    Phase, ProposeErr, ReadIndexErr, Role, SequencePaxos, SequencePaxosConfig,
};
use crate::snapshot::SnapshotData;
use crate::storage::{Storage, StorageError, TrimError};
use crate::util::{Entry, LogEntry, StopSign};

/// A message of either component, addressed between servers.
#[derive(Debug, Clone, PartialEq)]
pub enum OmniMessage<T> {
    Paxos(Message<T>),
    Ble(BleMessage),
}

impl<T: Entry> OmniMessage<T> {
    /// The destination server.
    pub fn to(&self) -> NodeId {
        match self {
            OmniMessage::Paxos(m) => m.to,
            OmniMessage::Ble(m) => m.to,
        }
    }

    /// The source server.
    pub fn from(&self) -> NodeId {
        match self {
            OmniMessage::Paxos(m) => m.from,
            OmniMessage::Ble(m) => m.from,
        }
    }

    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            OmniMessage::Paxos(m) => m.size_bytes(),
            OmniMessage::Ble(m) => m.msg.size_bytes(),
        }
    }
}

impl<T> OmniMessage<T> {
    /// Stable wire discriminant (append-only; forward-compatibility rules
    /// in [`crate::messages::PaxosMsg`] docs).
    pub const fn discriminant(&self) -> u8 {
        match self {
            OmniMessage::Paxos(_) => 0,
            OmniMessage::Ble(_) => 1,
        }
    }
}

/// Configuration of an [`OmniPaxos`] node.
#[derive(Debug, Clone)]
pub struct OmniPaxosConfig {
    /// Configuration (log segment) id.
    pub config_id: u32,
    /// This server.
    pub pid: NodeId,
    /// All servers of the configuration (including `pid`).
    pub nodes: Vec<NodeId>,
    /// Ticks per BLE heartbeat round; one tick is the owner's timer
    /// granularity. The paper's election timeout corresponds to
    /// `hb_timeout_ticks` × tick-interval.
    pub hb_timeout_ticks: u64,
    /// Ticks between retransmission sweeps (lost `Prepare`s etc.).
    pub resend_ticks: u64,
    /// Ballot priority for tie-breaking (§8).
    pub priority: u64,
    /// Stamp takeover ballots with connectivity so better-connected
    /// candidates win ties (§8's proposed optimization).
    pub connectivity_priority: bool,
    /// Proposal buffer size while no leader is known.
    pub buffer_size: usize,
    /// Max bytes per chunk of a snapshot transfer to a lagging follower.
    pub snapshot_chunk_bytes: usize,
    /// Leader-lease duration in ticks; `0` disables leases entirely (the
    /// default). When enabled, followers piggyback lease grants on BLE
    /// heartbeat replies and the leader may serve linearizable reads
    /// locally while a majority of grants is live (see DESIGN.md §14).
    pub lease_ticks: u64,
    /// Clock-skew safety margin subtracted from the leader's view of each
    /// grant: the leader stops serving lease reads `lease_epsilon_ticks`
    /// before the follower's suppression window can possibly end. Must
    /// cover the worst-case tick-rate drift between any two servers over
    /// one lease duration.
    pub lease_epsilon_ticks: u64,
}

impl OmniPaxosConfig {
    /// Sensible defaults: 5-tick heartbeat rounds, resend every 50 ticks.
    pub fn with(config_id: u32, pid: NodeId, nodes: Vec<NodeId>) -> Self {
        OmniPaxosConfig {
            config_id,
            pid,
            nodes,
            hb_timeout_ticks: 5,
            resend_ticks: 50,
            priority: 0,
            connectivity_priority: false,
            buffer_size: 1_000_000,
            snapshot_chunk_bytes: 256 * 1024,
            lease_ticks: 0,
            lease_epsilon_ticks: 0,
        }
    }
}

/// One Omni-Paxos node: Sequence Paxos + BLE for a single configuration.
pub struct OmniPaxos<T: Entry, S: Storage<T>> {
    sp: SequencePaxos<T, S>,
    ble: BallotLeaderElection,
    config: OmniPaxosConfig,
    ticks_since_resend: u64,
    /// Ticks spent in the Recover phase (see `tick` for the viability
    /// timeout).
    recover_ticks: u64,
    /// Audit log of every ballot this node elected, in election order — the
    /// observation hook behind the chaos harness's LE3 check (elected
    /// ballots must increase strictly within one BLE lifetime). Volatile:
    /// cleared on [`OmniPaxos::fail_recovery`], like the BLE state it
    /// observes.
    ballot_audit: Vec<Ballot>,
}

impl<T: Entry, S: Storage<T>> OmniPaxos<T, S> {
    /// Create a node from its configuration and (possibly pre-existing)
    /// storage.
    pub fn new(config: OmniPaxosConfig, storage: S) -> Self {
        let mut sp_config = SequencePaxosConfig::with(config.config_id, config.pid, &config.nodes);
        sp_config.buffer_size = config.buffer_size;
        sp_config.snapshot_chunk_bytes = config.snapshot_chunk_bytes;
        let mut ble_config = BleConfig::with(config.pid, &config.nodes, config.hb_timeout_ticks);
        ble_config.priority = config.priority;
        ble_config.connectivity_priority = config.connectivity_priority;
        ble_config.lease_ticks = config.lease_ticks;
        ble_config.lease_epsilon_ticks = config.lease_epsilon_ticks;
        OmniPaxos {
            sp: SequencePaxos::new(sp_config, storage),
            ble: BallotLeaderElection::new(ble_config),
            config,
            ticks_since_resend: 0,
            recover_ticks: 0,
            ballot_audit: Vec::new(),
        }
    }

    /// This server's id.
    pub fn pid(&self) -> NodeId {
        self.config.pid
    }

    /// The configuration id.
    pub fn config_id(&self) -> u32 {
        self.config.config_id
    }

    /// Propose a client command.
    pub fn append(&mut self, entry: T) -> Result<(), ProposeErr> {
        self.sp.append(entry)
    }

    /// Propose a reconfiguration (stop-sign).
    pub fn reconfigure(&mut self, ss: StopSign) -> Result<(), ProposeErr> {
        self.sp.reconfigure(ss)
    }

    /// Advance logical time by one tick: drives BLE rounds and periodic
    /// retransmission. Call at a fixed interval.
    pub fn tick(&mut self) {
        // A halted replica looks crashed to the cluster: no heartbeats, no
        // elections, no retransmissions. BLE must go quiet too — heartbeat
        // replies from a node that can no longer persist anything would
        // keep electing it.
        if self.sp.halted().is_some() {
            return;
        }
        // A replica that is still resynchronizing after a crash should not
        // be a leader candidate: if the current leader is healthy it will
        // re-sync us shortly, and candidacy would only churn leadership.
        // But if *no* leader above our persisted promise exists (e.g. the
        // high-ballot servers all crashed), waiting would deadlock — so
        // viability times out and the recovering server competes with its
        // above-promise ballot; winning is safe because the Prepare phase
        // synchronizes the leader's log (§5.2).
        if self.sp.state().1 == Phase::Recover {
            self.recover_ticks += 1;
            let patience = self.config.hb_timeout_ticks * 4;
            self.ble.set_viable(self.recover_ticks > patience);
        } else {
            self.recover_ticks = 0;
            self.ble.set_viable(true);
        }
        if let Some(elected) = self.ble.tick() {
            self.ballot_audit.push(elected);
            self.sp.handle_leader(elected);
        }
        self.ticks_since_resend += 1;
        if self.ticks_since_resend >= self.config.resend_ticks {
            self.ticks_since_resend = 0;
            self.sp.resend_timeout();
        }
    }

    /// Feed one incoming message. Dropped entirely while halted.
    ///
    /// When leases are enabled, this is also the *prepare gate*: BLE elects
    /// by quorum connectivity alone (no votes), so a partitioned candidate
    /// can be elected while some follower's lease grant to the old leader
    /// is still live. Election suppression in BLE is not enough — the
    /// candidate only becomes dangerous once a majority *promises* its
    /// ballot. So a follower holding an active grant refuses to promise any
    /// higher ballot other than the grantee's own: the `Prepare` is dropped
    /// here, indistinguishable from message loss, and the candidate's
    /// `resend_timeout` re-delivers it once the grant has expired.
    pub fn handle_message(&mut self, msg: OmniMessage<T>) {
        if self.sp.halted().is_some() {
            return;
        }
        match msg {
            OmniMessage::Paxos(m) => {
                if let PaxosMsg::Prepare(ref p) = m.msg {
                    if self.ble.grant_blocks(p.n, self.sp.promised()) {
                        return;
                    }
                }
                self.sp.handle_message(m)
            }
            OmniMessage::Ble(m) => self.ble.handle_message(m),
        }
    }

    /// Drain all queued outgoing messages of both components. The drain is
    /// the group-commit point: if the flush inside it fails, the node halts
    /// and *nothing* leaves — including BLE heartbeats queued earlier, which
    /// would otherwise advertise a replica that can no longer persist.
    pub fn outgoing_messages(&mut self) -> Vec<OmniMessage<T>> {
        let sp_out = self.sp.outgoing_messages();
        if self.sp.halted().is_some() {
            let _ = self.ble.outgoing_messages();
            return Vec::new();
        }
        let mut out: Vec<OmniMessage<T>> = sp_out.into_iter().map(OmniMessage::Paxos).collect();
        out.extend(
            self.ble
                .outgoing_messages()
                .into_iter()
                .map(OmniMessage::Ble),
        );
        out
    }

    /// Index up to which the log is decided.
    pub fn decided_idx(&self) -> u64 {
        self.sp.decided_idx()
    }

    /// Index up to which decided entries would survive a crash right now:
    /// the service layer delivers decided entries only below it.
    pub(crate) fn durable_decided_idx(&self) -> u64 {
        self.sp.durable_decided_idx()
    }

    /// Where the stop-sign sits in the log, decided or not.
    pub(crate) fn stopsign_idx(&self) -> Option<u64> {
        self.sp.stopsign_idx()
    }

    /// Read decided entries from `from`.
    pub fn read_decided(&self, from: u64) -> Vec<LogEntry<T>> {
        self.sp.read_decided(from)
    }

    /// Borrow decided entries from `from` without copying. The hot path for
    /// applying decided entries: callers iterate the slice in place.
    pub fn decided_ref(&self, from: u64) -> &[LogEntry<T>] {
        self.sp.decided_ref(from)
    }

    /// Absolute log length (accepted, not necessarily decided).
    pub fn log_len(&self) -> u64 {
        self.sp.log_len()
    }

    /// Index below which the log has been compacted away (snapshot/trim).
    pub fn compacted_idx(&self) -> u64 {
        self.sp.compacted_idx()
    }

    /// Compact the log at `idx` in one safe operation: record `data` as the
    /// state-machine snapshot covering `[0, idx)`, trim the superseded
    /// prefix, and checkpoint durable storage so recovery restarts from the
    /// snapshot plus the log tail. Fails with [`TrimError`] if `idx` exceeds
    /// the decided index or does not advance the compaction frontier.
    pub fn compact(&mut self, idx: u64, data: SnapshotData) -> Result<(), TrimError> {
        self.sp.compact(idx, data)
    }

    /// Take the snapshot this replica installed from a leader transfer (or
    /// Prepare-phase sync) since the last call. The owner must restore its
    /// state machine from it before applying entries above the snapshot
    /// index.
    pub fn take_installed_snapshot(&mut self) -> Option<(u64, SnapshotData)> {
        self.sp.take_installed_snapshot()
    }

    /// The ballot this node believes is the current leader.
    pub fn leader(&self) -> Ballot {
        self.sp.leader()
    }

    /// Is this node the elected leader in the Accept phase? A halted node
    /// never is — it cannot persist, so it cannot lead.
    pub fn is_leader(&self) -> bool {
        self.sp.halted().is_none()
            && (self.sp.state() == (Role::Leader, Phase::Accept)
                || self.sp.state() == (Role::Leader, Phase::Prepare))
    }

    /// `(role, phase)` of the replication component.
    pub fn state(&self) -> (Role, Phase) {
        self.sp.state()
    }

    /// Was this node quorum-connected at the end of the last BLE round?
    pub fn is_quorum_connected(&self) -> bool {
        self.ble.is_quorum_connected()
    }

    /// Is this node halted on a storage failure (fail-stop)? A halted node
    /// accepts and emits nothing until [`OmniPaxos::fail_recovery`]
    /// succeeds.
    pub fn is_halted(&self) -> bool {
        self.sp.halted().is_some()
    }

    /// The storage failure this node halted on, if any.
    pub fn storage_error(&self) -> Option<StorageError> {
        self.sp.halted()
    }

    /// The decided stop-sign, if this configuration is finished.
    pub fn decided_stopsign(&self) -> Option<StopSign> {
        self.sp.decided_stopsign()
    }

    /// Recover after a crash: volatile protocol state is rebuilt from
    /// storage and peers are asked for the current leader (§4.1.3). The
    /// fresh BLE instance starts with its election floor at the persisted
    /// promise: a healthy leader at that ballot keeps leading undisturbed,
    /// while anything lower is treated as lost leadership and taken over
    /// with a higher ballot — so a stale pre-crash ballot can neither
    /// masquerade as the current leader nor block re-election.
    pub fn fail_recovery(&mut self) {
        self.sp.fail_recovery();
        if self.sp.halted().is_some() {
            // Storage could not re-establish a durable view; the node stays
            // down (fail-stop) and BLE state is left untouched.
            return;
        }
        let promise = self.sp.promised();
        let mut ble_config = BleConfig::with(
            self.config.pid,
            &self.config.nodes,
            self.config.hb_timeout_ticks,
        );
        ble_config.priority = self.config.priority;
        ble_config.connectivity_priority = self.config.connectivity_priority;
        ble_config.initial_leader = promise;
        ble_config.lease_ticks = self.config.lease_ticks;
        ble_config.lease_epsilon_ticks = self.config.lease_epsilon_ticks;
        if self.config.lease_ticks > 0 && promise.pid == self.config.pid {
            // We crashed while we were the promised leader. A crash brief
            // enough to fit inside our followers' lease grants is invisible
            // to them — their grants keep renewing off our heartbeats, the
            // grant-postponed takeover never fires, and no other server
            // will ever Prepare us out of the Recover phase (we ARE the
            // leader they follow). Recovery must therefore be a
            // self-takeover: compete above our own promise. The holdoff
            // below still silences promises to anyone else, and a promise
            // pid of our own proves any pre-crash grant we issued was to
            // ourselves, so outbidding it betrays no other grantee.
            ble_config.initial_n = promise.n + 1;
            ble_config.initial_leader = Ballot::bottom();
        }
        // Grant memory is volatile, but an outstanding grant is a *promise
        // of silence* to its grantee: after a crash the node must assume it
        // had granted a lease moments before and sit out one full lease
        // window (promising only the persisted-promise ballot, which a live
        // grant would have permitted anyway) before promising anything
        // higher. Without this holdoff, crash + instant restart would let a
        // candidate steal a majority while the old leader still reads.
        ble_config.initial_grant_holdoff_ticks = self.config.lease_ticks;
        self.ble = BallotLeaderElection::new(ble_config);
        self.ticks_since_resend = 0;
        self.recover_ticks = 0;
        // The audit observes one BLE lifetime; the fresh instance starts a
        // new (empty) history, so a post-recovery election that re-learns a
        // pre-crash leader is not misread as a monotonicity violation.
        self.ballot_audit.clear();
    }

    /// Notify that the session to `pid` was re-established (§4.1.3).
    pub fn reconnected(&mut self, pid: NodeId) {
        self.sp.reconnected(pid);
    }

    // ------------------------------------------------------------------
    // Linearizable local reads (leases + read index) — DESIGN.md §14
    // ------------------------------------------------------------------

    /// May this node serve a linearizable read from its local state machine
    /// *right now*, without any message round? True only when it is the
    /// leader in the Accept phase AND holds live lease grants from a
    /// majority — which guarantees (via the prepare gate) that no higher
    /// ballot can have completed a Prepare phase at a majority, so no write
    /// this node has not seen can have committed. The caller must still
    /// wait for its applied index to reach [`OmniPaxos::read_barrier`].
    ///
    /// The answer is instantaneous and non-sticky: re-check per read (or
    /// per admission batch), never cache across ticks.
    pub fn lease_valid(&self) -> bool {
        self.sp.halted().is_none()
            && self.sp.state() == (Role::Leader, Phase::Accept)
            && self.ble.lease_valid(self.sp.leader())
    }

    /// The log index a lease-protected local read must wait for before
    /// serving (see [`SequencePaxos::read_barrier`]). `None` when this node
    /// is not an Accept-phase leader.
    pub fn read_barrier(&self) -> Option<u64> {
        self.sp.read_barrier()
    }

    /// Request a linearizable read index via the read-index protocol
    /// (works on any replica, no lease required). The confirmed
    /// `(token, idx)` grant arrives via [`OmniPaxos::take_read_grants`];
    /// the owner then waits for local apply to reach `idx` and serves from
    /// its own state machine. Fire-and-forget across leader changes — the
    /// owner retries on a deadline.
    pub fn request_read_index(&mut self, token: u64) -> Result<(), ReadIndexErr> {
        self.sp.request_read_index(token)
    }

    /// Drain confirmed read-index grants for reads this node requested.
    pub fn take_read_grants(&mut self) -> Vec<(u64, u64)> {
        self.sp.take_read_grants()
    }

    /// Access the replication component (for tests and invariants).
    pub fn sequence_paxos(&mut self) -> &mut SequencePaxos<T, S> {
        &mut self.sp
    }

    /// Access the election component (for tests and invariants).
    pub fn ble(&mut self) -> &mut BallotLeaderElection {
        &mut self.ble
    }

    /// Every ballot this node elected since creation (or since the last
    /// [`OmniPaxos::fail_recovery`]), in election order. LE3 requires the
    /// sequence to be strictly increasing; the chaos harness asserts exactly
    /// that after every step.
    pub fn ballot_audit(&self) -> &[Ballot] {
        &self.ballot_audit
    }
}

impl<T: Entry, S: Storage<T>> std::fmt::Debug for OmniPaxos<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmniPaxos")
            .field("pid", &self.config.pid)
            .field("config_id", &self.config.config_id)
            .field("sp", &self.sp)
            .field("ble_leader", &self.ble.leader())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStorage;

    type Node = OmniPaxos<u64, MemoryStorage<u64>>;

    fn cluster(n: usize) -> Vec<Node> {
        let nodes: Vec<NodeId> = (1..=n as NodeId).collect();
        nodes
            .iter()
            .map(|&pid| {
                OmniPaxos::new(
                    OmniPaxosConfig::with(1, pid, nodes.clone()),
                    MemoryStorage::new(),
                )
            })
            .collect()
    }

    fn settle(nodes: &mut [Node], rounds: usize) {
        for _ in 0..rounds {
            for i in 0..nodes.len() {
                nodes[i].tick();
                for m in nodes[i].outgoing_messages() {
                    let to = m.to() as usize - 1;
                    nodes[to].handle_message(m);
                }
            }
        }
    }

    #[test]
    fn ticks_drive_election_and_replication() {
        let mut nodes = cluster(3);
        settle(&mut nodes, 40);
        let leaders: Vec<NodeId> = nodes
            .iter()
            .filter(|n| n.is_leader())
            .map(|n| n.pid())
            .collect();
        assert_eq!(leaders.len(), 1);
        // The highest pid wins the first election (max initial ballot).
        assert_eq!(leaders[0], 3);
        let li = 2;
        nodes[li].append(9).unwrap();
        settle(&mut nodes, 40);
        for n in &nodes {
            assert_eq!(n.read_decided(0), vec![LogEntry::Normal(9)]);
        }
    }

    #[test]
    fn recovered_node_rejoins_without_stealing_leadership() {
        let mut nodes = cluster(3);
        settle(&mut nodes, 40);
        let leader_ballot = nodes[0].leader();
        // A *follower* crash-recovers while the leader stays healthy: it
        // must re-sync without a leader change (viability gating).
        nodes[0].fail_recovery();
        settle(&mut nodes, 60);
        assert_eq!(nodes[0].state().1, Phase::Accept, "resynced");
        assert_eq!(
            nodes[2].leader(),
            leader_ballot,
            "no leadership churn on follower recovery"
        );
    }

    #[test]
    fn recovery_viability_times_out_when_no_leader_exists() {
        // Everyone crashes: promises exceed every live ballot, so only the
        // viability timeout can restore the cluster.
        let mut nodes = cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        nodes[li].append(1).unwrap();
        settle(&mut nodes, 40);
        for n in nodes.iter_mut() {
            n.fail_recovery();
        }
        settle(&mut nodes, 200);
        let leader = nodes.iter().position(|n| n.is_leader());
        assert!(leader.is_some(), "a leader re-emerges: {nodes:?}");
        let li = leader.unwrap();
        nodes[li].append(2).unwrap();
        settle(&mut nodes, 60);
        for n in &nodes {
            assert_eq!(
                n.read_decided(0),
                vec![LogEntry::Normal(1), LogEntry::Normal(2)],
                "decided history survives a full-cluster restart"
            );
        }
    }

    #[test]
    fn quorum_connectivity_flag_is_exposed() {
        let mut nodes = cluster(3);
        settle(&mut nodes, 40);
        assert!(nodes.iter_mut().all(|n| n.is_quorum_connected()));
        // A node ticked in isolation loses quorum connectivity.
        let mut lone = OmniPaxos::<u64, MemoryStorage<u64>>::new(
            OmniPaxosConfig::with(1, 1, vec![1, 2, 3]),
            MemoryStorage::new(),
        );
        for _ in 0..20 {
            lone.tick();
            let _ = lone.outgoing_messages();
        }
        assert!(!lone.is_quorum_connected());
    }

    #[test]
    fn compact_trims_checkpoints_and_surfaces_trim_errors() {
        use crate::storage::TrimError;
        let mut nodes = cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        for v in 1..=5 {
            nodes[li].append(v).unwrap();
        }
        settle(&mut nodes, 40);
        let snap: crate::snapshot::SnapshotData = vec![7u8; 4].into();
        nodes[li].compact(3, snap.clone()).unwrap();
        assert_eq!(nodes[li].compacted_idx(), 3);
        assert_eq!(
            nodes[li].read_decided(3),
            vec![LogEntry::Normal(4), LogEntry::Normal(5)]
        );
        assert_eq!(
            nodes[li].compact(99, snap.clone()),
            Err(TrimError::BeyondDecided {
                decided_idx: 5,
                requested: 99
            })
        );
        assert_eq!(
            nodes[li].compact(2, snap),
            Err(TrimError::AlreadyTrimmed {
                compacted_idx: 3,
                requested: 2
            })
        );
    }

    #[test]
    fn halted_node_goes_dark_until_recovery() {
        use crate::faults::{FaultyStorage, StorageFaultKind};
        type FaultyNode = OmniPaxos<u64, FaultyStorage<u64, MemoryStorage<u64>>>;
        let nodes_ids: Vec<NodeId> = vec![1, 2, 3];
        let mut nodes: Vec<FaultyNode> = nodes_ids
            .iter()
            .map(|&pid| {
                OmniPaxos::new(
                    OmniPaxosConfig::with(1, pid, nodes_ids.clone()),
                    FaultyStorage::new(MemoryStorage::new()),
                )
            })
            .collect();
        let settle = |nodes: &mut Vec<FaultyNode>, rounds: usize| {
            for _ in 0..rounds {
                for i in 0..nodes.len() {
                    nodes[i].tick();
                    for m in nodes[i].outgoing_messages() {
                        let to = m.to() as usize - 1;
                        nodes[to].handle_message(m);
                    }
                }
            }
        };
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        nodes[li].append(1).unwrap();
        settle(&mut nodes, 40);
        // A follower's disk starts failing fsync: it halts at its next
        // group-commit and goes completely dark.
        let fi = (li + 1) % 3;
        nodes[fi]
            .sequence_paxos()
            .storage()
            .arm(StorageFaultKind::SyncFailed);
        nodes[fi].append(2).ok(); // forwarded proposal forces a flush
        settle(&mut nodes, 10);
        assert!(nodes[fi].is_halted());
        assert!(nodes[fi].outgoing_messages().is_empty());
        // The rest of the cluster keeps deciding without it.
        nodes[li].append(3).unwrap();
        settle(&mut nodes, 40);
        assert!(nodes[li].decided_idx() >= 2);
        // Recovery re-syncs the halted node through the crash path.
        nodes[fi].fail_recovery();
        assert!(!nodes[fi].is_halted());
        settle(&mut nodes, 80);
        assert_eq!(nodes[fi].read_decided(0), nodes[li].read_decided(0));
    }

    fn lease_cluster(n: usize) -> Vec<Node> {
        let nodes: Vec<NodeId> = (1..=n as NodeId).collect();
        nodes
            .iter()
            .map(|&pid| {
                let mut config = OmniPaxosConfig::with(1, pid, nodes.clone());
                config.lease_ticks = 20;
                config.lease_epsilon_ticks = 2;
                OmniPaxos::new(config, MemoryStorage::new())
            })
            .collect()
    }

    #[test]
    fn lease_holder_serves_local_reads_and_followers_do_not() {
        let mut nodes = lease_cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        assert!(nodes[li].lease_valid(), "heartbeat acks grant the lease");
        assert!(nodes[li].read_barrier().is_some());
        for (i, n) in nodes.iter().enumerate() {
            if i != li {
                assert!(!n.lease_valid(), "only the leader holds the lease");
                assert!(n.read_barrier().is_none());
            }
        }
    }

    #[test]
    fn isolated_leader_lease_expires() {
        let mut nodes = lease_cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        assert!(nodes[li].lease_valid());
        // The leader is cut off: it keeps ticking but no heartbeat replies
        // arrive, so its grants age out within one lease duration even
        // though it still believes it is the leader.
        for _ in 0..40 {
            nodes[li].tick();
            let _ = nodes[li].outgoing_messages();
        }
        assert!(nodes[li].is_leader(), "still leader in its own view");
        assert!(
            !nodes[li].lease_valid(),
            "an isolated leader must stop serving local reads"
        );
    }

    #[test]
    fn lease_dies_on_fail_recovery() {
        let mut nodes = lease_cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        assert!(nodes[li].lease_valid());
        nodes[li].fail_recovery();
        assert!(!nodes[li].lease_valid(), "grants are volatile");
        assert!(nodes[li].read_barrier().is_none());
    }

    #[test]
    fn read_index_grants_follow_the_commit_index() {
        let mut nodes = lease_cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        nodes[li].append(7).unwrap();
        nodes[li].append(8).unwrap();
        settle(&mut nodes, 40);
        let decided = nodes[li].decided_idx();
        assert_eq!(decided, 2);
        // A follower asks for a read index: one round later it holds a
        // grant at (at least) the leader's commit index.
        let fi = (li + 1) % 3;
        nodes[fi].request_read_index(42).unwrap();
        settle(&mut nodes, 10);
        let grants = nodes[fi].take_read_grants();
        assert_eq!(grants, vec![(42, decided)]);
        // The leader-local path works too, without any message round
        // needed to confirm (its own ack counts toward the majority, but a
        // 3-node majority still needs one follower ack).
        nodes[li].request_read_index(43).unwrap();
        settle(&mut nodes, 10);
        assert_eq!(nodes[li].take_read_grants(), vec![(43, decided)]);
    }

    #[test]
    fn live_grant_blocks_higher_prepare_until_expiry() {
        use crate::messages::{PaxosMsg, Prepare};
        let mut nodes = lease_cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        let fi = (li + 1) % 3;
        let promised_before = nodes[fi].sequence_paxos().promised();
        // BLE elects with no votes, so a quorum-connected candidate can
        // start a higher round while this follower's grant to the current
        // leader is live. The prepare gate must drop its Prepare.
        let high = Ballot::new(promised_before.n + 10, 0, (fi as u64 + 1) % 3 + 1);
        let prep = Prepare {
            n: high,
            decided_idx: 0,
            accepted_rnd: Ballot::bottom(),
            log_idx: 0,
        };
        nodes[fi].handle_message(OmniMessage::Paxos(Message::with(
            high.pid,
            fi as NodeId + 1,
            PaxosMsg::Prepare(prep.clone()),
        )));
        assert_eq!(
            nodes[fi].sequence_paxos().promised(),
            promised_before,
            "an active grant refuses to promise a higher ballot"
        );
        // Once the grant expires (no refresh for a full lease window), the
        // same Prepare goes through.
        for _ in 0..40 {
            nodes[fi].tick();
            let _ = nodes[fi].outgoing_messages();
        }
        nodes[fi].handle_message(OmniMessage::Paxos(Message::with(
            high.pid,
            fi as NodeId + 1,
            PaxosMsg::Prepare(prep),
        )));
        assert_eq!(
            nodes[fi].sequence_paxos().promised(),
            high,
            "an expired grant no longer blocks"
        );
    }

    #[test]
    fn deposed_but_connected_leader_refuses_local_lease_reads() {
        use crate::messages::{PaxosMsg, Prepare};
        let mut nodes = lease_cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        assert!(nodes[li].lease_valid());
        // A higher ballot's Prepare reaches the leader itself. The old
        // leader stays quorum-connected and its leader-side grant
        // bookkeeping still holds unexpired anchors from the last
        // heartbeat round — but the instant it promises the successor it
        // is deposed, and serving a local read off those anchors could
        // miss the successor's commits.
        let promised = nodes[li].sequence_paxos().promised();
        let high = Ballot::new(promised.n + 10, 0, (li as u64 + 1) % 3 + 1);
        let prep = Prepare {
            n: high,
            decided_idx: 0,
            accepted_rnd: Ballot::bottom(),
            log_idx: 0,
        };
        nodes[li].handle_message(OmniMessage::Paxos(Message::with(
            high.pid,
            li as NodeId + 1,
            PaxosMsg::Prepare(prep),
        )));
        assert!(!nodes[li].is_leader(), "a promised higher ballot deposes");
        assert!(
            !nodes[li].lease_valid(),
            "a deposed leader must refuse local lease reads"
        );
        assert!(nodes[li].read_barrier().is_none());
    }

    #[test]
    fn recovered_node_holds_off_promising_above_its_promise() {
        use crate::messages::{PaxosMsg, Prepare};
        let mut nodes = lease_cluster(3);
        settle(&mut nodes, 40);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        let fi = (li + 1) % 3;
        // Crash + instant restart: grant memory is gone, but the follower
        // may have granted a lease moments before the crash — it must sit
        // out one full lease window before promising anything higher.
        nodes[fi].fail_recovery();
        let promised = nodes[fi].sequence_paxos().promised();
        let high = Ballot::new(promised.n + 10, 0, (fi as u64 + 1) % 3 + 1);
        let prep = Prepare {
            n: high,
            decided_idx: 0,
            accepted_rnd: Ballot::bottom(),
            log_idx: 0,
        };
        nodes[fi].handle_message(OmniMessage::Paxos(Message::with(
            high.pid,
            fi as NodeId + 1,
            PaxosMsg::Prepare(prep.clone()),
        )));
        assert_eq!(
            nodes[fi].sequence_paxos().promised(),
            promised,
            "the recovery holdoff blocks higher ballots"
        );
        // Re-promising the persisted-promise ballot itself stays allowed
        // (a live grant to that leader would have permitted it anyway), so
        // a healthy leader re-syncs the recovering follower immediately.
        for _ in 0..40 {
            nodes[fi].tick();
            let _ = nodes[fi].outgoing_messages();
        }
        nodes[fi].handle_message(OmniMessage::Paxos(Message::with(
            high.pid,
            fi as NodeId + 1,
            PaxosMsg::Prepare(prep),
        )));
        assert_eq!(
            nodes[fi].sequence_paxos().promised(),
            high,
            "the holdoff expires after one lease window"
        );
    }

    #[test]
    fn message_metadata_is_consistent() {
        let mut nodes = cluster(3);
        nodes[0].tick();
        for m in nodes[0].outgoing_messages() {
            assert_eq!(m.from(), 1);
            assert!(m.to() >= 2 && m.to() <= 3);
            assert!(m.size_bytes() >= 32);
        }
    }
}
