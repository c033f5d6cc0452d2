//! The replicated key-value state machine and its server node.

use omnipaxos::sequence_paxos::ProposeErr;
use omnipaxos::service::{OmniPaxosServer, ServerConfig, ServiceMsg};
use omnipaxos::snapshot::{SnapshotData, Snapshottable};
use omnipaxos::storage::{MemoryStorage, Storage, TrimError};
use omnipaxos::{Entry, NodeId};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

/// Transaction identity: the issuing client's `(client, seq)` pair.
/// Clients own their id space, so the pair is globally unique — it is the
/// key under which a whole cross-shard transaction is deduplicated, no
/// matter how many coordinators end up driving it.
pub type TxnId = (u64, u64);

/// One unconditional write, usable inside a [`KvOp::WriteBatch`] (applied
/// atomically as one log entry) or staged by a [`KvOp::TxnPrepare`]
/// (applied at commit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Set `key` to `value`.
    Put { key: String, value: i64 },
    /// Remove `key`.
    Delete { key: String },
    /// Add `delta` to `key` (missing keys count as 0).
    Add { key: String, delta: i64 },
}

impl WriteOp {
    /// The key this write touches.
    pub fn key(&self) -> &str {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Delete { key } | WriteOp::Add { key, .. } => key,
        }
    }

    pub(crate) fn size_bytes(&self) -> usize {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Add { key, .. } => key.len() + 9,
            WriteOp::Delete { key } => key.len() + 1,
        }
    }
}

/// A transaction precondition, evaluated at prepare time against the
/// participant shard's state. A failed guard is a no-vote: the prepare
/// stages nothing and the coordinator aborts the whole transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnGuard {
    /// `key`'s value (absent = 0) must be at least `min` — the
    /// sufficient-funds guard of a cross-shard transfer.
    MinValue { key: String, min: i64 },
    /// `key`'s value must equal `expect` (`None` = absent) — the CAS
    /// guard, lifted to a transaction.
    Equals { key: String, expect: Option<i64> },
}

impl TxnGuard {
    /// The key this guard reads (it is locked between prepare and
    /// commit/abort so concurrent writes cannot invalidate the check).
    pub fn key(&self) -> &str {
        match self {
            TxnGuard::MinValue { key, .. } | TxnGuard::Equals { key, .. } => key,
        }
    }

    /// Does the guard hold against `state`?
    pub fn holds(&self, state: &HashMap<String, i64>) -> bool {
        match self {
            TxnGuard::MinValue { key, min } => state.get(key).copied().unwrap_or(0) >= *min,
            TxnGuard::Equals { key, expect } => state.get(key).copied() == *expect,
        }
    }

    pub(crate) fn size_bytes(&self) -> usize {
        match self {
            TxnGuard::MinValue { key, .. } => key.len() + 9,
            TxnGuard::Equals { key, .. } => key.len() + 10,
        }
    }
}

/// A client-facing transaction: preconditions plus writes, spanning any
/// number of shards. The coordinator (`crate::txn`) partitions both lists
/// by key ownership and runs two-phase commit across the participant
/// shards' logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnSpec {
    pub guards: Vec<TxnGuard>,
    pub writes: Vec<WriteOp>,
}

impl TxnSpec {
    /// The bank transfer: move `amount` from `from` to `to` iff `from`
    /// holds at least `amount` — possibly across shards.
    pub fn transfer(from: impl Into<String>, to: impl Into<String>, amount: i64) -> Self {
        let (from, to) = (from.into(), to.into());
        TxnSpec {
            guards: vec![TxnGuard::MinValue {
                key: from.clone(),
                min: amount,
            }],
            writes: vec![
                WriteOp::Add {
                    key: from,
                    delta: -amount,
                },
                WriteOp::Add {
                    key: to,
                    delta: amount,
                },
            ],
        }
    }

    /// Every key the transaction touches (guards and writes).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.guards
            .iter()
            .map(|g| g.key())
            .chain(self.writes.iter().map(|w| w.key()))
    }

    /// A transaction with nothing to check and nothing to write.
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty() && self.writes.is_empty()
    }
}

/// 2PC participant record (see `crate::txn`): iff every guard holds and no
/// touched key is locked by another transaction, stage `writes` and lock
/// every touched key (vote yes); otherwise stage nothing (vote no).
/// Idempotent by `txn`; bypasses the session table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnPrepare {
    pub txn: TxnId,
    /// The shard whose log holds the commit/abort decision.
    pub coord_shard: u32,
    /// Every participant shard — recovery needs the full set to drive an
    /// orphaned transaction to resolution from any replica.
    pub participants: Vec<u32>,
    pub guards: Vec<TxnGuard>,
    pub writes: Vec<WriteOp>,
}

/// A key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Set `key` to `value`.
    Put { key: String, value: i64 },
    /// Remove `key`.
    Delete { key: String },
    /// Add `delta` to `key` (missing keys count as 0). Conditional logic in
    /// the state machine (rather than read-modify-write at the client) is
    /// what makes concurrent increments linearizable.
    Add { key: String, delta: i64 },
    /// Atomically move `amount` from `from` to `to` iff `from` has at least
    /// `amount` (the bank-transfer example of `examples/kv_bank.rs`).
    Transfer {
        from: String,
        to: String,
        amount: i64,
    },
    /// A read marker: deciding it linearizes the read at its log position.
    Read { key: String },
    /// Compare-and-set, decided as an ordinary single log entry: if
    /// `key`'s current value equals `expect` (`None` = absent), apply
    /// `set` (`Some(v)` puts `v`, `None` deletes the key) and succeed;
    /// otherwise leave the state untouched and report the actual value.
    /// Conditional put and conditional delete are the two `set` shapes of
    /// the same op. The *verdict* — not just a dedup bit — is cached in
    /// the session table, so a retried CAS observes its original outcome
    /// instead of being re-evaluated against newer state.
    Cas {
        key: String,
        expect: Option<i64>,
        set: Option<i64>,
    },
    /// Several unconditional writes applied atomically as ONE log entry
    /// (all-or-nothing is trivial: one decide, one apply, trivially
    /// linearizable). The sharded gateway admits a batch only if every
    /// key lives on one shard; spanning batches earn a typed error.
    WriteBatch { writes: Vec<WriteOp> },
    /// 2PC participant record (see `crate::txn`), boxed so that this rare
    /// record does not set the size of every log slot.
    TxnPrepare(Box<TxnPrepare>),
    /// 2PC decision record, proposed into the *coordinator shard's* log.
    /// The first decision for `txn` wins and is immutable; later
    /// conflicting records are no-ops that report the recorded decision —
    /// which is what serializes a racing recovery abort against the
    /// original coordinator's commit.
    TxnDecide { txn: TxnId, commit: bool },
    /// 2PC resolution record: apply `txn`'s staged writes and release its
    /// locks. A no-op (reporting the recorded resolution) if the
    /// transaction is not prepared here.
    TxnCommit { txn: TxnId },
    /// 2PC resolution record: discard `txn`'s staged writes and release
    /// its locks. A no-op if the transaction is not prepared here.
    TxnAbort { txn: TxnId },
}

/// A client command: the operation plus its session identity for exactly-
/// once application under retries.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCommand {
    /// Issuing client.
    pub client: u64,
    /// Per-client sequence number; commands apply at most once per
    /// `(client, seq)`.
    pub seq: u64,
    pub op: KvOp,
}

// A put is the common log entry; every slot, clone and `Vec` growth pays
// for the largest variant.
const _: () = assert!(std::mem::size_of::<KvCommand>() <= 80);

impl Entry for KvCommand {
    fn size_bytes(&self) -> usize {
        let op = match &self.op {
            KvOp::Put { key, .. } => key.len() + 8,
            KvOp::Delete { key } => key.len(),
            KvOp::Add { key, .. } => key.len() + 8,
            KvOp::Transfer { from, to, .. } => from.len() + to.len() + 8,
            KvOp::Read { key } => key.len(),
            KvOp::Cas { key, .. } => key.len() + 18,
            KvOp::WriteBatch { writes } => 4 + writes.iter().map(|w| w.size_bytes()).sum::<usize>(),
            KvOp::TxnPrepare(p) => {
                28 + 4 * p.participants.len()
                    + p.guards.iter().map(|g| g.size_bytes()).sum::<usize>()
                    + p.writes.iter().map(|w| w.size_bytes()).sum::<usize>()
            }
            KvOp::TxnDecide { .. } => 17,
            KvOp::TxnCommit { .. } | KvOp::TxnAbort { .. } => 16,
        };
        16 + op
    }
}

/// How a linearizable read is served (per request; see DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Replicate a read marker through the log — the always-correct
    /// baseline: a full consensus round and a log slot per read.
    #[default]
    Log,
    /// Leader lease: served from the leader's local state machine with no
    /// message round while the BLE lease holds; falls through to the log
    /// path when it does not.
    Lease,
    /// Read index: any replica captures the leader's commit index in one
    /// lightweight round, waits for local apply, and serves from its own
    /// state machine (the follower-read path).
    ReadIndex,
}

impl ReadMode {
    /// Stable wire discriminant (append-only).
    pub const fn discriminant(self) -> u8 {
        match self {
            ReadMode::Log => 0,
            ReadMode::Lease => 1,
            ReadMode::ReadIndex => 2,
        }
    }

    /// Inverse of [`ReadMode::discriminant`].
    pub const fn from_discriminant(v: u8) -> Option<Self> {
        match v {
            0 => Some(ReadMode::Log),
            1 => Some(ReadMode::Lease),
            2 => Some(ReadMode::ReadIndex),
            _ => None,
        }
    }
}

/// Result of an applied command, delivered to the issuing client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvResult {
    pub client: u64,
    pub seq: u64,
    /// The value read (for `Read`), the value after the update (for
    /// `Put`/`Add`), `None` for `Delete`, the *actual* value for a `Cas`
    /// that lost its race, and `None` for a `Transfer` rejected for
    /// insufficient funds.
    pub value: Option<i64>,
    /// Did the operation take effect? `false` for rejected transfers,
    /// failed CAS, writes refused because a key is transaction-locked,
    /// duplicate retries, and no-vote/no-op transaction records.
    pub applied: bool,
}

/// One client's session slot: the highest applied sequence number plus the
/// cached *verdict* of that command. Caching the verdict (not just the
/// dedup watermark) is what makes conditional ops retry-safe: a retried
/// `Cas` that lost the race re-observes its original `(value, applied)`
/// instead of being re-evaluated against newer state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionEntry {
    /// Highest applied sequence number for this client.
    pub seq: u64,
    /// Cached result value of that command.
    pub value: Option<i64>,
    /// Cached applied bit of that command.
    pub applied: bool,
}

/// A transaction prepared (vote-yes) on this shard: its staged writes and
/// the keys it holds locked until a commit/abort record resolves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedTxn {
    /// The shard whose log holds the decision record.
    pub coord_shard: u32,
    /// Every participant shard of the transaction.
    pub participants: Vec<u32>,
    /// Writes staged here, applied only at commit.
    pub writes: Vec<WriteOp>,
    /// Keys locked here (sorted, deduplicated; guards and writes).
    pub locked: Vec<String>,
}

/// The bare key-value state machine: the applied map, the client session
/// table, and the 2PC participant state (all of it is replicated state —
/// a snapshot that forgot any piece would re-apply retried commands or
/// orphan prepared locks after a restore).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStateMachine {
    state: HashMap<String, i64>,
    /// Latest applied sequence number and its cached verdict, per client.
    sessions: HashMap<u64, SessionEntry>,
    /// Transactions prepared (vote-yes) here, awaiting commit/abort.
    /// BTreeMap so snapshots and scans iterate deterministically.
    prepared: BTreeMap<TxnId, PreparedTxn>,
    /// Decision records in *this* shard's log (this shard is the
    /// transaction's coordinator shard). First decision wins, immutable.
    decisions: BTreeMap<TxnId, bool>,
    /// Transactions resolved here (commit applied or abort discarded).
    /// Blocks a late duplicate prepare from re-staging after resolution.
    resolved: BTreeMap<TxnId, bool>,
    /// Key → holding transaction. Derived from `prepared` (rebuilt on
    /// restore), kept materialized for O(1) conflict checks.
    locks: HashMap<String, TxnId>,
}

impl KvStateMachine {
    /// The applied key-value map.
    pub fn state(&self) -> &HashMap<String, i64> {
        &self.state
    }

    /// The client session table: latest applied sequence number plus its
    /// cached verdict, per client. Part of the replicated state (snapshots
    /// include it); the chaos harness asserts it survives crash-restore
    /// and snapshot transfer so retried commands stay deduplicated and
    /// retried conditional ops re-observe their original verdict.
    pub fn sessions(&self) -> &HashMap<u64, SessionEntry> {
        &self.sessions
    }

    /// Transactions prepared here and not yet resolved (their keys are
    /// locked). Empty in a quiescent, fully healed cluster — the chaos
    /// harness asserts no orphaned locks survive a forced heal.
    pub fn prepared(&self) -> &BTreeMap<TxnId, PreparedTxn> {
        &self.prepared
    }

    /// Decision records held in this shard's log (first-wins, immutable).
    pub fn decisions(&self) -> &BTreeMap<TxnId, bool> {
        &self.decisions
    }

    /// Transactions resolved on this shard (`true` = committed).
    pub fn resolved(&self) -> &BTreeMap<TxnId, bool> {
        &self.resolved
    }

    /// The lock table: key → transaction holding it.
    pub fn locks(&self) -> &HashMap<String, TxnId> {
        &self.locks
    }

    /// Apply one decided command, returning its client-visible result.
    /// Exactly-once: a duplicate of the *latest* `(client, seq)` replays
    /// its cached verdict verbatim; older duplicates report
    /// `applied: false`. Transaction records bypass the session table —
    /// they are idempotent by `txn` id and may be driven by any number of
    /// recovering coordinators.
    ///
    /// The command is read by reference (an owned one is accepted too):
    /// a put to an existing key updates the value in place, and a key is
    /// copied into the map only on its first insert.
    pub fn apply(&mut self, cmd: impl Borrow<KvCommand>) -> KvResult {
        let cmd = cmd.borrow();
        let (value, applied) = match &cmd.op {
            KvOp::TxnPrepare(p) => self.apply_prepare(p),
            &KvOp::TxnDecide { txn, commit } => self.apply_decide(txn, commit),
            &KvOp::TxnCommit { txn } => self.apply_commit(txn),
            &KvOp::TxnAbort { txn } => self.apply_abort(txn),
            op => {
                // Session dedup: at-most-once per (client, seq). Reads are
                // also markers, so they participate in the same numbering.
                let entry = self.sessions.entry(cmd.client).or_default();
                if cmd.seq == entry.seq && cmd.seq != 0 {
                    // Retransmit of the latest command: replay the cached
                    // verdict (exactly-once semantics for conditional ops).
                    return KvResult {
                        client: cmd.client,
                        seq: cmd.seq,
                        value: entry.value,
                        applied: entry.applied,
                    };
                }
                if cmd.seq <= entry.seq {
                    // An older retransmit (seq numbering starts at 1, so
                    // seq 0 is always stale): deduplicated, verdict lost —
                    // only the latest slot caches one.
                    return KvResult {
                        client: cmd.client,
                        seq: cmd.seq,
                        value: None,
                        applied: false,
                    };
                }
                let verdict = self.apply_op(op);
                self.sessions.insert(
                    cmd.client,
                    SessionEntry {
                        seq: cmd.seq,
                        value: verdict.0,
                        applied: verdict.1,
                    },
                );
                verdict
            }
        };
        KvResult {
            client: cmd.client,
            seq: cmd.seq,
            value,
            applied,
        }
    }

    /// Apply a non-transactional op. A key locked by a prepared
    /// transaction rejects every plain write touching it (`applied:
    /// false`, client retries) — writes sneaking past a prepare would
    /// invalidate the guard the participant already voted yes on.
    fn apply_op(&mut self, op: &KvOp) -> (Option<i64>, bool) {
        match *op {
            KvOp::Put { ref key, value } => {
                if self.locks.contains_key(key) {
                    return (None, false);
                }
                (Some(self.update(key, |_| value)), true)
            }
            KvOp::Delete { ref key } => {
                if self.locks.contains_key(key) {
                    return (None, false);
                }
                self.state.remove(key);
                (None, true)
            }
            KvOp::Add { ref key, delta } => {
                if self.locks.contains_key(key) {
                    return (None, false);
                }
                (Some(self.update(key, |v| v + delta)), true)
            }
            KvOp::Transfer {
                ref from,
                ref to,
                amount,
            } => {
                if self.locks.contains_key(from) || self.locks.contains_key(to) {
                    return (None, false);
                }
                let balance = self.state.get(from).copied().unwrap_or(0);
                if balance >= amount {
                    self.update(from, |v| v - amount);
                    self.update(to, |v| v + amount);
                    (Some(amount), true)
                } else {
                    (None, false)
                }
            }
            KvOp::Read { ref key } => (self.state.get(key).copied(), true),
            KvOp::Cas {
                ref key,
                expect,
                set,
            } => {
                if self.locks.contains_key(key) {
                    return (None, false);
                }
                let actual = self.state.get(key).copied();
                if actual != expect {
                    // Lost the race: report the actual value, applied=false.
                    return (actual, false);
                }
                match set {
                    Some(v) => (Some(self.update(key, |_| v)), true),
                    None => {
                        self.state.remove(key);
                        (None, true)
                    }
                }
            }
            KvOp::WriteBatch { ref writes } => {
                if writes.iter().any(|w| self.locks.contains_key(w.key())) {
                    return (None, false);
                }
                let n = writes.len();
                for w in writes {
                    self.apply_write(w);
                }
                (Some(n as i64), true)
            }
            KvOp::TxnPrepare(_)
            | KvOp::TxnDecide { .. }
            | KvOp::TxnCommit { .. }
            | KvOp::TxnAbort { .. } => unreachable!("txn records routed in apply()"),
        }
    }

    fn apply_write(&mut self, w: &WriteOp) {
        match *w {
            WriteOp::Put { ref key, value } => {
                self.update(key, |_| value);
            }
            WriteOp::Delete { ref key } => {
                self.state.remove(key);
            }
            WriteOp::Add { ref key, delta } => {
                self.update(key, |v| v + delta);
            }
        }
    }

    /// Set `key` to `f(its value)` (absent counts as 0) and return the new
    /// value; the key is copied into the map only on its first insert.
    fn update(&mut self, key: &str, f: impl FnOnce(i64) -> i64) -> i64 {
        match self.state.get_mut(key) {
            Some(v) => {
                *v = f(*v);
                *v
            }
            None => {
                let v = f(0);
                self.state.insert(key.to_owned(), v);
                v
            }
        }
    }

    /// 2PC prepare: vote yes (stage writes, lock keys) iff every guard
    /// holds and no touched key is locked by another transaction.
    /// Idempotent: a duplicate prepare of an already-prepared or
    /// already-resolved transaction re-reports without re-staging.
    fn apply_prepare(&mut self, p: &TxnPrepare) -> (Option<i64>, bool) {
        let txn = p.txn;
        if let Some(&committed) = self.resolved.get(&txn) {
            // Already resolved here: a late duplicate prepare must not
            // re-stage. Report the outcome, vote "no" so a confused
            // coordinator cannot double-commit.
            return (Some(committed as i64), false);
        }
        if self.prepared.contains_key(&txn) {
            return (None, true); // duplicate prepare: still vote yes
        }
        if self.decisions.get(&txn) == Some(&false) {
            // Presumed-abort already recorded here (this shard is also the
            // coordinator shard): refuse to prepare after the fact.
            return (Some(0), false);
        }
        let mut keys: Vec<String> = p
            .guards
            .iter()
            .map(|g| g.key().to_string())
            .chain(p.writes.iter().map(|w| w.key().to_string()))
            .collect();
        keys.sort();
        keys.dedup();
        let conflict = keys.iter().any(|k| self.locks.contains_key(k));
        let holds = p.guards.iter().all(|g| g.holds(&self.state));
        if conflict || !holds {
            return (None, false); // vote no; nothing staged, nothing locked
        }
        for k in &keys {
            self.locks.insert(k.clone(), txn);
        }
        self.prepared.insert(
            txn,
            PreparedTxn {
                coord_shard: p.coord_shard,
                participants: p.participants.clone(),
                writes: p.writes.clone(),
                locked: keys,
            },
        );
        (None, true)
    }

    /// 2PC decision record: first decision for `txn` wins and is
    /// immutable. The result value always carries the *winning* decision
    /// (1 = commit, 0 = abort) so both the original coordinator and a
    /// racing recovery observe the same verdict.
    fn apply_decide(&mut self, txn: TxnId, commit: bool) -> (Option<i64>, bool) {
        if let Some(&d) = self.decisions.get(&txn) {
            return (Some(d as i64), false);
        }
        self.decisions.insert(txn, commit);
        (Some(commit as i64), true)
    }

    /// 2PC commit: apply the staged writes, release the locks. A no-op
    /// reporting the recorded resolution if `txn` is not prepared here.
    fn apply_commit(&mut self, txn: TxnId) -> (Option<i64>, bool) {
        match self.prepared.remove(&txn) {
            Some(p) => {
                for k in &p.locked {
                    self.locks.remove(k);
                }
                for w in &p.writes {
                    self.apply_write(w);
                }
                self.resolved.insert(txn, true);
                (Some(1), true)
            }
            None => (self.resolved.get(&txn).map(|&c| c as i64), false),
        }
    }

    /// 2PC abort: discard the staged writes, release the locks. Without a
    /// prepare here it still records an abort *tombstone* (unless already
    /// resolved): a recovery abort can overtake a slow prepare, and the
    /// tombstone makes the late prepare vote no instead of staging locks
    /// nobody will ever release promptly.
    fn apply_abort(&mut self, txn: TxnId) -> (Option<i64>, bool) {
        match self.prepared.remove(&txn) {
            Some(p) => {
                for k in &p.locked {
                    self.locks.remove(k);
                }
                self.resolved.insert(txn, false);
                (Some(0), true)
            }
            None => match self.resolved.get(&txn) {
                Some(&c) => (Some(c as i64), false),
                None => {
                    self.resolved.insert(txn, false);
                    (Some(0), false)
                }
            },
        }
    }
}

fn put_key(buf: &mut Vec<u8>, k: &str) {
    buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
    buf.extend_from_slice(k.as_bytes());
}

fn put_write(buf: &mut Vec<u8>, w: &WriteOp) {
    match w {
        WriteOp::Put { key, value } => {
            buf.push(0);
            put_key(buf, key);
            buf.extend_from_slice(&value.to_le_bytes());
        }
        WriteOp::Delete { key } => {
            buf.push(1);
            put_key(buf, key);
        }
        WriteOp::Add { key, delta } => {
            buf.push(2);
            put_key(buf, key);
            buf.extend_from_slice(&delta.to_le_bytes());
        }
    }
}

/// Snapshot wire format (deterministic: maps are emitted in sorted order,
/// so equal states produce byte-identical snapshots):
///
/// ```text
/// [n_state: u64] ([klen: u32][key bytes][value: i64])*   sorted by key
/// [n_sessions: u64]
///   ([client: u64][seq: u64][vflag: u8][value: i64 iff vflag][applied: u8])*
///                                                        sorted by client
/// [n_prepared: u64]
///   ([txn: u64,u64][coord: u32][n_part: u32][part: u32]*
///    [n_locked: u32]([klen: u32][key])*
///    [n_writes: u32](write: disc u8, key, i64 for Put/Add)*)*
/// [n_decisions: u64] ([txn: u64,u64][commit: u8])*
/// [n_resolved: u64] ([txn: u64,u64][committed: u8])*
/// ```
///
/// The lock table is not encoded: it is derived state, rebuilt from each
/// prepared transaction's `locked` list on restore.
impl Snapshottable for KvStateMachine {
    fn snapshot(&self) -> SnapshotData {
        let mut buf = Vec::new();
        let mut keys: Vec<&String> = self.state.keys().collect();
        keys.sort();
        buf.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for k in keys {
            put_key(&mut buf, k);
            buf.extend_from_slice(&self.state[k].to_le_bytes());
        }
        let mut clients: Vec<u64> = self.sessions.keys().copied().collect();
        clients.sort_unstable();
        buf.extend_from_slice(&(clients.len() as u64).to_le_bytes());
        for c in clients {
            let e = &self.sessions[&c];
            buf.extend_from_slice(&c.to_le_bytes());
            buf.extend_from_slice(&e.seq.to_le_bytes());
            match e.value {
                Some(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                None => buf.push(0),
            }
            buf.push(e.applied as u8);
        }
        buf.extend_from_slice(&(self.prepared.len() as u64).to_le_bytes());
        for (&(tc, ts), p) in &self.prepared {
            buf.extend_from_slice(&tc.to_le_bytes());
            buf.extend_from_slice(&ts.to_le_bytes());
            buf.extend_from_slice(&p.coord_shard.to_le_bytes());
            buf.extend_from_slice(&(p.participants.len() as u32).to_le_bytes());
            for &s in &p.participants {
                buf.extend_from_slice(&s.to_le_bytes());
            }
            buf.extend_from_slice(&(p.locked.len() as u32).to_le_bytes());
            for k in &p.locked {
                put_key(&mut buf, k);
            }
            buf.extend_from_slice(&(p.writes.len() as u32).to_le_bytes());
            for w in &p.writes {
                put_write(&mut buf, w);
            }
        }
        buf.extend_from_slice(&(self.decisions.len() as u64).to_le_bytes());
        for (&(tc, ts), &commit) in &self.decisions {
            buf.extend_from_slice(&tc.to_le_bytes());
            buf.extend_from_slice(&ts.to_le_bytes());
            buf.push(commit as u8);
        }
        buf.extend_from_slice(&(self.resolved.len() as u64).to_le_bytes());
        for (&(tc, ts), &committed) in &self.resolved {
            buf.extend_from_slice(&tc.to_le_bytes());
            buf.extend_from_slice(&ts.to_le_bytes());
            buf.push(committed as u8);
        }
        buf.into()
    }

    fn restore(&mut self, data: &[u8]) {
        fn take<const N: usize>(data: &[u8], at: &mut usize) -> [u8; N] {
            let out: [u8; N] = data[*at..*at + N].try_into().expect("truncated snapshot");
            *at += N;
            out
        }
        fn take_key(data: &[u8], at: &mut usize) -> String {
            let klen = u32::from_le_bytes(take(data, at)) as usize;
            let key = String::from_utf8(data[*at..*at + klen].to_vec()).expect("utf8 key");
            *at += klen;
            key
        }
        let mut at = 0usize;
        let mut state = HashMap::new();
        let n_state = u64::from_le_bytes(take(data, &mut at));
        for _ in 0..n_state {
            let key = take_key(data, &mut at);
            let value = i64::from_le_bytes(take(data, &mut at));
            state.insert(key, value);
        }
        let mut sessions = HashMap::new();
        let n_sessions = u64::from_le_bytes(take(data, &mut at));
        for _ in 0..n_sessions {
            let client = u64::from_le_bytes(take(data, &mut at));
            let seq = u64::from_le_bytes(take(data, &mut at));
            let value = match take::<1>(data, &mut at)[0] {
                0 => None,
                _ => Some(i64::from_le_bytes(take(data, &mut at))),
            };
            let applied = take::<1>(data, &mut at)[0] != 0;
            sessions.insert(
                client,
                SessionEntry {
                    seq,
                    value,
                    applied,
                },
            );
        }
        let mut prepared = BTreeMap::new();
        let mut locks = HashMap::new();
        let n_prepared = u64::from_le_bytes(take(data, &mut at));
        for _ in 0..n_prepared {
            let tc = u64::from_le_bytes(take(data, &mut at));
            let ts = u64::from_le_bytes(take(data, &mut at));
            let coord_shard = u32::from_le_bytes(take(data, &mut at));
            let n_part = u32::from_le_bytes(take(data, &mut at));
            let participants = (0..n_part)
                .map(|_| u32::from_le_bytes(take(data, &mut at)))
                .collect();
            let n_locked = u32::from_le_bytes(take(data, &mut at));
            let locked: Vec<String> = (0..n_locked).map(|_| take_key(data, &mut at)).collect();
            let n_writes = u32::from_le_bytes(take(data, &mut at));
            let writes = (0..n_writes)
                .map(|_| match take::<1>(data, &mut at)[0] {
                    0 => WriteOp::Put {
                        key: take_key(data, &mut at),
                        value: i64::from_le_bytes(take(data, &mut at)),
                    },
                    1 => WriteOp::Delete {
                        key: take_key(data, &mut at),
                    },
                    _ => WriteOp::Add {
                        key: take_key(data, &mut at),
                        delta: i64::from_le_bytes(take(data, &mut at)),
                    },
                })
                .collect();
            for k in &locked {
                locks.insert(k.clone(), (tc, ts));
            }
            prepared.insert(
                (tc, ts),
                PreparedTxn {
                    coord_shard,
                    participants,
                    writes,
                    locked,
                },
            );
        }
        let mut decisions = BTreeMap::new();
        let n_decisions = u64::from_le_bytes(take(data, &mut at));
        for _ in 0..n_decisions {
            let tc = u64::from_le_bytes(take(data, &mut at));
            let ts = u64::from_le_bytes(take(data, &mut at));
            decisions.insert((tc, ts), take::<1>(data, &mut at)[0] != 0);
        }
        let mut resolved = BTreeMap::new();
        let n_resolved = u64::from_le_bytes(take(data, &mut at));
        for _ in 0..n_resolved {
            let tc = u64::from_le_bytes(take(data, &mut at));
            let ts = u64::from_le_bytes(take(data, &mut at));
            resolved.insert((tc, ts), take::<1>(data, &mut at)[0] != 0);
        }
        self.state = state;
        self.sessions = sessions;
        self.prepared = prepared;
        self.decisions = decisions;
        self.resolved = resolved;
        self.locks = locks;
    }
}

/// Ticks between re-issuing an unanswered read-index request (the request
/// and its response are best-effort messages; a leader change or drop is
/// repaired by retrying under the same token).
const READ_RETRY_TICKS: u64 = 50;
/// Ticks before an unanswered read-index request gives up and reports
/// `applied: false` to the client (who retries end to end).
const READ_DEADLINE_TICKS: u64 = 400;

/// What a pending log-free read is waiting for.
#[derive(Debug)]
enum ReadWait {
    /// Barrier captured; waiting for the local apply cursor to reach it.
    Apply { wait_idx: u64 },
    /// Waiting for the leader to grant a read index for `token`.
    Grant {
        token: u64,
        next_retry: u64,
        deadline: u64,
    },
}

/// One in-flight log-free read (lease or read-index mode).
#[derive(Debug)]
struct PendingRead {
    client: u64,
    seq: u64,
    key: String,
    wait: ReadWait,
}

/// Bookkeeping for log-free reads: a local tick counter (deadlines), the
/// token allocator, and the pending queue.
#[derive(Debug, Default)]
struct ReadTracker {
    ticks: u64,
    next_token: u64,
    pending: Vec<PendingRead>,
}

/// One key-value server: an Omni-Paxos replica plus the applied state.
/// Generic over the replication storage (default: in-memory); a sharded
/// deployment gives each shard its own `KvNode` with its own storage
/// namespace (see `crate::shard`).
pub struct KvNode<S: Storage<KvCommand> = MemoryStorage<KvCommand>> {
    server: OmniPaxosServer<KvCommand, S>,
    sm: KvStateMachine,
    results: Vec<KvResult>,
    reads: ReadTracker,
}

impl KvNode {
    /// A server of the initial configuration `nodes`.
    pub fn new(pid: NodeId, nodes: Vec<NodeId>) -> Self {
        Self::with_config(ServerConfig::with(pid), nodes)
    }

    /// A server of the initial configuration with an explicit service
    /// config (ballot priority, timeouts — the sharding layer uses the
    /// priority knob to spread per-shard leaders across the cluster).
    pub fn with_config(config: ServerConfig, nodes: Vec<NodeId>) -> Self {
        KvNode {
            server: OmniPaxosServer::new(config, nodes),
            sm: KvStateMachine::default(),
            results: Vec::new(),
            reads: ReadTracker::default(),
        }
    }

    /// A server outside every configuration, waiting to be added by a
    /// reconfiguration (it activates when a `StartConfig` notification
    /// arrives; see the service layer).
    pub fn joiner(pid: NodeId) -> Self {
        Self::joiner_with_config(ServerConfig::with(pid))
    }

    /// A joiner with an explicit service config.
    pub fn joiner_with_config(config: ServerConfig) -> Self {
        KvNode {
            server: OmniPaxosServer::new_joiner(config),
            sm: KvStateMachine::default(),
            results: Vec::new(),
            reads: ReadTracker::default(),
        }
    }
}

impl<S: Storage<KvCommand>> KvNode<S> {
    /// Wrap a pre-built replication server (durable or fault-injected
    /// storage) into a kv node.
    pub fn from_server(server: OmniPaxosServer<KvCommand, S>) -> Self {
        KvNode {
            server,
            sm: KvStateMachine::default(),
            results: Vec::new(),
            reads: ReadTracker::default(),
        }
    }

    /// This server's id.
    pub fn pid(&self) -> NodeId {
        self.server.pid()
    }

    /// Is this server the current leader?
    pub fn is_leader(&self) -> bool {
        self.server.is_leader()
    }

    /// Submit a command for replication.
    pub fn submit(&mut self, cmd: KvCommand) -> Result<(), ProposeErr> {
        self.server.propose(cmd)
    }

    /// Submit a batch of commands as one contiguous append run: the next
    /// outgoing drain replicates all of them in a single `AcceptDecide`
    /// per follower and one storage flush. Returns how many were
    /// accepted; on error the remainder were not proposed.
    pub fn submit_batch(
        &mut self,
        cmds: impl IntoIterator<Item = KvCommand>,
    ) -> Result<usize, (usize, ProposeErr)> {
        self.server.propose_batch(cmds)
    }

    /// Eventually-consistent local read (no log round-trip).
    pub fn read_local(&self, key: &str) -> Option<i64> {
        self.sm.state.get(key).copied()
    }

    /// Linearizable read: replicate a read marker; the result arrives via
    /// [`KvNode::take_results`] once the marker decides.
    pub fn read_linearizable(
        &mut self,
        client: u64,
        seq: u64,
        key: impl Into<String>,
    ) -> Result<(), ProposeErr> {
        self.submit(KvCommand {
            client,
            seq,
            op: KvOp::Read { key: key.into() },
        })
    }

    /// Linearizable read served per `mode` (see [`ReadMode`]). The result
    /// arrives via [`KvNode::take_results`]: log-free reads report
    /// `applied: true` with the value once served, or `applied: false` if
    /// the read-index deadline expires (the client retries end to end).
    /// Log-free reads do not consume a log slot and bypass the session
    /// table — they are idempotent, so dedup is unnecessary.
    pub fn read(
        &mut self,
        mode: ReadMode,
        client: u64,
        seq: u64,
        key: impl Into<String>,
    ) -> Result<(), ProposeErr> {
        let key = key.into();
        match mode {
            ReadMode::Log => self.read_linearizable(client, seq, key),
            ReadMode::Lease => {
                if self.server.lease_valid() {
                    if let Some(wait_idx) = self.server.read_barrier() {
                        // Capture-time lease validity linearizes the read;
                        // it serves as soon as the local apply cursor
                        // reaches the barrier (often immediately).
                        self.reads.pending.push(PendingRead {
                            client,
                            seq,
                            key,
                            wait: ReadWait::Apply { wait_idx },
                        });
                        self.serve_ready_reads();
                        return Ok(());
                    }
                }
                // No valid lease here: fall through to the always-correct
                // log path rather than fail the read.
                self.read_linearizable(client, seq, key)
            }
            ReadMode::ReadIndex => {
                let token = self.reads.next_token;
                self.reads.next_token += 1;
                // A lost or refused request (no leader yet, reconfiguring)
                // is repaired by the retry/deadline machinery below.
                let _ = self.server.request_read_index(token);
                self.reads.pending.push(PendingRead {
                    client,
                    seq,
                    key,
                    wait: ReadWait::Grant {
                        token,
                        next_retry: self.reads.ticks + READ_RETRY_TICKS,
                        deadline: self.reads.ticks + READ_DEADLINE_TICKS,
                    },
                });
                Ok(())
            }
        }
    }

    /// Can this server currently serve lease reads locally? (Leader with a
    /// quorum of unexpired lease grants, not reconfiguring.)
    pub fn lease_valid(&self) -> bool {
        self.server.lease_valid()
    }

    /// Number of log-free reads still waiting to be served.
    pub fn pending_reads(&self) -> usize {
        self.reads.pending.len()
    }

    /// Advance timers, apply newly decided commands.
    pub fn tick(&mut self) {
        self.reads.ticks += 1;
        self.server.tick();
        self.pump();
        self.tick_reads();
    }

    /// Feed one incoming message.
    pub fn handle(&mut self, from: NodeId, msg: ServiceMsg<KvCommand>) {
        self.server.handle(from, msg);
        self.pump();
    }

    /// Restore a snapshot adopted from a peer (snapshot-first catch-up),
    /// then apply the decided tail above it.
    fn pump(&mut self) {
        if let Some((_, data)) = self.server.take_snapshot_event() {
            self.sm.restore(&data);
        }
        for cmd in self.server.poll_applied() {
            self.results.push(self.sm.apply(cmd));
        }
        // Resolve read-index grants into apply barriers, then serve every
        // log-free read whose barrier the apply cursor has reached.
        for (token, idx) in self.server.take_read_grants() {
            for p in self.reads.pending.iter_mut() {
                match p.wait {
                    ReadWait::Grant { token: t, .. } if t == token => {
                        p.wait = ReadWait::Apply { wait_idx: idx };
                        break;
                    }
                    _ => {}
                }
            }
        }
        self.serve_ready_reads();
    }

    /// Serve pending log-free reads whose barrier is applied locally.
    fn serve_ready_reads(&mut self) {
        let cursor = self.server.applied_cursor();
        let mut i = 0;
        while i < self.reads.pending.len() {
            let ready = matches!(
                self.reads.pending[i].wait,
                ReadWait::Apply { wait_idx } if wait_idx <= cursor
            );
            if !ready {
                i += 1;
                continue;
            }
            let p = self.reads.pending.remove(i);
            self.results.push(KvResult {
                client: p.client,
                seq: p.seq,
                value: self.sm.state.get(&p.key).copied(),
                applied: true,
            });
        }
    }

    /// Expire and re-issue stalled read-index requests.
    fn tick_reads(&mut self) {
        let now = self.reads.ticks;
        let mut expired = Vec::new();
        let mut retries = Vec::new();
        self.reads.pending.retain_mut(|p| {
            if let ReadWait::Grant {
                token,
                next_retry,
                deadline,
            } = &mut p.wait
            {
                if *deadline <= now {
                    expired.push((p.client, p.seq));
                    return false;
                }
                if *next_retry <= now {
                    *next_retry = now + READ_RETRY_TICKS;
                    retries.push(*token);
                }
            }
            true
        });
        for (client, seq) in expired {
            self.results.push(KvResult {
                client,
                seq,
                value: None,
                applied: false,
            });
        }
        for token in retries {
            let _ = self.server.request_read_index(token);
        }
    }

    /// Compact this server's log: snapshot the state machine at everything
    /// applied so far, drop the superseded log prefix, and checkpoint the
    /// replication instance. Returns the compaction index. Errors (e.g.
    /// nothing new to compact) surface instead of being swallowed.
    pub fn compact(&mut self) -> Result<u64, TrimError> {
        self.pump(); // the snapshot must cover everything decided
        let upto = self.server.decided_len();
        let data = self.sm.snapshot();
        self.server.provide_snapshot(upto, data)?;
        Ok(upto)
    }

    /// Drain outgoing messages, then apply whatever the drain decided (a
    /// group of one decides here, not in `handle`), so its results are
    /// ready for the caller's next [`KvNode::take_results`]. Every drain
    /// of every node comes through here, so the usual case — nothing
    /// decided — costs one comparison.
    pub fn outgoing(&mut self) -> Vec<(NodeId, ServiceMsg<KvCommand>)> {
        let out = self.server.outgoing();
        if self.server.decided_len() > self.server.applied_cursor() {
            self.pump();
        }
        out
    }

    /// Results of commands applied since the last call.
    pub fn take_results(&mut self) -> Vec<KvResult> {
        std::mem::take(&mut self.results)
    }

    /// The applied state (for inspection and tests).
    pub fn state(&self) -> &HashMap<String, i64> {
        &self.sm.state
    }

    /// The full state machine, sessions included (for convergence checks).
    pub fn state_machine(&self) -> &KvStateMachine {
        &self.sm
    }

    /// Access the underlying replication server (partitions, recovery).
    pub fn server(&mut self) -> &mut OmniPaxosServer<KvCommand, S> {
        &mut self.server
    }

    /// Shared access to the replication server (invariant observation).
    pub fn server_ref(&self) -> &OmniPaxosServer<KvCommand, S> {
        &self.server
    }
}

impl<S: Storage<KvCommand>> std::fmt::Debug for KvNode<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvNode")
            .field("server", &self.server)
            .field("keys", &self.sm.state.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a fully connected in-memory cluster until quiescent.
    fn run(nodes: &mut [KvNode], steps: usize) {
        run_cut(nodes, steps, &[]);
    }

    /// Like [`run`], but messages to or from the nodes in `cut` are
    /// dropped (a network partition).
    fn run_cut(nodes: &mut [KvNode], steps: usize, cut: &[NodeId]) {
        for _ in 0..steps {
            for n in nodes.iter_mut() {
                n.tick();
            }
            let mut inbox = Vec::new();
            for n in nodes.iter_mut() {
                let from = n.pid();
                for (to, m) in n.outgoing() {
                    if cut.contains(&from) || cut.contains(&to) {
                        continue;
                    }
                    inbox.push((from, to, m));
                }
            }
            for (from, to, m) in inbox {
                if let Some(n) = nodes.iter_mut().find(|n| n.pid() == to) {
                    n.handle(from, m);
                }
            }
        }
    }

    fn cluster(n: usize) -> Vec<KvNode> {
        let ids: Vec<NodeId> = (1..=n as NodeId).collect();
        ids.iter().map(|&p| KvNode::new(p, ids.clone())).collect()
    }

    /// A cluster with leader leases enabled (20-tick lease, 2-tick skew
    /// bound — the same parameters as the core lease tests).
    fn lease_cluster(n: usize) -> Vec<KvNode> {
        let ids: Vec<NodeId> = (1..=n as NodeId).collect();
        ids.iter()
            .map(|&p| {
                let mut cfg = ServerConfig::with(p);
                cfg.lease_ticks = 20;
                cfg.lease_epsilon_ticks = 2;
                KvNode::with_config(cfg, ids.clone())
            })
            .collect()
    }

    fn leader_idx(nodes: &[KvNode]) -> usize {
        nodes.iter().position(|n| n.is_leader()).expect("leader")
    }

    #[test]
    fn puts_replicate_to_all_servers() {
        let mut nodes = cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        nodes[li]
            .submit(KvCommand {
                client: 1,
                seq: 1,
                op: KvOp::Put {
                    key: "x".into(),
                    value: 7,
                },
            })
            .unwrap();
        run(&mut nodes, 100);
        for n in &nodes {
            assert_eq!(n.read_local("x"), Some(7));
        }
    }

    #[test]
    fn adds_are_linearized_not_lost() {
        let mut nodes = cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        for seq in 1..=10 {
            nodes[li]
                .submit(KvCommand {
                    client: 1,
                    seq,
                    op: KvOp::Add {
                        key: "ctr".into(),
                        delta: 1,
                    },
                })
                .unwrap();
        }
        run(&mut nodes, 100);
        for n in &nodes {
            assert_eq!(n.read_local("ctr"), Some(10));
        }
    }

    #[test]
    fn duplicate_retries_apply_once() {
        let mut nodes = cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        let cmd = KvCommand {
            client: 9,
            seq: 1,
            op: KvOp::Add {
                key: "k".into(),
                delta: 5,
            },
        };
        nodes[li].submit(cmd.clone()).unwrap();
        nodes[li].submit(cmd.clone()).unwrap(); // client retry
        run(&mut nodes, 100);
        for n in &nodes {
            assert_eq!(n.read_local("k"), Some(5), "retry must not double-apply");
        }
    }

    #[test]
    fn transfer_rejected_on_insufficient_funds() {
        let mut nodes = cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        nodes[li]
            .submit(KvCommand {
                client: 1,
                seq: 1,
                op: KvOp::Put {
                    key: "alice".into(),
                    value: 30,
                },
            })
            .unwrap();
        nodes[li]
            .submit(KvCommand {
                client: 1,
                seq: 2,
                op: KvOp::Transfer {
                    from: "alice".into(),
                    to: "bob".into(),
                    amount: 50,
                },
            })
            .unwrap();
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        let results = nodes[li].take_results();
        let xfer = results.iter().find(|r| r.seq == 2).unwrap();
        assert!(!xfer.applied);
        for n in &nodes {
            assert_eq!(n.read_local("alice"), Some(30));
            assert_eq!(n.read_local("bob"), None);
        }
    }

    #[test]
    fn linearizable_read_returns_value_through_log() {
        let mut nodes = cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        nodes[li]
            .submit(KvCommand {
                client: 1,
                seq: 1,
                op: KvOp::Put {
                    key: "x".into(),
                    value: 42,
                },
            })
            .unwrap();
        nodes[li].read_linearizable(1, 2, "x").unwrap();
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        let results = nodes[li].take_results();
        let read = results.iter().find(|r| r.seq == 2).unwrap();
        assert_eq!(read.value, Some(42));
    }

    #[test]
    fn follower_submissions_are_forwarded() {
        let mut nodes = cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        let fi = (li + 1) % 3;
        nodes[fi]
            .submit(KvCommand {
                client: 2,
                seq: 1,
                op: KvOp::Put {
                    key: "f".into(),
                    value: 1,
                },
            })
            .unwrap();
        run(&mut nodes, 200);
        for n in &nodes {
            assert_eq!(n.read_local("f"), Some(1));
        }
    }

    fn mixed_op(seq: u64) -> KvOp {
        match seq % 4 {
            0 => KvOp::Put {
                key: format!("k{}", seq % 7),
                value: seq as i64,
            },
            1 => KvOp::Add {
                key: format!("k{}", seq % 5),
                delta: 2,
            },
            2 => KvOp::Delete {
                key: format!("k{}", seq % 3),
            },
            _ => KvOp::Transfer {
                from: format!("k{}", seq % 5),
                to: format!("k{}", seq % 7),
                amount: 1,
            },
        }
    }

    #[test]
    fn state_machines_converge_identically() {
        let mut nodes = cluster(5);
        run(&mut nodes, 150);
        let li = leader_idx(&nodes);
        for seq in 1..=50u64 {
            let op = mixed_op(seq);
            nodes[li].submit(KvCommand { client: 3, seq, op }).unwrap();
        }
        run(&mut nodes, 200);
        // Mid-stream compaction on every server must not disturb
        // convergence: the log prefix is superseded by the snapshot.
        for n in nodes.iter_mut() {
            n.compact().expect("compact");
        }
        let li = leader_idx(&nodes);
        for seq in 51..=80u64 {
            let op = mixed_op(seq);
            nodes[li].submit(KvCommand { client: 3, seq, op }).unwrap();
        }
        run(&mut nodes, 200);
        let reference = nodes[0].state_machine().clone();
        for n in &nodes[1..] {
            assert_eq!(
                n.state_machine(),
                &reference,
                "replicas must converge (sessions included)"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_reproduces_the_state_machine() {
        use omnipaxos::snapshot::Snapshottable;
        let mut sm = KvStateMachine::default();
        for seq in 1..=40u64 {
            sm.apply(KvCommand {
                client: seq % 3,
                seq,
                op: mixed_op(seq),
            });
        }
        let snap = sm.snapshot();
        let mut restored = KvStateMachine::default();
        restored.restore(&snap);
        assert_eq!(restored, sm);
        // Deterministic: equal states encode to identical bytes.
        assert_eq!(restored.snapshot()[..], snap[..]);
        // The session table is part of the snapshot: a retried command is
        // still deduplicated after restore.
        let dup = restored.apply(KvCommand {
            client: 1,
            seq: 1,
            op: KvOp::Add {
                key: "k1".into(),
                delta: 100,
            },
        });
        assert!(!dup.applied, "retry after restore must not re-apply");
    }

    #[test]
    fn lease_read_serves_locally_without_log_growth() {
        let mut nodes = cluster(3); // leases off: never valid
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        assert!(!nodes[li].lease_valid(), "leases disabled by default");

        let mut nodes = lease_cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        assert!(nodes[li].lease_valid(), "steady-state leader holds a lease");
        nodes[li]
            .submit(KvCommand {
                client: 1,
                seq: 1,
                op: KvOp::Put {
                    key: "x".into(),
                    value: 7,
                },
            })
            .unwrap();
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        nodes[li].take_results();
        let log_before = nodes[li].server_ref().decided_len();
        nodes[li].read(ReadMode::Lease, 1, 2, "x").unwrap();
        // Served immediately from local state: no round, no log slot.
        let results = nodes[li].take_results();
        let read = results.iter().find(|r| r.seq == 2).expect("served");
        assert_eq!(read.value, Some(7));
        assert!(read.applied);
        run(&mut nodes, 50);
        let li = leader_idx(&nodes);
        assert_eq!(
            nodes[li].server_ref().decided_len(),
            log_before,
            "lease reads must not consume log slots"
        );
    }

    #[test]
    fn lease_read_falls_through_to_log_at_followers() {
        let mut nodes = lease_cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        nodes[li]
            .submit(KvCommand {
                client: 1,
                seq: 1,
                op: KvOp::Put {
                    key: "x".into(),
                    value: 9,
                },
            })
            .unwrap();
        run(&mut nodes, 100);
        let fi = (leader_idx(&nodes) + 1) % 3;
        assert!(!nodes[fi].lease_valid());
        nodes[fi].take_results();
        nodes[fi].read(ReadMode::Lease, 1, 2, "x").unwrap();
        // Not served locally — forwarded as a log marker.
        assert!(nodes[fi].take_results().is_empty());
        run(&mut nodes, 200);
        let results = nodes[fi].take_results();
        let read = results.iter().find(|r| r.seq == 2).expect("via log");
        assert_eq!(read.value, Some(9));
    }

    #[test]
    fn read_index_serves_at_follower_without_log_growth() {
        let mut nodes = lease_cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        nodes[li]
            .submit(KvCommand {
                client: 1,
                seq: 1,
                op: KvOp::Put {
                    key: "x".into(),
                    value: 42,
                },
            })
            .unwrap();
        run(&mut nodes, 100);
        let fi = (leader_idx(&nodes) + 1) % 3;
        let log_before = nodes[fi].server_ref().decided_len();
        nodes[fi].take_results();
        nodes[fi].read(ReadMode::ReadIndex, 1, 2, "x").unwrap();
        run(&mut nodes, 100);
        let results = nodes[fi].take_results();
        let read = results.iter().find(|r| r.seq == 2).expect("granted");
        assert_eq!(read.value, Some(42));
        assert!(read.applied);
        assert_eq!(nodes[fi].pending_reads(), 0);
        assert_eq!(
            nodes[fi].server_ref().decided_len(),
            log_before,
            "read-index reads must not consume log slots"
        );
    }

    #[test]
    fn read_index_expires_when_cut_off_from_the_leader() {
        let mut nodes = lease_cluster(3);
        run(&mut nodes, 100);
        let fi = (leader_idx(&nodes) + 1) % 3;
        let cut_pid = nodes[fi].pid();
        run_cut(&mut nodes, 30, &[cut_pid]); // lease grant from fi lapses
        nodes[fi].take_results();
        nodes[fi].read(ReadMode::ReadIndex, 1, 1, "x").unwrap();
        run_cut(&mut nodes, READ_DEADLINE_TICKS as usize + 50, &[cut_pid]);
        let results = nodes[fi].take_results();
        let read = results.iter().find(|r| r.seq == 1).expect("expired");
        assert!(!read.applied, "unreachable leader must expire, not hang");
        assert_eq!(nodes[fi].pending_reads(), 0);
    }

    /// Satellite (e): a lease never spans a reconfiguration. Once the
    /// stop-sign is decided the old configuration's leader must refuse
    /// local reads and fall through to the (refused) log path.
    #[test]
    fn lease_reads_refused_once_stopsign_decides() {
        let mut nodes = lease_cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        assert!(nodes[li].lease_valid());
        nodes[li].server().reconfigure(vec![1, 2, 3, 4]).unwrap();
        // Enough steps to decide the stop-sign and hand over, but far too
        // few for the successor configuration to assemble lease grants
        // (which takes election rounds plus a heartbeat round).
        run(&mut nodes, 10);
        assert!(
            !nodes[li].lease_valid(),
            "lease must die with the configuration"
        );
        nodes[li].take_results();
        let _ = nodes[li].read(ReadMode::Lease, 8, 1, "x");
        assert!(
            nodes[li].take_results().is_empty(),
            "must not serve locally across a config change"
        );
        // The successor configuration (majority 3 of 4; node 4 is absent)
        // eventually earns its own lease — a fresh one, not a carry-over.
        run(&mut nodes, 400);
        assert!(nodes.iter().any(|n| n.lease_valid()));
    }

    /// The satellite scenario: a follower is partitioned long enough for
    /// the rest of the cluster to compact past its log; on heal it must
    /// recover via snapshot transfer (the prefix no longer exists as log
    /// entries) and converge to the identical state machine.
    #[test]
    fn partitioned_follower_recovers_via_snapshot_after_compaction() {
        let mut nodes = cluster(3);
        run(&mut nodes, 100);
        let li = leader_idx(&nodes);
        let cut_pid = nodes[(li + 1) % 3].pid();
        for seq in 1..=30u64 {
            let op = mixed_op(seq);
            nodes[li].submit(KvCommand { client: 3, seq, op }).unwrap();
        }
        run_cut(&mut nodes, 150, &[cut_pid]);
        // The connected majority compacts everything it decided: the
        // partitioned follower's missing prefix is gone from every log.
        let mut compacted_at = 0;
        for n in nodes.iter_mut() {
            if n.pid() != cut_pid {
                compacted_at = n.compact().expect("compact");
            }
        }
        assert_eq!(compacted_at, 30);
        run_cut(&mut nodes, 50, &[cut_pid]);
        // Heal: the follower re-syncs via chunked snapshot transfer, then
        // fresh traffic replicates to everyone.
        run(&mut nodes, 300);
        let li = leader_idx(&nodes);
        for seq in 31..=35u64 {
            let op = mixed_op(seq);
            nodes[li].submit(KvCommand { client: 3, seq, op }).unwrap();
        }
        run(&mut nodes, 300);
        let reference = nodes[0].state_machine().clone();
        for n in nodes.iter_mut() {
            assert_eq!(n.state_machine(), &reference, "identical state machines");
            assert!(
                n.server().log_start() >= 30,
                "prefix was never re-migrated as entries (pid {})",
                n.pid()
            );
        }
    }

    fn apply(sm: &mut KvStateMachine, client: u64, seq: u64, op: KvOp) -> KvResult {
        sm.apply(KvCommand { client, seq, op })
    }

    #[test]
    fn cas_applies_only_on_expected_value() {
        let mut sm = KvStateMachine::default();
        // CAS on an absent key with expect=None: a conditional create.
        let r = apply(
            &mut sm,
            1,
            1,
            KvOp::Cas {
                key: "x".into(),
                expect: None,
                set: Some(5),
            },
        );
        assert!(r.applied);
        assert_eq!(r.value, Some(5));
        // Wrong expectation: rejected, reports the actual value.
        let r = apply(
            &mut sm,
            1,
            2,
            KvOp::Cas {
                key: "x".into(),
                expect: Some(4),
                set: Some(9),
            },
        );
        assert!(!r.applied);
        assert_eq!(r.value, Some(5), "failed CAS reports the actual value");
        assert_eq!(sm.state()["x"], 5);
        // Right expectation with set=None: a conditional delete.
        let r = apply(
            &mut sm,
            1,
            3,
            KvOp::Cas {
                key: "x".into(),
                expect: Some(5),
                set: None,
            },
        );
        assert!(r.applied);
        assert!(!sm.state().contains_key("x"));
    }

    #[test]
    fn retried_cas_replays_its_original_verdict() {
        let mut sm = KvStateMachine::default();
        apply(
            &mut sm,
            1,
            1,
            KvOp::Put {
                key: "x".into(),
                value: 10,
            },
        );
        // Client 2's CAS loses: expects 99, actual is 10.
        let lost = apply(
            &mut sm,
            2,
            1,
            KvOp::Cas {
                key: "x".into(),
                expect: Some(99),
                set: Some(1),
            },
        );
        assert!(!lost.applied);
        assert_eq!(lost.value, Some(10));
        // The state then moves to exactly what the CAS expected...
        apply(
            &mut sm,
            1,
            2,
            KvOp::Put {
                key: "x".into(),
                value: 99,
            },
        );
        // ...but the duplicate retry must replay the ORIGINAL verdict,
        // not re-evaluate (which would now succeed).
        let dup = apply(
            &mut sm,
            2,
            1,
            KvOp::Cas {
                key: "x".into(),
                expect: Some(99),
                set: Some(1),
            },
        );
        assert!(!dup.applied, "retry must not re-evaluate against new state");
        assert_eq!(dup.value, Some(10), "retry observes the original verdict");
        assert_eq!(sm.state()["x"], 99, "state untouched by the replay");
    }

    #[test]
    fn retried_success_replays_applied_true_without_reapplying() {
        let mut sm = KvStateMachine::default();
        let first = apply(
            &mut sm,
            1,
            1,
            KvOp::Add {
                key: "k".into(),
                delta: 5,
            },
        );
        assert!(first.applied);
        assert_eq!(first.value, Some(5));
        let dup = apply(
            &mut sm,
            1,
            1,
            KvOp::Add {
                key: "k".into(),
                delta: 5,
            },
        );
        assert!(dup.applied, "latest-seq retry replays the success verdict");
        assert_eq!(dup.value, Some(5));
        assert_eq!(sm.state()["k"], 5, "but applies nothing");
    }

    #[test]
    fn write_batch_applies_atomically_or_not_at_all() {
        let mut sm = KvStateMachine::default();
        let r = apply(
            &mut sm,
            1,
            1,
            KvOp::WriteBatch {
                writes: vec![
                    WriteOp::Put {
                        key: "a".into(),
                        value: 1,
                    },
                    WriteOp::Add {
                        key: "b".into(),
                        delta: 2,
                    },
                    WriteOp::Delete { key: "a".into() },
                ],
            },
        );
        assert!(r.applied);
        assert_eq!(r.value, Some(3));
        assert!(!sm.state().contains_key("a"));
        assert_eq!(sm.state()["b"], 2);
        // A batch touching a transaction-locked key is refused whole.
        let (_, prepared) = apply_prepare_yes(&mut sm, (9, 1), &["b"]);
        assert!(prepared);
        let r = apply(
            &mut sm,
            1,
            2,
            KvOp::WriteBatch {
                writes: vec![
                    WriteOp::Put {
                        key: "c".into(),
                        value: 7,
                    },
                    WriteOp::Add {
                        key: "b".into(),
                        delta: 1,
                    },
                ],
            },
        );
        assert!(!r.applied);
        assert!(
            !sm.state().contains_key("c"),
            "nothing from a refused batch"
        );
        assert_eq!(sm.state()["b"], 2);
    }

    /// Prepare `txn` (vote expected yes) locking `keys` with a no-op
    /// guard, returning the (value, applied) verdict.
    fn apply_prepare_yes(
        sm: &mut KvStateMachine,
        txn: TxnId,
        keys: &[&str],
    ) -> (Option<i64>, bool) {
        let r = sm.apply(KvCommand {
            client: 0,
            seq: 0,
            op: KvOp::TxnPrepare(Box::new(TxnPrepare {
                txn,
                coord_shard: 0,
                participants: vec![0],
                guards: vec![],
                writes: keys
                    .iter()
                    .map(|k| WriteOp::Add {
                        key: (*k).into(),
                        delta: 1,
                    })
                    .collect(),
            })),
        });
        (r.value, r.applied)
    }

    #[test]
    fn prepare_locks_keys_against_plain_writes_until_resolved() {
        let mut sm = KvStateMachine::default();
        apply(
            &mut sm,
            1,
            1,
            KvOp::Put {
                key: "acct".into(),
                value: 100,
            },
        );
        let txn = (42, 7);
        let r = apply(
            &mut sm,
            0,
            0,
            KvOp::TxnPrepare(Box::new(TxnPrepare {
                txn,
                coord_shard: 1,
                participants: vec![0, 1],
                guards: vec![TxnGuard::MinValue {
                    key: "acct".into(),
                    min: 50,
                }],
                writes: vec![WriteOp::Add {
                    key: "acct".into(),
                    delta: -50,
                }],
            })),
        );
        assert!(r.applied, "guard holds: vote yes");
        assert_eq!(sm.locks().get("acct"), Some(&txn));
        // Every plain write on the locked key bounces; reads still serve.
        for (seq, op) in [
            (
                2,
                KvOp::Put {
                    key: "acct".into(),
                    value: 0,
                },
            ),
            (3, KvOp::Delete { key: "acct".into() }),
            (
                4,
                KvOp::Add {
                    key: "acct".into(),
                    delta: 1,
                },
            ),
            (
                5,
                KvOp::Cas {
                    key: "acct".into(),
                    expect: Some(100),
                    set: Some(0),
                },
            ),
            (
                6,
                KvOp::Transfer {
                    from: "acct".into(),
                    to: "other".into(),
                    amount: 1,
                },
            ),
        ] {
            assert!(
                !apply(&mut sm, 1, seq, op).applied,
                "locked key must bounce"
            );
        }
        assert_eq!(sm.state()["acct"], 100);
        let read = apply(&mut sm, 1, 7, KvOp::Read { key: "acct".into() });
        assert!(read.applied);
        assert_eq!(read.value, Some(100));
        // Commit applies the staged write and releases the lock.
        let r = apply(&mut sm, 0, 0, KvOp::TxnCommit { txn });
        assert!(r.applied);
        assert_eq!(sm.state()["acct"], 50);
        assert!(sm.locks().is_empty());
        assert!(sm.prepared().is_empty());
        assert_eq!(sm.resolved().get(&txn), Some(&true));
        // Plain writes flow again.
        assert!(
            apply(
                &mut sm,
                1,
                8,
                KvOp::Add {
                    key: "acct".into(),
                    delta: 1
                }
            )
            .applied
        );
    }

    #[test]
    fn prepare_votes_no_on_failed_guard_or_conflicting_lock() {
        let mut sm = KvStateMachine::default();
        // Failed guard: balance 0 < 10.
        let r = apply(
            &mut sm,
            0,
            0,
            KvOp::TxnPrepare(Box::new(TxnPrepare {
                txn: (1, 1),
                coord_shard: 0,
                participants: vec![0],
                guards: vec![TxnGuard::MinValue {
                    key: "a".into(),
                    min: 10,
                }],
                writes: vec![WriteOp::Add {
                    key: "a".into(),
                    delta: -10,
                }],
            })),
        );
        assert!(!r.applied, "failed guard votes no");
        assert!(sm.prepared().is_empty(), "no-vote stages nothing");
        assert!(sm.locks().is_empty());
        // Conflicting lock: (2,1) holds "b", (3,1) wants it too.
        let (_, yes) = apply_prepare_yes(&mut sm, (2, 1), &["b"]);
        assert!(yes);
        let (_, no) = apply_prepare_yes(&mut sm, (3, 1), &["b", "c"]);
        assert!(!no, "lock conflict votes no");
        assert!(!sm.locks().contains_key("c"), "loser locks nothing");
        // Duplicate prepare of the winner still votes yes, idempotently.
        let (_, again) = apply_prepare_yes(&mut sm, (2, 1), &["b"]);
        assert!(again);
        assert_eq!(sm.prepared().len(), 1);
    }

    #[test]
    fn first_decision_wins_and_later_ones_report_it() {
        let mut sm = KvStateMachine::default();
        let txn = (5, 5);
        let first = apply(&mut sm, 0, 0, KvOp::TxnDecide { txn, commit: true });
        assert!(first.applied);
        assert_eq!(first.value, Some(1));
        // A racing recovery's presumed-abort arrives second: it must
        // observe the recorded commit, not overwrite it.
        let late = apply(&mut sm, 0, 0, KvOp::TxnDecide { txn, commit: false });
        assert!(!late.applied);
        assert_eq!(late.value, Some(1), "late decide reports the winner");
        assert_eq!(sm.decisions().get(&txn), Some(&true));
    }

    #[test]
    fn commit_and_abort_are_noops_without_a_prepare() {
        let mut sm = KvStateMachine::default();
        let txn = (6, 1);
        let r = apply(&mut sm, 0, 0, KvOp::TxnCommit { txn });
        assert!(!r.applied);
        assert_eq!(r.value, None, "nothing recorded yet");
        // Abort a real prepare, then observe replays of both records.
        let (_, yes) = apply_prepare_yes(&mut sm, txn, &["z"]);
        assert!(yes);
        let r = apply(&mut sm, 0, 0, KvOp::TxnAbort { txn });
        assert!(r.applied);
        assert!(!sm.state().contains_key("z"), "aborted writes discarded");
        assert!(sm.locks().is_empty());
        let replay = apply(&mut sm, 0, 0, KvOp::TxnAbort { txn });
        assert!(!replay.applied);
        assert_eq!(replay.value, Some(0), "replays report the resolution");
        // A late duplicate prepare after resolution must not re-stage.
        let (v, applied) = apply_prepare_yes(&mut sm, txn, &["z"]);
        assert!(!applied, "resolved txn cannot re-prepare");
        assert_eq!(v, Some(0));
        assert!(sm.prepared().is_empty());
        assert!(sm.locks().is_empty());
        // An abort overtaking the prepare entirely leaves a tombstone that
        // blocks the late prepare from staging locks.
        let ghost = (6, 2);
        let r = apply(&mut sm, 0, 0, KvOp::TxnAbort { txn: ghost });
        assert!(!r.applied);
        assert_eq!(sm.resolved().get(&ghost), Some(&false), "tombstoned");
        let (_, applied) = apply_prepare_yes(&mut sm, ghost, &["z"]);
        assert!(!applied, "tombstone blocks the overtaken prepare");
        assert!(sm.locks().is_empty());
    }

    #[test]
    fn snapshot_roundtrip_preserves_txn_state_and_verdicts() {
        let mut sm = KvStateMachine::default();
        apply(
            &mut sm,
            1,
            1,
            KvOp::Put {
                key: "x".into(),
                value: 3,
            },
        );
        // A failed CAS leaves a cached failure verdict in the session.
        let lost = apply(
            &mut sm,
            2,
            4,
            KvOp::Cas {
                key: "x".into(),
                expect: Some(9),
                set: Some(0),
            },
        );
        assert!(!lost.applied);
        // One prepared (locked), one decided, one resolved transaction.
        let (_, yes) = apply_prepare_yes(&mut sm, (7, 1), &["x", "y"]);
        assert!(yes);
        apply(
            &mut sm,
            0,
            0,
            KvOp::TxnDecide {
                txn: (7, 1),
                commit: true,
            },
        );
        let (_, yes) = apply_prepare_yes(&mut sm, (8, 1), &["w"]);
        assert!(yes);
        apply(&mut sm, 0, 0, KvOp::TxnAbort { txn: (8, 1) });

        let snap = sm.snapshot();
        let mut restored = KvStateMachine::default();
        restored.restore(&snap);
        assert_eq!(restored, sm, "locks rebuilt, every table restored");
        assert_eq!(restored.snapshot()[..], snap[..], "deterministic bytes");
        // The restored replica still replays the cached CAS failure even
        // though re-evaluating against current state is meaningless here.
        let dup = restored.apply(KvCommand {
            client: 2,
            seq: 4,
            op: KvOp::Cas {
                key: "x".into(),
                expect: Some(9),
                set: Some(0),
            },
        });
        assert!(!dup.applied);
        assert_eq!(dup.value, Some(3), "original actual-value verdict");
        // And the restored lock table still guards the prepared keys.
        assert!(
            !restored
                .apply(KvCommand {
                    client: 1,
                    seq: 2,
                    op: KvOp::Put {
                        key: "y".into(),
                        value: 1
                    },
                })
                .applied
        );
    }
}
