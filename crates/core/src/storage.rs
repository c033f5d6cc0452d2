//! Log storage abstraction and the in-memory reference implementation.
//!
//! The paper assumes the fail-recovery model (§3): state written to
//! non-volatile storage survives crashes. A [`Storage`] holds everything a
//! Sequence Paxos replica must persist — the promised round, the accepted
//! round, the decided index and the log itself — so that
//! `SequencePaxos::fail_recovery` can rebuild a correct replica from it.
//!
//! Storage is **fallible**: disks run out of space, fsync fails, writes
//! tear. Every mutating operation returns a [`StorageError`] on failure,
//! and the replica reacts fail-stop (never ack what did not persist; see
//! `SequencePaxos` and the never-ack-after-failed-flush rule). After an
//! error the implementation must be *poisoned*: buffered-but-unsynced
//! state is in an unknown condition on disk, so further mutations keep
//! failing until [`Storage::recover`] re-establishes a consistent durable
//! state — the fsyncgate lesson (retrying fsync and acking anyway loses
//! acknowledged data).
//!
//! The log stores [`LogEntry`] values: either a client command or the
//! *stop-sign* that ends a configuration (§6). Storage additionally supports
//! **trimming** (compaction): a decided prefix that has been applied and,
//! where relevant, migrated, can be discarded while absolute log indices
//! remain stable.

use crate::ballot::Ballot;
use crate::snapshot::{SnapshotData, SnapshotRef};
use crate::util::{Entry, LogEntry};
use std::sync::Arc;

/// A reference-counted, immutable batch of log entries.
///
/// This is the unit of zero-copy replication: the leader materializes a
/// suffix once and fans it out to every follower (and every retransmission)
/// by bumping a refcount instead of deep-copying the entries. A receiver
/// holding the only reference — every batch decoded off the wire — takes
/// the entries by move (`take_entries`).
pub type EntryBatch<T> = Arc<Vec<LogEntry<T>>>;

/// The entries of `batch` from position `skip` on, moved out when this is
/// the batch's only reference and copied only when it is still shared (an
/// in-process fan-out hands one batch to several followers).
pub(crate) fn take_entries<T: Entry>(batch: EntryBatch<T>, skip: usize) -> Vec<LogEntry<T>> {
    match Arc::try_unwrap(batch) {
        Ok(mut entries) => {
            entries.drain(..skip);
            entries
        }
        Err(shared) => shared[skip..].to_vec(),
    }
}

/// The storage operation that failed (for diagnostics; the reaction is the
/// same for all of them: halt, never ack, recover via the crash path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageOp {
    Append,
    SetPromise,
    SetAcceptedRound,
    SetDecidedIdx,
    Flush,
    Trim,
    Snapshot,
    Checkpoint,
    Recover,
}

/// A storage-layer I/O failure.
///
/// Deliberately `Copy` and shallow: it carries the failed operation and the
/// OS error class, which is everything the protocol layer may act on. The
/// full `std::io::Error` (message, raw os error) stays at the storage
/// implementation for logging; the replica only needs to know *that*
/// persistence failed, because the only safe reaction is fail-stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageError {
    /// Which operation failed.
    pub op: StorageOp,
    /// OS error class (`WriteZero` for short writes, `StorageFull` is not
    /// stable, so ENOSPC maps to `Other`/`QuotaExceeded` per platform —
    /// callers must not dispatch on the kind for correctness).
    pub kind: std::io::ErrorKind,
}

impl StorageError {
    /// Build an error for `op` from an underlying I/O error.
    pub fn io(op: StorageOp, e: &std::io::Error) -> Self {
        StorageError { op, kind: e.kind() }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage {:?} failed: {:?}", self.op, self.kind)
    }
}

impl std::error::Error for StorageError {}

/// Error returned by [`Storage::trim`] and [`Storage::set_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrimError {
    /// Tried to trim beyond the decided index; undecided entries may still
    /// be overwritten by a future leader and must be kept.
    BeyondDecided { decided_idx: u64, requested: u64 },
    /// Tried to trim below the already-compacted index.
    AlreadyTrimmed { compacted_idx: u64, requested: u64 },
    /// The trim was valid but persisting it failed; the storage is poisoned
    /// and the replica must halt (fail-stop) and recover.
    Storage(StorageError),
}

impl From<StorageError> for TrimError {
    fn from(e: StorageError) -> Self {
        TrimError::Storage(e)
    }
}

impl std::fmt::Display for TrimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrimError::BeyondDecided {
                decided_idx,
                requested,
            } => write!(
                f,
                "cannot trim to {requested}: only {decided_idx} entries are decided"
            ),
            TrimError::AlreadyTrimmed {
                compacted_idx,
                requested,
            } => write!(
                f,
                "cannot trim to {requested}: already compacted to {compacted_idx}"
            ),
            TrimError::Storage(e) => write!(f, "trim failed to persist: {e}"),
        }
    }
}

impl std::error::Error for TrimError {}

/// Persistent state of one Sequence Paxos replica.
///
/// All indices are *absolute*: they keep counting across trims. `get_entries`
/// and `get_suffix` panic if asked for compacted entries — callers are
/// responsible for never needing entries below the decided index of every
/// peer before trimming (the service layer enforces this).
///
/// # Failure contract
///
/// Mutating operations return `Err(StorageError)` when the mutation could
/// not be made recoverable. After any error the implementation is poisoned:
/// it must keep failing every further mutation (state on disk is unknown)
/// until [`Storage::recover`] rebuilds a consistent durable state — at
/// which point the *unsynced tail is gone*, exactly as if the process had
/// crashed. The replica pairs this with fail-stop behaviour: it never
/// acknowledges state that did not flush, and re-enters via the crash
/// recovery path (`fail_recovery`, paper §4.1.3).
pub trait Storage<T: Entry> {
    /// Append one entry; returns the new log length (absolute).
    fn append_entry(&mut self, entry: LogEntry<T>) -> Result<u64, StorageError>;

    /// Append many entries; returns the new log length (absolute).
    fn append_entries(&mut self, entries: Vec<LogEntry<T>>) -> Result<u64, StorageError>;

    /// Truncate the log to `from_idx` (absolute) and append `entries` there.
    /// Used by log synchronization (`AcceptSync`, §4.1.1) where a follower's
    /// non-chosen suffix may be overwritten. Returns the new log length.
    fn append_on_prefix(
        &mut self,
        from_idx: u64,
        entries: Vec<LogEntry<T>>,
    ) -> Result<u64, StorageError>;

    /// Persist the highest promised round.
    fn set_promise(&mut self, b: Ballot) -> Result<(), StorageError>;

    /// The highest promised round ([`Ballot::bottom`] initially).
    fn get_promise(&self) -> Ballot;

    /// Persist the round in which entries were last accepted.
    fn set_accepted_round(&mut self, b: Ballot) -> Result<(), StorageError>;

    /// The round in which entries were last accepted.
    fn get_accepted_round(&self) -> Ballot;

    /// Persist the decided index.
    fn set_decided_idx(&mut self, idx: u64) -> Result<(), StorageError>;

    /// Index up to which the log is decided (exclusive).
    fn get_decided_idx(&self) -> u64;

    /// Index up to which decided entries would survive a crash right now
    /// (exclusive; never above [`Storage::get_decided_idx`]). Decided
    /// entries are delivered to the application only below it — apply
    /// after persist: a follower can learn that entries are decided in the
    /// same call that appends them, before the flush that makes them
    /// durable. The default suits storage whose every mutation is durable
    /// at once, as memory is for the simulator.
    fn durable_decided_idx(&self) -> u64 {
        self.get_decided_idx()
    }

    /// Borrowed view of the entries in `[from, to)` (absolute indices,
    /// `to` clamped to the log length). Panics if the range reaches into
    /// the compacted prefix. This is the primitive read: every other read
    /// method is a wrapper that copies out of it.
    fn entries_ref(&self, from: u64, to: u64) -> &[LogEntry<T>];

    /// Entries in `[from, to)` as an owned `Vec` (thin wrapper over
    /// [`Storage::entries_ref`]).
    fn get_entries(&self, from: u64, to: u64) -> Vec<LogEntry<T>> {
        self.entries_ref(from, to).to_vec()
    }

    /// Entries in `[from, log_len)`.
    fn get_suffix(&self, from: u64) -> Vec<LogEntry<T>> {
        self.get_entries(from, self.get_log_len())
    }

    /// Entries in `[from, log_len)` as a shared batch: one allocation,
    /// arbitrarily many cheap clones. The default copies out of
    /// [`Storage::entries_ref`]; implementations that already hold shared
    /// batches may return them directly.
    fn shared_suffix(&self, from: u64) -> EntryBatch<T> {
        Arc::new(self.entries_ref(from, self.get_log_len()).to_vec())
    }

    /// Make every mutation issued so far durable. Called by the replica
    /// right before a batch of outgoing messages is released (group
    /// commit): acknowledgements must not leave the server ahead of the
    /// state they acknowledge. On `Err` the caller MUST NOT release those
    /// messages — the state they acknowledge may not exist after a crash —
    /// and the storage is poisoned until [`Storage::recover`]. In-memory
    /// implementations need not do anything.
    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Absolute length of the log, including the compacted prefix.
    fn get_log_len(&self) -> u64;

    /// Index below which entries have been compacted away.
    fn get_compacted_idx(&self) -> u64;

    /// Discard entries below `idx` (absolute). Only decided entries may be
    /// trimmed.
    fn trim(&mut self, idx: u64) -> Result<(), TrimError>;

    /// Record a snapshot covering `[0, idx)` and trim the prefix it
    /// supersedes, as one operation. The snapshot replaces the trimmed
    /// entries as the recoverable representation of that prefix, so the
    /// same safety rules as [`Storage::trim`] apply: `idx` must not exceed
    /// the decided index and must not fall below an older compaction
    /// point. On success the log keeps only `[idx, log_len)` and
    /// [`Storage::get_snapshot`] returns the new record.
    fn set_snapshot(&mut self, idx: u64, data: SnapshotData) -> Result<(), TrimError>;

    /// Install a snapshot received from a peer, discarding the local log
    /// entirely: after this call the log is empty, `compacted_idx ==
    /// decided_idx == idx`, and the snapshot record is `data`. Volatile
    /// promise state is kept (the caller persists the accepted round of
    /// the leader that shipped the snapshot). Used by the follower side of
    /// the chunked snapshot transfer, where the local log is strictly
    /// older than the snapshot.
    fn install_snapshot(&mut self, idx: u64, data: SnapshotData) -> Result<(), StorageError>;

    /// The most recent snapshot record, if any.
    fn get_snapshot(&self) -> Option<SnapshotRef>;

    /// Rewrite persistent state into its most compact durable form (for a
    /// WAL: one checkpoint record — embedding the latest snapshot — plus
    /// the live tail). In-memory implementations need not do anything.
    fn checkpoint(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Re-establish a consistent durable state after an error (or a
    /// simulated crash): drop whatever was buffered but never synced, clear
    /// the poison, and reload from the last durable state — the storage
    /// half of the crash-recovery path. In-memory implementations (where
    /// every mutation is instantly "durable") need not do anything.
    fn recover(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// The in-memory reference [`Storage`].
///
/// "Persistence" here means surviving a *simulated* crash: the harness keeps
/// the `MemoryStorage` alive across `fail_recovery`, mirroring how a real
/// deployment would reload the on-disk state. Memory never fails, so every
/// operation returns `Ok`; fault injection lives in
/// [`crate::faults::FaultyStorage`], which wraps any storage (this one
/// included) with seed-driven failpoints.
#[derive(Debug, Clone)]
pub struct MemoryStorage<T: Entry> {
    log: Vec<LogEntry<T>>,
    compacted_idx: u64,
    promise: Ballot,
    accepted_round: Ballot,
    decided_idx: u64,
    snapshot: Option<SnapshotRef>,
}

impl<T: Entry> Default for MemoryStorage<T> {
    fn default() -> Self {
        MemoryStorage {
            log: Vec::new(),
            compacted_idx: 0,
            promise: Ballot::bottom(),
            accepted_round: Ballot::bottom(),
            decided_idx: 0,
            snapshot: None,
        }
    }
}

impl<T: Entry> MemoryStorage<T> {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Storage pre-loaded with decided entries — used by experiments that
    /// start from a long history (§7.3 initializes 5 million entries).
    pub fn with_decided_log(entries: Vec<T>) -> Self {
        let log: Vec<LogEntry<T>> = entries.into_iter().map(LogEntry::Normal).collect();
        let decided_idx = log.len() as u64;
        MemoryStorage {
            log,
            compacted_idx: 0,
            promise: Ballot::bottom(),
            accepted_round: Ballot::bottom(),
            decided_idx,
            snapshot: None,
        }
    }

    fn rel(&self, abs: u64) -> usize {
        assert!(
            abs >= self.compacted_idx,
            "index {abs} reaches into compacted prefix (compacted to {})",
            self.compacted_idx
        );
        (abs - self.compacted_idx) as usize
    }
}

impl<T: Entry> Storage<T> for MemoryStorage<T> {
    fn append_entry(&mut self, entry: LogEntry<T>) -> Result<u64, StorageError> {
        self.log.push(entry);
        Ok(self.get_log_len())
    }

    fn append_entries(&mut self, mut entries: Vec<LogEntry<T>>) -> Result<u64, StorageError> {
        self.log.append(&mut entries);
        Ok(self.get_log_len())
    }

    fn append_on_prefix(
        &mut self,
        from_idx: u64,
        entries: Vec<LogEntry<T>>,
    ) -> Result<u64, StorageError> {
        let rel = self.rel(from_idx);
        self.log.truncate(rel);
        self.append_entries(entries)
    }

    fn set_promise(&mut self, b: Ballot) -> Result<(), StorageError> {
        self.promise = b;
        Ok(())
    }

    fn get_promise(&self) -> Ballot {
        self.promise
    }

    fn set_accepted_round(&mut self, b: Ballot) -> Result<(), StorageError> {
        self.accepted_round = b;
        Ok(())
    }

    fn get_accepted_round(&self) -> Ballot {
        self.accepted_round
    }

    fn set_decided_idx(&mut self, idx: u64) -> Result<(), StorageError> {
        self.decided_idx = idx;
        Ok(())
    }

    fn get_decided_idx(&self) -> u64 {
        self.decided_idx
    }

    fn entries_ref(&self, from: u64, to: u64) -> &[LogEntry<T>] {
        let to = to.min(self.get_log_len());
        if from >= to {
            return &[];
        }
        let (f, t) = (self.rel(from), self.rel(to));
        &self.log[f..t]
    }

    fn get_log_len(&self) -> u64 {
        self.compacted_idx + self.log.len() as u64
    }

    fn get_compacted_idx(&self) -> u64 {
        self.compacted_idx
    }

    fn trim(&mut self, idx: u64) -> Result<(), TrimError> {
        if idx > self.decided_idx {
            return Err(TrimError::BeyondDecided {
                decided_idx: self.decided_idx,
                requested: idx,
            });
        }
        if idx < self.compacted_idx {
            return Err(TrimError::AlreadyTrimmed {
                compacted_idx: self.compacted_idx,
                requested: idx,
            });
        }
        let rel = self.rel(idx);
        self.log.drain(..rel);
        self.compacted_idx = idx;
        Ok(())
    }

    fn set_snapshot(&mut self, idx: u64, data: SnapshotData) -> Result<(), TrimError> {
        self.trim(idx)?;
        self.snapshot = Some(SnapshotRef { idx, data });
        Ok(())
    }

    fn install_snapshot(&mut self, idx: u64, data: SnapshotData) -> Result<(), StorageError> {
        self.log.clear();
        self.compacted_idx = idx;
        self.decided_idx = idx;
        self.snapshot = Some(SnapshotRef { idx, data });
        Ok(())
    }

    fn get_snapshot(&self) -> Option<SnapshotRef> {
        self.snapshot.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(v: u64) -> LogEntry<u64> {
        LogEntry::Normal(v)
    }

    #[test]
    fn append_and_read_back() {
        let mut s = MemoryStorage::new();
        assert_eq!(s.append_entry(norm(1)), Ok(1));
        assert_eq!(s.append_entries(vec![norm(2), norm(3)]), Ok(3));
        assert_eq!(s.get_entries(0, 3), vec![norm(1), norm(2), norm(3)]);
        assert_eq!(s.get_suffix(1), vec![norm(2), norm(3)]);
        assert_eq!(s.get_log_len(), 3);
    }

    #[test]
    fn append_on_prefix_overwrites_suffix() {
        let mut s = MemoryStorage::new();
        s.append_entries(vec![norm(1), norm(2), norm(4), norm(5)])
            .unwrap();
        // A new leader syncs [3] at index 2: [4, 5] were never chosen.
        assert_eq!(s.append_on_prefix(2, vec![norm(3)]), Ok(3));
        assert_eq!(s.get_suffix(0), vec![norm(1), norm(2), norm(3)]);
    }

    #[test]
    fn rounds_and_decided_idx_persist() {
        let mut s: MemoryStorage<u64> = MemoryStorage::new();
        assert_eq!(s.get_promise(), Ballot::bottom());
        let b = Ballot::new(3, 0, 2);
        s.set_promise(b).unwrap();
        s.set_accepted_round(b).unwrap();
        s.set_decided_idx(7).unwrap();
        assert_eq!(s.get_promise(), b);
        assert_eq!(s.get_accepted_round(), b);
        assert_eq!(s.get_decided_idx(), 7);
    }

    #[test]
    fn get_entries_clamps_to_log_len() {
        let mut s = MemoryStorage::new();
        s.append_entries(vec![norm(1), norm(2)]).unwrap();
        assert_eq!(s.get_entries(1, 100), vec![norm(2)]);
        assert_eq!(s.get_entries(2, 2), vec![]);
        assert_eq!(s.get_suffix(5), vec![]);
    }

    #[test]
    fn trim_discards_prefix_but_keeps_absolute_indices() {
        let mut s = MemoryStorage::new();
        s.append_entries((1..=10).map(norm).collect()).unwrap();
        s.set_decided_idx(8).unwrap();
        s.trim(5).expect("trim decided prefix");
        assert_eq!(s.get_compacted_idx(), 5);
        assert_eq!(s.get_log_len(), 10);
        assert_eq!(s.get_entries(5, 7), vec![norm(6), norm(7)]);
        assert_eq!(s.get_suffix(8), vec![norm(9), norm(10)]);
    }

    #[test]
    fn trim_rejects_undecided_and_double_trim() {
        let mut s = MemoryStorage::new();
        s.append_entries((1..=10).map(norm).collect()).unwrap();
        s.set_decided_idx(4).unwrap();
        assert_eq!(
            s.trim(6),
            Err(TrimError::BeyondDecided {
                decided_idx: 4,
                requested: 6
            })
        );
        s.trim(4).unwrap();
        assert_eq!(
            s.trim(2),
            Err(TrimError::AlreadyTrimmed {
                compacted_idx: 4,
                requested: 2
            })
        );
        // Trimming to the same index is a no-op, not an error.
        assert_eq!(s.trim(4), Ok(()));
    }

    #[test]
    #[should_panic(expected = "compacted prefix")]
    fn reading_compacted_entries_panics() {
        let mut s = MemoryStorage::new();
        s.append_entries((1..=4).map(norm).collect()).unwrap();
        s.set_decided_idx(4).unwrap();
        s.trim(3).unwrap();
        let _ = s.get_entries(1, 4);
    }

    #[test]
    fn with_decided_log_initializes_history() {
        let s = MemoryStorage::with_decided_log((0..100u64).collect());
        assert_eq!(s.get_log_len(), 100);
        assert_eq!(s.get_decided_idx(), 100);
        assert_eq!(s.get_promise(), Ballot::bottom());
    }

    #[test]
    fn set_snapshot_supersedes_the_trimmed_prefix() {
        let mut s = MemoryStorage::new();
        s.append_entries((1..=10).map(norm).collect()).unwrap();
        s.set_decided_idx(8).unwrap();
        let snap: crate::snapshot::SnapshotData = vec![1u8, 2, 3].into();
        // Beyond decided: rejected, nothing changes.
        assert!(matches!(
            s.set_snapshot(9, snap.clone()),
            Err(TrimError::BeyondDecided { .. })
        ));
        assert_eq!(s.get_snapshot(), None);
        s.set_snapshot(6, snap.clone())
            .expect("snapshot decided prefix");
        assert_eq!(s.get_compacted_idx(), 6);
        assert_eq!(s.get_log_len(), 10);
        let r = s.get_snapshot().expect("snapshot recorded");
        assert_eq!(r.idx, 6);
        assert_eq!(&r.data[..], &[1, 2, 3]);
        // Regressing below the compaction point is rejected.
        assert!(matches!(
            s.set_snapshot(4, snap),
            Err(TrimError::AlreadyTrimmed { .. })
        ));
    }

    #[test]
    fn install_snapshot_resets_the_log() {
        let mut s = MemoryStorage::new();
        s.append_entries((1..=5).map(norm).collect()).unwrap();
        s.set_decided_idx(3).unwrap();
        s.set_promise(Ballot::new(2, 0, 1)).unwrap();
        let snap: crate::snapshot::SnapshotData = vec![9u8; 4].into();
        s.install_snapshot(100, snap).unwrap();
        assert_eq!(s.get_log_len(), 100);
        assert_eq!(s.get_compacted_idx(), 100);
        assert_eq!(s.get_decided_idx(), 100);
        assert_eq!(s.get_snapshot().expect("installed").idx, 100);
        // Promise survives: the install is log state, not ballot state.
        assert_eq!(s.get_promise(), Ballot::new(2, 0, 1));
        // The log continues above the snapshot.
        assert_eq!(s.append_entry(norm(7)), Ok(101));
        assert_eq!(s.get_suffix(100), vec![norm(7)]);
    }

    #[test]
    fn append_on_prefix_at_compaction_boundary() {
        let mut s = MemoryStorage::new();
        s.append_entries((1..=6).map(norm).collect()).unwrap();
        s.set_decided_idx(6).unwrap();
        s.trim(6).unwrap();
        assert_eq!(s.append_on_prefix(6, vec![norm(7)]), Ok(7));
        assert_eq!(s.get_suffix(6), vec![norm(7)]);
    }

    #[test]
    fn trim_error_wraps_storage_error() {
        // The Storage variant threads I/O failures through the same error
        // type compaction callers already handle.
        let e = StorageError {
            op: StorageOp::Trim,
            kind: std::io::ErrorKind::Other,
        };
        let t: TrimError = e.into();
        assert_eq!(t, TrimError::Storage(e));
        assert!(format!("{t}").contains("failed to persist"));
    }
}
