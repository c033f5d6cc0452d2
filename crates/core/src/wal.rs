//! Write-ahead-log storage: a file-backed [`Storage`] implementation.
//!
//! The paper's fail-recovery model (§3) assumes that the promised round,
//! accepted round, decided index and the log survive crashes. This module
//! provides that durability with an append-only, checksummed record file:
//! every mutation updates the in-memory mirror and appends a framed,
//! checksummed record; on open, the file is replayed to rebuild the state,
//! stopping cleanly at the first torn record (a crash mid-write loses only
//! the unacknowledged tail, which is exactly what the model permits).
//!
//! The WAL rewrites itself (a *checkpoint*) once enough records accumulate,
//! so a long-lived replica's recovery time stays proportional to its live
//! state rather than its full history.
//!
//! Record framing: `[tag: u8][len: u32][payload: len bytes][crc: u32]`,
//! where `crc` is a simple FNV-1a hash over tag, length and payload.
//!
//! Mutations are **group committed**: they update the in-memory mirror
//! immediately but their records are buffered — consecutive appends
//! coalesce into a single `APPEND` record — and hit the file in one
//! `write` + one `sync_data` when [`Storage::flush`] runs (the replica
//! calls it right before releasing a batch of outgoing messages, so
//! nothing acknowledges state that is not yet durable). A crash between
//! flushes loses only unacknowledged mutations, which the fail-recovery
//! model permits.
//!
//! ## Durable-point markers and corruption detection
//!
//! After every successful `sync_data` the WAL appends a tiny `COMMIT`
//! marker whose payload is its own file offset `p` — an assertion that
//! `[0, p)` is durable (the fsync covering those bytes returned before
//! the marker was written, so the assertion holds even though the marker
//! itself is not synced; a torn marker simply fails its checksum and is
//! ignored). Replay uses the markers to tell two failures apart:
//!
//! * **Torn tail** — a bad record at or after the durable point. That is
//!   a crash mid-write of unacknowledged state, which the fail-recovery
//!   model permits: the tail is silently discarded (and physically
//!   truncated so new appends don't land after garbage).
//! * **Mid-log corruption** — a bad record *before* the durable point.
//!   That is acknowledged-durable state going bad (bit rot, a lying
//!   disk); silently truncating would un-ack acknowledged entries, so
//!   [`WalStorage::open`] fails loudly with [`WalError::Corrupt`] and the
//!   offset of the bad record. Operators restore from a peer (the
//!   protocol's snapshot/catch-up path) rather than trust the file.
//!
//! ## Failure semantics
//!
//! Every I/O failure **poisons** the WAL: buffered-but-unsynced bytes are
//! in an unknown state on disk, so all further mutations fail until
//! [`Storage::recover`] reopens and replays the file (the fsyncgate rule:
//! never retry an fsync and ack as if it had succeeded). Deterministic
//! failpoints ([`WalFault`]) let tests arm exactly one failure — a failed
//! fsync, a short write, a full disk, a crash mid-checkpoint — and assert
//! the recovery contract.

use crate::ballot::Ballot;
use crate::snapshot::{SnapshotData, SnapshotRef};
use crate::storage::{Storage, StorageError, StorageOp, TrimError};
use crate::util::{Entry, LogEntry, StopSign};
use crate::wire::{self, put_ballot, put_len_prefixed};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Error opening or recovering a WAL.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A record **before the durable point** failed validation: state
    /// that was fsynced (and therefore possibly acknowledged) is gone or
    /// mangled. `offset` is the file offset of the bad record. This is
    /// never silently truncated — losing acked state must be loud.
    Corrupt { offset: u64 },
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { offset } => write!(
                f,
                "wal corrupt at offset {offset}: record before the durable point failed validation"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// A deterministic failpoint: the next matching operation fails exactly
/// as the named real-world fault would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// `sync_data` fails after the buffered bytes were handed to the OS
    /// (the fsyncgate scenario: on-disk state unknown).
    SyncFail,
    /// The group-commit write persists only a prefix of the buffer.
    ShortWrite,
    /// The device is full: the write fails before any byte lands.
    NoSpace,
    /// The checkpoint's temp file hits ENOSPC halfway through.
    CheckpointNoSpace,
    /// Power loss after the temp file is written and synced but before
    /// the rename — the old generation must still be recoverable.
    CheckpointCrashBeforeRename,
}

/// Entries stored in a [`WalStorage`] must be byte-encodable.
pub trait WalEncode: Entry {
    /// Append this entry's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode one entry from `buf` (the full slice written by `encode`).
    fn decode(buf: &[u8]) -> Option<Self>;
}

impl WalEncode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(buf.try_into().ok()?))
    }
}

const TAG_APPEND: u8 = 1;
const TAG_TRUNCATE: u8 = 2;
const TAG_PROMISE: u8 = 3;
const TAG_ACCEPTED_ROUND: u8 = 4;
const TAG_DECIDED: u8 = 5;
const TAG_TRIM: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;
/// A snapshot record: `[idx: u64][snapshot bytes]`. Trims the covered
/// prefix like `TRIM`, and the bytes supersede it as the recoverable form.
const TAG_SNAPSHOT: u8 = 8;
/// A snapshot *install* (received from a peer): same payload, but resets
/// the whole log — after replay `compacted_idx == decided_idx == idx`.
const TAG_SNAPSHOT_INSTALL: u8 = 9;
/// Durable-point marker: payload is the marker's own file offset `p`,
/// asserting `[0, p)` was covered by a completed `sync_data`. Written
/// unsynced right after each fsync (see module docs); self-validating
/// during replay (tag + length + embedded offset + checksum must all
/// agree with where the record physically sits).
const TAG_COMMIT: u8 = 10;

/// On-disk size of a COMMIT marker: tag + len + u64 payload + crc.
const MARKER_LEN: usize = 17;

/// Scan raw bytes for valid COMMIT markers (and a leading checkpoint
/// record, whose rename discipline makes it durable by construction) and
/// return the durable point: the largest offset proven covered by a
/// completed fsync. A byte-wise scan, not a record walk — corruption that
/// breaks record framing must not hide markers that sit beyond it.
fn scan_durable_point(bytes: &[u8]) -> u64 {
    let mut durable = 0u64;
    if bytes.len() >= 9 && bytes[0] == TAG_CHECKPOINT {
        let len = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize;
        if let (Some(payload), Some(crc)) = (bytes.get(5..5 + len), bytes.get(5 + len..9 + len)) {
            let crc = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
            if crc == checksum(TAG_CHECKPOINT, payload) {
                durable = (9 + len) as u64;
            }
        }
    }
    let mut q = 0usize;
    while q + MARKER_LEN <= bytes.len() {
        let is_marker = bytes[q] == TAG_COMMIT
            && bytes[q + 1..q + 5] == 8u32.to_le_bytes()
            && get_u64(bytes, q + 5) == Some(q as u64)
            && bytes[q + 13..q + 17] == checksum(TAG_COMMIT, &bytes[q + 5..q + 13]).to_le_bytes();
        if is_marker {
            durable = durable.max(q as u64);
            q += MARKER_LEN;
        } else {
            q += 1;
        }
    }
    durable
}

/// FNV-1a over the framed bytes; cheap and sufficient to detect torn
/// writes (we are not defending against bit rot here).
fn checksum(tag: u8, payload: &[u8]) -> u32 {
    wire::checksum_parts(&[&[tag], &(payload.len() as u32).to_le_bytes(), payload])
}

/// Append one framed record to `buf`, its payload written in place by
/// `body`; the checksum runs over the tag, length and payload just written.
fn frame_with(buf: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.push(tag);
    put_len_prefixed(buf, body);
    let crc = wire::checksum(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

fn get_ballot(buf: &[u8], at: usize) -> Option<Ballot> {
    Some(Ballot::new(
        get_u64(buf, at)?,
        get_u64(buf, at + 8)?,
        get_u64(buf, at + 16)?,
    ))
}

/// A normal entry is laid out as on the wire; a stop-sign keeps the WAL's
/// own layout, its metadata running to the end of the entry unprefixed.
fn put_log_entry<T: WalEncode>(buf: &mut Vec<u8>, e: &LogEntry<T>) {
    let LogEntry::StopSign(ss) = e else {
        return wire::put_log_entry(buf, e);
    };
    buf.push(1);
    put_len_prefixed(buf, |buf| {
        buf.extend_from_slice(&ss.config_id.to_le_bytes());
        buf.extend_from_slice(&(ss.next_nodes.len() as u32).to_le_bytes());
        for &p in &ss.next_nodes {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        buf.extend_from_slice(&ss.metadata);
    });
}

fn get_log_entry<T: WalEncode>(buf: &[u8], at: &mut usize) -> Option<LogEntry<T>> {
    let kind = *buf.get(*at)?;
    *at += 1;
    let len = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?) as usize;
    *at += 4;
    let inner = buf.get(*at..*at + len)?;
    *at += len;
    match kind {
        0 => Some(LogEntry::Normal(T::decode(inner)?)),
        1 => {
            let config_id = u32::from_le_bytes(inner.get(0..4)?.try_into().ok()?);
            let n = u32::from_le_bytes(inner.get(4..8)?.try_into().ok()?) as usize;
            let mut next_nodes = Vec::with_capacity(n);
            for i in 0..n {
                next_nodes.push(get_u64(inner, 8 + i * 8)?);
            }
            let metadata = inner.get(8 + n * 8..)?.to_vec();
            let mut ss = StopSign::new(config_id, next_nodes);
            ss.metadata = metadata;
            Some(LogEntry::stopsign(ss))
        }
        _ => None,
    }
}

/// Durable Sequence Paxos state: an in-memory mirror fronted by an
/// append-only record file. See the [module docs](self).
pub struct WalStorage<T: WalEncode> {
    path: PathBuf,
    file: File,
    // In-memory mirror (source of truth for reads).
    log: Vec<LogEntry<T>>,
    compacted_idx: u64,
    promise: Ballot,
    accepted_round: Ballot,
    decided_idx: u64,
    snapshot: Option<SnapshotRef>,
    /// Log length the last successful sync (or checkpoint, or the replay
    /// at open) put on disk: decided entries below it survive a crash.
    synced_len: u64,
    /// Records appended since the last checkpoint.
    records_since_checkpoint: u64,
    /// Rewrite the file after this many records (0 = never).
    pub checkpoint_every: u64,
    /// Number of tail entries of `log` that have not been framed as an
    /// `APPEND` record yet. Consecutive appends coalesce into a single
    /// record when the next non-append record or flush materializes them.
    pending_appends: usize,
    /// Framed records awaiting the next flush (group commit buffer).
    wbuf: Vec<u8>,
    /// Current length of the backing file (tracked so durable-point
    /// markers can embed their own offset without re-stating the file).
    file_len: u64,
    /// Armed deterministic failpoint, if any (tests/chaos only).
    fault: Option<WalFault>,
    /// Set by any I/O failure: on-disk state is unknown, so every further
    /// mutation fails until [`Storage::recover`] reopens the file.
    poisoned: bool,
    /// Group-commit accounting: completed `sync_data` calls, log entries
    /// whose durability those syncs covered, and entries appended since
    /// the last completed sync (carried into the next one).
    syncs: u64,
    entries_group_committed: u64,
    entries_since_sync: u64,
}

impl<T: WalEncode> WalStorage<T> {
    /// Open (or create) the WAL at `path`, replaying any existing records.
    ///
    /// Fails with [`WalError::Corrupt`] if a record before the durable
    /// point does not validate — acknowledged state must never be lost
    /// silently. A torn tail (bad bytes at/after the durable point) is
    /// discarded and physically truncated instead.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        let mut storage = WalStorage {
            path,
            file,
            log: Vec::new(),
            compacted_idx: 0,
            promise: Ballot::bottom(),
            accepted_round: Ballot::bottom(),
            decided_idx: 0,
            snapshot: None,
            synced_len: 0,
            records_since_checkpoint: 0,
            checkpoint_every: 100_000,
            pending_appends: 0,
            wbuf: Vec::new(),
            file_len: 0,
            fault: None,
            poisoned: false,
            syncs: 0,
            entries_group_committed: 0,
            entries_since_sync: 0,
        };
        storage.replay(&bytes)?;
        storage.synced_len = storage.get_log_len();
        Ok(storage)
    }

    /// Replay records. A record failing validation before the durable
    /// point is corruption of acked state ⇒ [`WalError::Corrupt`]; at or
    /// after it, a torn tail ⇒ discard and physically truncate.
    fn replay(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let durable = scan_durable_point(bytes);
        let mut at = 0usize;
        loop {
            if at + 9 > bytes.len() {
                break; // clean end or incomplete header (torn)
            }
            let tag = bytes[at];
            let len =
                u32::from_le_bytes(bytes[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
            let (Some(payload), Some(crc_bytes)) = (
                bytes.get(at + 5..at + 5 + len),
                bytes.get(at + 5 + len..at + 9 + len),
            ) else {
                break; // torn tail
            };
            let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
            if crc != checksum(tag, payload) {
                break; // torn or corrupt: decided below by the durable point
            }
            // COMMIT markers are replay bookkeeping, not state records.
            if tag != TAG_COMMIT {
                if !self.apply_record(tag, payload) {
                    break;
                }
                self.records_since_checkpoint += 1;
            }
            at += 9 + len;
        }
        if (at as u64) < durable {
            // Durable (fsynced, possibly acknowledged) state failed to
            // replay: fail loudly instead of silently un-acking it.
            return Err(WalError::Corrupt { offset: at as u64 });
        }
        if at < bytes.len() {
            // Torn tail: physically drop it so future appends don't land
            // after garbage (which replay would then discard as torn).
            self.file.set_len(at as u64)?;
        }
        self.file_len = at as u64;
        Ok(())
    }

    /// Arm a deterministic failpoint: the next matching I/O operation
    /// fails (and poisons the WAL) exactly as the real fault would.
    pub fn arm_fault(&mut self, fault: WalFault) {
        self.fault = Some(fault);
    }

    /// Has an I/O failure poisoned this WAL? (Cleared by
    /// [`Storage::recover`].)
    /// Group-commit evidence: `(completed syncs, log entries whose
    /// durability they covered)`. One flush per outgoing drain means the
    /// second number divided by the first is the mean append run a
    /// single fsync made durable — the "one fsync covers hundreds of
    /// ops" property client acks ride on.
    pub fn group_commit_stats(&self) -> (u64, u64) {
        (self.syncs, self.entries_group_committed)
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poison(&self, op: StorageOp) -> Result<(), StorageError> {
        if self.poisoned {
            Err(StorageError {
                op,
                kind: ErrorKind::Other,
            })
        } else {
            Ok(())
        }
    }

    fn apply_record(&mut self, tag: u8, payload: &[u8]) -> bool {
        match tag {
            TAG_APPEND => {
                let Some(count) = get_u64(payload, 0) else {
                    return false;
                };
                let mut at = 8usize;
                for _ in 0..count {
                    let Some(e) = get_log_entry::<T>(payload, &mut at) else {
                        return false;
                    };
                    self.log.push(e);
                }
                true
            }
            TAG_TRUNCATE => {
                let Some(from) = get_u64(payload, 0) else {
                    return false;
                };
                if from < self.compacted_idx {
                    return false;
                }
                self.log.truncate((from - self.compacted_idx) as usize);
                true
            }
            TAG_PROMISE => match get_ballot(payload, 0) {
                Some(b) => {
                    self.promise = b;
                    true
                }
                None => false,
            },
            TAG_ACCEPTED_ROUND => match get_ballot(payload, 0) {
                Some(b) => {
                    self.accepted_round = b;
                    true
                }
                None => false,
            },
            TAG_DECIDED => match get_u64(payload, 0) {
                Some(idx) => {
                    self.decided_idx = idx;
                    true
                }
                None => false,
            },
            TAG_TRIM => match get_u64(payload, 0) {
                Some(idx) => {
                    if idx < self.compacted_idx {
                        return false;
                    }
                    let rel = (idx - self.compacted_idx) as usize;
                    if rel > self.log.len() {
                        return false;
                    }
                    self.log.drain(..rel);
                    self.compacted_idx = idx;
                    true
                }
                None => false,
            },
            TAG_SNAPSHOT => {
                // Compaction by snapshot: trim semantics plus the record.
                let Some(idx) = get_u64(payload, 0) else {
                    return false;
                };
                if idx < self.compacted_idx {
                    return false;
                }
                let rel = (idx - self.compacted_idx) as usize;
                if rel > self.log.len() {
                    return false;
                }
                self.log.drain(..rel);
                self.compacted_idx = idx;
                self.snapshot = Some(SnapshotRef {
                    idx,
                    data: payload[8..].into(),
                });
                true
            }
            TAG_SNAPSHOT_INSTALL => {
                let Some(idx) = get_u64(payload, 0) else {
                    return false;
                };
                self.log.clear();
                self.compacted_idx = idx;
                self.decided_idx = idx;
                self.snapshot = Some(SnapshotRef {
                    idx,
                    data: payload[8..].into(),
                });
                true
            }
            TAG_CHECKPOINT => {
                // Full-state record: everything before it is superseded.
                let Some(compacted) = get_u64(payload, 0) else {
                    return false;
                };
                let Some(promise) = get_ballot(payload, 8) else {
                    return false;
                };
                let Some(acc) = get_ballot(payload, 32) else {
                    return false;
                };
                let Some(decided) = get_u64(payload, 56) else {
                    return false;
                };
                let Some(count) = get_u64(payload, 64) else {
                    return false;
                };
                let mut log = Vec::with_capacity(count as usize);
                let mut at = 72usize;
                for _ in 0..count {
                    let Some(e) = get_log_entry::<T>(payload, &mut at) else {
                        return false;
                    };
                    log.push(e);
                }
                // Embedded snapshot (recovery = snapshot + tail replay):
                // `[has: u8]` then, if 1, `[idx: u64][len: u64][bytes]`.
                let snapshot = match payload.get(at) {
                    Some(1) => {
                        let Some(idx) = get_u64(payload, at + 1) else {
                            return false;
                        };
                        let Some(len) = get_u64(payload, at + 9) else {
                            return false;
                        };
                        let Some(data) = payload.get(at + 17..at + 17 + len as usize) else {
                            return false;
                        };
                        Some(SnapshotRef {
                            idx,
                            data: data.into(),
                        })
                    }
                    Some(0) => None,
                    // A pre-snapshot checkpoint record ends at the log.
                    None => None,
                    _ => return false,
                };
                self.compacted_idx = compacted;
                self.promise = promise;
                self.accepted_round = acc;
                self.decided_idx = decided;
                self.log = log;
                self.snapshot = snapshot;
                true
            }
            _ => false,
        }
    }

    /// Frame the not-yet-recorded tail appends as one `APPEND` record.
    /// This is where consecutive appends coalesce (group commit).
    fn materialize_appends(&mut self) {
        if self.pending_appends == 0 {
            return;
        }
        let tail = &self.log[self.log.len() - self.pending_appends..];
        frame_with(&mut self.wbuf, TAG_APPEND, |buf| {
            buf.extend_from_slice(&(tail.len() as u64).to_le_bytes());
            for e in tail {
                put_log_entry(buf, e);
            }
        });
        self.pending_appends = 0;
        self.records_since_checkpoint += 1;
    }

    /// Buffer one non-append record, materializing pending appends first so
    /// that replay order matches mutation order.
    fn buffer_record(&mut self, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
        self.materialize_appends();
        frame_with(&mut self.wbuf, tag, body);
        self.records_since_checkpoint += 1;
    }

    /// Group commit: everything buffered since the previous flush hits the
    /// file in one `write` (and, if `sync`, one `sync_data` followed by a
    /// durable-point marker). Any failure poisons the WAL.
    fn flush_buffers(&mut self, sync: bool) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "wal poisoned by an earlier i/o failure; recover() first",
            ));
        }
        self.materialize_appends();
        if !self.wbuf.is_empty() {
            if let Err(e) = self.write_wbuf(sync) {
                self.poisoned = true;
                return Err(e);
            }
        }
        if sync {
            self.synced_len = self.get_log_len();
        }
        if self.checkpoint_every > 0 && self.records_since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The fallible half of [`WalStorage::flush_buffers`]: one write, one
    /// optional fsync, one (unsynced) durable-point marker. Failpoints
    /// fire here so they model where real faults strike.
    fn write_wbuf(&mut self, sync: bool) -> std::io::Result<()> {
        match self.fault {
            Some(WalFault::NoSpace) => {
                self.fault = None;
                return Err(std::io::Error::new(
                    ErrorKind::OutOfMemory,
                    "injected: no space left on device",
                ));
            }
            Some(WalFault::ShortWrite) => {
                self.fault = None;
                // Half the buffer lands: a torn record for replay to find.
                let half = self.wbuf.len() / 2;
                self.file.write_all(&self.wbuf[..half])?;
                self.file_len += half as u64;
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "injected: short write",
                ));
            }
            _ => {}
        }
        self.file.write_all(&self.wbuf)?;
        self.file_len += self.wbuf.len() as u64;
        self.wbuf.clear();
        if sync {
            if self.fault == Some(WalFault::SyncFail) {
                self.fault = None;
                return Err(std::io::Error::other("injected: fsync failed"));
            }
            self.file.sync_data()?;
            self.syncs += 1;
            self.entries_group_committed += self.entries_since_sync;
            self.entries_since_sync = 0;
            // [0, file_len) is now durable: assert it with a marker. The
            // marker itself stays unsynced — if it tears, replay merely
            // falls back to the previous durable point, which is exactly
            // a crash-before-marker and loses nothing acknowledged.
            let at = self.file_len;
            frame_with(&mut self.wbuf, TAG_COMMIT, |b| {
                b.extend_from_slice(&at.to_le_bytes())
            });
            self.file.write_all(&self.wbuf)?;
            self.wbuf.clear();
            self.file_len += MARKER_LEN as u64;
        }
        Ok(())
    }

    /// Make all buffered records durable (the `fsync` point).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.flush_buffers(true)
    }

    /// Rewrite the file as a single checkpoint record of the live state
    /// (embedding the latest snapshot, so recovery is snapshot + tail
    /// replay).
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        // Drain the group-commit buffer into the checkpoint: frame pending
        // appends so the mirror and `wbuf` agree, build the full-state
        // payload from the mirror (which therefore includes every buffered
        // mutation), and only discard the buffered records once the rename
        // has actually made the checkpoint durable. A failed checkpoint
        // leaves the old generation intact on disk (temp-file + rename
        // discipline) but poisons the WAL: recover() reopens the old file.
        if self.poisoned {
            return Err(std::io::Error::other(
                "wal poisoned by an earlier i/o failure; recover() first",
            ));
        }
        self.materialize_appends();
        let mut frame = Vec::new();
        frame_with(&mut frame, TAG_CHECKPOINT, |payload| {
            payload.extend_from_slice(&self.compacted_idx.to_le_bytes());
            put_ballot(payload, self.promise);
            put_ballot(payload, self.accepted_round);
            payload.extend_from_slice(&self.decided_idx.to_le_bytes());
            payload.extend_from_slice(&(self.log.len() as u64).to_le_bytes());
            for e in &self.log {
                put_log_entry(payload, e);
            }
            match &self.snapshot {
                Some(s) => {
                    payload.push(1);
                    payload.extend_from_slice(&s.idx.to_le_bytes());
                    payload.extend_from_slice(&(s.data.len() as u64).to_le_bytes());
                    payload.extend_from_slice(&s.data);
                }
                None => payload.push(0),
            }
        });
        // The rename makes the whole temp file durable at once, so it can
        // carry its own durable-point marker covering the checkpoint.
        let ckpt_end = frame.len() as u64;
        frame_with(&mut frame, TAG_COMMIT, |b| {
            b.extend_from_slice(&ckpt_end.to_le_bytes())
        });
        if let Err(e) = self.checkpoint_write(&frame) {
            self.poisoned = true;
            return Err(e);
        }
        // The checkpoint now supersedes everything buffered.
        self.wbuf.clear();
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.file_len = frame.len() as u64;
        self.records_since_checkpoint = 0;
        self.synced_len = self.get_log_len();
        Ok(())
    }

    /// Write `frame` to a sibling temp file, sync it, and atomically
    /// replace the WAL — with failpoints at the two spots real
    /// checkpoints die: mid-write (ENOSPC) and pre-rename (power loss).
    fn checkpoint_write(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        match self.fault {
            Some(WalFault::CheckpointNoSpace) => {
                self.fault = None;
                // Half a checkpoint lands in the temp file; the rename
                // never happens, so the old generation must survive.
                let mut f = File::create(&tmp)?;
                f.write_all(&frame[..frame.len() / 2])?;
                return Err(std::io::Error::new(
                    ErrorKind::OutOfMemory,
                    "injected: no space left on device (checkpoint)",
                ));
            }
            Some(WalFault::CheckpointCrashBeforeRename) => {
                self.fault = None;
                // The temp file is complete and synced, but the process
                // "dies" before the rename: the old generation is still
                // the WAL, and the stale temp file must be ignored.
                let mut f = File::create(&tmp)?;
                f.write_all(frame)?;
                f.sync_data()?;
                return Err(std::io::Error::new(
                    ErrorKind::Interrupted,
                    "injected: crash before checkpoint rename",
                ));
            }
            _ => {}
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(frame)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
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

impl<T: WalEncode> Storage<T> for WalStorage<T> {
    fn append_entry(&mut self, entry: LogEntry<T>) -> Result<u64, StorageError> {
        self.check_poison(StorageOp::Append)?;
        self.log.push(entry);
        self.pending_appends += 1;
        self.entries_since_sync += 1;
        Ok(self.get_log_len())
    }

    fn append_entries(&mut self, entries: Vec<LogEntry<T>>) -> Result<u64, StorageError> {
        self.check_poison(StorageOp::Append)?;
        self.pending_appends += entries.len();
        self.entries_since_sync += entries.len() as u64;
        self.log.extend(entries);
        Ok(self.get_log_len())
    }

    fn append_on_prefix(
        &mut self,
        from_idx: u64,
        entries: Vec<LogEntry<T>>,
    ) -> Result<u64, StorageError> {
        self.check_poison(StorageOp::Append)?;
        // Frame pending appends while the tail they describe still exists.
        self.materialize_appends();
        let rel = self.rel(from_idx);
        self.log.truncate(rel);
        // What replaces the truncated tail is not on disk until the next sync.
        self.synced_len = self.synced_len.min(from_idx);
        self.buffer_record(TAG_TRUNCATE, |b| {
            b.extend_from_slice(&from_idx.to_le_bytes())
        });
        self.append_entries(entries)
    }

    fn set_promise(&mut self, b: Ballot) -> Result<(), StorageError> {
        self.check_poison(StorageOp::SetPromise)?;
        self.promise = b;
        self.buffer_record(TAG_PROMISE, |buf| put_ballot(buf, b));
        Ok(())
    }

    fn get_promise(&self) -> Ballot {
        self.promise
    }

    fn set_accepted_round(&mut self, b: Ballot) -> Result<(), StorageError> {
        self.check_poison(StorageOp::SetAcceptedRound)?;
        self.accepted_round = b;
        self.buffer_record(TAG_ACCEPTED_ROUND, |buf| put_ballot(buf, b));
        Ok(())
    }

    fn get_accepted_round(&self) -> Ballot {
        self.accepted_round
    }

    fn set_decided_idx(&mut self, idx: u64) -> Result<(), StorageError> {
        self.check_poison(StorageOp::SetDecidedIdx)?;
        self.decided_idx = idx;
        self.buffer_record(TAG_DECIDED, |b| b.extend_from_slice(&idx.to_le_bytes()));
        Ok(())
    }

    fn get_decided_idx(&self) -> u64 {
        self.decided_idx
    }

    /// Decided entries the last successful sync wrote. The decided index
    /// itself may still be in the write buffer: a crash then loses the
    /// mark, not the entries, which are chosen and re-decided in place.
    fn durable_decided_idx(&self) -> u64 {
        self.decided_idx.min(self.synced_len)
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
        self.check_poison(StorageOp::Trim)?;
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
        // Frame pending appends before the drain can shift (or, when
        // trimming the whole log, remove) the tail they describe.
        self.materialize_appends();
        let rel = self.rel(idx);
        self.log.drain(..rel);
        self.compacted_idx = idx;
        self.buffer_record(TAG_TRIM, |b| b.extend_from_slice(&idx.to_le_bytes()));
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        // Never panic, never retry-and-ack: a failed flush poisons the
        // WAL and the replica halts (fail-stop) until recover().
        self.flush_buffers(true)
            .map_err(|e| StorageError::io(StorageOp::Flush, &e))
    }

    fn set_snapshot(&mut self, idx: u64, data: SnapshotData) -> Result<(), TrimError> {
        self.check_poison(StorageOp::Snapshot)?;
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
        // Frame pending appends before the drain shifts the tail.
        self.materialize_appends();
        let rel = self.rel(idx);
        self.log.drain(..rel);
        self.compacted_idx = idx;
        self.snapshot = Some(SnapshotRef {
            idx,
            data: data.clone(),
        });
        self.buffer_record(TAG_SNAPSHOT, |b| {
            b.extend_from_slice(&idx.to_le_bytes());
            b.extend_from_slice(&data);
        });
        Ok(())
    }

    fn install_snapshot(&mut self, idx: u64, data: SnapshotData) -> Result<(), StorageError> {
        self.check_poison(StorageOp::Snapshot)?;
        // The whole local log is superseded; drop any pending appends of it.
        self.pending_appends = 0;
        self.log.clear();
        self.synced_len = self.synced_len.min(idx);
        self.compacted_idx = idx;
        self.decided_idx = idx;
        self.snapshot = Some(SnapshotRef {
            idx,
            data: data.clone(),
        });
        self.buffer_record(TAG_SNAPSHOT_INSTALL, |b| {
            b.extend_from_slice(&idx.to_le_bytes());
            b.extend_from_slice(&data);
        });
        Ok(())
    }

    fn get_snapshot(&self) -> Option<SnapshotRef> {
        self.snapshot.clone()
    }

    fn checkpoint(&mut self) -> Result<(), StorageError> {
        WalStorage::checkpoint(self).map_err(|e| StorageError::io(StorageOp::Checkpoint, &e))
    }

    fn recover(&mut self) -> Result<(), StorageError> {
        // The storage half of crash recovery: drop everything buffered
        // (it never became durable — as after a real crash) and reload
        // from the file. Corruption of durable state stays loud.
        self.wbuf.clear();
        self.pending_appends = 0;
        let mut fresh = WalStorage::open(&self.path).map_err(|e| match e {
            WalError::Io(e) => StorageError::io(StorageOp::Recover, &e),
            WalError::Corrupt { .. } => StorageError {
                op: StorageOp::Recover,
                kind: ErrorKind::InvalidData,
            },
        })?;
        fresh.checkpoint_every = self.checkpoint_every;
        // Dropping the old self here runs its Drop flush, which is inert:
        // the write buffer was cleared above (and poison blocks writes).
        *self = fresh;
        Ok(())
    }
}

impl<T: WalEncode> Drop for WalStorage<T> {
    fn drop(&mut self) {
        // Best-effort on clean shutdown: hand buffered records to the OS.
        // Durability guarantees only hold at explicit flush points.
        let _ = self.flush_buffers(false);
    }
}

impl<T: WalEncode> std::fmt::Debug for WalStorage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalStorage")
            .field("path", &self.path)
            .field("log_len", &self.get_log_len())
            .field("decided_idx", &self.decided_idx)
            .field("promise", &self.promise)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("omnipaxos-wal-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn norm(v: u64) -> LogEntry<u64> {
        LogEntry::Normal(v)
    }

    #[test]
    fn state_survives_reopen() {
        let path = tmp("reopen");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=5).map(norm).collect()).unwrap();
            w.set_promise(Ballot::new(3, 0, 2)).unwrap();
            w.set_accepted_round(Ballot::new(3, 0, 2)).unwrap();
            w.set_decided_idx(4).unwrap();
            w.sync().unwrap();
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 5);
        assert_eq!(w.get_decided_idx(), 4);
        assert_eq!(w.get_promise(), Ballot::new(3, 0, 2));
        assert_eq!(w.get_entries(0, 5), (1..=5).map(norm).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decided_entries_are_durable_only_once_synced() {
        let path = tmp("durable");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=5).map(norm).collect()).unwrap();
            w.set_decided_idx(4).unwrap();
            assert_eq!(w.durable_decided_idx(), 0, "decided, not yet on disk");
            w.sync().unwrap();
            assert_eq!(w.durable_decided_idx(), 4);
            // A rewritten suffix is not on disk until the next sync.
            w.append_on_prefix(4, vec![norm(9), norm(10)]).unwrap();
            w.set_decided_idx(6).unwrap();
            assert_eq!(w.durable_decided_idx(), 4);
            w.sync().unwrap();
            assert_eq!(w.durable_decided_idx(), 6);
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.durable_decided_idx(), w.get_decided_idx());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_covers_whole_append_run_with_one_sync() {
        let path = tmp("groupcommit");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=500).map(norm).collect()).unwrap();
            for v in 501..=800 {
                w.append_entry(norm(v)).unwrap();
            }
            assert_eq!(w.group_commit_stats(), (0, 0), "nothing durable yet");
            w.sync().unwrap();
            // One fsync made the entire 800-entry run durable.
            assert_eq!(w.group_commit_stats(), (1, 800));
            w.append_entry(norm(801)).unwrap();
            w.sync().unwrap();
            assert_eq!(w.group_commit_stats(), (2, 801));
            // Syncing with nothing buffered must not spend an fsync.
            w.sync().unwrap();
            assert_eq!(w.group_commit_stats(), (2, 801));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_and_trim_survive_reopen() {
        let path = tmp("trunc");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=10).map(norm).collect()).unwrap();
            w.append_on_prefix(6, vec![norm(60), norm(70)]).unwrap();
            w.set_decided_idx(7).unwrap();
            w.trim(3).unwrap();
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 8);
        assert_eq!(w.get_compacted_idx(), 3);
        assert_eq!(
            w.get_entries(3, 8),
            vec![norm(4), norm(5), norm(6), norm(60), norm(70)]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stop_signs_round_trip() {
        let path = tmp("ss");
        let mut ss = StopSign::new(7, vec![2, 3, 9]);
        ss.metadata = vec![1, 2, 3];
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entry(norm(1)).unwrap();
            w.append_entry(LogEntry::stopsign(ss.clone())).unwrap();
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_entries(1, 2), vec![LogEntry::stopsign(ss)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_cleanly() {
        let path = tmp("torn");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=5).map(norm).collect()).unwrap();
            w.set_decided_idx(5).unwrap();
        }
        // Simulate a crash mid-write: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        // The decided record was torn; the appends survive.
        assert_eq!(w.get_log_len(), 5);
        assert_eq!(w.get_decided_idx(), 0, "torn record must not apply");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_group_commit_record_is_atomic() {
        let path = tmp("torn-group");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=3).map(norm).collect()).unwrap();
            w.sync().unwrap();
            // These five appends coalesce into ONE framed record at the
            // group-commit point; tearing it must lose all five or none.
            w.append_entries((4..=8).map(norm).collect()).unwrap();
            w.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Chop into the middle of the second (coalesced) record: past its
        // trailing durable-point marker (MARKER_LEN bytes) and 10 more.
        std::fs::write(&path, &bytes[..bytes.len() - MARKER_LEN - 10]).unwrap();
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(
            w.get_log_len(),
            3,
            "a torn group-commit record must be discarded whole"
        );
        assert_eq!(w.get_entries(0, 3), (1..=3).map(norm).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_unsynced_tail_record_truncates_silently() {
        let path = tmp("corrupt");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            // Flush between appends so each lands in its own record;
            // group commit would otherwise coalesce them into one. The
            // second record is written by the Drop flush without a sync,
            // so it sits *after* the durable point.
            w.append_entry(norm(1)).unwrap();
            w.sync().unwrap();
            w.append_entry(norm(2)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second (unsynced) record.
        let mid = bytes.len() - 6;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 1, "replay stops at the corrupt record");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_before_the_durable_point_is_loud() {
        let path = tmp("corrupt-durable");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entry(norm(1)).unwrap();
            w.sync().unwrap();
            w.append_entry(norm(2)).unwrap();
            w.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Flip a byte in the FIRST record: it lies before the durable
        // point asserted by the later markers, so this is acked-durable
        // state going bad — silent truncation would un-ack entry 1.
        for flip in 0..9 {
            let mut bytes = full.clone();
            bytes[flip] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            match WalStorage::<u64>::open(&path) {
                Err(WalError::Corrupt { offset }) => {
                    assert_eq!(offset, 0, "the corrupt record starts at 0")
                }
                other => panic!(
                    "flip at {flip}: expected WalError::Corrupt, got {:?}",
                    other.map(|w| w.get_log_len())
                ),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_compacts_the_file_and_preserves_state() {
        let path = tmp("ckpt");
        let size_before;
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            for v in 0..200u64 {
                w.append_entry(norm(v)).unwrap();
                w.set_decided_idx(v + 1).unwrap();
            }
            w.trim(100).unwrap();
            // Push buffered records to the file before measuring its size.
            w.sync().unwrap();
            size_before = std::fs::metadata(&path).unwrap().len();
            w.checkpoint().unwrap();
        }
        let size_after = std::fs::metadata(&path).unwrap().len();
        assert!(
            size_after < size_before / 2,
            "checkpoint must shrink the file: {size_before} -> {size_after}"
        );
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 200);
        assert_eq!(w.get_compacted_idx(), 100);
        assert_eq!(w.get_decided_idx(), 200);
        assert_eq!(w.get_entries(100, 102), vec![norm(100), norm(101)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn automatic_checkpoint_triggers() {
        let path = tmp("auto");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.checkpoint_every = 50;
            for v in 0..500u64 {
                w.append_entry(norm(v)).unwrap();
            }
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 500);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffered_appends_survive_a_checkpoint_then_reopen() {
        // Regression: `checkpoint()` must drain the group-commit append
        // buffer into the checkpoint record. Appends here are buffered but
        // never explicitly flushed; the process "crashes" right after the
        // checkpoint (mem::forget skips the Drop flush), so the checkpoint
        // itself is the only thing that can have made them durable.
        let path = tmp("ckpt-drain");
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=20).map(norm).collect()).unwrap();
            w.set_decided_idx(20).unwrap();
            w.checkpoint().unwrap();
            std::mem::forget(w); // crash: no Drop, no flush
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 20, "buffered appends lost by checkpoint");
        assert_eq!(w.get_decided_idx(), 20);
        assert_eq!(w.get_entries(0, 20), (1..=20).map(norm).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_record_survives_reopen() {
        let path = tmp("snap");
        let snap: SnapshotData = (0u8..100).collect::<Vec<u8>>().into();
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=10).map(norm).collect()).unwrap();
            w.set_decided_idx(10).unwrap();
            w.set_snapshot(6, snap.clone()).unwrap();
            w.sync().unwrap();
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_compacted_idx(), 6);
        assert_eq!(w.get_log_len(), 10);
        let r = w.get_snapshot().expect("snapshot replayed");
        assert_eq!(r.idx, 6);
        assert_eq!(r.data, snap);
        assert_eq!(w.get_entries(6, 8), vec![norm(7), norm(8)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn installed_snapshot_survives_reopen() {
        let path = tmp("snap-install");
        let snap: SnapshotData = vec![7u8; 64].into();
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=5).map(norm).collect()).unwrap();
            w.install_snapshot(1000, snap.clone()).unwrap();
            w.append_entry(norm(42)).unwrap(); // the tail continues above it
            w.sync().unwrap();
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_compacted_idx(), 1000);
        assert_eq!(w.get_decided_idx(), 1000);
        assert_eq!(w.get_log_len(), 1001);
        assert_eq!(w.get_snapshot().expect("installed").data, snap);
        assert_eq!(w.get_entries(1000, 1001), vec![norm(42)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_embeds_the_snapshot() {
        let path = tmp("snap-ckpt");
        let snap: SnapshotData = vec![3u8; 32].into();
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=10).map(norm).collect()).unwrap();
            w.set_decided_idx(10).unwrap();
            w.set_snapshot(8, snap.clone()).unwrap();
            w.checkpoint().unwrap();
            std::mem::forget(w); // only the checkpoint record exists
        }
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        let r = w.get_snapshot().expect("snapshot embedded in checkpoint");
        assert_eq!(r.idx, 8);
        assert_eq!(r.data, snap);
        assert_eq!(w.get_compacted_idx(), 8);
        assert_eq!(w.get_suffix(8), vec![norm(9), norm(10)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_snapshot_record_replays_to_pre_snapshot_state() {
        // Property: truncating the file anywhere inside the snapshot
        // record must replay to exactly the pre-snapshot state — never a
        // corrupt or partially-applied snapshot. We cut at every offset
        // within the record (its payload carries a recognizable pattern).
        let path = tmp("snap-torn");
        let snap: SnapshotData = (0u8..=255).collect::<Vec<u8>>().into();
        let pre_len;
        {
            let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            w.append_entries((1..=10).map(norm).collect()).unwrap();
            w.set_decided_idx(10).unwrap();
            w.sync().unwrap();
            pre_len = std::fs::metadata(&path).unwrap().len();
            w.set_snapshot(7, snap).unwrap();
            w.sync().unwrap();
            std::mem::forget(w);
        }
        let full = std::fs::read(&path).unwrap();
        assert!(full.len() > pre_len as usize, "snapshot record appended");
        // The file ends with the snapshot record followed by its
        // durable-point marker; cuts inside the record itself tear it.
        let snap_end = full.len() - MARKER_LEN;
        for cut in pre_len as usize..snap_end {
            std::fs::write(&path, &full[..cut]).unwrap();
            let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            assert_eq!(
                w.get_snapshot(),
                None,
                "torn snapshot (cut at {cut}) must not apply"
            );
            assert_eq!(w.get_compacted_idx(), 0, "torn snapshot must not trim");
            assert_eq!(w.get_log_len(), 10);
            assert_eq!(w.get_decided_idx(), 10);
            assert_eq!(w.get_entries(0, 10), (1..=10).map(norm).collect::<Vec<_>>());
        }
        // A cut inside (or right before) the trailing marker leaves the
        // record complete: it applies, and only the marker is torn away.
        for cut in snap_end..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
            assert_eq!(
                w.get_snapshot().expect("complete record applies").idx,
                7,
                "cut at {cut}"
            );
            assert_eq!(w.get_compacted_idx(), 7);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_fsync_poisons_until_recover() {
        let path = tmp("fsyncgate");
        let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        w.append_entry(norm(1)).unwrap();
        w.sync().unwrap();
        w.arm_fault(WalFault::SyncFail);
        w.append_entry(norm(2)).unwrap();
        let err = Storage::flush(&mut w).unwrap_err();
        assert_eq!(err.op, StorageOp::Flush);
        assert!(w.is_poisoned());
        // fsyncgate: no retry-and-ack. Every mutation now fails.
        assert!(w.append_entry(norm(3)).is_err());
        assert!(Storage::flush(&mut w).is_err());
        assert!(w.set_decided_idx(1).is_err());
        // recover() reloads from disk. Entry 2's bytes were written (only
        // the fsync failed) so replay may keep it — what matters is that
        // entry 1 (synced, ackable) survives and the WAL works again.
        w.recover().unwrap();
        assert!(!w.is_poisoned());
        assert!(w.get_log_len() >= 1);
        assert_eq!(w.get_entries(0, 1), vec![norm(1)]);
        w.append_entry(norm(9)).unwrap();
        Storage::flush(&mut w).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_write_leaves_a_recoverable_torn_tail() {
        let path = tmp("short-write");
        let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        w.append_entries((1..=4).map(norm).collect()).unwrap();
        w.sync().unwrap();
        w.arm_fault(WalFault::ShortWrite);
        w.append_entries((5..=8).map(norm).collect()).unwrap();
        assert!(Storage::flush(&mut w).is_err());
        assert!(w.is_poisoned());
        // Half a record landed on disk. Recovery must treat it as a torn
        // tail (it sits after the durable point) and truncate it.
        w.recover().unwrap();
        assert_eq!(w.get_log_len(), 4, "unsynced half-written batch is gone");
        assert_eq!(w.get_entries(0, 4), (1..=4).map(norm).collect::<Vec<_>>());
        // The truncation is physical: new appends replay cleanly.
        w.append_entry(norm(99)).unwrap();
        Storage::flush(&mut w).unwrap();
        drop(w);
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_suffix(4), vec![norm(99)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_mid_checkpoint_keeps_the_old_generation() {
        let path = tmp("ckpt-enospc");
        let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        w.append_entries((1..=10).map(norm).collect()).unwrap();
        w.set_decided_idx(10).unwrap();
        w.sync().unwrap();
        w.arm_fault(WalFault::CheckpointNoSpace);
        assert!(w.checkpoint().is_err());
        assert!(w.is_poisoned());
        // The temp file holds half a checkpoint; the WAL proper is
        // untouched. There is no window where neither file is valid.
        w.recover().unwrap();
        assert_eq!(w.get_log_len(), 10);
        assert_eq!(w.get_decided_idx(), 10);
        // And a later checkpoint overwrites the stale temp file.
        w.checkpoint().unwrap();
        drop(w);
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 10);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(path.with_extension("wal.tmp"));
    }

    #[test]
    fn crash_before_checkpoint_rename_keeps_the_old_generation() {
        let path = tmp("ckpt-crash");
        let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        w.append_entries((1..=10).map(norm).collect()).unwrap();
        w.set_decided_idx(10).unwrap();
        w.sync().unwrap();
        w.arm_fault(WalFault::CheckpointCrashBeforeRename);
        assert!(w.checkpoint().is_err());
        std::mem::forget(w); // the process dies here
        let tmp_path = path.with_extension("wal.tmp");
        assert!(tmp_path.exists(), "complete temp file left behind");
        // Reopen: the old generation is the WAL; the stale (complete!)
        // temp file is ignored, not half-adopted.
        let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        assert_eq!(w.get_log_len(), 10);
        assert_eq!(w.get_decided_idx(), 10);
        assert_eq!(w.get_entries(0, 10), (1..=10).map(norm).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(tmp_path);
    }

    #[test]
    fn nospace_flush_fails_before_any_byte_lands() {
        let path = tmp("enospc-flush");
        let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
        w.append_entry(norm(1)).unwrap();
        w.sync().unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        w.arm_fault(WalFault::NoSpace);
        w.append_entry(norm(2)).unwrap();
        let err = Storage::flush(&mut w).unwrap_err();
        assert_eq!(err.kind, ErrorKind::OutOfMemory);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len_before,
            "ENOSPC write must not grow the file"
        );
        w.recover().unwrap();
        assert_eq!(w.get_log_len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn behaves_like_memory_storage() {
        use crate::storage::MemoryStorage;
        let path = tmp("model");
        let mut wal: WalStorage<u64> = WalStorage::open(&path).unwrap();
        let mut mem: MemoryStorage<u64> = MemoryStorage::new();
        for v in 0..50u64 {
            wal.append_entry(norm(v)).unwrap();
            mem.append_entry(norm(v)).unwrap();
        }
        wal.append_on_prefix(30, vec![norm(99)]).unwrap();
        mem.append_on_prefix(30, vec![norm(99)]).unwrap();
        wal.set_decided_idx(20).unwrap();
        mem.set_decided_idx(20).unwrap();
        wal.trim(10).unwrap();
        mem.trim(10).unwrap();
        assert_eq!(wal.get_log_len(), mem.get_log_len());
        assert_eq!(wal.get_entries(10, 31), mem.get_entries(10, 31));
        assert_eq!(wal.get_suffix(25), mem.get_suffix(25));
        std::fs::remove_file(&path).unwrap();
    }
}
