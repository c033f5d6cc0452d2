//! The wire codec: byte encodings for every protocol message.
//!
//! The simulator moves typed messages by value; real sockets move bytes.
//! This module is the translation layer: a self-describing, versioned
//! encoding for the full message alphabet — Sequence Paxos ([`PaxosMsg`]),
//! BLE ([`BleMsg`]), the service layer ([`ServiceMsg`], including the
//! reconfiguration/migration and snapshot-transfer messages) — generic over
//! any entry type that implements [`WalEncode`], the same byte-encoding
//! trait the WAL uses for durability.
//!
//! Three disciplines carry over from the rest of the system:
//!
//! * **Checksums like the WAL.** Transports frame these payloads with the
//!   same FNV-1a checksum the WAL uses for torn-write detection
//!   ([`checksum`]); a frame that fails its checksum is never parsed.
//! * **Zero-copy fan-out survives serialization.** The replication hot
//!   path shares one [`EntryBatch`] among all followers by refcount. A
//!   naive codec would re-encode that batch once per follower;
//!   [`BatchCache`] keys encodings by the batch's allocation identity so a
//!   fan-out of N messages encodes the entries exactly once.
//! * **Stable discriminants.** Enum variants encode as append-only
//!   discriminant bytes (see [`PaxosMsg`] docs for the forward-compat
//!   rules). Decoders return typed [`WireError`]s — never panic — so a
//!   transport can drop-and-count unknown frames from newer peers.
//!
//! Everything is little-endian. Variable-length fields are `u32`
//! length-prefixed. The codec version for this whole schema is
//! [`WIRE_VERSION`]; transports put it in their frame header.

use crate::ballot::Ballot;
use crate::messages::{
    AcceptDecide, AcceptSync, Accepted, BleMessage, BleMsg, Decide, Message, PaxosMsg, Prepare,
    Promise, ReadCheck, ReadCheckAck, ReadIndexReq, ReadIndexResp, SnapshotAck, SnapshotChunk,
    SnapshotMeta,
};
use crate::omni::OmniMessage;
use crate::service::ServiceMsg;
use crate::snapshot::SnapshotData;
use crate::storage::EntryBatch;
use crate::util::{LogEntry, StopSign};
use crate::wal::WalEncode;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Version byte of this codec schema. Bump when an encoding changes
/// incompatibly; decoders reject other versions with a typed error.
pub const WIRE_VERSION: u8 = 1;

/// A typed decode failure. Decoding malformed bytes must produce one of
/// these — never a panic — so transports can drop bad frames and keep the
/// session alive (see the forward-compat rules on
/// [`PaxosMsg`](crate::messages::PaxosMsg)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before `what` could be read.
    Truncated { what: &'static str },
    /// An enum discriminant byte no decoder in this build understands
    /// (typically a frame from a newer peer). Transports must drop the
    /// frame and count it, not disconnect.
    UnknownDiscriminant { what: &'static str, value: u8 },
    /// A declared length exceeds the bytes actually present.
    BadLength { what: &'static str, declared: u64 },
    /// A field's bytes are structurally present but invalid (e.g. a string
    /// that is not UTF-8).
    InvalidPayload { what: &'static str },
    /// The payload announced a codec version this build does not speak.
    BadVersion { got: u8 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while reading {what}"),
            WireError::UnknownDiscriminant { what, value } => {
                write!(f, "unknown discriminant {value} for {what}")
            }
            WireError::BadLength { what, declared } => {
                write!(f, "length {declared} of {what} exceeds buffer")
            }
            WireError::InvalidPayload { what } => write!(f, "invalid payload for {what}"),
            WireError::BadVersion { got } => {
                write!(f, "wire version {got} unsupported (speak {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a over `bytes` — the WAL's torn-write checksum, exported so
/// transports frame wire payloads under the same discipline.
pub fn checksum(bytes: &[u8]) -> u32 {
    checksum_parts(&[bytes])
}

/// [`checksum`] over the concatenation of `parts`, without materializing
/// it (transports hash a frame header and its payload separately).
pub fn checksum_parts(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for part in parts {
        for &b in *part {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Primitives.

/// Append a `u32` length-prefixed byte run.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Append a `u32` length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Append a `u32` length-prefixed value encoded in place: reserve the
/// length, let `body` write the value straight into `buf`, then fill the
/// length in. No scratch buffer, no copy.
pub fn put_len_prefixed(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

pub(crate) fn put_ballot(buf: &mut Vec<u8>, b: Ballot) {
    buf.extend_from_slice(&b.n.to_le_bytes());
    buf.extend_from_slice(&b.priority.to_le_bytes());
    buf.extend_from_slice(&b.pid.to_le_bytes());
}

/// Bounded cursor over a decode buffer. Every read is checked and returns
/// a typed [`WireError`] on shortfall; nothing here can panic on malformed
/// input.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `bool` encoded as one byte (0 or 1).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidPayload { what }),
        }
    }

    /// Read a `u32` length-prefixed byte run.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.u32(what)? as usize;
        if self.remaining() < len {
            return Err(WireError::BadLength {
                what,
                declared: len as u64,
            });
        }
        self.take(len, what)
    }

    /// Read a `u32` length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let bytes = self.bytes(what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidPayload { what })
    }

    /// Read a ballot (24 bytes).
    pub fn ballot(&mut self, what: &'static str) -> Result<Ballot, WireError> {
        Ok(Ballot::new(
            self.u64(what)?,
            self.u64(what)?,
            self.u64(what)?,
        ))
    }

    /// Read a `u32` element count, sanity-bounded by the bytes actually
    /// remaining so a hostile count cannot drive a huge pre-allocation.
    /// `min_elem` is the smallest possible encoding of one element.
    pub fn count(&mut self, min_elem: usize, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(WireError::BadLength {
                what,
                declared: n as u64,
            });
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Shared-batch encode cache.

/// Memoizes the byte encodings of refcounted batches within one send
/// cycle, so the leader's fan-out of a shared [`EntryBatch`] (or an
/// `Arc<[T]>` migration segment) to N followers serializes the entries
/// once and reuses the bytes N-1 times — the zero-copy hot path's
/// refcount sharing, carried through serialization.
///
/// A miss encodes straight into the caller's buffer and copies the bytes
/// into an arena reused from cycle to cycle: a steady fan-out allocates
/// nothing.
///
/// Entries are keyed by the batch's allocation identity (pointer, length).
/// That identity is only meaningful while the batch is alive, so the
/// contract is cycle-scoped: callers must [`BatchCache::reset`] once the
/// messages encoded in the current cycle have been dropped (transports do
/// this at the top of each poll/send cycle). Within a cycle the cached
/// batches are kept alive by the very messages being encoded.
#[derive(Debug, Default)]
pub struct BatchCache {
    blocks: HashMap<(usize, usize), Range<usize>>,
    arena: Vec<u8>,
    hits: u64,
    misses: u64,
}

/// Cap on memoized blocks per cycle; a fan-out cycle touches a handful of
/// distinct batches, so overflowing this means the contract is being
/// ignored — clear rather than grow without bound.
const BATCH_CACHE_CAP: usize = 128;

/// Arena capacity kept across cycles; a cycle that encoded more (a large
/// catch-up) gives its memory back at the next reset.
const BATCH_ARENA_KEEP: usize = 1 << 20;

impl BatchCache {
    /// A fresh cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all memoized blocks. Call between send cycles (batch
    /// allocation identities are only stable within one).
    pub fn reset(&mut self) {
        self.blocks.clear();
        self.arena.clear();
        self.arena.shrink_to(BATCH_ARENA_KEEP);
    }

    /// (hits, misses) since construction — observability for the
    /// fan-out-encodes-once property.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn memoized(
        &mut self,
        buf: &mut Vec<u8>,
        key: (usize, usize),
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        if let Some(r) = self.blocks.get(&key) {
            self.hits += 1;
            buf.extend_from_slice(&self.arena[r.clone()]);
            return;
        }
        self.misses += 1;
        if self.blocks.len() >= BATCH_CACHE_CAP {
            self.reset();
        }
        let start = buf.len();
        encode(buf);
        let at = self.arena.len();
        self.arena.extend_from_slice(&buf[start..]);
        self.blocks.insert(key, at..self.arena.len());
    }

    /// Append a shared log batch: `[count u32][LogEntry...]`.
    pub fn log_batch<T: WalEncode>(&mut self, buf: &mut Vec<u8>, batch: &EntryBatch<T>) {
        let key = (Arc::as_ptr(batch) as *const u8 as usize, batch.len());
        self.memoized(buf, key, |buf| {
            buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for e in batch.iter() {
                put_log_entry(buf, e);
            }
        })
    }

    /// Append a shared migration segment: `[count u32][[len u32][T]...]`.
    pub fn entry_slice<T: WalEncode>(&mut self, buf: &mut Vec<u8>, entries: &Arc<[T]>) {
        let key = (Arc::as_ptr(entries) as *const u8 as usize, entries.len());
        self.memoized(buf, key, |buf| {
            buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in entries.iter() {
                put_len_prefixed(buf, |buf| e.encode(buf));
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Log entries.

/// Append one log entry: `[kind u8][len u32][payload]`.
pub fn put_log_entry<T: WalEncode>(buf: &mut Vec<u8>, e: &LogEntry<T>) {
    buf.push(e.is_stopsign() as u8);
    put_len_prefixed(buf, |buf| match e {
        LogEntry::Normal(t) => t.encode(buf),
        LogEntry::StopSign(ss) => put_stop_sign(buf, ss),
    });
}

/// Read one log entry written by [`put_log_entry`].
pub fn get_log_entry<T: WalEncode>(r: &mut Reader) -> Result<LogEntry<T>, WireError> {
    let kind = r.u8("LogEntry kind")?;
    let inner = r.bytes("LogEntry payload")?;
    match kind {
        0 => T::decode(inner)
            .map(LogEntry::Normal)
            .ok_or(WireError::InvalidPayload { what: "LogEntry" }),
        1 => {
            let mut ir = Reader::new(inner);
            let ss = get_stop_sign(&mut ir)?;
            Ok(LogEntry::stopsign(ss))
        }
        v => Err(WireError::UnknownDiscriminant {
            what: "LogEntry",
            value: v,
        }),
    }
}

fn put_stop_sign(buf: &mut Vec<u8>, ss: &StopSign) {
    buf.extend_from_slice(&ss.config_id.to_le_bytes());
    buf.extend_from_slice(&(ss.next_nodes.len() as u32).to_le_bytes());
    for &p in &ss.next_nodes {
        buf.extend_from_slice(&p.to_le_bytes());
    }
    put_bytes(buf, &ss.metadata);
}

fn get_stop_sign(r: &mut Reader) -> Result<StopSign, WireError> {
    let config_id = r.u32("StopSign config_id")?;
    let n = r.count(8, "StopSign nodes")?;
    let mut next_nodes = Vec::with_capacity(n);
    for _ in 0..n {
        next_nodes.push(r.u64("StopSign node")?);
    }
    let metadata = r.bytes("StopSign metadata")?.to_vec();
    let mut ss = StopSign::new(config_id, next_nodes);
    ss.metadata = metadata;
    Ok(ss)
}

fn get_entries<T: WalEncode>(r: &mut Reader) -> Result<Vec<LogEntry<T>>, WireError> {
    // One entry is at least kind + len = 5 bytes.
    let n = r.count(5, "entries")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_log_entry(r)?);
    }
    Ok(out)
}

fn put_snapshot_data(buf: &mut Vec<u8>, d: &SnapshotData) {
    put_bytes(buf, d);
}

fn get_snapshot_data(r: &mut Reader) -> Result<SnapshotData, WireError> {
    Ok(r.bytes("snapshot data")?.into())
}

// ---------------------------------------------------------------------------
// The `Wire` trait and message impls.

/// Byte encoding for an addressed protocol message. Encoding threads a
/// [`BatchCache`] so refcount-shared payloads serialize once per fan-out.
pub trait Wire: Sized {
    /// Append this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>, cache: &mut BatchCache);
    /// Decode one message. Must consume exactly the bytes written by
    /// `encode` and never panic on malformed input.
    fn decode(r: &mut Reader) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh buffer with a throwaway cache.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf, &mut BatchCache::new());
        buf
    }

    /// Convenience: decode a full buffer, requiring it to be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::InvalidPayload {
                what: "trailing bytes",
            });
        }
        Ok(v)
    }
}

impl<T: WalEncode> Wire for PaxosMsg<T> {
    fn encode(&self, buf: &mut Vec<u8>, cache: &mut BatchCache) {
        buf.push(self.discriminant());
        match self {
            PaxosMsg::PrepareReq => {}
            PaxosMsg::Prepare(p) => {
                put_ballot(buf, p.n);
                buf.extend_from_slice(&p.decided_idx.to_le_bytes());
                put_ballot(buf, p.accepted_rnd);
                buf.extend_from_slice(&p.log_idx.to_le_bytes());
            }
            PaxosMsg::Promise(p) => {
                put_ballot(buf, p.n);
                put_ballot(buf, p.accepted_rnd);
                buf.extend_from_slice(&p.log_idx.to_le_bytes());
                buf.extend_from_slice(&p.decided_idx.to_le_bytes());
                buf.extend_from_slice(&p.suffix_start.to_le_bytes());
                buf.extend_from_slice(&(p.suffix.len() as u32).to_le_bytes());
                for e in &p.suffix {
                    put_log_entry(buf, e);
                }
                match &p.snapshot {
                    Some((idx, data)) => {
                        buf.push(1);
                        buf.extend_from_slice(&idx.to_le_bytes());
                        put_snapshot_data(buf, data);
                    }
                    None => buf.push(0),
                }
            }
            PaxosMsg::AcceptSync(a) => {
                put_ballot(buf, a.n);
                buf.extend_from_slice(&a.sync_idx.to_le_bytes());
                buf.extend_from_slice(&a.decided_idx.to_le_bytes());
                cache.log_batch(buf, &a.suffix);
            }
            PaxosMsg::AcceptDecide(a) => {
                put_ballot(buf, a.n);
                buf.extend_from_slice(&a.start_idx.to_le_bytes());
                buf.extend_from_slice(&a.decided_idx.to_le_bytes());
                cache.log_batch(buf, &a.entries);
            }
            PaxosMsg::Accepted(a) => {
                put_ballot(buf, a.n);
                buf.extend_from_slice(&a.log_idx.to_le_bytes());
            }
            PaxosMsg::Decide(d) => {
                put_ballot(buf, d.n);
                buf.extend_from_slice(&d.decided_idx.to_le_bytes());
            }
            PaxosMsg::SnapshotMeta(m) => {
                put_ballot(buf, m.n);
                buf.extend_from_slice(&m.snapshot_idx.to_le_bytes());
                buf.extend_from_slice(&m.total_bytes.to_le_bytes());
            }
            PaxosMsg::SnapshotChunk(c) => {
                put_ballot(buf, c.n);
                buf.extend_from_slice(&c.snapshot_idx.to_le_bytes());
                buf.extend_from_slice(&c.offset.to_le_bytes());
                buf.extend_from_slice(&c.total_bytes.to_le_bytes());
                put_snapshot_data(buf, &c.data);
            }
            PaxosMsg::SnapshotAck(a) => {
                put_ballot(buf, a.n);
                buf.extend_from_slice(&a.snapshot_idx.to_le_bytes());
                buf.extend_from_slice(&a.received.to_le_bytes());
            }
            PaxosMsg::ProposalForward(es) => {
                buf.extend_from_slice(&(es.len() as u32).to_le_bytes());
                for e in es {
                    put_log_entry(buf, e);
                }
            }
            PaxosMsg::ReadIndexReq(r) => {
                buf.extend_from_slice(&r.token.to_le_bytes());
            }
            PaxosMsg::ReadIndexResp(r) => {
                buf.extend_from_slice(&r.token.to_le_bytes());
                buf.extend_from_slice(&r.idx.to_le_bytes());
            }
            PaxosMsg::ReadCheck(c) => {
                put_ballot(buf, c.n);
                buf.extend_from_slice(&c.seq.to_le_bytes());
            }
            PaxosMsg::ReadCheckAck(a) => {
                put_ballot(buf, a.n);
                buf.extend_from_slice(&a.seq.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let disc = r.u8("PaxosMsg discriminant")?;
        Ok(match disc {
            0 => PaxosMsg::PrepareReq,
            1 => PaxosMsg::Prepare(Prepare {
                n: r.ballot("Prepare.n")?,
                decided_idx: r.u64("Prepare.decided_idx")?,
                accepted_rnd: r.ballot("Prepare.accepted_rnd")?,
                log_idx: r.u64("Prepare.log_idx")?,
            }),
            2 => {
                let n = r.ballot("Promise.n")?;
                let accepted_rnd = r.ballot("Promise.accepted_rnd")?;
                let log_idx = r.u64("Promise.log_idx")?;
                let decided_idx = r.u64("Promise.decided_idx")?;
                let suffix_start = r.u64("Promise.suffix_start")?;
                let suffix = get_entries(r)?;
                let snapshot = match r.u8("Promise.snapshot flag")? {
                    0 => None,
                    1 => {
                        let idx = r.u64("Promise.snapshot idx")?;
                        Some((idx, get_snapshot_data(r)?))
                    }
                    v => {
                        return Err(WireError::UnknownDiscriminant {
                            what: "Promise.snapshot flag",
                            value: v,
                        })
                    }
                };
                PaxosMsg::Promise(Promise {
                    n,
                    accepted_rnd,
                    log_idx,
                    decided_idx,
                    suffix_start,
                    suffix,
                    snapshot,
                })
            }
            3 => PaxosMsg::AcceptSync(AcceptSync {
                n: r.ballot("AcceptSync.n")?,
                sync_idx: r.u64("AcceptSync.sync_idx")?,
                decided_idx: r.u64("AcceptSync.decided_idx")?,
                suffix: get_entries(r)?.into(),
            }),
            4 => PaxosMsg::AcceptDecide(AcceptDecide {
                n: r.ballot("AcceptDecide.n")?,
                start_idx: r.u64("AcceptDecide.start_idx")?,
                decided_idx: r.u64("AcceptDecide.decided_idx")?,
                entries: get_entries(r)?.into(),
            }),
            5 => PaxosMsg::Accepted(Accepted {
                n: r.ballot("Accepted.n")?,
                log_idx: r.u64("Accepted.log_idx")?,
            }),
            6 => PaxosMsg::Decide(Decide {
                n: r.ballot("Decide.n")?,
                decided_idx: r.u64("Decide.decided_idx")?,
            }),
            7 => PaxosMsg::SnapshotMeta(SnapshotMeta {
                n: r.ballot("SnapshotMeta.n")?,
                snapshot_idx: r.u64("SnapshotMeta.snapshot_idx")?,
                total_bytes: r.u64("SnapshotMeta.total_bytes")?,
            }),
            8 => PaxosMsg::SnapshotChunk(SnapshotChunk {
                n: r.ballot("SnapshotChunk.n")?,
                snapshot_idx: r.u64("SnapshotChunk.snapshot_idx")?,
                offset: r.u64("SnapshotChunk.offset")?,
                total_bytes: r.u64("SnapshotChunk.total_bytes")?,
                data: get_snapshot_data(r)?,
            }),
            9 => PaxosMsg::SnapshotAck(SnapshotAck {
                n: r.ballot("SnapshotAck.n")?,
                snapshot_idx: r.u64("SnapshotAck.snapshot_idx")?,
                received: r.u64("SnapshotAck.received")?,
            }),
            10 => PaxosMsg::ProposalForward(get_entries(r)?),
            11 => PaxosMsg::ReadIndexReq(ReadIndexReq {
                token: r.u64("ReadIndexReq.token")?,
            }),
            12 => PaxosMsg::ReadIndexResp(ReadIndexResp {
                token: r.u64("ReadIndexResp.token")?,
                idx: r.u64("ReadIndexResp.idx")?,
            }),
            13 => PaxosMsg::ReadCheck(ReadCheck {
                n: r.ballot("ReadCheck.n")?,
                seq: r.u64("ReadCheck.seq")?,
            }),
            14 => PaxosMsg::ReadCheckAck(ReadCheckAck {
                n: r.ballot("ReadCheckAck.n")?,
                seq: r.u64("ReadCheckAck.seq")?,
            }),
            v => {
                return Err(WireError::UnknownDiscriminant {
                    what: "PaxosMsg",
                    value: v,
                })
            }
        })
    }
}

impl<T: WalEncode> Wire for Message<T> {
    fn encode(&self, buf: &mut Vec<u8>, cache: &mut BatchCache) {
        buf.extend_from_slice(&self.from.to_le_bytes());
        buf.extend_from_slice(&self.to.to_le_bytes());
        self.msg.encode(buf, cache);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Message {
            from: r.u64("Message.from")?,
            to: r.u64("Message.to")?,
            msg: PaxosMsg::decode(r)?,
        })
    }
}

impl Wire for BleMsg {
    fn encode(&self, buf: &mut Vec<u8>, _cache: &mut BatchCache) {
        buf.push(self.discriminant());
        match self {
            BleMsg::HeartbeatRequest { round } => {
                buf.extend_from_slice(&round.to_le_bytes());
            }
            BleMsg::HeartbeatReply {
                round,
                ballot,
                quorum_connected,
            } => {
                buf.extend_from_slice(&round.to_le_bytes());
                put_ballot(buf, *ballot);
                buf.push(*quorum_connected as u8);
            }
            BleMsg::HeartbeatReplyLease {
                round,
                ballot,
                quorum_connected,
                lease,
            } => {
                buf.extend_from_slice(&round.to_le_bytes());
                put_ballot(buf, *ballot);
                buf.push(*quorum_connected as u8);
                buf.push(*lease as u8);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let disc = r.u8("BleMsg discriminant")?;
        Ok(match disc {
            0 => BleMsg::HeartbeatRequest {
                round: r.u64("HeartbeatRequest.round")?,
            },
            1 => BleMsg::HeartbeatReply {
                round: r.u64("HeartbeatReply.round")?,
                ballot: r.ballot("HeartbeatReply.ballot")?,
                quorum_connected: r.bool("HeartbeatReply.quorum_connected")?,
            },
            2 => BleMsg::HeartbeatReplyLease {
                round: r.u64("HeartbeatReplyLease.round")?,
                ballot: r.ballot("HeartbeatReplyLease.ballot")?,
                quorum_connected: r.bool("HeartbeatReplyLease.quorum_connected")?,
                lease: r.bool("HeartbeatReplyLease.lease")?,
            },
            v => {
                return Err(WireError::UnknownDiscriminant {
                    what: "BleMsg",
                    value: v,
                })
            }
        })
    }
}

impl Wire for BleMessage {
    fn encode(&self, buf: &mut Vec<u8>, cache: &mut BatchCache) {
        buf.extend_from_slice(&self.from.to_le_bytes());
        buf.extend_from_slice(&self.to.to_le_bytes());
        self.msg.encode(buf, cache);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(BleMessage {
            from: r.u64("BleMessage.from")?,
            to: r.u64("BleMessage.to")?,
            msg: BleMsg::decode(r)?,
        })
    }
}

impl<T: WalEncode> Wire for OmniMessage<T> {
    fn encode(&self, buf: &mut Vec<u8>, cache: &mut BatchCache) {
        buf.push(self.discriminant());
        match self {
            OmniMessage::Paxos(m) => m.encode(buf, cache),
            OmniMessage::Ble(m) => m.encode(buf, cache),
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let disc = r.u8("OmniMessage discriminant")?;
        Ok(match disc {
            0 => OmniMessage::Paxos(Message::decode(r)?),
            1 => OmniMessage::Ble(BleMessage::decode(r)?),
            v => {
                return Err(WireError::UnknownDiscriminant {
                    what: "OmniMessage",
                    value: v,
                })
            }
        })
    }
}

impl<T: WalEncode> Wire for ServiceMsg<T> {
    fn encode(&self, buf: &mut Vec<u8>, cache: &mut BatchCache) {
        buf.push(self.discriminant());
        match self {
            ServiceMsg::Omni { config_id, msg } => {
                buf.extend_from_slice(&config_id.to_le_bytes());
                msg.encode(buf, cache);
            }
            ServiceMsg::StartConfig {
                ss,
                old_nodes,
                log_len,
                snap_idx,
            } => {
                put_stop_sign(buf, ss);
                buf.extend_from_slice(&(old_nodes.len() as u32).to_le_bytes());
                for &p in old_nodes {
                    buf.extend_from_slice(&p.to_le_bytes());
                }
                buf.extend_from_slice(&log_len.to_le_bytes());
                buf.extend_from_slice(&snap_idx.to_le_bytes());
            }
            ServiceMsg::ConfigStarted { config_id } => {
                buf.extend_from_slice(&config_id.to_le_bytes());
            }
            ServiceMsg::SegmentReq { from, to } => {
                buf.extend_from_slice(&from.to_le_bytes());
                buf.extend_from_slice(&to.to_le_bytes());
            }
            ServiceMsg::SegmentResp {
                start,
                entries,
                served_to,
                requested_to,
            } => {
                buf.extend_from_slice(&start.to_le_bytes());
                cache.entry_slice(buf, entries);
                buf.extend_from_slice(&served_to.to_le_bytes());
                buf.extend_from_slice(&requested_to.to_le_bytes());
            }
            ServiceMsg::SnapReq { offset } => {
                buf.extend_from_slice(&offset.to_le_bytes());
            }
            ServiceMsg::SnapResp {
                idx,
                offset,
                chunk,
                total,
            } => {
                buf.extend_from_slice(&idx.to_le_bytes());
                buf.extend_from_slice(&offset.to_le_bytes());
                put_bytes(buf, chunk);
                buf.extend_from_slice(&total.to_le_bytes());
            }
            ServiceMsg::Group { group, msg } => {
                buf.extend_from_slice(&group.to_le_bytes());
                msg.encode(buf, cache);
            }
            ServiceMsg::GroupBle { beats } => {
                buf.extend_from_slice(&(beats.len() as u32).to_le_bytes());
                for (group, config_id, ble) in beats {
                    buf.extend_from_slice(&group.to_le_bytes());
                    buf.extend_from_slice(&config_id.to_le_bytes());
                    ble.encode(buf, cache);
                }
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let disc = r.u8("ServiceMsg discriminant")?;
        Ok(match disc {
            0 => ServiceMsg::Omni {
                config_id: r.u32("ServiceMsg.config_id")?,
                msg: OmniMessage::decode(r)?,
            },
            1 => {
                let ss = get_stop_sign(r)?;
                let n = r.count(8, "StartConfig.old_nodes")?;
                let mut old_nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    old_nodes.push(r.u64("StartConfig.old_node")?);
                }
                ServiceMsg::StartConfig {
                    ss,
                    old_nodes,
                    log_len: r.u64("StartConfig.log_len")?,
                    snap_idx: r.u64("StartConfig.snap_idx")?,
                }
            }
            2 => ServiceMsg::ConfigStarted {
                config_id: r.u32("ConfigStarted.config_id")?,
            },
            3 => ServiceMsg::SegmentReq {
                from: r.u64("SegmentReq.from")?,
                to: r.u64("SegmentReq.to")?,
            },
            4 => {
                let start = r.u64("SegmentResp.start")?;
                // One element is at least its u32 length prefix.
                let n = r.count(4, "SegmentResp.entries")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let bytes = r.bytes("SegmentResp.entry")?;
                    entries.push(T::decode(bytes).ok_or(WireError::InvalidPayload {
                        what: "SegmentResp.entry",
                    })?);
                }
                ServiceMsg::SegmentResp {
                    start,
                    entries: entries.into(),
                    served_to: r.u64("SegmentResp.served_to")?,
                    requested_to: r.u64("SegmentResp.requested_to")?,
                }
            }
            5 => ServiceMsg::SnapReq {
                offset: r.u64("SnapReq.offset")?,
            },
            6 => ServiceMsg::SnapResp {
                idx: r.u64("SnapResp.idx")?,
                offset: r.u64("SnapResp.offset")?,
                chunk: r.bytes("SnapResp.chunk")?.into(),
                total: r.u64("SnapResp.total")?,
            },
            7 => {
                let group = r.u32("Group.group")?;
                let msg = ServiceMsg::decode(r)?;
                // Envelopes never nest: the inner message is a plain
                // protocol message. Rejecting nesting here also bounds
                // decode recursion on hostile input.
                if matches!(msg, ServiceMsg::Group { .. } | ServiceMsg::GroupBle { .. }) {
                    return Err(WireError::InvalidPayload {
                        what: "Group.msg (nested envelope)",
                    });
                }
                ServiceMsg::Group {
                    group,
                    msg: Box::new(msg),
                }
            }
            8 => {
                // One beat is at least group + config_id + a minimal
                // BleMessage (from + to + HeartbeatRequest round).
                let n = r.count(33, "GroupBle.beats")?;
                let mut beats = Vec::with_capacity(n);
                for _ in 0..n {
                    let group = r.u32("GroupBle.group")?;
                    let config_id = r.u32("GroupBle.config_id")?;
                    beats.push((group, config_id, BleMessage::decode(r)?));
                }
                ServiceMsg::GroupBle { beats }
            }
            v => {
                return Err(WireError::UnknownDiscriminant {
                    what: "ServiceMsg",
                    value: v,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: Wire + PartialEq + std::fmt::Debug>(m: &M) {
        let bytes = m.to_bytes();
        let back = M::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, m);
    }

    #[test]
    fn paxos_messages_roundtrip() {
        let b = Ballot::new(3, 1, 2);
        let msgs: Vec<PaxosMsg<u64>> = vec![
            PaxosMsg::PrepareReq,
            PaxosMsg::Prepare(Prepare {
                n: b,
                decided_idx: 7,
                accepted_rnd: Ballot::bottom(),
                log_idx: 9,
            }),
            PaxosMsg::Promise(Promise {
                n: b,
                accepted_rnd: b,
                log_idx: 5,
                decided_idx: 3,
                suffix_start: 3,
                suffix: vec![
                    LogEntry::Normal(1),
                    LogEntry::stopsign(StopSign::new(2, vec![1, 2])),
                ],
                snapshot: Some((3, vec![1u8, 2, 3].into())),
            }),
            PaxosMsg::AcceptSync(AcceptSync {
                n: b,
                sync_idx: 2,
                decided_idx: 1,
                suffix: vec![LogEntry::Normal(10), LogEntry::Normal(11)].into(),
            }),
            PaxosMsg::AcceptDecide(AcceptDecide {
                n: b,
                start_idx: 4,
                decided_idx: 4,
                entries: vec![LogEntry::Normal(42)].into(),
            }),
            PaxosMsg::Accepted(Accepted { n: b, log_idx: 5 }),
            PaxosMsg::Decide(Decide {
                n: b,
                decided_idx: 5,
            }),
            PaxosMsg::SnapshotMeta(SnapshotMeta {
                n: b,
                snapshot_idx: 100,
                total_bytes: 4096,
            }),
            PaxosMsg::SnapshotChunk(SnapshotChunk {
                n: b,
                snapshot_idx: 100,
                offset: 512,
                total_bytes: 4096,
                data: vec![9u8; 64].into(),
            }),
            PaxosMsg::SnapshotAck(SnapshotAck {
                n: b,
                snapshot_idx: 100,
                received: 576,
            }),
            PaxosMsg::ProposalForward(vec![LogEntry::Normal(1), LogEntry::Normal(2)]),
            PaxosMsg::ReadIndexReq(ReadIndexReq { token: 77 }),
            PaxosMsg::ReadIndexResp(ReadIndexResp { token: 77, idx: 41 }),
            PaxosMsg::ReadCheck(ReadCheck { n: b, seq: 6 }),
            PaxosMsg::ReadCheckAck(ReadCheckAck { n: b, seq: 6 }),
        ];
        for m in &msgs {
            roundtrip(m);
        }
    }

    #[test]
    fn addressed_and_service_messages_roundtrip() {
        let b = Ballot::new(2, 0, 1);
        let omni: OmniMessage<u64> = OmniMessage::Ble(BleMessage {
            from: 1,
            to: 2,
            msg: BleMsg::HeartbeatReply {
                round: 9,
                ballot: b,
                quorum_connected: true,
            },
        });
        roundtrip(&omni);
        let lease: OmniMessage<u64> = OmniMessage::Ble(BleMessage {
            from: 2,
            to: 1,
            msg: BleMsg::HeartbeatReplyLease {
                round: 9,
                ballot: b,
                quorum_connected: true,
                lease: true,
            },
        });
        roundtrip(&lease);
        let svc: Vec<ServiceMsg<u64>> = vec![
            ServiceMsg::Omni {
                config_id: 2,
                msg: OmniMessage::Paxos(Message::with(1, 3, PaxosMsg::PrepareReq)),
            },
            ServiceMsg::StartConfig {
                ss: StopSign::new(2, vec![1, 2, 4]),
                old_nodes: vec![1, 2, 3],
                log_len: 100,
                snap_idx: 40,
            },
            ServiceMsg::ConfigStarted { config_id: 2 },
            ServiceMsg::SegmentReq { from: 0, to: 50 },
            ServiceMsg::SegmentResp {
                start: 0,
                entries: vec![1u64, 2, 3].into(),
                served_to: 3,
                requested_to: 50,
            },
            ServiceMsg::SnapReq { offset: 128 },
            ServiceMsg::SnapResp {
                idx: 40,
                offset: 128,
                chunk: vec![5u8; 32].into(),
                total: 4096,
            },
        ];
        for m in &svc {
            roundtrip(m);
        }
    }

    #[test]
    fn shared_batch_encodes_once_per_cycle() {
        let batch: EntryBatch<u64> = (0..100).map(LogEntry::Normal).collect::<Vec<_>>().into();
        let mut cache = BatchCache::new();
        let fanout: Vec<Message<u64>> = (2..=4)
            .map(|to| {
                Message::with(
                    1,
                    to,
                    PaxosMsg::AcceptDecide(AcceptDecide {
                        n: Ballot::new(1, 0, 1),
                        start_idx: 0,
                        decided_idx: 0,
                        entries: batch.clone(),
                    }),
                )
            })
            .collect();
        let encoded: Vec<Vec<u8>> = fanout
            .iter()
            .map(|m| {
                let mut buf = Vec::new();
                m.encode(&mut buf, &mut cache);
                buf
            })
            .collect();
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "batch must serialize exactly once");
        assert_eq!(hits, 2, "remaining fan-out reuses the bytes");
        // And the cached bytes decode identically for every follower.
        for (m, bytes) in fanout.iter().zip(&encoded) {
            assert_eq!(&Message::<u64>::from_bytes(bytes).unwrap(), m);
        }
    }

    #[test]
    fn unknown_discriminant_is_typed_not_panic() {
        let err = PaxosMsg::<u64>::from_bytes(&[200]).unwrap_err();
        assert_eq!(
            err,
            WireError::UnknownDiscriminant {
                what: "PaxosMsg",
                value: 200
            }
        );
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let m: PaxosMsg<u64> = PaxosMsg::Accepted(Accepted {
            n: Ballot::new(1, 0, 1),
            log_idx: 77,
        });
        let bytes = m.to_bytes();
        for cut in 0..bytes.len() {
            let err = PaxosMsg::<u64>::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn hostile_count_is_rejected_without_allocation() {
        // AcceptDecide with a 4-billion entry count but no entry bytes.
        let mut buf = Vec::new();
        buf.push(4u8); // AcceptDecide
        put_ballot(&mut buf, Ballot::new(1, 0, 1));
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = PaxosMsg::<u64>::from_bytes(&buf).unwrap_err();
        assert!(matches!(err, WireError::BadLength { .. }), "{err:?}");
    }

    #[test]
    fn checksum_matches_wal_discipline() {
        // Same FNV-1a basis and prime as the WAL's record checksum.
        assert_eq!(checksum(&[]), 0x811c_9dc5);
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
    }
}
