//! Length-prefixed, checksummed frames — the unit of transmission on a
//! TCP connection.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [magic 4B "OPXW"] [version u8] [kind u8] [len u32] [payload len B] [crc u32]
//! ```
//!
//! The CRC is the WAL's FNV-1a checksum (`omnipaxos::wire::checksum`)
//! computed over `version..payload` (everything between magic and crc), so
//! a bit flip anywhere in the variable part is caught. The magic is
//! excluded: a bad magic already means framing sync is lost.
//!
//! ## Error discipline
//!
//! Frame errors split into two classes, and the distinction is the
//! forward-compatibility contract (see `omnipaxos::messages`):
//!
//! - **Fatal** ([`FrameError::is_fatal`] = true): bad magic, bad checksum,
//!   truncated stream, oversized length, I/O error. The byte stream can no
//!   longer be trusted to be frame-aligned — tear the connection down.
//! - **Droppable**: the envelope verified (magic, length, CRC all good)
//!   but the version byte is newer than ours ([`FrameError::BadVersion`]).
//!   The decoder stays in sync; drop the frame, count it, keep reading.
//!   Unknown `kind` bytes and unknown payload discriminants are handled the
//!   same way one layer up (the transport), because the frame layer cannot
//!   know which kinds exist.

use omnipaxos::wire::{checksum_parts, Wire, WireError, WIRE_VERSION};
use std::io::{Read, Write};

/// Frame preamble: "OmniPaxos Wire".
pub const MAGIC: [u8; 4] = *b"OPXW";
/// Bytes before the payload: magic + version + kind + len.
pub const HEADER_LEN: usize = 10;
/// Bytes after the payload.
pub const TRAILER_LEN: usize = 4;
/// Ceiling on a frame payload. Generous (snapshot chunks are ~1 MiB) but
/// finite, so a corrupt or hostile length field cannot OOM the reader.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Frame kinds. Append-only, like every discriminant on the wire.
pub mod kind {
    /// Connection handshake: `[pid u64][proposed_session u64]`.
    pub const HELLO: u8 = 1;
    /// Handshake reply: `[pid u64][chosen_session u64]`.
    pub const HELLO_ACK: u8 = 2;
    /// Keepalive; empty payload. Any frame proves liveness, heartbeats
    /// exist so idle connections still do.
    pub const HEARTBEAT: u8 = 3;
    /// Replication traffic: a `Wire`-encoded message (`ServiceMsg` etc).
    pub const MSG: u8 = 4;
    /// Client traffic: a `Wire`-encoded `KvWire`.
    pub const KV: u8 = 5;
}

/// A decoded frame. The payload is still opaque bytes; the transport
/// dispatches on `kind` and runs the payload through the wire codec.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub version: u8,
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Stream ended (or slice ran out) mid-frame.
    Truncated,
    /// First four bytes were not [`MAGIC`] — framing sync is lost.
    BadMagic([u8; 4]),
    /// Envelope verified but the version is one we do not speak.
    /// Droppable: the peer is newer, not corrupt.
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// FNV-1a mismatch — the frame was damaged in flight.
    BadChecksum { expected: u32, got: u32 },
    /// Payload framing was fine but the wire codec rejected the contents.
    Wire(WireError),
    /// Socket-level failure.
    Io(std::io::Error),
}

impl FrameError {
    /// True when the byte stream can no longer be trusted to be
    /// frame-aligned and the connection must be torn down. `BadVersion`
    /// and `Wire` errors leave the stream in sync: drop and count.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, FrameError::BadVersion(_) | FrameError::Wire(_))
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream truncated mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::TooLarge(n) => write!(f, "payload length {n} exceeds cap"),
            FrameError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
            FrameError::Wire(e) => write!(f, "payload rejected: {e}"),
            FrameError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encode one frame into a contiguous buffer (one `write` syscall's worth).
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = checksum_parts(&[&buf[4..]]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(kind, payload))
}

/// Decode one frame from the front of `buf`; returns the frame and how
/// many bytes it consumed. This is the slice-level twin of [`read_frame`]
/// (the fuzz corpus drives this directly).
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let magic: [u8; 4] = buf[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = buf[4];
    let kind = buf[5];
    let len = u32::from_le_bytes(buf[6..10].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len as usize];
    let got = u32::from_le_bytes(buf[total - TRAILER_LEN..total].try_into().unwrap());
    let expected = checksum_parts(&[&buf[4..HEADER_LEN], payload]);
    if got != expected {
        return Err(FrameError::BadChecksum { expected, got });
    }
    // Version is checked only after the envelope verifies: an intact frame
    // from a newer peer is droppable, not a reason to disconnect.
    if version != WIRE_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    Ok((
        Frame {
            version,
            kind,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Read one frame from a blocking stream. I/O errors (including EOF
/// mid-frame, surfaced as `Truncated`) are fatal to the connection.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact(r, &mut header)?;
    let magic: [u8; 4] = header[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = header[4];
    let kind = header[5];
    let len = u32::from_le_bytes(header[6..10].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload)?;
    let mut trailer = [0u8; TRAILER_LEN];
    read_exact(r, &mut trailer)?;
    let got = u32::from_le_bytes(trailer);
    let expected = checksum_parts(&[&header[4..], &payload]);
    if got != expected {
        return Err(FrameError::BadChecksum { expected, got });
    }
    if version != WIRE_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    Ok(Frame {
        version,
        kind,
        payload,
    })
}

/// Initial (and resting) size of a [`FrameReader`]'s buffer: one `read`
/// takes in a whole pipelined client window or replication fan-in burst.
pub const BURST_BUF: usize = 64 * 1024;

/// Burst reader for a long-lived connection: one `read` syscall fills a
/// reusable buffer, then every complete frame in it is decoded through
/// [`decode_frame`] — where [`read_frame`] costs three reads per frame.
/// A partial frame at the buffer's end stays put for the next burst; a
/// frame larger than the buffer grows it for as long as it is in flight.
pub struct FrameReader<R> {
    r: R,
    buf: Vec<u8>,
    /// Undecoded bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    pub fn new(r: R) -> Self {
        FrameReader {
            r,
            buf: vec![0; BURST_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Block for one `read`, then hand `on_frame` every frame completed by
    /// it, in order: `Ok` for an intact frame, `Err` for a droppable one
    /// (verified envelope, unknown version — the stream stays in sync).
    /// Returns how many frames were handed over (0 = only a partial frame
    /// so far). `Err` is fatal, exactly as from [`read_frame`]: EOF
    /// surfaces as `Truncated`, and frames ahead of a corrupt one in the
    /// same burst are still delivered first.
    pub fn read_burst(
        &mut self,
        mut on_frame: impl FnMut(Result<Frame, FrameError>),
    ) -> Result<usize, FrameError> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > BURST_BUF {
                self.buf.truncate(BURST_BUF);
                self.buf.shrink_to_fit();
            }
        } else if self.start > 0 {
            // Slide the partial frame to the front so the read below has
            // the rest of the buffer to fill.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            // One frame fills the buffer and is still incomplete (the last
            // decode said `Truncated`, so its length field is in bounds).
            let total = frame_len(&self.buf).expect("a full buffer holds a header");
            self.buf.resize(total, 0);
        }
        let n = loop {
            match self.r.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        };
        self.end += n;
        let mut frames = 0;
        loop {
            let pending = &self.buf[self.start..self.end];
            match decode_frame(pending) {
                Ok((frame, used)) => {
                    self.start += used;
                    on_frame(Ok(frame));
                }
                Err(FrameError::Truncated) => return Ok(frames),
                Err(e) if !e.is_fatal() => {
                    self.start += frame_len(pending).expect("envelope verified");
                    on_frame(Err(e));
                }
                Err(e) => return Err(e),
            }
            frames += 1;
        }
    }
}

/// What the client-facing readers do with each frame of a burst: keep a
/// frame of the wanted `kind` whose payload decodes, drop everything else
/// (unknown kind, unknown version, undecodable payload — all leave the
/// stream in sync).
pub(crate) fn decode_kind<M: Wire>(f: Result<Frame, FrameError>, kind: u8) -> Option<M> {
    let f = f.ok().filter(|f| f.kind == kind)?;
    M::from_bytes(&f.payload).ok()
}

/// Total encoded length of the frame whose header starts `buf`, if the
/// header is complete. The length field is NOT validated here.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(buf.get(6..HEADER_LEN)?.try_into().ok()?);
    Some(HEADER_LEN + len as usize + TRAILER_LEN)
}

fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_consumed_len() {
        let payload = b"hello frames";
        let bytes = encode_frame(kind::MSG, payload);
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(frame.kind, kind::MSG);
        assert_eq!(frame.version, WIRE_VERSION);
        assert_eq!(frame.payload, payload);
        // Stream path agrees with slice path.
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }

    #[test]
    fn every_truncation_is_truncated() {
        let bytes = encode_frame(kind::KV, b"abc");
        for n in 0..bytes.len() {
            match decode_frame(&bytes[..n]) {
                Err(FrameError::Truncated) => {}
                other => panic!("prefix {n}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_version_droppable_only_if_crc_holds() {
        let mut bytes = encode_frame(kind::MSG, b"payload");
        bytes[4] = 99; // version byte — now the CRC no longer matches.
        match decode_frame(&bytes) {
            Err(e @ FrameError::BadChecksum { .. }) => assert!(e.is_fatal()),
            other => panic!("expected BadChecksum, got {other:?}"),
        }
        // Re-seal the frame with the new version: now it is droppable.
        let crc = checksum_parts(&[&bytes[4..bytes.len() - 4]]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        match decode_frame(&bytes) {
            Err(e @ FrameError::BadVersion(99)) => assert!(!e.is_fatal()),
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        let mut bytes = encode_frame(kind::MSG, b"x");
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, u32::MAX),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    /// Hands out as much as the caller's buffer takes, counting calls.
    struct CountingRead<'a> {
        data: &'a [u8],
        reads: usize,
    }

    impl Read for CountingRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_burst_of_coalesced_frames_costs_one_read() {
        let mut wire = Vec::new();
        for i in 0..100u32 {
            wire.extend(encode_frame(kind::KV, &i.to_le_bytes()));
        }
        let mut reader = FrameReader::new(CountingRead {
            data: &wire,
            reads: 0,
        });
        let mut payloads = Vec::new();
        let n = reader
            .read_burst(|f| payloads.push(f.expect("intact").payload))
            .expect("burst");
        assert_eq!(n, 100);
        assert_eq!(reader.r.reads, 1, "100 coalesced frames, one read syscall");
        let want: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(payloads, want);
        // The stream is exhausted: EOF is `Truncated`, as from `read_frame`.
        assert!(matches!(
            reader.read_burst(|_| panic!("no frame left")),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = encode_frame(kind::MSG, b"x");
        bytes[0] = b'X';
        let err = decode_frame(&bytes).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)));
        assert!(err.is_fatal());
    }
}
