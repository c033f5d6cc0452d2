//! Session-oriented TCP transport.
//!
//! One [`TcpTransport`] per node. Connections are deduplicated by a
//! fixed dialing rule — **the smaller pid dials the larger** — so a pair
//! of nodes maintains exactly one connection, re-established by the
//! dialer with exponential backoff + jitter after any failure.
//!
//! ## Sessions
//!
//! Every established connection carries a session number agreed in the
//! handshake: the dialer proposes `last_seen + 1`, the acceptor answers
//! `max(proposed, its_own_last + 1)`, and both adopt the answer. As long
//! as either side remembers the pair's history, session numbers are
//! monotonically increasing across reconnects and transport restarts —
//! which is what lets a replica distinguish "same session, FIFO holds"
//! from "new session, messages may be lost, re-sync" (paper §4.1.3).
//!
//! ## Threads
//!
//! * one **acceptor** (blocking `accept`; shutdown unblocks it by shutting
//!   the listening socket down),
//! * one **dialer** per peer with larger pid (connect → handshake → hand
//!   the socket to a session; retry with backoff),
//! * per live session, a **writer** (drains the send queue, emits
//!   heartbeats when idle, enforces the dead-session timeout) and a
//!   **reader** (one blocking `read` per burst, every complete frame in
//!   it decoded and queued under one lock with one wake of the drive
//!   loop; unblocked on teardown by the writer shutting the socket down).
//!
//! Dead sessions are detected by silence: any complete frame refreshes
//! `last_rx`; if nothing arrives for `heartbeat_timeout`, the writer
//! tears the session down and the dialer (whichever side it is) starts
//! reconnecting. Steady message traffic doubles as heartbeat traffic —
//! explicit HEARTBEAT frames only flow when the writer is idle.
//!
//! ## Forward compatibility
//!
//! Intact frames with an unknown version, unknown kind, or undecodable
//! payload are dropped and counted (`frames_dropped`), never fatal. Only
//! an unverifiable envelope (bad magic / checksum / truncation) tears the
//! connection down — at that point framing sync is gone.

use crate::frame::{self, kind, FrameReader};
use crate::link::{
    lock_unpoisoned, Inbox, LinkCounters, LinkEvent, NetworkLink, WakeSource, Waker,
};
use omnipaxos::wire::{BatchCache, Wire};
use omnipaxos::NodeId;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Unblock the thread parked in `accept` on the socket that `listener`
/// is a dup of and that is bound to `addr` (both accept loops re-check
/// their shutdown flag on every return); says whether it did. `shutdown`
/// on the listening socket itself does it on Linux, whatever the address
/// and without touching the network; where the OS refuses that, one
/// throwaway connection does.
pub(crate) fn unblock_accept(listener: TcpListener, addr: SocketAddr) -> bool {
    #[cfg(unix)]
    {
        // std offers `shutdown` on streams only; view the fd as one.
        let socket = TcpStream::from(std::os::fd::OwnedFd::from(listener));
        if socket.shutdown(Shutdown::Both).is_ok() {
            return true;
        }
    }
    #[cfg(not(unix))]
    drop(listener);
    TcpStream::connect_timeout(&reachable(addr), Duration::from_secs(1)).is_ok()
}

/// Where to dial a listener bound to `addr`: a wildcard address accepts
/// on the loopback of its own family (a v6-only socket on no other).
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Transport tuning knobs.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Idle interval after which the writer emits a HEARTBEAT frame.
    pub heartbeat_interval: Duration,
    /// Silence (no complete frame received) after which a session is
    /// declared dead. Must be a few multiples of `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// First reconnect delay; doubles per failure up to `backoff_cap`.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Handshake must complete within this long.
    pub handshake_timeout: Duration,
    /// Per-session outbound queue depth; senders drop (and count) when
    /// the writer cannot keep up, mirroring a full socket buffer.
    pub send_queue: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(250),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(2),
            send_queue: 4096,
        }
    }
}

#[derive(Default)]
struct AtomicCounters {
    msgs_sent: AtomicU64,
    msgs_received: AtomicU64,
    bytes_sent: AtomicU64,
    send_drops: AtomicU64,
    frames_dropped: AtomicU64,
    sessions_established: AtomicU64,
    sessions_dropped: AtomicU64,
    reconnect_attempts: AtomicU64,
    writer_batches: AtomicU64,
    writer_frames: AtomicU64,
    writer_bytes: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_suppressed: AtomicU64,
}

impl AtomicCounters {
    fn snapshot(&self) -> LinkCounters {
        LinkCounters {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            send_drops: self.send_drops.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            sessions_established: self.sessions_established.load(Ordering::Relaxed),
            sessions_dropped: self.sessions_dropped.load(Ordering::Relaxed),
            reconnect_attempts: self.reconnect_attempts.load(Ordering::Relaxed),
            writer_batches: self.writer_batches.load(Ordering::Relaxed),
            writer_frames: self.writer_frames.load(Ordering::Relaxed),
            writer_bytes: self.writer_bytes.load(Ordering::Relaxed),
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            heartbeats_suppressed: self.heartbeats_suppressed.load(Ordering::Relaxed),
        }
    }
}

/// A live session to one peer: the writer's queue plus the socket (kept
/// so teardown can unblock the reader).
struct PeerSession {
    session: u64,
    tx: SyncSender<Vec<u8>>,
    stream: TcpStream,
}

struct Shared<M> {
    pid: NodeId,
    cfg: TcpConfig,
    peers: Mutex<HashMap<NodeId, PeerSession>>,
    /// Last session number seen per peer — handshake monotonicity state.
    sessions: Mutex<HashMap<NodeId, u64>>,
    events: Inbox<LinkEvent<M>>,
    counters: AtomicCounters,
    shutdown: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    epoch: Instant,
}

impl<M> Shared<M> {
    fn push_event(&self, ev: LinkEvent<M>) {
        self.events.push([ev]);
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// The session-oriented TCP transport. See the module docs for the
/// design; see [`NetworkLink`] for the contract it implements.
pub struct TcpTransport<M> {
    shared: Arc<Shared<M>>,
    cache: BatchCache,
    local_addr: SocketAddr,
    /// The acceptor thread and a dup of its listener, for
    /// [`unblock_accept`]; joined only once that got through to it.
    acceptor: Option<(JoinHandle<()>, TcpListener)>,
}

impl<M: Wire + Send + 'static> TcpTransport<M> {
    /// Bind `addrs[pid]` and start the acceptor plus one dialer per
    /// larger-pid peer. Retries `AddrInUse` briefly so a restarted node
    /// can rebind its old address while the OS releases it.
    pub fn bind(
        pid: NodeId,
        addrs: HashMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> std::io::Result<Self> {
        let addr = *addrs
            .get(&pid)
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "own pid not in addrs"))?;
        let deadline = Instant::now() + Duration::from_secs(5);
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(l) => break l,
                Err(e) if e.kind() == ErrorKind::AddrInUse && Instant::now() < deadline => {
                    // No event to wait on: the OS frees the address when
                    // the previous owner's sockets finish closing.
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        };
        Self::with_listener(pid, listener, addrs, cfg)
    }

    /// Like [`TcpTransport::bind`] but with a pre-bound listener —
    /// tests bind port 0 first to learn their ephemeral address.
    pub fn with_listener(
        pid: NodeId,
        listener: TcpListener,
        addrs: HashMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> std::io::Result<Self> {
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            pid,
            cfg,
            peers: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            events: Inbox::new(WakeSource::Link),
            counters: AtomicCounters::default(),
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        });

        // Startup spawn failures (fd/thread exhaustion) are the one place
        // errors surface to the caller: a transport missing its acceptor
        // or a dialer would be silently partitioned forever. Dropping
        // `transport` on the way out tears down whatever already started.
        let shared2 = Arc::clone(&shared);
        let listener_dup = listener.try_clone()?;
        let acceptor = std::thread::Builder::new()
            .name(format!("net-accept-{pid}"))
            .spawn(move || accept_loop(shared2, listener))?;
        let transport = TcpTransport {
            shared,
            cache: BatchCache::new(),
            local_addr,
            acceptor: Some((acceptor, listener_dup)),
        };
        // Dialing rule: smaller pid dials larger, so each pair has one owner.
        for (&peer, &peer_addr) in &addrs {
            if peer <= pid {
                continue;
            }
            let shared2 = Arc::clone(&transport.shared);
            let dialer = std::thread::Builder::new()
                .name(format!("net-dial-{pid}-{peer}"))
                .spawn(move || dial_loop(shared2, peer, peer_addr))?;
            lock_unpoisoned(&transport.shared.threads).push(dialer);
        }
        Ok(transport)
    }

    /// The bound replication address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl<M> TcpTransport<M> {
    /// Stop all threads and close all sockets. Idempotent; also runs on
    /// drop. After this the transport sends nothing and polls nothing.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, sess) in lock_unpoisoned(&self.shared.peers).drain() {
            let _ = sess.stream.shutdown(std::net::Shutdown::Both);
        }
        // The acceptor blocks in `accept`; should nothing get it out, it
        // stays detached rather than hanging this call.
        if let Some((thread, listener)) = self.acceptor.take() {
            if unblock_accept(listener, self.local_addr) {
                let _ = thread.join();
            }
        }
        let handles: Vec<_> = lock_unpoisoned(&self.shared.threads).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<M: Wire + Send + 'static> NetworkLink<M> for TcpTransport<M> {
    fn pid(&self) -> NodeId {
        self.shared.pid
    }

    fn send(&mut self, to: NodeId, msg: M) {
        let mut payload = Vec::new();
        msg.encode(&mut payload, &mut self.cache);
        let bytes = frame::encode_frame(kind::MSG, &payload);
        let n = bytes.len() as u64;
        let peers = lock_unpoisoned(&self.shared.peers);
        match peers.get(&to) {
            Some(sess) => match sess.tx.try_send(bytes) {
                Ok(()) => {
                    self.shared
                        .counters
                        .msgs_sent
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .counters
                        .bytes_sent
                        .fetch_add(n, Ordering::Relaxed);
                }
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.shared
                        .counters
                        .send_drops
                        .fetch_add(1, Ordering::Relaxed);
                }
            },
            None => {
                self.shared
                    .counters
                    .send_drops
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn poll(&mut self) -> Vec<LinkEvent<M>> {
        // Cycle boundary for the batch-encoding cache (see BatchCache).
        self.cache.reset();
        self.shared.events.drain()
    }

    fn counters(&self) -> LinkCounters {
        self.shared.counters.snapshot()
    }

    fn set_waker(&mut self, waker: Waker) {
        self.shared.events.set_waker(waker);
    }
}

// ---------------------------------------------------------------------------
// connection establishment

fn accept_loop<M: Wire + Send + 'static>(shared: Arc<Shared<M>>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // woken by `unblock_accept`
        }
        let Ok((stream, _)) = accepted else {
            // fd exhaustion fails `accept` at once, over and over; breathe
            // until connections close rather than spin on the error.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // Every socket runs with TCP_NODELAY from the moment it exists:
        // replication frames are latency-critical and the writer already
        // coalesces, so Nagle only adds delay.
        let _ = stream.set_nodelay(true);
        let shared2 = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name(format!("net-hs-{}", shared.pid))
            .spawn(move || {
                if let Some((peer, session)) = handshake_accept(&shared2, &stream) {
                    run_session(shared2, peer, session, stream);
                }
            }) {
            Ok(h) => lock_unpoisoned(&shared.threads).push(h),
            // Thread exhaustion: drop this connection (the stream moved
            // into the failed spawn and closes) and breathe; the peer's
            // dialer will retry with backoff.
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn dial_loop<M: Wire + Send + 'static>(shared: Arc<Shared<M>>, peer: NodeId, addr: SocketAddr) {
    let mut backoff = shared.cfg.backoff_base;
    // Deterministic per-(pid, peer) jitter seed; decorrelates nodes
    // without pulling in a RNG dependency.
    let mut jrng: u64 = 0x9E37_79B9_7F4A_7C15 ^ (shared.pid << 16) ^ peer;
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Only dial when no session to this peer is live.
        let connected = lock_unpoisoned(&shared.peers).contains_key(&peer);
        if connected {
            // A session this dialer did not start (a racing reconnect the
            // peer superseded); re-check at the pace a dead one is noticed.
            std::thread::sleep(shared.cfg.heartbeat_interval);
            backoff = shared.cfg.backoff_base;
            continue;
        }
        shared
            .counters
            .reconnect_attempts
            .fetch_add(1, Ordering::Relaxed);
        if let Ok(stream) = TcpStream::connect_timeout(&addr, shared.cfg.handshake_timeout) {
            let _ = stream.set_nodelay(true);
            if let Some(session) = handshake_dial(&shared, &stream, peer) {
                backoff = shared.cfg.backoff_base;
                run_session(Arc::clone(&shared), peer, session, stream);
                // Session ended; fall through to reconnect.
                continue;
            }
        }
        // xorshift jitter in [0, backoff/2).
        jrng ^= jrng << 13;
        jrng ^= jrng >> 7;
        jrng ^= jrng << 17;
        let jitter = Duration::from_millis(jrng % (backoff.as_millis().max(2) as u64 / 2).max(1));
        sleep_unless_shutdown(&shared, backoff + jitter);
        backoff = (backoff * 2).min(shared.cfg.backoff_cap);
    }
}

/// Dialer side: send HELLO `[pid][last_seen + 1]`, adopt the session the
/// acceptor chooses.
fn handshake_dial<M>(shared: &Arc<Shared<M>>, stream: &TcpStream, peer: NodeId) -> Option<u64> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(shared.cfg.handshake_timeout))
        .ok()?;
    let proposed = lock_unpoisoned(&shared.sessions)
        .get(&peer)
        .copied()
        .unwrap_or(0)
        + 1;
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(&shared.pid.to_le_bytes());
    payload.extend_from_slice(&proposed.to_le_bytes());
    let mut w = stream;
    frame::write_frame(&mut w, kind::HELLO, &payload).ok()?;
    let mut r = stream;
    let ack = frame::read_frame(&mut r).ok()?;
    if ack.kind != kind::HELLO_ACK || ack.payload.len() != 16 {
        return None;
    }
    let got_pid = u64::from_le_bytes(ack.payload[0..8].try_into().unwrap());
    let session = u64::from_le_bytes(ack.payload[8..16].try_into().unwrap());
    if got_pid != peer || session < proposed {
        return None;
    }
    stream.set_read_timeout(None).ok()?;
    Some(session)
}

/// Acceptor side: read HELLO, choose `max(proposed, last_seen + 1)`,
/// answer HELLO_ACK.
fn handshake_accept<M>(shared: &Arc<Shared<M>>, stream: &TcpStream) -> Option<(NodeId, u64)> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(shared.cfg.handshake_timeout))
        .ok()?;
    let mut r = stream;
    let hello = frame::read_frame(&mut r).ok()?;
    if hello.kind != kind::HELLO || hello.payload.len() != 16 {
        return None;
    }
    let peer = u64::from_le_bytes(hello.payload[0..8].try_into().unwrap());
    let proposed = u64::from_le_bytes(hello.payload[8..16].try_into().unwrap());
    let session = {
        let sessions = lock_unpoisoned(&shared.sessions);
        proposed.max(sessions.get(&peer).copied().unwrap_or(0) + 1)
    };
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(&shared.pid.to_le_bytes());
    payload.extend_from_slice(&session.to_le_bytes());
    let mut w = stream;
    frame::write_frame(&mut w, kind::HELLO_ACK, &payload).ok()?;
    stream.set_read_timeout(None).ok()?;
    Some((peer, session))
}

// ---------------------------------------------------------------------------
// session lifetime

/// Install the session, run reader + writer until it dies, then clean
/// up and emit `SessionDropped`. Called on the dialer or handshake
/// thread; the writer runs inline here, the reader on its own thread.
fn run_session<M: Wire + Send + 'static>(
    shared: Arc<Shared<M>>,
    peer: NodeId,
    session: u64,
    stream: TcpStream,
) {
    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(shared.cfg.send_queue);
    let last_rx = Arc::new(AtomicU64::new(shared.now_ms()));

    // fd exhaustion can fail the dup; the session then never starts —
    // the dialer retries with backoff, the acceptor waits for a redial.
    let Ok(peers_stream) = stream.try_clone() else {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    };
    {
        let mut peers = lock_unpoisoned(&shared.peers);
        // A concurrent session to the same peer (possible when both ends
        // race a reconnect) is superseded: keep the newer session number.
        if let Some(old) = peers.get(&peer) {
            if old.session >= session {
                return;
            }
            let _ = old.stream.shutdown(std::net::Shutdown::Both);
        }
        peers.insert(
            peer,
            PeerSession {
                session,
                tx,
                stream: peers_stream,
            },
        );
    }
    let mut sessions = lock_unpoisoned(&shared.sessions);
    let e = sessions.entry(peer).or_insert(0);
    *e = (*e).max(session);
    drop(sessions);

    shared
        .counters
        .sessions_established
        .fetch_add(1, Ordering::Relaxed);
    shared.push_event(LinkEvent::SessionEstablished { peer, session });

    // Reader: blocking decode loop, unblocked by socket shutdown. A
    // clone/spawn failure skips straight to teardown below, which emits
    // the `SessionDropped` pairing the event just pushed.
    let reader_handle = {
        let shared2 = Arc::clone(&shared);
        let last_rx = Arc::clone(&last_rx);
        stream.try_clone().ok().and_then(|s| {
            std::thread::Builder::new()
                .name(format!("net-read-{}-{peer}", shared2.pid))
                .spawn(move || read_loop(shared2, peer, s, last_rx))
                .ok()
        })
    };

    if reader_handle.is_some() {
        write_loop(&shared, &stream, rx, &last_rx);
    }

    // Teardown: close the socket (unblocks the reader), drop the peer
    // entry if it is still ours (a newer session may have replaced it).
    let _ = stream.shutdown(std::net::Shutdown::Both);
    if let Some(h) = reader_handle {
        let _ = h.join();
    }
    let mut peers = lock_unpoisoned(&shared.peers);
    if peers.get(&peer).map(|p| p.session) == Some(session) {
        peers.remove(&peer);
    }
    drop(peers);
    shared
        .counters
        .sessions_dropped
        .fetch_add(1, Ordering::Relaxed);
    if !shared.shutdown.load(Ordering::SeqCst) {
        shared.push_event(LinkEvent::SessionDropped { peer, session });
    }
}

/// Cap on one coalesced write. A frame larger than this still goes out
/// whole (the first frame always enters the batch); the cap only stops
/// the writer from aggregating the queue into unbounded buffers.
const MAX_COALESCE_BYTES: usize = 256 * 1024;

fn write_loop<M>(
    shared: &Arc<Shared<M>>,
    stream: &TcpStream,
    rx: Receiver<Vec<u8>>,
    last_rx: &AtomicU64,
) {
    let heartbeat = frame::encode_frame(kind::HEARTBEAT, &[]);
    // Coalescing buffer, reused across wakeups: every wakeup drains the
    // whole queue and issues one `write_all`, so a burst of N frames
    // costs one syscall instead of N.
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut w = stream;
    let mut last_tx = Instant::now();
    let mut hb_deadline = Instant::now() + shared.cfg.heartbeat_interval;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Dead-session check: silence beyond the timeout kills the link.
        let silent = shared
            .now_ms()
            .saturating_sub(last_rx.load(Ordering::Relaxed));
        if silent > shared.cfg.heartbeat_timeout.as_millis() as u64 {
            return;
        }
        // Heartbeats run on a fixed cadence, but a cadence point is
        // skipped when real traffic within the interval already proved
        // the link alive — data doubles as keepalive.
        let now = Instant::now();
        if now >= hb_deadline {
            if now.duration_since(last_tx) < shared.cfg.heartbeat_interval {
                shared
                    .counters
                    .heartbeats_suppressed
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                if w.write_all(&heartbeat).is_err() {
                    return;
                }
                last_tx = now;
                shared
                    .counters
                    .heartbeats_sent
                    .fetch_add(1, Ordering::Relaxed);
            }
            hb_deadline = now + shared.cfg.heartbeat_interval;
        }
        let wait = hb_deadline
            .saturating_duration_since(now)
            .min(shared.cfg.heartbeat_interval);
        match rx.recv_timeout(wait) {
            Ok(first) => {
                buf.clear();
                buf.extend_from_slice(&first);
                let mut frames = 1u64;
                while buf.len() < MAX_COALESCE_BYTES {
                    match rx.try_recv() {
                        Ok(bytes) => {
                            buf.extend_from_slice(&bytes);
                            frames += 1;
                        }
                        Err(_) => break,
                    }
                }
                if w.write_all(&buf).is_err() {
                    return;
                }
                last_tx = Instant::now();
                let c = &shared.counters;
                c.writer_batches.fetch_add(1, Ordering::Relaxed);
                c.writer_frames.fetch_add(frames, Ordering::Relaxed);
                c.writer_bytes
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn read_loop<M: Wire + Send + 'static>(
    shared: Arc<Shared<M>>,
    peer: NodeId,
    stream: TcpStream,
    last_rx: Arc<AtomicU64>,
) {
    let mut reader = FrameReader::new(&stream);
    let mut burst = Vec::new();
    loop {
        let mut dropped = 0;
        let read = reader.read_burst(|f| match f {
            Ok(f) if f.kind == kind::HEARTBEAT => {}
            Ok(f) if f.kind == kind::MSG => match M::from_bytes(&f.payload) {
                Ok(msg) => burst.push(LinkEvent::Message { from: peer, msg }),
                // Intact envelope, unintelligible payload: drop + count
                // (forward-compat contract).
                Err(_) => dropped += 1,
            },
            // Unknown kind or unknown version: same contract.
            Ok(_) | Err(_) => dropped += 1,
        });
        if matches!(read, Ok(n) if n > 0) {
            // Any intact frame — heartbeat, message or droppable — proves
            // the peer alive.
            last_rx.store(shared.now_ms(), Ordering::Relaxed);
        }
        let c = &shared.counters;
        c.frames_dropped.fetch_add(dropped, Ordering::Relaxed);
        c.msgs_received
            .fetch_add(burst.len() as u64, Ordering::Relaxed);
        // The whole burst goes over under one lock with one wake, so what
        // the peer sent as one batch the drive loop handles as one.
        shared.events.push(burst.drain(..));
        if read.is_err() {
            return;
        }
    }
}

/// Dial backoff: there is no event to wait for (the peer is down), only
/// shutdown to notice promptly.
fn sleep_unless_shutdown<M>(shared: &Arc<Shared<M>>, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::KvWire;

    fn ephemeral() -> (TcpListener, SocketAddr) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = l.local_addr().unwrap();
        (l, a)
    }

    fn pair_transports() -> (TcpTransport<KvWire>, TcpTransport<KvWire>) {
        let (l1, a1) = ephemeral();
        let (l2, a2) = ephemeral();
        let addrs: HashMap<NodeId, SocketAddr> = [(1, a1), (2, a2)].into();
        let cfg = TcpConfig {
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(10),
            ..TcpConfig::default()
        };
        let t1 = TcpTransport::with_listener(1, l1, addrs.clone(), cfg.clone()).unwrap();
        let t2 = TcpTransport::with_listener(2, l2, addrs, cfg).unwrap();
        (t1, t2)
    }

    fn wait_for<F: FnMut() -> bool>(mut f: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !f() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn sessions_establish_and_messages_flow() {
        let (mut t1, mut t2) = pair_transports();
        let mut established = None;
        wait_for(
            || {
                for ev in t1.poll() {
                    if let LinkEvent::SessionEstablished { peer: 2, session } = ev {
                        established = Some(session);
                    }
                }
                established.is_some()
            },
            "session 1->2",
        );
        t1.send(2, KvWire::Redirect { leader: 3 });
        wait_for(
            || {
                t2.poll().iter().any(|e| {
                    matches!(e, LinkEvent::Message { from: 1, msg } if *msg == KvWire::Redirect { leader: 3 })
                })
            },
            "message at node 2",
        );
        assert_eq!(t1.counters().msgs_sent, 1);
    }

    #[test]
    fn restart_yields_higher_session_and_drop_events() {
        let (mut t1, t2) = pair_transports();
        let mut first = None;
        wait_for(
            || {
                for ev in t1.poll() {
                    if let LinkEvent::SessionEstablished { peer: 2, session } = ev {
                        first = Some(session);
                    }
                }
                first.is_some()
            },
            "first session",
        );
        // Kill node 2's transport entirely (simulates a crash/restart).
        let addr2 = t2.local_addr();
        drop(t2);
        let mut dropped = false;
        wait_for(
            || {
                for ev in t1.poll() {
                    if matches!(ev, LinkEvent::SessionDropped { peer: 2, .. }) {
                        dropped = true;
                    }
                }
                dropped
            },
            "session drop at node 1",
        );
        // Restart node 2 on the same address; node 1 re-dials.
        let (_, a1) = ephemeral(); // unused addr for map completeness below
        let addrs: HashMap<NodeId, SocketAddr> = [(1, a1), (2, addr2)].into();
        let _t2b: TcpTransport<KvWire> =
            TcpTransport::bind(2, addrs, TcpConfig::default()).unwrap();
        let mut second = None;
        wait_for(
            || {
                for ev in t1.poll() {
                    if let LinkEvent::SessionEstablished { peer: 2, session } = ev {
                        second = Some(session);
                    }
                }
                second.is_some()
            },
            "second session",
        );
        assert!(
            second.unwrap() > first.unwrap(),
            "sessions must be monotone: {first:?} -> {second:?}"
        );
    }

    /// The burst reader keeps the frame-at-a-time reader's bookkeeping:
    /// every intact frame — droppable ones included — refreshes `last_rx`,
    /// droppable frames are counted, and the messages of one socket read
    /// reach the drive loop together, behind one wake.
    #[test]
    fn read_loop_hands_over_a_burst_and_keeps_liveness_accounting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let shared = Arc::new(Shared::<KvWire> {
            pid: 1,
            cfg: TcpConfig::default(),
            peers: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            events: Inbox::new(WakeSource::Link),
            counters: AtomicCounters::default(),
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            epoch: Instant::now() - Duration::from_secs(1),
        });
        let waker = Waker::default();
        shared.events.set_waker(waker.clone());
        let last_rx = Arc::new(AtomicU64::new(0));
        let reader = {
            let (shared, last_rx) = (Arc::clone(&shared), Arc::clone(&last_rx));
            std::thread::spawn(move || read_loop(shared, 2, stream, last_rx))
        };

        // A sealed frame from the future alone: dropped, counted, alive.
        let mut future = frame::encode_frame(kind::MSG, &KvWire::Retry { seq: 0 }.to_bytes());
        future[4] = 9;
        let n = future.len();
        let crc = omnipaxos::wire::checksum_parts(&[&future[4..n - 4]]);
        future[n - 4..].copy_from_slice(&crc.to_le_bytes());
        peer.write_all(&future).unwrap();
        wait_for(
            || shared.counters.snapshot().frames_dropped == 1,
            "the droppable frame",
        );
        assert!(last_rx.load(Ordering::Relaxed) >= 1_000, "dropped ⇒ alive");
        assert_eq!(waker.wakes(), [0; 3], "nothing queued, nobody woken");

        // Heartbeat + unknown kind + three messages in one write.
        let mut wire = frame::encode_frame(kind::HEARTBEAT, &[]);
        wire.extend(frame::encode_frame(0xEE, b"?"));
        for seq in 1..=3 {
            wire.extend(frame::encode_frame(
                kind::MSG,
                &KvWire::Retry { seq }.to_bytes(),
            ));
        }
        peer.write_all(&wire).unwrap();
        wait_for(
            || shared.counters.snapshot().msgs_received == 3,
            "the three messages",
        );
        let want: Vec<_> = (1..=3)
            .map(|seq| LinkEvent::Message {
                from: 2,
                msg: KvWire::Retry { seq },
            })
            .collect();
        assert_eq!(shared.events.drain(), want);
        assert_eq!(shared.counters.snapshot().frames_dropped, 2);
        assert_eq!(waker.wakes(), [1, 0, 0], "one burst, one wake");

        drop(peer); // EOF is fatal: the reader returns
        reader.join().unwrap();
    }

    /// Shutdown must get the acceptor out of `accept` on any bind address
    /// — wildcards of both families included — quickly, and leave the port
    /// free for the next transport at once.
    #[test]
    fn shutdown_releases_the_listening_port_whatever_the_address() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0", "[::1]:0", "[::]:0"] {
            let Ok(listener) = TcpListener::bind(bind) else {
                continue; // no IPv6 on this host
            };
            let addr = listener.local_addr().unwrap();
            let addrs: HashMap<NodeId, SocketAddr> = [(1, addr)].into();
            let t: TcpTransport<KvWire> =
                TcpTransport::with_listener(1, listener, addrs, TcpConfig::default()).unwrap();
            let started = Instant::now();
            drop(t);
            assert!(
                started.elapsed() < Duration::from_millis(500),
                "{bind}: drop took {:?}",
                started.elapsed()
            );
            TcpListener::bind(addr).unwrap_or_else(|e| panic!("{bind}: port still held: {e}"));
        }
        let v6: SocketAddr = "[::]:7".parse().unwrap();
        assert_eq!(reachable(v6), "[::1]:7".parse().unwrap());
        let v4: SocketAddr = "0.0.0.0:7".parse().unwrap();
        assert_eq!(reachable(v4), "127.0.0.1:7".parse().unwrap());
        assert_eq!(
            reachable("10.1.2.3:7".parse().unwrap()).to_string(),
            "10.1.2.3:7"
        );
    }

    #[test]
    fn send_without_session_drops_and_counts() {
        let (l1, a1) = ephemeral();
        let addrs: HashMap<NodeId, SocketAddr> =
            [(1, a1), (2, "127.0.0.1:9".parse().unwrap())].into();
        let mut t1: TcpTransport<KvWire> =
            TcpTransport::with_listener(1, l1, addrs, TcpConfig::default()).unwrap();
        t1.send(2, KvWire::Retry { seq: 1 });
        assert_eq!(t1.counters().send_drops, 1);
        assert_eq!(t1.counters().msgs_sent, 0);
    }

    #[test]
    fn writer_coalesces_bursts_and_suppresses_heartbeats() {
        let (mut t1, mut t2) = pair_transports();
        wait_for(
            || {
                t1.poll()
                    .iter()
                    .any(|e| matches!(e, LinkEvent::SessionEstablished { peer: 2, .. }))
            },
            "session 1->2",
        );

        // Burst: enqueue a pile of frames faster than the writer can
        // issue syscalls; the writer must fold them into far fewer
        // `write_all` calls — and they must all still decode at node 2.
        const BURST: u64 = 2000;
        for i in 0..BURST {
            t1.send(2, KvWire::Retry { seq: i });
        }
        let mut got = 0u64;
        wait_for(
            || {
                t1.poll(); // keep node 1 draining its own events
                got += t2
                    .poll()
                    .iter()
                    .filter(|e| matches!(e, LinkEvent::Message { from: 1, .. }))
                    .count() as u64;
                got == BURST
            },
            "burst delivery",
        );
        let c = t1.counters();
        assert!(
            c.writer_frames >= BURST,
            "all frames must pass through the writer: {}",
            c.writer_frames
        );
        assert!(
            c.writer_batches < c.writer_frames,
            "a backed-up channel must coalesce: {} batches for {} frames",
            c.writer_batches,
            c.writer_frames
        );
        assert!(c.writer_bytes > 0);

        // Steady load: one frame every 5ms against a 20ms heartbeat
        // interval. Every cadence point falls inside the interval since
        // the last data write, so heartbeats are suppressed, not sent.
        let hb_sent_before = t1.counters().heartbeats_sent;
        let start = Instant::now();
        let mut seq = BURST;
        while start.elapsed() < Duration::from_millis(300) {
            t1.send(2, KvWire::Retry { seq });
            seq += 1;
            t1.poll();
            t2.poll();
            std::thread::sleep(Duration::from_millis(5));
        }
        let c = t1.counters();
        assert!(
            c.heartbeats_suppressed >= 1,
            "steady traffic must suppress heartbeats: {c:?}"
        );
        assert!(
            c.heartbeats_sent <= hb_sent_before + 1,
            "at most one heartbeat may slip out under steady load: {} -> {}",
            hb_sent_before,
            c.heartbeats_sent
        );
    }
}
