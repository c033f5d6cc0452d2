//! The deployable kv server: a [`KvNode`] driven over any
//! [`NetworkLink`] backend, plus the TCP gateway clients speak to.
//!
//! [`KvServer`] is deliberately sans-I/O-loop: [`KvServer::pump`] runs
//! one poll→handle→reply→send cycle and [`KvServer::tick`] advances
//! protocol timers. The deterministic tests call them directly,
//! interleaved with simulated time — which is how the sim and TCP
//! backends are shown to agree. Deployed, [`KvServer::run`] is the one
//! loop around them: it sleeps on a single [`Waker`] that the link's and
//! the gateway's reader threads and every [`ServerHandle`] signal, with
//! the next tick as its deadline.
//!
//! Session semantics are wired here: a [`LinkEvent::SessionEstablished`]
//! calls `reconnected()` on the replica, which re-syncs state with a
//! `PrepareReq` (paper §4.1.3) because messages from the previous session
//! may be lost.

use crate::frame::{self, kind, FrameReader};
use crate::link::{lock_unpoisoned, Inbox, LinkEvent, NetworkLink, WakeSource, Waker};
use crate::tcp::unblock_accept;
use kvstore::{
    shard_of_key, KvCommand, KvWire, ReadMode, ShardedKvNode, TxnCoordinator, TxnId, TxnState,
};
use omnipaxos::wire::Wire;
use omnipaxos::{OmniMessage, PaxosMsg, ServiceMsg};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifier of one client connection on the gateway.
pub type ConnId = u64;

/// One gateway connection: the socket plus a reply buffer. Replies are
/// appended here and written with one `write_all` per
/// [`ClientGateway::flush_replies`] call, so all replies a pump cycle
/// produces — typically one per command in the decided batch — ride a
/// single syscall per connection.
struct GatewayConn {
    stream: TcpStream,
    wbuf: Vec<u8>,
}

/// Accepts client connections and shuttles [`KvWire`] frames.
///
/// Replies are buffered per connection and written from the server
/// thread at pump boundaries (client traffic is request/reply, so there
/// is no backpressure problem a writer thread would solve); requests
/// arrive via per-connection reader threads, a whole socket read's worth
/// at a time.
pub struct ClientGateway {
    requests: Arc<Inbox<(ConnId, KvWire)>>,
    conns: Arc<Mutex<HashMap<ConnId, GatewayConn>>>,
    shutdown: Arc<AtomicBool>,
    /// The acceptor thread and a dup of its listener (to unblock it with).
    acceptor: Option<(JoinHandle<()>, TcpListener)>,
    local_addr: SocketAddr,
    /// Coalesced reply writes issued / reply frames carried by them.
    reply_batches: u64,
    reply_frames: u64,
}

impl ClientGateway {
    /// Serve client connections on `listener`.
    pub fn bind(listener: TcpListener) -> std::io::Result<Self> {
        let local_addr = listener.local_addr()?;
        let requests = Arc::new(Inbox::new(WakeSource::Gateway));
        let conns: Arc<Mutex<HashMap<ConnId, GatewayConn>>> = Arc::new(Mutex::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let listener_dup = listener.try_clone()?;
        let acceptor = {
            let requests = Arc::clone(&requests);
            let conns = Arc::clone(&conns);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("kv-gateway".into())
                .spawn(move || gateway_accept(listener, requests, conns, shutdown))?
        };
        Ok(ClientGateway {
            requests,
            conns,
            shutdown,
            acceptor: Some((acceptor, listener_dup)),
            local_addr,
            reply_batches: 0,
            reply_frames: 0,
        })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Drain requests received since the last call.
    pub fn poll(&mut self) -> Vec<(ConnId, KvWire)> {
        self.requests.drain()
    }

    /// Have the connection readers signal `waker` after queueing requests.
    pub(crate) fn set_waker(&mut self, waker: Waker) {
        self.requests.set_waker(waker);
    }

    /// Queue `msg` for a client connection. Nothing hits the socket until
    /// [`ClientGateway::flush_replies`]; replies to dropped connections
    /// are silently discarded there (the client's retry loop owns
    /// recovery).
    pub fn reply(&mut self, conn: ConnId, msg: &KvWire) {
        let mut conns = lock_unpoisoned(&self.conns);
        if let Some(c) = conns.get_mut(&conn) {
            c.wbuf
                .extend_from_slice(&frame::encode_frame(kind::KV, &msg.to_bytes()));
            self.reply_frames += 1;
        }
    }

    /// Write every buffered reply: one `write_all` per connection with
    /// pending replies, so a decided batch of N commands costs one reply
    /// syscall per client instead of N.
    pub fn flush_replies(&mut self) {
        let mut conns = lock_unpoisoned(&self.conns);
        let mut dead = Vec::new();
        for (&id, c) in conns.iter_mut() {
            if c.wbuf.is_empty() {
                continue;
            }
            let mut w = &c.stream;
            let ok = w.write_all(&c.wbuf).is_ok();
            c.wbuf.clear();
            if ok {
                self.reply_batches += 1;
            } else {
                dead.push(id);
            }
        }
        for id in dead {
            conns.remove(&id);
        }
    }

    /// `(coalesced reply writes, reply frames carried)` since boot.
    pub fn reply_stats(&self) -> (u64, u64) {
        (self.reply_batches, self.reply_frames)
    }
}

impl Drop for ClientGateway {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for (_, c) in lock_unpoisoned(&self.conns).drain() {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
        // The acceptor blocks in `accept`; should nothing get it out, it
        // stays detached rather than hanging this drop.
        if let Some((thread, listener)) = self.acceptor.take() {
            if unblock_accept(listener, self.local_addr) {
                let _ = thread.join();
            }
        }
    }
}

fn gateway_accept(
    listener: TcpListener,
    requests: Arc<Inbox<(ConnId, KvWire)>>,
    conns: Arc<Mutex<HashMap<ConnId, GatewayConn>>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut next_id: ConnId = 0;
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return; // woken by `unblock_accept`
        }
        let Ok((stream, _)) = accepted else {
            // fd exhaustion fails `accept` at once, over and over; breathe
            // until connections close rather than spin on the error.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let _ = stream.set_nodelay(true);
        // fd exhaustion can fail the dup; drop the connection and let the
        // client's retry loop come back when it clears.
        let Ok(reader) = stream.try_clone() else {
            continue;
        };
        next_id += 1;
        let id = next_id;
        lock_unpoisoned(&conns).insert(
            id,
            GatewayConn {
                stream,
                wbuf: Vec::new(),
            },
        );
        let requests = Arc::clone(&requests);
        let conns = Arc::clone(&conns);
        // Reader threads exit on connection error; on gateway drop the
        // sockets are shut down, which unblocks them.
        let _ = std::thread::Builder::new()
            .name(format!("kv-conn-{id}"))
            .spawn(move || {
                let mut frames = FrameReader::new(&reader);
                let mut burst = Vec::new();
                loop {
                    let read = frames.read_burst(|f| {
                        burst.extend(frame::decode_kind(f, kind::KV).map(|msg| (id, msg)));
                    });
                    // One lock, one wake for everything this read carried:
                    // a pipelined window arrives as one admission batch.
                    requests.push(burst.drain(..));
                    if read.is_err() {
                        break;
                    }
                }
                lock_unpoisoned(&conns).remove(&id);
            });
    }
}

/// Default bound on commands in flight per shard; past it new requests
/// are shed with [`KvWire::Retry`] instead of growing the queue.
pub const DEFAULT_MAX_PENDING: usize = 4096;

/// A call posted through a [`ServerHandle`], run by [`KvServer::run`].
type Call<L> = Box<dyn FnOnce(&mut KvServer<L>) + Send>;

/// Remote control for a server inside [`KvServer::run`]: closures posted
/// here execute on the server's own thread, between pump cycles, and wake
/// the loop like any other event. This is how tests and operators inspect
/// or perturb a running server without a drive loop of their own.
pub struct ServerHandle<L> {
    calls: Arc<Inbox<Call<L>>>,
}

impl<L> Clone for ServerHandle<L> {
    fn clone(&self) -> Self {
        ServerHandle {
            calls: Arc::clone(&self.calls),
        }
    }
}

impl<L> ServerHandle<L> {
    /// Run `f` on the server's thread and return its result. A call posted
    /// before `run` starts waits for it; `None` if the loop will not get
    /// to it — `run` returned (or the server was dropped) with the call
    /// still queued, or had already done so when it was posted.
    pub fn call<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut KvServer<L>) -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = mpsc::channel();
        let call: Call<L> = Box::new(move |server| {
            let _ = tx.send(f(server));
        });
        // A call the loop drops unrun takes `tx` with it: `recv` errors.
        self.calls.push([call]);
        rx.recv().ok()
    }
}

/// What one pump cycle did.
struct Cycle {
    /// Messages handled, requests served, results delivered.
    work: usize,
    /// Whether anything was handed to the link for peers.
    sent: bool,
    /// Client frames moved: requests served plus replies queued.
    client_frames: u64,
}

/// Burst pacing in [`KvServer::run`]: after a cycle that moved `n` client
/// frames the loop does not drain again until `min(n * PACE_PER_FRAME,
/// PACE_MAX)` has passed since that cycle's drain. Eight microseconds is
/// about twice what one op costs the whole pipeline (reader and writer
/// threads, followers, the client's own turn-around) on the hosts this
/// runs on, so a loaded server works at most half the time: a pipelined
/// window is served at the pace of a timer, not at whatever pace the
/// scheduler grants a dozen threads that hand it from one to the next —
/// measured on a shared 2-vCPU host, the same 256-op window went round
/// anywhere between 150 k and 320 k ops/s from one 40 ms stretch to the
/// next without the spacing, and within 1 % of its ceiling with it. A lone
/// request moves one frame and is never held back (see `PACE_MIN_SLEEP`),
/// and a window so large that its own round trip outlasts `PACE_MAX` is
/// not slowed either: the spacing has passed before its acks return.
const PACE_PER_FRAME: Duration = Duration::from_micros(8);
/// Longest spacing — also the longest `stop`, a tick or a
/// [`ServerHandle`] call can be kept waiting by it.
const PACE_MAX: Duration = Duration::from_millis(1);
/// A sleep shorter than the OS timer slack (50 µs on Linux) oversleeps by
/// more than it asked for; spacings that short are skipped.
const PACE_MIN_SLEEP: Duration = Duration::from_micros(50);

/// What [`KvServer::run`] has done so far — enough to tell an event-driven
/// loop from a spinning or an oversleeping one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Pump cycles run, and how many of them found work.
    pub pumps: u64,
    pub busy_pumps: u64,
    pub ticks: u64,
    /// Times the loop went to sleep, and how many of those sleeps ran into
    /// the tick deadline instead of being woken.
    pub parks: u64,
    pub timeouts: u64,
    /// Cycles followed by a burst-pacing sleep.
    pub paced: u64,
    /// Wake signals sent by the link's readers, the gateway's readers and
    /// [`ServerHandle`] calls.
    pub wakes_link: u64,
    pub wakes_gateway: u64,
    pub wakes_control: u64,
}

/// One shard's client-facing state on this gateway: the admission
/// watermarks, the requests waiting on the replica, and this cycle's
/// admitted batch. Plain data: every admission rule is a method here.
#[derive(Default)]
struct Lane {
    /// Commands in flight: `(client, seq) -> conn`.
    pending: HashMap<(u64, u64), ConnId>,
    /// Highest admitted seq per client. Pipelined clients keep a window of
    /// seqs in flight; admission is kept contiguous per client (a fresh
    /// seq is admitted only if it extends `admitted + 1`), so a shed
    /// command can never be overtaken by a later one from the same
    /// client. Without this, the session table (which stores only the
    /// highest applied seq) would swallow the shed command's retry as a
    /// duplicate and the write would be silently lost. Sharded clients
    /// use one session (client id + seq space) per shard, which is why
    /// the watermarks live in the lane.
    admitted: HashMap<u64, u64>,
    /// Last gap-shed `(conn, seq)` per client. A client that spreads ONE
    /// seq space over several shards (the routing-oblivious closed-loop
    /// client) leaves permanent holes in each shard's seq stream; the gap
    /// rule alone would `Retry` such a client forever. Clients transmit
    /// their unsent window in seq order over a FIFO connection, so if the
    /// *same* connection presents the same seq twice with no intervening
    /// request from that client, every seq in the gap is provably not
    /// coming here — the watermark may re-init to `seq - 1`. Any
    /// intervening arrival (admitted, duplicate, or even overload-shed)
    /// clears the record, because it proves lower seqs are still in
    /// flight to this shard.
    gap_shed: HashMap<u64, (ConnId, u64)>,
    /// The connection on which each client was last sent a leader
    /// redirect for a write (see [`Lane::admit`]).
    redirected: HashMap<u64, ConnId>,
    /// Log-free reads in flight: `(client, seq) -> conn`. Separate from
    /// `pending` because these never ride the log: they are not
    /// invalidated by leadership changes (lease reads serve in the same
    /// cycle; read-index reads carry their own deadline) and must not be
    /// drained with `Retry` when this node stops leading the shard.
    pending_reads: HashMap<(u64, u64), ConnId>,
    /// This cycle's admitted commands, proposed together at its end, and
    /// where each one's reply goes.
    batch: Vec<KvCommand>,
    reply_to: Vec<((u64, u64), ConnId)>,
}

/// What [`Lane::admit`] made of a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Into this cycle's batch.
    Queued,
    /// Answered with a redirect to the shard's leader.
    Redirect,
    /// Answered with `Retry`: a gap before it, or the overload bound.
    Shed,
}

impl Lane {
    /// Admit a write that arrived on `conn` into this cycle's batch, or
    /// say why not. `leading`: this node leads the shard.
    fn admit(
        &mut self,
        cmd: KvCommand,
        conn: ConnId,
        leading: bool,
        max_pending: usize,
    ) -> Admission {
        // A connection on which this client was redirected stays
        // redirected: those frames are ahead of anything said now, and on
        // reading them the client resends its whole window, in seq order,
        // on a new connection. Were this node to win the shard in between
        // and admit the later seqs as a first contact, they would overtake
        // the redirected ones, and the session table would then refuse the
        // resent lower seqs as stale duplicates — writes answered
        // `applied: false` that nobody ever applied.
        if !leading || self.redirected.get(&cmd.client) == Some(&conn) {
            self.redirected.insert(cmd.client, conn);
            return Admission::Redirect;
        }
        // Any other connection carries the resent, in-order window.
        self.redirected.remove(&cmd.client);
        let key = (cmd.client, cmd.seq);
        let seq = cmd.seq;
        // Any arrival from this client clears its gap record: a lower seq
        // showing up proves the gap is still being retransmitted.
        let gap_prev = self.gap_shed.remove(&cmd.client);
        // First contact with a client admits whatever seq it leads with (a
        // client always transmits its outstanding window in seq order, so
        // the lowest outstanding seq arrives first).
        let mut admitted = *self
            .admitted
            .entry(cmd.client)
            .or_insert_with(|| seq.saturating_sub(1));
        if seq > admitted + 1 {
            if gap_prev != Some((conn, seq)) {
                // Gap: an earlier seq from this client was shed — or never
                // routed to this shard at all. Shed this one too:
                // admitting it would let it overtake a shed earlier
                // command in the log, and the session table (highest
                // applied seq) would then drop that command's retry as a
                // duplicate — a silently lost write. Record the shed so a
                // repeat can tell the two cases apart.
                self.gap_shed.insert(cmd.client, (conn, seq));
                return Admission::Shed;
            }
            // The same connection re-sent the same seq with nothing from
            // this client in between. The client transmits its unsent
            // window in seq order over a FIFO connection, so every seq
            // inside the gap is provably not coming here (it belongs to
            // other shards). Re-initialize the watermark, exactly like
            // first contact.
            admitted = seq.saturating_sub(1);
            self.admitted.insert(cmd.client, admitted);
        }
        // Overload shedding: a full pending queue means this shard's
        // replication is behind client arrival; answer `Retry` now rather
        // than queueing unboundedly. Duplicates (seq ≤ admitted) are
        // exempt — re-registering them is free and the session layer
        // deduplicates on apply.
        if seq > admitted
            && self.pending.len() + self.batch.len() >= max_pending
            && !self.pending.contains_key(&key)
        {
            return Admission::Shed;
        }
        self.admitted.insert(cmd.client, admitted.max(seq));
        self.reply_to.push((key, conn));
        self.batch.push(cmd);
        Admission::Queued
    }

    /// The replica took the first `accepted` commands of this cycle's
    /// batch: they are pending now. Returns `(conn, seq)` of the rest,
    /// which are owed a `Retry`.
    fn proposed(&mut self, accepted: usize) -> impl Iterator<Item = (ConnId, u64)> + '_ {
        let mut rest = self.reply_to.drain(..);
        self.pending.extend(rest.by_ref().take(accepted));
        rest.map(|((_, seq), conn)| (conn, seq))
    }

    /// This node does not lead the shard (any more). Commands in flight
    /// have an unknown fate, so they are returned to be told to retry (the
    /// session layer deduplicates any that decided after all) rather than
    /// leak and wedge the overload bound. Admission watermarks describe
    /// only what *this* leadership stint admitted; kept, they would make
    /// every fresh seq a gap once leadership returns — an unbreakable
    /// Retry loop — so first contact re-initializes them. Log-free reads
    /// stay.
    fn step_down(&mut self) -> impl Iterator<Item = ((u64, u64), ConnId)> + '_ {
        self.admitted.clear();
        self.gap_shed.clear();
        self.pending.drain()
    }

    /// The connection waiting on the result for `(client, seq)`, if any.
    fn complete(&mut self, client: u64, seq: u64) -> Option<ConnId> {
        let key = (client, seq);
        self.pending
            .remove(&key)
            .or_else(|| self.pending_reads.remove(&key))
    }
}

/// One kv server: per-shard replicas + shared replication link + optional
/// client gateway. Every shard's consensus traffic rides the same link
/// sessions (group envelopes, coalesced BLE — see `kvstore::shard`); the
/// gateway routes each request to the shard owning its key and keeps the
/// PR 6 contiguous-admission/proposal-batching pipeline *per shard*, so
/// one pump still turns one admission window into one `AcceptDecide` and
/// one group-commit flush per shard.
pub struct KvServer<L> {
    node: ShardedKvNode,
    link: Option<L>,
    gateway: Option<ClientGateway>,
    /// One [`Lane`] per shard.
    lanes: Vec<Lane>,
    /// Overload bound on each lane's `pending`: requests beyond it get
    /// `Retry`.
    max_pending: usize,
    shed: u64,
    prepare_reqs: u64,
    reconnects: u64,
    /// Proposal batching: shard-batches proposed (one per shard per pump
    /// cycle with traffic), and commands proposed — `proposed_ops /
    /// proposal_batches` is the mean contiguous append run handed to one
    /// consensus round.
    proposal_batches: u64,
    proposed_ops: u64,
    /// The cross-shard transaction coordinator (2PC over the shard logs;
    /// see `kvstore::txn`). Every gateway has one: any node can
    /// coordinate, and its scanner finishes transactions whose
    /// coordinator died.
    txn: TxnCoordinator,
    /// Transactions this gateway is driving for a connected client:
    /// `txn id -> conn` (the reply target once the outcome is known).
    pending_txns: HashMap<TxnId, ConnId>,
    /// Multi-key requests rejected because their keys span shards.
    cross_shard_rejects: u64,
    /// What [`KvServer::run`] sleeps on; installed on the link and the
    /// gateway so their reader threads can end that sleep.
    waker: Waker,
    calls: Arc<Inbox<Call<L>>>,
    stats: LoopStats,
}

impl<L> Drop for KvServer<L> {
    fn drop(&mut self) {
        // Handles outlive the server; fail their queued calls.
        self.calls.close();
    }
}

impl<L: NetworkLink<ServiceMsg<kvstore::KvCommand>>> KvServer<L> {
    /// A server over a sharded node: one consensus group per shard,
    /// multiplexed over this server's single link. A node of one shard
    /// is the unsharded deployment, with its pre-sharding wire format.
    pub fn new_sharded(node: ShardedKvNode, mut link: L) -> Self {
        let n = node.n_shards();
        let waker = Waker::default();
        link.set_waker(waker.clone());
        let calls = Arc::new(Inbox::new(WakeSource::Control));
        calls.set_waker(waker.clone());
        // The boot-time nonce keeps this incarnation's coordinator
        // identity distinct from any predecessor whose proposals may
        // still be in flight in the shards' logs.
        let nonce = std::time::UNIX_EPOCH
            .elapsed()
            .map(|d| (d.as_millis() as u32) ^ d.subsec_nanos())
            .unwrap_or(1);
        let txn = TxnCoordinator::with_nonce(node.pid(), nonce);
        KvServer {
            node,
            link: Some(link),
            gateway: None,
            lanes: (0..n).map(|_| Lane::default()).collect(),
            max_pending: DEFAULT_MAX_PENDING,
            shed: 0,
            prepare_reqs: 0,
            reconnects: 0,
            proposal_batches: 0,
            proposed_ops: 0,
            txn,
            pending_txns: HashMap::new(),
            cross_shard_rejects: 0,
            waker,
            calls,
            stats: LoopStats::default(),
        }
    }

    /// Attach the client-facing gateway.
    pub fn with_gateway(mut self, mut gateway: ClientGateway) -> Self {
        gateway.set_waker(self.waker.clone());
        self.gateway = Some(gateway);
        self
    }

    /// A handle for posting calls to this server once it is in
    /// [`KvServer::run`].
    pub fn handle(&self) -> ServerHandle<L> {
        ServerHandle {
            calls: Arc::clone(&self.calls),
        }
    }

    /// Counters of [`KvServer::run`]'s loop (all zero for a server driven
    /// by hand through `pump`/`tick`).
    pub fn loop_stats(&self) -> LoopStats {
        let [wakes_link, wakes_gateway, wakes_control] = self.waker.wakes();
        LoopStats {
            wakes_link,
            wakes_gateway,
            wakes_control,
            ..self.stats
        }
    }

    /// Cap the in-flight command queue (default
    /// [`DEFAULT_MAX_PENDING`]). Under overload the server replies
    /// [`KvWire::Retry`] instead of queueing without bound; the client's
    /// backoff loop resubmits.
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Requests shed with `Retry` because the pending queue was full or
    /// because an earlier seq from the same client was shed (admission
    /// stays contiguous per client).
    pub fn shed_requests(&self) -> u64 {
        self.shed
    }

    /// Multi-key requests rejected with [`KvWire::CrossShard`] because
    /// their keys span shards — the PR 7 first-key routing hazard, now a
    /// typed error instead of a silent wrong-shard mutation.
    pub fn cross_shard_rejects(&self) -> u64 {
        self.cross_shard_rejects
    }

    /// Cross-shard transactions this gateway is currently driving.
    pub fn txns_in_flight(&self) -> usize {
        self.txn.in_flight()
    }

    /// `(pump cycles that proposed, commands proposed)` — the proposal
    /// batching evidence: one cycle's worth of client commands becomes
    /// one contiguous append run, replicated as a single `AcceptDecide`
    /// per follower at the next drain.
    pub fn proposal_stats(&self) -> (u64, u64) {
        (self.proposal_batches, self.proposed_ops)
    }

    /// `(coalesced reply writes, reply frames carried)` from the gateway
    /// — the write-coalescing evidence on the client-facing side.
    pub fn gateway_reply_stats(&self) -> (u64, u64) {
        self.gateway
            .as_ref()
            .map(|g| g.reply_stats())
            .unwrap_or((0, 0))
    }

    pub fn node(&self) -> &ShardedKvNode {
        &self.node
    }

    pub fn node_mut(&mut self) -> &mut ShardedKvNode {
        &mut self.node
    }

    pub fn link(&self) -> Option<&L> {
        self.link.as_ref()
    }

    /// Detach and return the transport — the "kill the leader's
    /// transport" fault. The replica keeps running but is mute until
    /// [`KvServer::set_transport`] installs a replacement.
    pub fn kill_transport(&mut self) -> Option<L> {
        self.link.take()
    }

    /// Install a (new) transport after [`KvServer::kill_transport`].
    pub fn set_transport(&mut self, mut link: L) {
        link.set_waker(self.waker.clone());
        self.link = Some(link);
    }

    /// `PrepareReq` messages received so far — observable evidence of
    /// session-driven re-sync (paper §4.1.3).
    pub fn prepare_reqs_received(&self) -> u64 {
        self.prepare_reqs
    }

    /// `SessionEstablished` events that triggered a `reconnected()` call.
    pub fn reconnects_seen(&self) -> u64 {
        self.reconnects
    }

    /// One I/O cycle: drain the link (messages and session events), the
    /// gateway (client requests), the replica (results), then flush
    /// outgoing replication traffic and buffered client replies.
    ///
    /// Returns the number of units of work done (messages handled,
    /// requests served, results delivered).
    pub fn pump(&mut self) -> usize {
        self.cycle().work
    }

    /// [`KvServer::pump`], also reporting whether anything was sent to
    /// peers — [`KvServer::run`] sleeps only after a cycle that neither
    /// handled nor sent anything — and how many client frames it moved.
    fn cycle(&mut self) -> Cycle {
        let replies_before = self.gateway_reply_stats().1;
        let mut work = 0;
        if let Some(link) = self.link.as_mut() {
            for ev in link.poll() {
                work += 1;
                match ev {
                    LinkEvent::Message { from, msg } => {
                        if is_prepare_req(&msg) {
                            self.prepare_reqs += 1;
                        }
                        self.node.handle(from, msg);
                    }
                    LinkEvent::SessionEstablished { peer, .. } => {
                        // New session ⇒ prior messages may be lost ⇒ every
                        // shard asks the leader (whoever it is) to re-sync.
                        self.reconnects += 1;
                        self.node.reconnected(peer);
                    }
                    LinkEvent::SessionDropped { .. } => {
                        // Liveness is the BLE's job (heartbeats); nothing
                        // to do until the session comes back.
                    }
                }
            }
        }
        let served = self.serve_clients();
        let (delivered, sent) = self.settle();
        let replied = self.gateway_reply_stats().1 - replies_before;
        Cycle {
            work: work + served + delivered,
            sent,
            client_frames: served as u64 + replied,
        }
    }

    /// Advance protocol timers (election, heartbeats, resends).
    pub fn tick(&mut self) {
        self.node.tick();
        self.txn.tick(&mut self.node);
        self.settle();
    }

    /// The tail of every cycle: deliver results, flush outgoing traffic,
    /// and repeat while the flush itself produced results — a group of one
    /// decides its own proposal inside the flush, and a decided 2PC record
    /// makes the coordinator propose the next. Then write the replies, so
    /// nothing a cycle caused is left waiting for the next event.
    fn settle(&mut self) -> (usize, bool) {
        let mut delivered = self.deliver_results();
        let mut sent = false;
        loop {
            sent |= self.flush();
            match self.deliver_results() {
                0 => break,
                n => delivered += n,
            }
        }
        if let Some(g) = self.gateway.as_mut() {
            g.flush_replies();
        }
        (delivered, sent)
    }

    fn serve_clients(&mut self) -> usize {
        let Some(gateway) = self.gateway.as_mut() else {
            return 0;
        };
        let n_shards = self.node.n_shards();
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            if !self.node.is_leader(s as u32) {
                for ((_, seq), conn) in lane.step_down() {
                    gateway.reply(conn, &KvWire::Retry { seq });
                }
            }
        }
        // Drain every queued request before flushing: all commands
        // admitted in this cycle form one contiguous append run *per
        // shard*, which the replication layer batches into a single
        // `AcceptDecide` per follower per shard at the next drain
        // (proposal batching).
        let mut served = 0;
        for (conn, msg) in gateway.poll() {
            served += 1;
            let cmd = match msg {
                KvWire::Request(cmd) => cmd,
                KvWire::ShardsReq => {
                    gateway.reply(
                        conn,
                        &KvWire::Shards {
                            leaders: self.node.leaders(),
                        },
                    );
                    continue;
                }
                KvWire::ReadRequest {
                    mode,
                    client,
                    seq,
                    key,
                } => {
                    let shard = shard_of_key(&key, n_shards);
                    let lane = &mut self.lanes[shard as usize];
                    match mode {
                        // Read-index reads serve at ANY replica — this is
                        // the follower-read path, so no leader redirect.
                        // The result (or a deadline `applied: false`)
                        // comes back through `deliver_results`.
                        ReadMode::ReadIndex => {
                            let _ = self.node.shard_mut(shard).read(
                                ReadMode::ReadIndex,
                                client,
                                seq,
                                key,
                            );
                            lane.pending_reads.insert((client, seq), conn);
                            continue;
                        }
                        // Lease reads serve locally only while this node
                        // holds the shard's lease; they complete in this
                        // same pump cycle with no log round. Without the
                        // lease: a non-leader redirects, the leader
                        // answers `Retry` and the CLIENT falls through to
                        // the log path under its write session — a
                        // server-side conversion would inject the read's
                        // out-of-band seq into the admission watermark and
                        // wedge pipelined writers.
                        ReadMode::Lease => {
                            if self.node.lease_valid(shard) {
                                let _ = self.node.shard_mut(shard).read(
                                    ReadMode::Lease,
                                    client,
                                    seq,
                                    key,
                                );
                                lane.pending_reads.insert((client, seq), conn);
                            } else if self.node.is_leader(shard) {
                                gateway.reply(conn, &KvWire::Retry { seq });
                            } else {
                                gateway.reply(conn, &redirect(&self.node, shard));
                            }
                            continue;
                        }
                        // Log mode rides the replicated read-marker path
                        // below, through the same admission machinery as
                        // writes (the marker consumes a session seq, so it
                        // must respect the contiguity watermark).
                        ReadMode::Log => KvCommand {
                            client,
                            seq,
                            op: kvstore::KvOp::Read { key },
                        },
                    }
                }
                KvWire::TxnRequest { client, seq, spec } => {
                    // Cross-shard transactions bypass admission: the txn
                    // id (client, seq) deduplicates across retries and
                    // gateways via the coordinator shard's decision
                    // record, not the session table.
                    let txn = (client, seq);
                    match self.txn.begin(&mut self.node, txn, &spec) {
                        // Retransmit fast path: the decision is already
                        // recorded locally — replay it.
                        Some(committed) => gateway.reply(conn, &txn_verdict(txn, committed)),
                        None => {
                            self.pending_txns.insert(txn, conn);
                        }
                    }
                    continue;
                }
                KvWire::TxnStatusReq { client, seq } => {
                    let txn = (client, seq);
                    let mut state = TxnState::Unknown;
                    for s in 0..n_shards as u32 {
                        let sm = self.node.shard(s).state_machine();
                        if let Some(&c) =
                            sm.decisions().get(&txn).or_else(|| sm.resolved().get(&txn))
                        {
                            state = if c {
                                TxnState::Committed
                            } else {
                                TxnState::Aborted
                            };
                            break;
                        }
                        if sm.prepared().contains_key(&txn) {
                            state = TxnState::Pending;
                        }
                    }
                    gateway.reply(conn, &KvWire::TxnStatus { client, seq, state });
                    continue;
                }
                _ => continue, // clients only send requests
            };
            // A multi-key op whose keys live on different shards is
            // rejected loudly (the client reissues it as a transaction),
            // never first-key routed. So are raw 2PC records: they are
            // coordinator-internal, and a client's could corrupt the lock
            // table.
            if self.node.spans_shards(&cmd.op)
                || matches!(
                    cmd.op,
                    kvstore::KvOp::TxnPrepare(_)
                        | kvstore::KvOp::TxnDecide { .. }
                        | kvstore::KvOp::TxnCommit { .. }
                        | kvstore::KvOp::TxnAbort { .. }
                )
            {
                self.cross_shard_rejects += 1;
                gateway.reply(conn, &KvWire::CrossShard { seq: cmd.seq });
                continue;
            }
            let shard = self.node.shard_of(&cmd.op);
            let (leading, seq) = (self.node.is_leader(shard), cmd.seq);
            match self.lanes[shard as usize].admit(cmd, conn, leading, self.max_pending) {
                Admission::Queued => {}
                Admission::Redirect => gateway.reply(conn, &redirect(&self.node, shard)),
                Admission::Shed => {
                    self.shed += 1;
                    gateway.reply(conn, &KvWire::Retry { seq });
                }
            }
        }
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            if lane.batch.is_empty() {
                continue;
            }
            let accepted = match self.node.submit_batch(s as u32, lane.batch.drain(..)) {
                Ok(n) | Err((n, _)) => n,
            };
            for (conn, seq) in lane.proposed(accepted) {
                gateway.reply(conn, &KvWire::Retry { seq });
            }
            if accepted > 0 {
                self.proposal_batches += 1;
                self.proposed_ops += accepted as u64;
            }
        }
        served
    }

    fn deliver_results(&mut self) -> usize {
        let results = self.node.take_results();
        self.txn.observe(&mut self.node, &results);
        let Some(gateway) = self.gateway.as_mut() else {
            self.txn.take_outcomes();
            return 0;
        };
        let n = results.len();
        for (shard, res) in results {
            if let Some(conn) = self.lanes[shard as usize].complete(res.client, res.seq) {
                gateway.reply(conn, &KvWire::Reply(res));
            }
        }
        for outcome in self.txn.take_outcomes() {
            if let Some(conn) = self.pending_txns.remove(&outcome.txn) {
                gateway.reply(conn, &txn_verdict(outcome.txn, outcome.committed));
            }
        }
        n
    }

    /// Hand the replica's outgoing messages to the link; true if any.
    fn flush(&mut self) -> bool {
        let out = self.node.outgoing();
        let Some(link) = self.link.as_mut() else {
            return false; // drained and dropped: transport is dead
        };
        let sent = !out.is_empty();
        for (to, msg) in out {
            link.send(to, msg);
        }
        sent
    }

    /// Drive the server until `stop` is set, ticking every `tick_every`.
    ///
    /// The loop is event-driven: after a cycle that found nothing to do it
    /// sleeps on the server's [`Waker`] until a reader thread queues link
    /// events or client requests, a [`ServerHandle`] posts a call, or the
    /// next tick is due — whichever comes first, so `stop` is noticed
    /// within one tick. No wake-up can be lost: the flag is cleared
    /// *before* the queues are drained, and producers set it *after*
    /// queueing, so work that misses this cycle's drain ends the sleep
    /// that follows it. A cycle that moved a burst of client frames is
    /// followed by a spacing of at most `PACE_MAX` before the next drain
    /// (see `PACE_PER_FRAME`); a lone request never is.
    pub fn run(mut self, tick_every: Duration, stop: Arc<AtomicBool>) -> Self {
        self.waker.attach();
        self.calls.reopen();
        let mut next_tick = Instant::now() + tick_every;
        while !stop.load(Ordering::SeqCst) {
            self.waker.clear();
            let calls = self.calls.drain();
            let busy = !calls.is_empty();
            for call in calls {
                call(&mut self);
            }
            let now = Instant::now();
            if now >= next_tick {
                next_tick = now + tick_every;
                self.stats.ticks += 1;
                self.tick();
            }
            let cycle = self.cycle();
            self.stats.pumps += 1;
            if cycle.work > 0 {
                self.stats.busy_pumps += 1;
            }
            // Burst pacing: the next drain keeps its distance from this one.
            let frames = u32::try_from(cycle.client_frames).unwrap_or(u32::MAX);
            let spacing = PACE_PER_FRAME.saturating_mul(frames).min(PACE_MAX);
            let left = (now + spacing).saturating_duration_since(Instant::now());
            if left >= PACE_MIN_SLEEP {
                self.stats.paced += 1;
                std::thread::sleep(left);
            }
            if busy || cycle.sent || cycle.work > 0 {
                continue;
            }
            self.stats.parks += 1;
            if !self.waker.wait_until(next_tick) {
                self.stats.timeouts += 1;
            }
        }
        // Calls that raced `stop` are dropped unrun, and so are later ones:
        // their callers get `None` instead of waiting on a stopped loop.
        drop(self.calls.close());
        self
    }
}

/// Where a request for `shard` goes when this node does not lead it.
/// Single-shard servers speak the pre-sharding protocol; sharded ones
/// tell the client *which* shard to re-route.
fn redirect(node: &ShardedKvNode, shard: u32) -> KvWire {
    let leader = node.leader_of(shard);
    if node.n_shards() == 1 {
        KvWire::Redirect { leader }
    } else {
        KvWire::ShardRedirect { shard, leader }
    }
}

/// The reply that tells a client its transaction's verdict.
fn txn_verdict((client, seq): TxnId, committed: bool) -> KvWire {
    KvWire::Reply(kvstore::KvResult {
        client,
        seq,
        value: Some(committed as i64),
        applied: committed,
    })
}

fn is_prepare_req<T: omnipaxos::Entry>(msg: &ServiceMsg<T>) -> bool {
    match msg {
        // Sharded peers wrap per-group traffic in the group envelope.
        ServiceMsg::Group { msg, .. } => is_prepare_req(msg),
        ServiceMsg::Omni {
            msg: OmniMessage::Paxos(m),
            ..
        } => matches!(m.msg, PaxosMsg::PrepareReq),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{SimHub, SimLink};
    use kvstore::{KvCommand, KvNode, KvOp};
    use simulator::NetworkConfig;

    fn solo_hub() -> SimHub<ServiceMsg<KvCommand>> {
        SimHub::new(NetworkConfig {
            nodes: vec![1],
            default_latency_us: 1_000,
            jitter_us: 0,
            nic_bytes_per_sec: None,
            priority_bytes: 0,
            seed: 1,
        })
    }

    /// A one-replica, one-shard server.
    fn solo_server<L: NetworkLink<ServiceMsg<KvCommand>>>(link: L) -> KvServer<L> {
        KvServer::new_sharded(
            ShardedKvNode::from_shards(vec![KvNode::new(1, vec![1])]),
            link,
        )
    }

    /// A handle call must never wait on a loop that will not run it: one
    /// posted before `run` is served, one still queued when `run` returns
    /// and one posted afterwards both come back `None`.
    #[test]
    fn handle_calls_fail_instead_of_waiting_on_a_stopped_loop() {
        let server = solo_server(solo_hub().link(1));
        let (handle, waker) = (server.handle(), server.waker.clone());
        let stop = Arc::new(AtomicBool::new(false));

        let early = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.call(|s| s.node().pid()))
        };
        let running = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || server.run(Duration::from_millis(5), stop))
        };
        assert_eq!(early.join().unwrap(), Some(1), "queued before `run`");

        // Stop from inside the loop, then block it until a second call is
        // queued behind this one: that call can only be dropped at exit.
        let (queued_tx, queued_rx) = mpsc::channel::<()>();
        let stopper = {
            let (handle, stop) = (handle.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                handle.call(move |_| {
                    stop.store(true, Ordering::SeqCst);
                    let _ = queued_rx.recv_timeout(Duration::from_secs(5));
                })
            })
        };
        while !stop.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let raced = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.call(|s| s.node().pid()))
        };
        while waker.wakes()[WakeSource::Control as usize] < 3 {
            std::thread::yield_now();
        }
        queued_tx.send(()).unwrap();
        assert_eq!(stopper.join().unwrap(), Some(()));
        assert_eq!(raced.join().unwrap(), None, "queued when `run` returned");

        let server = running.join().unwrap();
        assert_eq!(handle.call(|s| s.node().pid()), None, "posted after `run`");
        drop(server);
        assert_eq!(handle.call(|s| s.node().pid()), None, "server gone");
    }

    /// Pump `server` until `n` frames have come back on `client`.
    fn replies(
        server: &mut KvServer<SimLink<ServiceMsg<KvCommand>>>,
        client: &TcpStream,
        n: usize,
    ) -> Vec<KvWire> {
        client
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < n {
            assert!(Instant::now() < deadline, "{} of {n} replies", got.len());
            server.pump();
            if let Ok(f) = frame::read_frame(&mut &*client) {
                got.push(KvWire::from_bytes(&f.payload).expect("a kv frame"));
            }
        }
        got
    }

    fn put(client: &TcpStream, seq: u64) {
        let request = KvWire::Request(KvCommand {
            client: 7,
            seq,
            op: KvOp::Put {
                key: format!("k{seq}"),
                value: seq as i64,
            },
        });
        frame::write_frame(&mut &*client, kind::KV, &request.to_bytes()).unwrap();
    }

    /// A node that wins the shard between two bursts of one connection
    /// must not admit the second burst: the first was redirected, and the
    /// client resends it — behind seqs the session table would by then
    /// have moved past, so those writes would come back refused without
    /// ever having been applied.
    #[test]
    fn later_seqs_do_not_overtake_redirected_ones_on_the_same_connection() {
        let hub = solo_hub();
        let gateway = ClientGateway::bind(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        let addr = gateway.local_addr();
        let mut server = solo_server(hub.link(1)).with_gateway(gateway);
        assert!(
            !server.node().is_leader(0),
            "no election before the first tick"
        );

        let first = TcpStream::connect(addr).unwrap();
        put(&first, 1);
        put(&first, 2);
        for r in replies(&mut server, &first, 2) {
            assert!(matches!(r, KvWire::Redirect { .. }), "not leading: {r:?}");
        }
        for _ in 0..100 {
            server.tick();
        }
        assert!(server.node().is_leader(0), "a group of one elects itself");
        put(&first, 3);
        let r = replies(&mut server, &first, 1);
        assert!(
            matches!(r[0], KvWire::Redirect { .. }),
            "seq 3 admitted ahead of the redirected 1 and 2: {r:?}"
        );

        // The client's side of a redirect: a new connection, the whole
        // window again, in order.
        let second = TcpStream::connect(addr).unwrap();
        (1..=3).for_each(|seq| put(&second, seq));
        for (seq, r) in (1..=3).zip(replies(&mut server, &second, 3)) {
            match r {
                KvWire::Reply(res) => assert_eq!((res.seq, res.applied), (seq, true)),
                other => panic!("expected a reply to seq {seq}, got {other:?}"),
            }
        }
    }

    /// A group of one decides inside its own flush. The same pump cycle
    /// must apply that and write the reply — under `run` nothing else
    /// would wake the loop before the next tick.
    #[test]
    fn solo_replica_replies_in_the_cycle_that_received_the_request() {
        let hub = solo_hub();
        let gateway = ClientGateway::bind(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        let addr = gateway.local_addr();
        let mut server = solo_server(hub.link(1)).with_gateway(gateway);
        for _ in 0..100 {
            server.tick();
        }
        assert!(server.node().is_leader(0), "a group of one elects itself");

        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let request = KvWire::Request(KvCommand {
            client: 7,
            seq: 1,
            op: KvOp::Put {
                key: "k".into(),
                value: 42,
            },
        });
        frame::write_frame(&mut &client, kind::KV, &request.to_bytes()).unwrap();
        // The connection's reader signals the waker once the request is
        // queued; that signal is the only thing waited for.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.loop_stats().wakes_gateway == 0 {
            assert!(
                Instant::now() < deadline,
                "request never reached the gateway"
            );
            std::thread::yield_now();
        }

        assert!(
            server.pump() >= 2,
            "one request served, one result delivered"
        );
        let reply = frame::read_frame(&mut &client).expect("reply written by that one pump");
        match KvWire::from_bytes(&reply.payload) {
            Ok(KvWire::Reply(res)) => {
                assert_eq!((res.client, res.seq, res.applied), (7, 1, true));
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    /// One step of an admission row: a write from client 7 on a connection
    /// — `Lead` while this node leads the shard, `Follow` while it does
    /// not — with the verdict `admit` must give it, or another lane event.
    #[derive(Clone, Copy)]
    enum Step {
        Lead(ConnId, u64, Admission),
        Follow(ConnId, u64, Admission),
        /// The replica takes the whole batch.
        Propose,
        /// The replica already holds client 7's command of this seq.
        Holding(u64),
        /// A log-free read of this seq is in flight.
        Reading(u64),
        /// Leadership lost; the seqs `step_down` must hand back for `Retry`.
        Deposed(&'static [u64]),
    }

    /// Every admission rule, one row each, on a bare lane with an overload
    /// bound of two: no sockets, no hub, no replica.
    #[test]
    fn admission_rules() {
        use Admission::{Queued, Redirect, Shed};
        use Step::*;
        type Row = (&'static str, &'static [Step], fn(&Lane) -> bool);
        let rows: [Row; 10] = [
            (
                "first contact admits the seq a client leads with",
                &[Lead(1, 5, Queued)],
                |l| l.admitted[&7] == 5,
            ),
            ("in order", &[Lead(1, 5, Queued), Lead(1, 6, Queued)], |l| {
                l.admitted[&7] == 6 && l.batch.len() == 2
            }),
            (
                "a gap is shed and recorded as (conn, seq)",
                &[Lead(1, 1, Queued), Lead(1, 3, Shed)],
                |l| l.gap_shed[&7] == (1, 3) && l.admitted[&7] == 1,
            ),
            (
                "a same-connection repeat re-inits the watermark",
                &[Lead(1, 1, Queued), Lead(1, 3, Shed), Lead(1, 3, Queued)],
                |l| l.admitted[&7] == 3 && l.gap_shed.is_empty(),
            ),
            (
                "a repeat on another connection is a new gap",
                &[Lead(1, 1, Queued), Lead(1, 3, Shed), Lead(2, 3, Shed)],
                |l| l.gap_shed[&7] == (2, 3) && l.admitted[&7] == 1,
            ),
            (
                "an intervening arrival clears the record",
                &[
                    Lead(1, 1, Queued),
                    Lead(1, 3, Shed),
                    Lead(1, 1, Queued),
                    Lead(1, 3, Shed),
                ],
                |l| l.gap_shed[&7] == (1, 3) && l.admitted[&7] == 1,
            ),
            (
                "the overload bound sheds a fresh seq, not a duplicate",
                &[
                    Lead(1, 1, Queued),
                    Lead(1, 2, Queued),
                    Propose,
                    Lead(1, 3, Shed),
                    Lead(1, 2, Queued),
                ],
                |l| l.pending.len() == 2 && l.admitted[&7] == 2,
            ),
            (
                "nor one the replica already holds",
                &[
                    Holding(3),
                    Holding(4),
                    Lead(1, 3, Queued),
                    Lead(1, 4, Queued),
                    Lead(1, 5, Shed),
                ],
                |l| l.admitted[&7] == 4,
            ),
            (
                "a redirected connection stays redirected until the client shows up on another",
                &[
                    Follow(1, 1, Redirect),
                    Lead(1, 2, Redirect),
                    Lead(2, 1, Queued),
                    Lead(1, 2, Queued),
                ],
                |l| l.redirected.is_empty() && l.admitted[&7] == 2,
            ),
            (
                "step_down Retry-drains pending, clears the watermarks and keeps reads",
                &[
                    Lead(1, 1, Queued),
                    Lead(1, 2, Queued),
                    Propose,
                    Lead(1, 4, Shed),
                    Reading(1),
                    Deposed(&[1, 2]),
                    Lead(1, 9, Queued),
                ],
                |l| l.pending_reads.len() == 1 && l.gap_shed.is_empty() && l.admitted[&7] == 9,
            ),
        ];
        let write = |seq| KvCommand {
            client: 7,
            seq,
            op: KvOp::Put {
                key: "k".into(),
                value: seq as i64,
            },
        };
        for (rule, steps, holds) in rows {
            let mut lane = Lane::default();
            for (i, &step) in steps.iter().enumerate() {
                match step {
                    Lead(conn, seq, want) | Follow(conn, seq, want) => {
                        let leading = matches!(step, Lead(..));
                        let got = lane.admit(write(seq), conn, leading, 2);
                        assert_eq!(got, want, "{rule}: step {i}, seq {seq} on conn {conn}");
                    }
                    Propose => {
                        let n = lane.batch.drain(..).count();
                        assert_eq!(lane.proposed(n).count(), 0, "{rule}: step {i}");
                    }
                    Holding(seq) => {
                        lane.pending.insert((7, seq), 1);
                    }
                    Reading(seq) => {
                        lane.pending_reads.insert((7, seq), 1);
                    }
                    Deposed(want) => {
                        let mut seqs: Vec<u64> = lane.step_down().map(|((_, s), _)| s).collect();
                        seqs.sort_unstable();
                        assert_eq!(seqs, want, "{rule}: step {i}");
                    }
                }
            }
            assert!(holds(&lane), "{rule}: final state");
        }
    }
}
