//! Kv clients that survive redirects, restarts, and partitions.
//!
//! [`PipelinedKvClient`] keeps a window of requests in flight on one
//! connection. On `Redirect` it re-targets the named leader; on `Retry` it
//! backs off and resends; on socket trouble or a mute server it rotates
//! servers and resends its whole window — always under the *same*
//! `(client, seq)`, so the server-side session table dedups and writes
//! stay exactly-once however many times they are resent (paper §7.2's
//! client behavior under partitions). [`KvClient`] is that client at
//! window 1: each call submits one request and waits for its answer.
//! [`ShardedKvClient`] runs one such session per shard.
//!
//! Reads need one extra rule: a deduplicated `Read` comes back with
//! `applied: false` and no value (the state machine refuses to re-run
//! even a read). Reads are idempotent, so the client reissues one under a
//! fresh token and reports it under the token the caller got.

use crate::frame::{self, kind, FrameReader};
use kvstore::{KvCommand, KvOp, KvResult, KvWire, NodeId, ReadMode, TxnSpec, TxnState};
use omnipaxos::wire::Wire;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Log-free reads live in their own identity space: the client id and the
/// sequence number both carry this flag, so they can never collide with —
/// or poison the admission watermark of — the write session. (A log-path
/// fall-through read marker under a flagged id gets its own session row;
/// flagged seqs keep `Retry` frames unambiguous client-side.)
pub const READ_FLAG: u64 = 1 << 63;

/// Cross-shard transactions likewise ride their own identity space (bit 62
/// of the seq): a `TxnRequest` bypasses the gateway's per-client admission
/// watermark — it is deduplicated by the coordinator shard's decision
/// record, not the session table — so its seq must never be mistaken for,
/// or leave a gap in, the contiguous write session.
pub const TXN_FLAG: u64 = 1 << 62;

/// How long [`KvClient`] waits on a silent server before rotating to the
/// next one.
const ATTEMPT_TIMEOUT: Duration = Duration::from_millis(500);

/// A closed-loop kv client: one request at a time, each call returning
/// once its request is decided. It is a [`PipelinedKvClient`] at window 1
/// and recovers by the same rules.
pub struct KvClient {
    pipe: PipelinedKvClient,
}

impl KvClient {
    pub fn new(client_id: u64, servers: Vec<(NodeId, SocketAddr)>) -> Self {
        let mut pipe = PipelinedKvClient::new(client_id, servers);
        pipe.rotate_after = ATTEMPT_TIMEOUT;
        KvClient { pipe }
    }

    /// Give each call up to `timeout` (default 20 s) before it fails with
    /// `TimedOut`; a server silent for `min(timeout, 500 ms)` is left for
    /// the next one.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.pipe.op_timeout = timeout;
        self.pipe.rotate_after = ATTEMPT_TIMEOUT.min(timeout);
    }

    pub fn put(&mut self, key: &str, value: i64) -> std::io::Result<KvResult> {
        self.op(KvOp::Put {
            key: key.into(),
            value,
        })
    }

    pub fn add(&mut self, key: &str, delta: i64) -> std::io::Result<KvResult> {
        self.op(KvOp::Add {
            key: key.into(),
            delta,
        })
    }

    pub fn delete(&mut self, key: &str) -> std::io::Result<KvResult> {
        self.op(KvOp::Delete { key: key.into() })
    }

    /// Compare-and-set: if `key` currently holds `expect` (`None` =
    /// absent), apply `set` (`Some(v)` writes, `None` deletes). The
    /// reply's `applied` is the verdict; on failure `value` carries the
    /// actual current value.
    pub fn cas(
        &mut self,
        key: &str,
        expect: Option<i64>,
        set: Option<i64>,
    ) -> std::io::Result<KvResult> {
        self.op(KvOp::Cas {
            key: key.into(),
            expect,
            set,
        })
    }

    /// Run a (possibly cross-shard) transaction to completion. The
    /// reply's `applied` is the commit verdict; `value` mirrors it as
    /// 1/0. Retries retransmit the same `(client, seq)` — the
    /// coordinator shard's decision record makes the outcome stick no
    /// matter how many times (or at which gateway) the request lands.
    /// The reply's `seq` is the [`TXN_FLAG`]-tagged token — pass it to
    /// [`KvClient::txn_status`] to query the transaction later.
    pub fn txn(&mut self, spec: TxnSpec) -> std::io::Result<KvResult> {
        let token = self.pipe.submit_txn(spec);
        self.complete(token)
    }

    /// Ask the first server that answers for its view of transaction
    /// `(client, seq)` — `Unknown` on a server that hosts none of the
    /// participant shards.
    pub fn txn_status(&mut self, client: u64, seq: u64) -> std::io::Result<TxnState> {
        let msg = KvWire::TxnStatusReq { client, seq };
        ask(
            &self.pipe.servers,
            &msg,
            self.pipe.rotate_after,
            |m| match m {
                KvWire::TxnStatus {
                    client: c,
                    seq: s,
                    state,
                } if (c, s) == (client, seq) => Some(state),
                _ => None,
            },
        )
    }

    /// Linearizable read through the log.
    pub fn read(&mut self, key: &str) -> std::io::Result<Option<i64>> {
        self.read_with_mode(key, ReadMode::Log)
    }

    /// Linearizable read served per `mode`. `Log` is [`KvClient::read`];
    /// `Lease` serves at the leaseholder (falling through to the log path
    /// if no lease is held); `ReadIndex` serves at whichever replica this
    /// client is connected to — including followers.
    pub fn read_with_mode(&mut self, key: &str, mode: ReadMode) -> std::io::Result<Option<i64>> {
        self.pipe.read_mode = mode;
        let token = self.pipe.submit_read(key);
        self.complete(token).map(|r| r.value)
    }

    /// Run one operation to completion (retrying as needed).
    pub fn op(&mut self, op: KvOp) -> std::io::Result<KvResult> {
        let token = self.pipe.submit(op);
        self.complete(token)
    }

    /// Wait for the answer to `token`. A request that fails is dropped
    /// from the window, so the next call does not wait behind it.
    fn complete(&mut self, token: u64) -> std::io::Result<KvResult> {
        let deadline = Instant::now() + self.pipe.op_timeout;
        let failure = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("kv request not answered within {:?}", self.pipe.op_timeout),
                );
            }
            match self.pipe.wait(left) {
                Ok(done) => {
                    if let Some(res) = done.into_iter().find(|r| r.seq == token) {
                        return Ok(res);
                    }
                }
                Err(e) => break e,
            }
            if self.pipe.take_cross_shard_rejections().contains(&token) {
                // Terminal: a multi-key op whose keys live on different
                // shards can never succeed as a plain request — reissue
                // it as a transaction instead.
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    "operation spans shards; use a transaction",
                ));
            }
        };
        self.pipe.window.clear();
        self.pipe.unsent.clear();
        self.pipe.alias.clear();
        Err(failure)
    }
}

// ---------------------------------------------------------------------------
// Pipelined (open-loop) client

/// One live connection of the pipelined client: the writing socket plus
/// a reader thread that decodes reply frames into a channel — one socket
/// read's worth per item — so the submit path never blocks on the wire.
struct PipeConn {
    stream: TcpStream,
    rx: Receiver<Vec<KvWire>>,
    reader: Option<JoinHandle<()>>,
}

impl Drop for PipeConn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// One request in a [`PipelinedKvClient`]'s window.
enum Req {
    /// A write-session command, a log-path read marker included.
    Write(KvOp),
    /// A log-free read of this key, served per the client's `read_mode`.
    Read(String),
    Txn(TxnSpec),
}

/// An open-loop kv client: many requests in flight at once, with
/// out-of-order completion.
///
/// Ops are queued with [`PipelinedKvClient::submit`] (and `submit_read`,
/// `submit_txn`) and collected with [`PipelinedKvClient::pump`] /
/// [`PipelinedKvClient::wait`]. Every request is keyed by a token from
/// one of three identity spaces — write seqs, [`READ_FLAG`]-tagged reads,
/// [`TXN_FLAG`]-tagged transactions — and queued requests go out as one
/// coalesced `write_all` in token order, which puts write seqs on the
/// wire in strictly increasing order. The server keeps admission
/// contiguous per client, so retries after shedding, redirects, or
/// reconnects can never let a later write overtake an earlier one into
/// the log (which the highest-seq-wins session table would otherwise
/// drop as a duplicate).
///
/// `Redirect` re-targets the named leader, `Retry` backs off and
/// retransmits the same `(client, seq)`, socket trouble or a stall
/// rotates servers and retransmits the whole outstanding window — dedup
/// on the server keeps all of it exactly-once. A deduplicated `Read`
/// (`applied: false`) is reissued under a fresh token and reported to the
/// caller under the token it originally got.
pub struct PipelinedKvClient {
    servers: Vec<(NodeId, SocketAddr)>,
    current: usize,
    client_id: u64,
    conn: Option<PipeConn>,
    /// Every outstanding request by token (BTreeMap ⇒ token-order walks).
    window: BTreeMap<u64, Req>,
    /// Outstanding tokens awaiting (re)transmission, flushed in order.
    unsent: BTreeSet<u64>,
    /// The last token issued in each identity space.
    next_seq: u64,
    next_read: u64,
    next_txn: u64,
    /// Read mode for [`PipelinedKvClient::submit_read`]. Log-free modes
    /// ride their own [`READ_FLAG`]-tagged identity space so they never
    /// perturb the write session's admission contiguity; `Log` routes
    /// through the ordinary write session.
    pub read_mode: ReadMode,
    /// OR-ed into every txn token. The transaction id `(client, token)`
    /// must be globally unique, but a [`ShardedKvClient`] runs one
    /// session per shard under ONE client id, each numbering its txns
    /// from 1 — colliding ids on different coordinator shards would
    /// cross-wire 2PC state (a participant shard shared by both treats
    /// the second prepare as a duplicate and commits the wrong staged
    /// writes). The sharded client sets this to `shard << 32` so the
    /// token spaces are disjoint.
    txn_tag: u64,
    /// Tokens of ops the gateway rejected as spanning shards (terminal:
    /// such an op can never succeed as a plain request).
    rejected: Vec<u64>,
    /// Reissued requests: transmitted token → the token the caller knows.
    alias: HashMap<u64, u64>,
    /// Retransmission backoff gate (set after `Retry` and reconnects).
    gate: Option<Instant>,
    /// `KvWire::Retry` replies observed (overload/gap shedding).
    retries: u64,
    /// Server rotations performed (connect failures, drops, stalls).
    rotations: u64,
    last_progress: Instant,
    next_rotate: Instant,
    /// Backoff before retransmitting a shed (`Retry`) command.
    pub retry_delay: Duration,
    /// Stall length after which the client rotates servers and
    /// retransmits its window.
    pub rotate_after: Duration,
    /// Overall progress deadline: if nothing completes for this long
    /// while ops are outstanding, `pump`/`wait` return `TimedOut`.
    pub op_timeout: Duration,
}

impl PipelinedKvClient {
    pub fn new(client_id: u64, servers: Vec<(NodeId, SocketAddr)>) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        PipelinedKvClient {
            servers,
            current: 0,
            client_id,
            conn: None,
            window: BTreeMap::new(),
            unsent: BTreeSet::new(),
            next_seq: 0,
            next_read: 0,
            next_txn: 0,
            read_mode: ReadMode::Log,
            txn_tag: 0,
            rejected: Vec::new(),
            alias: HashMap::new(),
            gate: None,
            retries: 0,
            rotations: 0,
            last_progress: Instant::now(),
            next_rotate: Instant::now() + Duration::from_secs(1),
            retry_delay: Duration::from_millis(10),
            rotate_after: Duration::from_secs(1),
            op_timeout: Duration::from_secs(20),
        }
    }

    /// Queue `op` under the next seq; nothing is written until the next
    /// [`PipelinedKvClient::pump`]. Returns the seq completions will
    /// carry.
    pub fn submit(&mut self, op: KvOp) -> u64 {
        self.enqueue(Req::Write(op))
    }

    /// Queue a linearizable read of `key` under this client's
    /// [`PipelinedKvClient::read_mode`]. Returns the token completions
    /// will carry in `KvResult::seq` — a [`READ_FLAG`]-tagged token for
    /// log-free modes, an ordinary session seq for `Log`. A lease read
    /// that finds no leaseholder downgrades to the log path internally
    /// and still completes under its original token.
    pub fn submit_read(&mut self, key: &str) -> u64 {
        self.enqueue(match self.read_mode {
            ReadMode::Log => Req::Write(KvOp::Read { key: key.into() }),
            _ => Req::Read(key.into()),
        })
    }

    /// Queue a (possibly cross-shard) transaction. Returns the
    /// [`TXN_FLAG`]-tagged token the completion will carry; the
    /// completion's `applied` is the commit verdict (`value` mirrors it
    /// as 1/0). Retransmissions are safe: the coordinator shard's
    /// decision record pins the outcome across retries and gateways.
    pub fn submit_txn(&mut self, spec: TxnSpec) -> u64 {
        self.enqueue(Req::Txn(spec))
    }

    /// Queue `req` under the next token of its identity space.
    fn enqueue(&mut self, req: Req) -> u64 {
        let token = match req {
            Req::Write(_) => {
                self.next_seq += 1;
                self.next_seq
            }
            Req::Read(_) => {
                self.next_read += 1;
                READ_FLAG | self.next_read
            }
            Req::Txn(_) => {
                self.next_txn += 1;
                TXN_FLAG | self.txn_tag | self.next_txn
            }
        };
        self.window.insert(token, req);
        self.unsent.insert(token);
        if self.window.len() == 1 {
            // An empty window has no progress to stall on; start the
            // clock when it becomes non-empty.
            self.last_progress = Instant::now();
            self.next_rotate = Instant::now() + self.rotate_after;
        }
        token
    }

    /// Queue `req` again under a fresh token, to complete as `orig`.
    fn reissue(&mut self, orig: u64, req: Req) {
        let fresh = self.enqueue(req);
        self.alias.insert(fresh, orig);
    }

    /// Pull an answered request out of the window.
    fn take(&mut self, token: u64) -> Option<Req> {
        let req = self.window.remove(&token)?;
        self.unsent.remove(&token);
        self.last_progress = Instant::now();
        Some(req)
    }

    /// Ops submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Tokens of submitted ops the gateway refused with
    /// [`KvWire::CrossShard`] — multi-key ops whose keys span shards.
    /// Each rejected op is removed from the window when the rejection
    /// arrives; this drains the tokens seen since the last call.
    pub fn take_cross_shard_rejections(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.rejected)
    }

    /// The sequence number of the last submitted operation.
    pub fn last_seq(&self) -> u64 {
        self.next_seq
    }

    /// How many `Retry` replies (shed requests) this client has seen.
    pub fn retries_seen(&self) -> u64 {
        self.retries
    }

    /// How many times this client rotated away from a server (connect
    /// failure, dropped connection, or stall). A live gateway that keeps
    /// answering — even with only `Retry`/`Redirect` — must not inflate
    /// this.
    pub fn rotations_seen(&self) -> u64 {
        self.rotations
    }

    /// One non-blocking cycle: transmit queued requests (one coalesced
    /// write), drain ready replies, run recovery timers. Returns the ops
    /// that completed. `Err` only on the overall progress timeout —
    /// transient socket trouble is retried internally.
    pub fn pump(&mut self) -> std::io::Result<Vec<KvResult>> {
        let mut done = Vec::new();
        self.transmit();
        while let Some(c) = self.conn.as_ref() {
            match c.rx.try_recv() {
                Ok(burst) => burst.into_iter().for_each(|m| self.on_msg(m, &mut done)),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.fail_conn();
                    break;
                }
            }
        }
        self.check_stall(&done)?;
        Ok(done)
    }

    /// Like [`PipelinedKvClient::pump`], but blocks up to `timeout` for
    /// at least one completion (returns early with everything ready).
    pub fn wait(&mut self, timeout: Duration) -> std::io::Result<Vec<KvResult>> {
        let deadline = Instant::now() + timeout;
        loop {
            let done = self.pump()?;
            if !done.is_empty() || self.window.is_empty() {
                return Ok(done);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Vec::new());
            }
            let slice = deadline
                .saturating_duration_since(now)
                .min(Duration::from_millis(5));
            match self.conn.as_ref() {
                Some(c) => match c.rx.recv_timeout(slice) {
                    Ok(burst) => {
                        let mut done = Vec::new();
                        burst.into_iter().for_each(|m| self.on_msg(m, &mut done));
                        if !done.is_empty() {
                            return Ok(done);
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => self.fail_conn(),
                },
                // No connection means a reconnect backoff gate is running;
                // there is no channel to block on until `pump` redials.
                None => std::thread::sleep(slice.min(Duration::from_millis(2))),
            }
        }
    }

    /// Run until every outstanding op has completed (or `timeout`
    /// lapses, which is an error). Returns completions in arrival order.
    pub fn drain(&mut self, timeout: Duration) -> std::io::Result<Vec<KvResult>> {
        let deadline = Instant::now() + timeout;
        let mut all = Vec::new();
        while !self.window.is_empty() {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("{} ops still in flight at drain deadline", self.in_flight()),
                ));
            }
            all.extend(self.wait(Duration::from_millis(50))?);
        }
        Ok(all)
    }

    fn on_msg(&mut self, msg: KvWire, done: &mut Vec<KvResult>) {
        // Any inbound frame proves the gateway is alive and talking to
        // us; push the rotation deadline back. Without this, a gateway
        // that answers only `Retry`/`Redirect` for a while (overload
        // shed, mid-election) looks identical to a dead one, and the
        // stall timer abandons a live connection mid-window — rotating
        // costs a reconnect plus a full-window retransmission, which
        // under load makes the stall *worse*. Rotation is for servers
        // that have gone mute, not slow ones.
        self.next_rotate = Instant::now() + self.rotate_after;
        match msg {
            KvWire::Reply(mut res) => {
                let Some(req) = self.take(res.seq) else {
                    return; // duplicate reply from a retransmission
                };
                let orig = self.alias.remove(&res.seq).unwrap_or(res.seq);
                match req {
                    // A read that did not run — its read-index deadline
                    // expired (leader unreachable), or its log marker was
                    // deduplicated — goes again under a fresh token.
                    Req::Read(_) | Req::Write(KvOp::Read { .. }) if !res.applied => {
                        self.reissue(orig, req)
                    }
                    // `applied` is the verdict of a write or transaction.
                    _ => {
                        res.seq = orig;
                        done.push(res);
                    }
                }
            }
            KvWire::Retry { seq } => match self.window.get(&seq) {
                Some(Req::Read(key)) => {
                    // A lease read reached the leader but no lease is held
                    // (still assembling grants, or leases disabled): fall
                    // through to the log path under the write session.
                    let req = Req::Write(KvOp::Read { key: key.clone() });
                    self.take(seq);
                    self.retries += 1;
                    let orig = self.alias.remove(&seq).unwrap_or(seq);
                    self.reissue(orig, req);
                }
                Some(_) => {
                    self.retries += 1;
                    self.unsent.insert(seq);
                    self.hold(self.retry_delay);
                }
                None => {}
            },
            KvWire::Redirect { leader } | KvWire::ShardRedirect { leader, .. } => {
                // A pipelined client targets one shard (or an unsharded
                // store), so a shard redirect is just a leader hint for
                // that shard.
                self.retarget(leader);
                self.hold(Duration::from_millis(20));
            }
            KvWire::CrossShard { seq } => {
                // The gateway refused a multi-key op whose keys span
                // shards. Terminal: retrying can never succeed, so pull
                // the op from the window and surface the token instead
                // of retransmitting forever.
                if self.take(seq).is_some() {
                    let orig = self.alias.remove(&seq).unwrap_or(seq);
                    self.rejected.push(orig);
                }
            }
            // Servers never send requests; routing-table frames are the
            // sharded wrapper's business (it refreshes via bootstrap);
            // status answers come back on `ask`'s own connection.
            KvWire::Request(_)
            | KvWire::ReadRequest { .. }
            | KvWire::ShardsReq
            | KvWire::Shards { .. }
            | KvWire::TxnRequest { .. }
            | KvWire::TxnStatusReq { .. }
            | KvWire::TxnStatus { .. } => {}
        }
    }

    /// Hold retransmissions back for at least `pause` from now.
    fn hold(&mut self, pause: Duration) {
        let gate = Instant::now() + pause;
        self.gate = Some(self.gate.map_or(gate, |g| g.max(gate)));
    }

    /// Write every due outstanding request as one coalesced frame batch,
    /// in token order.
    fn transmit(&mut self) {
        // Reconnection is driven by *outstanding* ops, not unsent ones: a
        // dropped connection clears nothing from `window`, and `connect`
        // re-marks the whole window for retransmission.
        if self.window.is_empty() || (self.conn.is_some() && self.unsent.is_empty()) {
            return;
        }
        if self.gate.is_some_and(|g| Instant::now() < g) {
            return;
        }
        if self.conn.is_none() && !self.connect() {
            return;
        }
        let mut buf = Vec::new();
        for &token in &self.unsent {
            let msg = match &self.window[&token] {
                Req::Write(op) => KvWire::Request(KvCommand {
                    client: self.client_id,
                    seq: token,
                    op: op.clone(),
                }),
                Req::Read(key) => KvWire::ReadRequest {
                    mode: self.read_mode,
                    client: READ_FLAG | self.client_id,
                    seq: token,
                    key: key.clone(),
                },
                Req::Txn(spec) => KvWire::TxnRequest {
                    client: self.client_id,
                    seq: token,
                    spec: spec.clone(),
                },
            };
            buf.extend_from_slice(&frame::encode_frame(kind::KV, &msg.to_bytes()));
        }
        let conn = self.conn.as_ref().expect("connected above");
        let mut w = &conn.stream;
        if w.write_all(&buf).is_ok() {
            self.unsent.clear();
            self.gate = None;
        } else {
            self.fail_conn();
        }
    }

    /// Open a connection to the current server and spawn its reader.
    /// Marks the whole outstanding window for retransmission: anything
    /// sent on a previous connection may be lost, and resending from the
    /// lowest seq keeps per-client admission contiguous on the server.
    fn connect(&mut self) -> bool {
        let addr = self.servers[self.current].1;
        let stream = match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(s) => s,
            Err(_) => {
                self.rotate();
                self.hold(Duration::from_millis(20));
                return false;
            }
        };
        let _ = stream.set_nodelay(true);
        let Ok(r) = stream.try_clone() else {
            return false;
        };
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("kv-pipe-reader".into())
            .spawn(move || {
                let mut frames = FrameReader::new(&r);
                loop {
                    let mut burst = Vec::new();
                    let read = frames.read_burst(|f| burst.extend(frame::decode_kind(f, kind::KV)));
                    if (!burst.is_empty() && tx.send(burst).is_err()) || read.is_err() {
                        return;
                    }
                }
            })
            .ok();
        self.unsent = self.window.keys().copied().collect();
        self.conn = Some(PipeConn { stream, rx, reader });
        true
    }

    fn fail_conn(&mut self) {
        self.conn = None; // Drop shuts the socket down and joins the reader
        self.rotate();
        self.hold(Duration::from_millis(20));
    }

    fn check_stall(&mut self, done: &[KvResult]) -> std::io::Result<()> {
        if self.window.is_empty() || !done.is_empty() {
            return Ok(());
        }
        if self.last_progress.elapsed() > self.op_timeout {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!(
                    "no completion within {:?} ({} ops in flight)",
                    self.op_timeout,
                    self.in_flight()
                ),
            ));
        }
        if Instant::now() >= self.next_rotate {
            // Stalled: the server may be gone or mute. Try the next one
            // and retransmit the window there.
            self.next_rotate = Instant::now() + self.rotate_after;
            self.fail_conn();
        }
        Ok(())
    }

    /// Follow a redirect to `leader` on a new connection — also when it
    /// names the server that sent it, which keeps redirecting the
    /// connection it once redirected (see `net::server`'s `Lane`).
    fn retarget(&mut self, leader: NodeId) {
        match self.servers.iter().position(|(pid, _)| *pid == leader) {
            Some(i) => {
                self.current = i;
                self.conn = None;
            }
            None => self.fail_conn(),
        }
    }

    fn rotate(&mut self) {
        self.rotations += 1;
        self.current = (self.current + 1) % self.servers.len();
        self.conn = None;
    }

    /// Point this client at the server with pid `leader` (0 or unknown
    /// pids leave the target unchanged — the next stall rotates anyway).
    fn target_leader(&mut self, leader: NodeId) {
        if let Some(i) = self.servers.iter().position(|(pid, _)| *pid == leader) {
            if i != self.current {
                self.current = i;
                self.conn = None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded (routing) client

/// Send `msg` to each server in turn, on a connection of its own, until
/// one answers with a frame `pick` accepts; `timeout` bounds the connect
/// and each wait for a frame.
fn ask<T>(
    servers: &[(NodeId, SocketAddr)],
    msg: &KvWire,
    timeout: Duration,
    mut pick: impl FnMut(KvWire) -> Option<T>,
) -> std::io::Result<T> {
    let mut last_err = std::io::Error::new(ErrorKind::NotConnected, "no servers");
    for &(_, addr) in servers {
        let mut attempt = || -> std::io::Result<T> {
            let stream = TcpStream::connect_timeout(&addr, timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            frame::write_frame(&mut &stream, kind::KV, &msg.to_bytes())?;
            loop {
                let f = frame::read_frame(&mut &stream)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                if let Some(answer) = frame::decode_kind(Ok(f), kind::KV).and_then(&mut pick) {
                    return Ok(answer);
                }
            }
        };
        match attempt() {
            Ok(answer) => return Ok(answer),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Fetch the routing table from any reachable server: the per-shard
/// leader pids. `leaders.len()` is the cluster's shard count (1 for an
/// unsharded store).
pub fn fetch_shards(
    servers: &[(NodeId, SocketAddr)],
    timeout: Duration,
) -> std::io::Result<Vec<NodeId>> {
    ask(servers, &KvWire::ShardsReq, timeout, |m| match m {
        KvWire::Shards { leaders } if !leaders.is_empty() => Some(leaders),
        _ => None,
    })
}

/// An open-loop client for a sharded store: one [`PipelinedKvClient`]
/// session per shard (sessions — and their seq spaces — are per shard on
/// the server), each pointed at its shard's cached leader. Ops route by
/// [`kvstore::shard_of_op`]; the cache self-heals because a mis-routed
/// request earns a [`KvWire::ShardRedirect`] that re-targets that shard's
/// session, and a stalled shard rotates servers on its own.
pub struct ShardedKvClient {
    shards: Vec<PipelinedKvClient>,
}

impl ShardedKvClient {
    /// Build a client for `n_shards` shards without asking the cluster
    /// (every shard starts at the first server and discovers its leader
    /// via redirects).
    pub fn new(client_id: u64, servers: Vec<(NodeId, SocketAddr)>, n_shards: usize) -> Self {
        assert!(n_shards > 0, "at least one shard");
        let shards = (0..n_shards)
            .map(|s| {
                let mut c = PipelinedKvClient::new(client_id, servers.clone());
                // Disjoint txn-token spaces per shard session: all
                // sessions share one client id, and the transaction id
                // (client, token) must never collide across coordinator
                // shards (see `PipelinedKvClient::txn_tag`).
                c.txn_tag = (s as u64) << 32;
                c
            })
            .collect();
        ShardedKvClient { shards }
    }

    /// Bootstrap from the cluster: fetch the routing table (shard count +
    /// per-shard leaders) and point each shard's session at its leader.
    pub fn bootstrap(
        client_id: u64,
        servers: Vec<(NodeId, SocketAddr)>,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        let leaders = fetch_shards(&servers, timeout)?;
        let mut c = ShardedKvClient::new(client_id, servers, leaders.len());
        c.apply_routes(&leaders);
        Ok(c)
    }

    /// Re-point each shard's session at the given leader pids (0 entries
    /// leave that shard's current target alone).
    pub fn apply_routes(&mut self, leaders: &[NodeId]) {
        for (s, &l) in leaders.iter().enumerate().take(self.shards.len()) {
            if l != 0 {
                self.shards[s].target_leader(l);
            }
        }
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's underlying session (for timeouts, counters, tests).
    pub fn shard(&mut self, shard: u32) -> &mut PipelinedKvClient {
        &mut self.shards[shard as usize]
    }

    /// Queue `op` on its owning shard; completions carry `(shard, seq)`.
    pub fn submit(&mut self, op: KvOp) -> (u32, u64) {
        let s = kvstore::shard_of_op(&op, self.shards.len());
        (s, self.shards[s as usize].submit(op))
    }

    /// Set every shard session's read mode (see
    /// [`PipelinedKvClient::read_mode`]).
    pub fn set_read_mode(&mut self, mode: ReadMode) {
        for c in &mut self.shards {
            c.read_mode = mode;
        }
    }

    /// Queue a linearizable read of `key` on its owning shard; the
    /// completion carries `(shard, token)`.
    pub fn submit_read(&mut self, key: &str) -> (u32, u64) {
        let s = kvstore::shard_of_key(key, self.shards.len());
        (s, self.shards[s as usize].submit_read(key))
    }

    /// Queue a transaction on the session of its coordinator shard (the
    /// lowest participant shard — the same deterministic choice every
    /// server makes), so the request lands on the coordinating leader
    /// directly. The completion carries `(shard, TXN_FLAG-tagged token)`
    /// with `applied` = commit verdict.
    pub fn submit_txn(&mut self, spec: TxnSpec) -> (u32, u64) {
        let n = self.shards.len();
        let s = spec
            .keys()
            .map(|k| kvstore::shard_of_key(k, n))
            .min()
            .unwrap_or(0);
        (s, self.shards[s as usize].submit_txn(spec))
    }

    /// Queue a balance transfer: move `amount` from `from` to `to` iff
    /// `from` holds at least `amount`. Same-shard pairs ride the atomic
    /// single-entry [`KvOp::Transfer`]; cross-shard pairs become a 2PC
    /// transaction (the returned token then carries [`TXN_FLAG`]).
    /// Either way the completion's `applied` says whether money moved.
    pub fn transfer(&mut self, from: &str, to: &str, amount: i64) -> (u32, u64) {
        let n = self.shards.len();
        if kvstore::shard_of_key(from, n) == kvstore::shard_of_key(to, n) {
            self.submit(KvOp::Transfer {
                from: from.into(),
                to: to.into(),
                amount,
            })
        } else {
            self.submit_txn(TxnSpec::transfer(from, to, amount))
        }
    }

    /// Drain `(shard, token)` pairs the gateways refused with
    /// [`KvWire::CrossShard`] (see
    /// [`PipelinedKvClient::take_cross_shard_rejections`]).
    pub fn take_cross_shard_rejections(&mut self) -> Vec<(u32, u64)> {
        let mut all = Vec::new();
        for (s, c) in self.shards.iter_mut().enumerate() {
            for token in c.take_cross_shard_rejections() {
                all.push((s as u32, token));
            }
        }
        all
    }

    /// Total ops submitted but not yet completed, across shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|c| c.in_flight()).sum()
    }

    /// `Retry` replies seen across all shard sessions.
    pub fn retries_seen(&self) -> u64 {
        self.shards.iter().map(|c| c.retries_seen()).sum()
    }

    /// One non-blocking cycle over every shard session; completed ops are
    /// tagged with their shard.
    pub fn pump(&mut self) -> std::io::Result<Vec<(u32, KvResult)>> {
        let mut done = Vec::new();
        for (s, c) in self.shards.iter_mut().enumerate() {
            for res in c.pump()? {
                done.push((s as u32, res));
            }
        }
        Ok(done)
    }

    /// Run until every shard's window is empty (or `timeout` lapses,
    /// which is an error).
    pub fn drain(&mut self, timeout: Duration) -> std::io::Result<Vec<(u32, KvResult)>> {
        let deadline = Instant::now() + timeout;
        let mut all = Vec::new();
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("{} ops still in flight at drain deadline", self.in_flight()),
                ));
            }
            all.extend(self.pump()?);
            if self.in_flight() > 0 {
                // One reply channel per shard session and no way to block
                // on several: poll them, yielding briefly in between.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::TxnSpec;

    /// Two transfers queued on different coordinator shards must carry
    /// distinct transaction ids: all shard sessions share one client id,
    /// so colliding tokens would cross-wire 2PC state on any participant
    /// shard the transactions have in common (the second prepare reads
    /// as a duplicate of the first and the wrong staged writes commit).
    #[test]
    fn txn_tokens_are_disjoint_across_shard_sessions() {
        let servers = vec![(1, "127.0.0.1:1".parse().unwrap())];
        let mut c = ShardedKvClient::new(7, servers, 4);
        let mut seen = std::collections::HashSet::new();
        // Synthetic single-shard specs pinned to each session in turn:
        // submit_txn only queues, so no connection is ever attempted.
        for s in 0..4u32 {
            for _ in 0..3 {
                let token = c.shard(s).submit_txn(TxnSpec::transfer("a", "b", 1));
                assert!(token & TXN_FLAG != 0, "txn tokens carry the flag");
                assert!(
                    seen.insert(token),
                    "token {token:#x} issued by two shard sessions"
                );
            }
        }
    }
}
