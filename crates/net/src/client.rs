//! A kv client that survives redirects, restarts, and partitions.
//!
//! One synchronous request at a time: send `Request`, wait for the
//! matching `Reply`. On `Redirect` it re-targets the named leader; on
//! `Retry` or any socket trouble it backs off, rotates servers, and
//! resends the *same* `(client, seq)` — the server-side session table
//! dedups, so writes stay exactly-once no matter how many times the
//! client retries (paper §7.2's client behavior under partitions).
//!
//! Reads need one extra rule: a deduplicated `Read` comes back with
//! `applied: false` and no value (the state machine refuses to re-run
//! even a read). Reads are idempotent, so the client simply bumps the
//! sequence number and issues a fresh one.

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

/// Pause after a redirect before trying the named leader: mid-election the
/// hint may point at a node that has not taken over yet, and no event
/// tells a client when it has.
const REDIRECT_PAUSE: Duration = Duration::from_millis(20);
/// Backoff after `Retry` (the server is shedding load) or a socket error
/// (the server may be down): retrying at once only adds to either.
const RETRY_PAUSE: Duration = Duration::from_millis(50);

pub struct KvClient {
    servers: Vec<(NodeId, SocketAddr)>,
    current: usize,
    stream: Option<TcpStream>,
    client_id: u64,
    seq: u64,
    read_seq: u64,
    /// Per-attempt reply wait before rotating to another server.
    pub attempt_timeout: Duration,
    /// Overall per-operation deadline.
    pub op_timeout: Duration,
}

impl KvClient {
    pub fn new(client_id: u64, servers: Vec<(NodeId, SocketAddr)>) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        KvClient {
            servers,
            current: 0,
            stream: None,
            client_id,
            seq: 0,
            read_seq: 0,
            attempt_timeout: Duration::from_millis(500),
            op_timeout: Duration::from_secs(20),
        }
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
    pub fn txn(&mut self, spec: kvstore::TxnSpec) -> std::io::Result<KvResult> {
        self.seq += 1;
        let token = TXN_FLAG | self.seq;
        let deadline = Instant::now() + self.op_timeout;
        loop {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("txn not decided within {:?}", self.op_timeout),
                ));
            }
            let msg = KvWire::TxnRequest {
                client: self.client_id,
                seq: token,
                spec: spec.clone(),
            };
            match self.attempt_msg(&msg) {
                Ok(KvWire::Reply(res)) if res.seq == token => return Ok(res),
                Ok(KvWire::Redirect { leader }) | Ok(KvWire::ShardRedirect { leader, .. }) => {
                    self.retarget(leader);
                    std::thread::sleep(REDIRECT_PAUSE);
                }
                Ok(_) => {} // stale frame: resend
                Err(_) => {
                    self.stream = None;
                    self.rotate();
                    std::thread::sleep(RETRY_PAUSE);
                }
            }
        }
    }

    /// Ask the connected server for its view of transaction
    /// `(client, seq)` — `Unknown` on a server that hosts none of the
    /// participant shards.
    pub fn txn_status(&mut self, client: u64, seq: u64) -> std::io::Result<TxnState> {
        let deadline = Instant::now() + self.op_timeout;
        loop {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("txn status not answered within {:?}", self.op_timeout),
                ));
            }
            match self.attempt_msg(&KvWire::TxnStatusReq { client, seq }) {
                Ok(KvWire::TxnStatus {
                    client: c,
                    seq: s,
                    state,
                }) if c == client && s == seq => return Ok(state),
                Ok(_) => {}
                Err(_) => {
                    self.stream = None;
                    self.rotate();
                    std::thread::sleep(RETRY_PAUSE);
                }
            }
        }
    }

    /// Linearizable read through the log.
    pub fn read(&mut self, key: &str) -> std::io::Result<Option<i64>> {
        self.op(KvOp::Read { key: key.into() }).map(|r| r.value)
    }

    /// Linearizable read served per `mode`. `Log` is [`KvClient::read`];
    /// `Lease` serves at the leaseholder (falling through to the log path
    /// if no lease is held); `ReadIndex` serves at whichever replica this
    /// client is connected to — including followers.
    pub fn read_with_mode(&mut self, key: &str, mode: ReadMode) -> std::io::Result<Option<i64>> {
        if mode == ReadMode::Log {
            return self.read(key);
        }
        self.read_seq += 1;
        let deadline = Instant::now() + self.op_timeout;
        loop {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("kv read not served within {:?}", self.op_timeout),
                ));
            }
            let token = READ_FLAG | self.read_seq;
            match self.attempt_read(mode, token, key) {
                Ok(KvWire::Reply(res)) if res.seq == token => {
                    if !res.applied {
                        // Deadline-expired on the server: fresh token.
                        self.read_seq += 1;
                        continue;
                    }
                    return Ok(res.value);
                }
                Ok(KvWire::Redirect { leader }) | Ok(KvWire::ShardRedirect { leader, .. }) => {
                    self.retarget(leader);
                    std::thread::sleep(REDIRECT_PAUSE);
                }
                Ok(KvWire::Retry { seq }) if seq == token => {
                    // The leader holds no lease (still assembling grants,
                    // or leases disabled): fall through to the log path.
                    return self.read(key);
                }
                Ok(_) => {} // stale frame: resend
                Err(_) => {
                    self.stream = None;
                    self.rotate();
                    std::thread::sleep(RETRY_PAUSE);
                }
            }
        }
    }

    /// Run one operation to completion (retrying as needed).
    pub fn op(&mut self, op: KvOp) -> std::io::Result<KvResult> {
        self.seq += 1;
        let is_read = matches!(op, KvOp::Read { .. });
        let deadline = Instant::now() + self.op_timeout;
        loop {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("kv op not decided within {:?}", self.op_timeout),
                ));
            }
            let cmd = KvCommand {
                client: self.client_id,
                seq: self.seq,
                op: op.clone(),
            };
            match self.attempt(cmd) {
                Ok(KvWire::Reply(res)) if res.seq == self.seq => {
                    if is_read && !res.applied {
                        // Deduplicated read: re-issue under a fresh seq.
                        self.seq += 1;
                        continue;
                    }
                    return Ok(res);
                }
                Ok(KvWire::Redirect { leader }) | Ok(KvWire::ShardRedirect { leader, .. }) => {
                    self.retarget(leader);
                    std::thread::sleep(REDIRECT_PAUSE);
                }
                Ok(KvWire::Retry { .. }) => std::thread::sleep(RETRY_PAUSE),
                Ok(KvWire::CrossShard { seq }) if seq == self.seq => {
                    // Terminal: a multi-key op whose keys live on
                    // different shards can never succeed as a plain
                    // request — reissue it as a transaction instead.
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidInput,
                        "operation spans shards; use a transaction",
                    ));
                }
                Ok(_) => {} // stale reply for an older seq: resend
                Err(_) => {
                    self.stream = None;
                    self.rotate();
                    std::thread::sleep(RETRY_PAUSE);
                }
            }
        }
    }

    /// The sequence number of the last issued operation.
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    fn retarget(&mut self, leader: NodeId) {
        match self.servers.iter().position(|(pid, _)| *pid == leader) {
            Some(i) if i != self.current => {
                self.current = i;
                self.stream = None;
            }
            Some(_) => {} // already there; the leader may still be settling
            None => self.rotate(),
        }
    }

    fn rotate(&mut self) {
        self.current = (self.current + 1) % self.servers.len();
        self.stream = None;
    }

    fn ensure_stream(&mut self) -> std::io::Result<&TcpStream> {
        if self.stream.is_none() {
            let addr = self.servers[self.current].1;
            let s = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_ref().unwrap())
    }

    /// One send + one reply attempt against the current server.
    fn attempt(&mut self, cmd: KvCommand) -> std::io::Result<KvWire> {
        let msg = KvWire::Request(cmd);
        self.attempt_msg(&msg)
    }

    /// One log-free read attempt against the current server.
    fn attempt_read(&mut self, mode: ReadMode, token: u64, key: &str) -> std::io::Result<KvWire> {
        let msg = KvWire::ReadRequest {
            mode,
            client: READ_FLAG | self.client_id,
            seq: token,
            key: key.into(),
        };
        self.attempt_msg(&msg)
    }

    fn attempt_msg(&mut self, msg: &KvWire) -> std::io::Result<KvWire> {
        let timeout = self.attempt_timeout;
        let stream = self.ensure_stream()?;
        stream.set_read_timeout(Some(timeout))?;
        let payload = msg.to_bytes();
        let mut w = stream;
        frame::write_frame(&mut w, kind::KV, &payload)?;
        let mut r = stream;
        loop {
            let f = frame::read_frame(&mut r)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
            if f.kind != kind::KV {
                continue;
            }
            match KvWire::from_bytes(&f.payload) {
                Ok(msg) => return Ok(msg),
                Err(_) => continue,
            }
        }
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

/// An open-loop kv client: many requests in flight at once, windowed by
/// sequence number, with out-of-order completion.
///
/// Where [`KvClient`] runs send→wait→send lockstep (one consensus round
/// trip per op), this client queues ops with [`PipelinedKvClient::submit`]
/// and collects completions with [`PipelinedKvClient::pump`] /
/// [`PipelinedKvClient::wait`]. Queued requests are transmitted as one
/// coalesced `write_all` in strictly increasing seq order; the server
/// keeps admission contiguous per client, so retries after shedding,
/// redirects, or reconnects can never let a later write overtake an
/// earlier one into the log (which the highest-seq-wins session table
/// would otherwise drop as a duplicate).
///
/// Recovery reuses the closed-loop rules: `Redirect` re-targets the named
/// leader, `Retry` backs off and retransmits the same `(client, seq)`,
/// socket trouble rotates servers and retransmits the whole outstanding
/// window — dedup on the server keeps all of it exactly-once. A
/// deduplicated `Read` (`applied: false`) is reissued under a fresh seq
/// and reported to the caller under the seq it originally got.
pub struct PipelinedKvClient {
    servers: Vec<(NodeId, SocketAddr)>,
    current: usize,
    client_id: u64,
    next_seq: u64,
    conn: Option<PipeConn>,
    /// Every outstanding op, keyed by seq (BTreeMap ⇒ seq-order walks).
    inflight: BTreeMap<u64, KvOp>,
    /// Outstanding seqs awaiting (re)transmission, flushed in seq order.
    unsent: BTreeSet<u64>,
    /// Read mode for [`PipelinedKvClient::submit_read`]. Log-free modes
    /// ride their own [`READ_FLAG`]-tagged identity space so they never
    /// perturb the write session's admission contiguity; `Log` routes
    /// through the ordinary write session.
    pub read_mode: ReadMode,
    /// Log-free reads in flight: flagged token → key.
    read_keys: BTreeMap<u64, String>,
    /// Log-free reads awaiting (re)transmission.
    read_unsent: BTreeSet<u64>,
    next_read: u64,
    /// Transactions in flight: flagged token → spec.
    txn_specs: BTreeMap<u64, kvstore::TxnSpec>,
    /// Transactions awaiting (re)transmission.
    txn_unsent: BTreeSet<u64>,
    next_txn: u64,
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
    /// Reissued reads: transmitted seq → the seq the caller knows.
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
            next_seq: 0,
            conn: None,
            inflight: BTreeMap::new(),
            unsent: BTreeSet::new(),
            read_mode: ReadMode::Log,
            read_keys: BTreeMap::new(),
            read_unsent: BTreeSet::new(),
            next_read: 0,
            txn_specs: BTreeMap::new(),
            txn_unsent: BTreeSet::new(),
            next_txn: 0,
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
        self.next_seq += 1;
        let seq = self.next_seq;
        self.inflight.insert(seq, op);
        self.unsent.insert(seq);
        if self.in_flight() == 1 {
            // An empty window has no progress to stall on; start the
            // clock when it becomes non-empty.
            self.last_progress = Instant::now();
            self.next_rotate = Instant::now() + self.rotate_after;
        }
        seq
    }

    /// Queue a linearizable read of `key` under this client's
    /// [`PipelinedKvClient::read_mode`]. Returns the token completions
    /// will carry in `KvResult::seq` — a [`READ_FLAG`]-tagged token for
    /// log-free modes, an ordinary session seq for `Log`. A lease read
    /// that finds no leaseholder downgrades to the log path internally
    /// and still completes under its original token.
    pub fn submit_read(&mut self, key: &str) -> u64 {
        if self.read_mode == ReadMode::Log {
            return self.submit(KvOp::Read { key: key.into() });
        }
        self.next_read += 1;
        let token = READ_FLAG | self.next_read;
        self.read_keys.insert(token, key.into());
        self.read_unsent.insert(token);
        if self.in_flight() == 1 {
            self.last_progress = Instant::now();
            self.next_rotate = Instant::now() + self.rotate_after;
        }
        token
    }

    /// Queue a (possibly cross-shard) transaction. Returns the
    /// [`TXN_FLAG`]-tagged token the completion will carry; the
    /// completion's `applied` is the commit verdict (`value` mirrors it
    /// as 1/0). Retransmissions are safe: the coordinator shard's
    /// decision record pins the outcome across retries and gateways.
    pub fn submit_txn(&mut self, spec: kvstore::TxnSpec) -> u64 {
        self.next_txn += 1;
        let token = TXN_FLAG | self.txn_tag | self.next_txn;
        self.txn_specs.insert(token, spec);
        self.txn_unsent.insert(token);
        if self.in_flight() == 1 {
            self.last_progress = Instant::now();
            self.next_rotate = Instant::now() + self.rotate_after;
        }
        token
    }

    /// Ops submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inflight.len() + self.read_keys.len() + self.txn_specs.len()
    }

    fn window_empty(&self) -> bool {
        self.inflight.is_empty() && self.read_keys.is_empty() && self.txn_specs.is_empty()
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
            if !done.is_empty() || self.window_empty() {
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
        while !self.window_empty() {
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
            KvWire::Reply(mut res) if res.seq & READ_FLAG != 0 => {
                // A log-free read completed (or expired server-side).
                let token = res.seq;
                let Some(key) = self.read_keys.remove(&token) else {
                    return; // duplicate reply from a retransmission
                };
                self.read_unsent.remove(&token);
                self.last_progress = Instant::now();
                let orig = self.alias.remove(&token).unwrap_or(token);
                if !res.applied {
                    // The server's read-index deadline expired (leader
                    // unreachable): reissue under a fresh token, still
                    // reported to the caller under the original one.
                    self.next_read += 1;
                    let fresh = READ_FLAG | self.next_read;
                    self.read_keys.insert(fresh, key);
                    self.read_unsent.insert(fresh);
                    self.alias.insert(fresh, orig);
                    return;
                }
                res.seq = orig;
                done.push(res);
            }
            KvWire::Retry { seq } if seq & READ_FLAG != 0 => {
                // A lease read reached the leader but no lease is held
                // (still assembling grants, or leases disabled): fall
                // through to the log path under the write session. The
                // completion still carries the original read token.
                if let Some(key) = self.read_keys.remove(&seq) {
                    self.read_unsent.remove(&seq);
                    self.retries += 1;
                    let orig = self.alias.remove(&seq).unwrap_or(seq);
                    let fresh = self.submit(KvOp::Read { key });
                    self.alias.insert(fresh, orig);
                }
            }
            KvWire::Reply(res) if res.seq & TXN_FLAG != 0 => {
                // A transaction resolved; `applied` is the commit verdict.
                if self.txn_specs.remove(&res.seq).is_none() {
                    return; // duplicate reply from a retransmission
                }
                self.txn_unsent.remove(&res.seq);
                self.last_progress = Instant::now();
                done.push(res);
            }
            KvWire::Reply(mut res) => {
                let seq = res.seq;
                let Some(op) = self.inflight.remove(&seq) else {
                    return; // duplicate reply from a retransmission
                };
                self.unsent.remove(&seq);
                self.last_progress = Instant::now();
                let orig = self.alias.remove(&seq).unwrap_or(seq);
                if matches!(op, KvOp::Read { .. }) && !res.applied {
                    // Deduplicated read: reissue under a fresh seq, still
                    // reported to the caller under the original one.
                    self.next_seq += 1;
                    let fresh = self.next_seq;
                    self.inflight.insert(fresh, op);
                    self.unsent.insert(fresh);
                    self.alias.insert(fresh, orig);
                    return;
                }
                res.seq = orig;
                done.push(res);
            }
            KvWire::Redirect { leader } | KvWire::ShardRedirect { leader, .. } => {
                // A pipelined client targets one shard (or an unsharded
                // store), so a shard redirect is just a leader hint for
                // that shard.
                self.retarget(leader);
                let gate = Instant::now() + Duration::from_millis(20);
                self.gate = Some(self.gate.map_or(gate, |g| g.max(gate)));
            }
            KvWire::Retry { seq } => {
                if self.inflight.contains_key(&seq) {
                    self.retries += 1;
                    self.unsent.insert(seq);
                    let gate = Instant::now() + self.retry_delay;
                    self.gate = Some(self.gate.map_or(gate, |g| g.max(gate)));
                }
            }
            KvWire::CrossShard { seq } => {
                // The gateway refused a multi-key op whose keys span
                // shards. Terminal: retrying can never succeed, so pull
                // the op from the window and surface the token instead
                // of retransmitting forever.
                if self.inflight.remove(&seq).is_some() {
                    self.unsent.remove(&seq);
                    self.last_progress = Instant::now();
                    let orig = self.alias.remove(&seq).unwrap_or(seq);
                    self.rejected.push(orig);
                }
            }
            // Servers never send requests; routing-table frames are the
            // sharded wrapper's business (it refreshes via bootstrap);
            // status queries are the synchronous client's.
            KvWire::Request(_)
            | KvWire::ReadRequest { .. }
            | KvWire::ShardsReq
            | KvWire::Shards { .. }
            | KvWire::TxnRequest { .. }
            | KvWire::TxnStatusReq { .. }
            | KvWire::TxnStatus { .. } => {}
        }
    }

    /// Write every due outstanding request as one coalesced frame batch,
    /// in strictly increasing seq order.
    fn transmit(&mut self) {
        // Reconnection is driven by *outstanding* ops, not unsent ones: a
        // dropped connection clears nothing from `inflight`, and
        // `connect` re-marks the whole window for retransmission.
        if self.window_empty()
            || (self.conn.is_some()
                && self.unsent.is_empty()
                && self.read_unsent.is_empty()
                && self.txn_unsent.is_empty())
        {
            return;
        }
        if let Some(g) = self.gate {
            if Instant::now() < g {
                return;
            }
        }
        if self.conn.is_none() && !self.connect() {
            return;
        }
        if self.unsent.is_empty() && self.read_unsent.is_empty() && self.txn_unsent.is_empty() {
            return;
        }
        let mut buf = Vec::new();
        for (&seq, op) in self.inflight.iter() {
            if !self.unsent.contains(&seq) {
                continue;
            }
            let cmd = KvCommand {
                client: self.client_id,
                seq,
                op: op.clone(),
            };
            let payload = KvWire::Request(cmd).to_bytes();
            buf.extend_from_slice(&frame::encode_frame(kind::KV, &payload));
        }
        for (&token, key) in self.read_keys.iter() {
            if !self.read_unsent.contains(&token) {
                continue;
            }
            let payload = KvWire::ReadRequest {
                mode: self.read_mode,
                client: READ_FLAG | self.client_id,
                seq: token,
                key: key.clone(),
            }
            .to_bytes();
            buf.extend_from_slice(&frame::encode_frame(kind::KV, &payload));
        }
        for (&token, spec) in self.txn_specs.iter() {
            if !self.txn_unsent.contains(&token) {
                continue;
            }
            let payload = KvWire::TxnRequest {
                client: self.client_id,
                seq: token,
                spec: spec.clone(),
            }
            .to_bytes();
            buf.extend_from_slice(&frame::encode_frame(kind::KV, &payload));
        }
        let conn = self.conn.as_ref().expect("connected above");
        let mut w = &conn.stream;
        if w.write_all(&buf).is_ok() {
            self.unsent.clear();
            self.read_unsent.clear();
            self.txn_unsent.clear();
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
                let gate = Instant::now() + Duration::from_millis(20);
                self.gate = Some(self.gate.map_or(gate, |g| g.max(gate)));
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
        self.unsent = self.inflight.keys().copied().collect();
        self.read_unsent = self.read_keys.keys().copied().collect();
        self.txn_unsent = self.txn_specs.keys().copied().collect();
        self.conn = Some(PipeConn { stream, rx, reader });
        true
    }

    fn fail_conn(&mut self) {
        self.conn = None; // Drop shuts the socket down and joins the reader
        self.rotate();
        let gate = Instant::now() + Duration::from_millis(20);
        self.gate = Some(self.gate.map_or(gate, |g| g.max(gate)));
    }

    fn check_stall(&mut self, done: &[KvResult]) -> std::io::Result<()> {
        if self.window_empty() || !done.is_empty() {
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

    fn retarget(&mut self, leader: NodeId) {
        match self.servers.iter().position(|(pid, _)| *pid == leader) {
            Some(i) if i != self.current => {
                self.current = i;
                self.conn = None;
            }
            Some(_) => {} // already there; the leader may still be settling
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

/// Fetch the routing table from any reachable server: connect, send
/// [`KvWire::ShardsReq`], return the per-shard leader pids. `leaders.len()`
/// is the cluster's shard count (1 for an unsharded store).
pub fn fetch_shards(
    servers: &[(NodeId, SocketAddr)],
    timeout: Duration,
) -> std::io::Result<Vec<NodeId>> {
    let mut last_err = std::io::Error::new(ErrorKind::NotConnected, "no servers");
    for &(_, addr) in servers {
        let attempt = (|| -> std::io::Result<Vec<NodeId>> {
            let stream = TcpStream::connect_timeout(&addr, timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            let mut w = &stream;
            frame::write_frame(&mut w, kind::KV, &KvWire::ShardsReq.to_bytes())?;
            let mut r = &stream;
            loop {
                let f = frame::read_frame(&mut r)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                if f.kind != kind::KV {
                    continue;
                }
                match KvWire::from_bytes(&f.payload) {
                    Ok(KvWire::Shards { leaders }) => return Ok(leaders),
                    Ok(_) | Err(_) => continue,
                }
            }
        })();
        match attempt {
            Ok(leaders) if !leaders.is_empty() => return Ok(leaders),
            Ok(_) => last_err = std::io::Error::new(ErrorKind::InvalidData, "empty routing table"),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
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
