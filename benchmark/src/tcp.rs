//! The three TCP workloads: `tcp_put`, `tcp_read_lease`, `tcp_txn_2shard`.
//!
//! One generator thread (this one) drives the cluster through the library's
//! own clients — a `PipelinedKvClient` for one shard, a `ShardedKvClient`
//! (one connection per shard) for two — and never busy-spins: whenever it
//! has nothing to submit it blocks in `PipelinedKvClient::wait`.
//!
//! A run is [`ROUNDS`] rounds; each boots a fresh cluster, populates the
//! keyspace, warms up, measures a window-1 phase and a window-256 phase,
//! and ends with the correctness checks. No message delay is injected:
//! latency is processor time, syscalls, and the code's own 1 ms
//! sleep-polls.

use crate::estimator::{self, LatencySlices, RateSlices};
use crate::gen::{self, GenOp, Generator, Kind, Request};
use crate::hist::Histogram;
use crate::metrics::Outcome;
use crate::tcpcluster::{self, Cluster, Server, Snapshot, Spec};
use crate::trace::{Span, Tracer, NONE};
use kvstore::{KvOp, KvResult, ReadMode};
use net::{PipelinedKvClient, ShardedKvClient};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Fresh clusters per end-to-end run.
pub const ROUNDS: u64 = 5;
pub const WINDOW: usize = 256;
const WARMUP_OPS: usize = 50;
/// An op outstanding this long has failed, whatever arrives later.
const OP_DEADLINE: Duration = Duration::from_secs(10);
const CLIENT_ID: u64 = 0xBE9C_0000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Put,
    ReadLease,
    Txn2Shard,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "tcp_put" => Some(Workload::Put),
            "tcp_read_lease" => Some(Workload::ReadLease),
            "tcp_txn_2shard" => Some(Workload::Txn2Shard),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Put => "tcp_put",
            Workload::ReadLease => "tcp_read_lease",
            Workload::Txn2Shard => "tcp_txn_2shard",
        }
    }

    pub fn spec(self, traced: bool) -> Spec {
        Spec {
            shards: if self == Workload::Txn2Shard { 2 } else { 1 },
            replicas: 3,
            lease: self == Workload::ReadLease,
            hb_timeout_ticks: tcpcluster::STEADY_HB_TICKS,
            traced,
        }
    }

    /// Patterns of the window-1 phase and of every later phase.
    fn patterns(self) -> (&'static [Kind], &'static [Kind]) {
        match self {
            Workload::Put => (gen::PUTS, gen::PUTS),
            Workload::ReadLease => (gen::READS, gen::READ_MOSTLY),
            Workload::Txn2Shard => (gen::TXN_MIX, gen::TXN_MIX),
        }
    }

    /// Ops per throughput slice: ~100 ms of work at this workload's rate.
    pub fn slice_ops(self) -> u64 {
        match self {
            Workload::Put | Workload::Txn2Shard => 8_192,
            Workload::ReadLease => 16_384,
        }
    }
}

/// The library's two pipelined clients behind one face.
pub enum Client {
    One(Box<PipelinedKvClient>),
    Sharded(ShardedKvClient),
}

impl Client {
    pub fn connect(cluster: &Cluster, id: u64) -> Client {
        let addrs = cluster.client_addrs.clone();
        let mode = if cluster.spec.lease {
            ReadMode::Lease
        } else {
            ReadMode::Log
        };
        if cluster.spec.shards == 1 {
            // Pid 1 leads and is first in the list: no redirect to pay.
            let mut c = PipelinedKvClient::new(id, addrs);
            c.read_mode = mode;
            Client::One(Box::new(c))
        } else {
            let mut c = ShardedKvClient::new(id, addrs, cluster.spec.shards);
            c.apply_routes(&cluster.leaders);
            c.set_read_mode(mode);
            Client::Sharded(c)
        }
    }

    /// Queue a request; `(shard, token)` identifies its completion.
    pub fn submit(&mut self, req: Request) -> (u32, u64) {
        match (self, req) {
            (Client::One(c), Request::Write(op)) => (0, c.submit(op)),
            (Client::One(c), Request::Read(key)) => (0, c.submit_read(&key)),
            (Client::One(c), Request::Txn(spec)) => (0, c.submit_txn(spec)),
            (Client::Sharded(c), Request::Write(op)) => c.submit(op),
            (Client::Sharded(c), Request::Read(key)) => c.submit_read(&key),
            (Client::Sharded(c), Request::Txn(spec)) => c.submit_txn(spec),
        }
    }

    fn session(&mut self, shard: u32) -> &mut PipelinedKvClient {
        match self {
            Client::One(c) => c,
            Client::Sharded(c) => c.shard(shard),
        }
    }

    /// Block in `PipelinedKvClient::wait` on the session of `shard`.
    pub fn wait(&mut self, shard: u32, timeout: Duration) -> std::io::Result<Vec<(u32, KvResult)>> {
        let done = self.session(shard).wait(timeout)?;
        Ok(done.into_iter().map(|r| (shard, r)).collect())
    }

    /// One non-blocking cycle over every session.
    pub fn pump(&mut self) -> std::io::Result<Vec<(u32, KvResult)>> {
        match self {
            Client::One(c) => Ok(c.pump()?.into_iter().map(|r| (0, r)).collect()),
            Client::Sharded(c) => c.pump(),
        }
    }

    /// Completions if any are ready, else block up to `idle` for some.
    pub fn pump_or_wait(&mut self, idle: Duration) -> std::io::Result<Vec<(u32, KvResult)>> {
        match self {
            Client::One(c) => Ok(c.wait(idle)?.into_iter().map(|r| (0, r)).collect()),
            Client::Sharded(c) => {
                let done = c.pump()?;
                if !done.is_empty() {
                    return Ok(done);
                }
                // Nothing ready: sleep in `wait` on a session that has work.
                let n = c.n_shards() as u32;
                for s in 0..n {
                    if c.shard(s).in_flight() > 0 {
                        let done = c.shard(s).wait(idle / n)?;
                        if !done.is_empty() {
                            return Ok(done.into_iter().map(|r| (s, r)).collect());
                        }
                    }
                }
                Ok(Vec::new())
            }
        }
    }

    pub fn retries(&mut self) -> u64 {
        match self {
            Client::One(c) => c.retries_seen(),
            Client::Sharded(c) => c.retries_seen(),
        }
    }

    pub fn rotations(&mut self) -> u64 {
        match self {
            Client::One(c) => c.rotations_seen(),
            Client::Sharded(c) => (0..c.n_shards() as u32)
                .map(|s| c.shard(s).rotations_seen())
                .sum(),
        }
    }
}

struct Pending {
    op: GenOp,
    /// When the op was due (open loop) or submitted (closed loop).
    due: Instant,
    sent: Instant,
    /// Highest put value known complete for the key when a read was sent:
    /// the read may not return anything older.
    floor: i64,
}

/// Per-kind tallies of one driver (one cluster).
#[derive(Default, Clone)]
pub struct Tallies {
    pub attempted: u64,
    /// Refused, aborted or timed-out requests.
    pub failed: u64,
    /// Answers that contradict the model: each is a failed check.
    pub wrong: u64,
    pub stale_reads: u64,
    pub unknown_completions: u64,
    pub transfers: u64,
    pub transfers_committed: u64,
    pub cas: u64,
    pub cas_refused: u64,
    /// Ops answered as the model says they should be.
    pub completed: u64,
}

/// Where a phase records what it measures; all optional.
#[derive(Default)]
pub struct Sinks<'a> {
    pub w1: Option<&'a mut LatencySlices>,
    pub latency: Option<&'a mut Histogram>,
    pub transfer_latency: Option<&'a mut Histogram>,
    pub rate: Option<&'a mut RateSlices>,
    pub gen_late: Option<&'a mut Histogram>,
    pub spans: Option<&'a mut Tracer>,
    /// Time spent inside `submit` / the non-blocking `pump`, and calls.
    pub client_ns: Option<&'a mut ClientTimes>,
}

#[derive(Default)]
pub struct ClientTimes {
    pub submit_ns: u64,
    pub submits: u64,
    pub pump_ns: u64,
    pub pumped_ops: u64,
}

/// One client driving one cluster, with the model to check it against.
pub struct Driver {
    pub client: Client,
    pub gen: Generator,
    pending: HashMap<(u32, u64), Pending>,
    /// Per key: highest put value whose completion this client has seen.
    floor: Vec<i64>,
    pub tallies: Tallies,
}

impl Driver {
    pub fn new(cluster: &Cluster, workload: Workload, seed: u64) -> Driver {
        let (first, _) = workload.patterns();
        let gen = Generator::new(seed, first, cluster.spec.shards);
        Driver {
            client: Client::connect(cluster, CLIENT_ID | (seed & 0xFFFF)),
            floor: gen.model.clone(),
            gen,
            pending: HashMap::new(),
            tallies: Tallies::default(),
        }
    }

    fn submit_next(&mut self, due: Instant, sinks: &mut Sinks) {
        let op = self.gen.next_op();
        let floor = self.floor[op.key];
        let t0 = Instant::now();
        let id = self.client.submit(op.request.clone());
        let sent = Instant::now();
        if let Some(c) = sinks.client_ns.as_deref_mut() {
            c.submit_ns += sent.duration_since(t0).as_nanos() as u64;
            c.submits += 1;
        }
        if let Some(h) = sinks.gen_late.as_deref_mut() {
            h.record(t0.saturating_duration_since(due).as_nanos() as u64);
        }
        self.tallies.attempted += 1;
        self.pending.insert(
            id,
            Pending {
                op,
                due,
                sent,
                floor,
            },
        );
    }

    /// Judge one completion against the model. Returns the op's latency
    /// from its due instant if it succeeded as it should.
    fn complete(
        &mut self,
        shard: u32,
        res: &KvResult,
        now: Instant,
        sinks: &mut Sinks,
    ) -> Option<u64> {
        let Some(p) = self.pending.remove(&(shard, res.seq)) else {
            self.tallies.unknown_completions += 1;
            return None;
        };
        let t = &mut self.tallies;
        let ok = match p.op.kind {
            Kind::Put => {
                if res.applied && res.value == p.op.expect_value {
                    let v = res.value.unwrap_or(0);
                    self.floor[p.op.key] = self.floor[p.op.key].max(v);
                    true
                } else {
                    // A refused write is a failure; a wrong value an error.
                    t.wrong += res.applied as u64;
                    false
                }
            }
            Kind::Read => match res.value {
                Some(v) if res.applied && v >= p.floor => true,
                Some(_) if res.applied => {
                    t.stale_reads += 1;
                    false
                }
                _ => false,
            },
            Kind::Cas | Kind::StaleCas => {
                t.cas += 1;
                t.cas_refused += !res.applied as u64;
                let as_expected =
                    res.applied == p.op.expect_applied && res.value == p.op.expect_value;
                t.wrong += !as_expected as u64;
                if as_expected && res.applied {
                    let v = res.value.unwrap_or(0);
                    self.floor[p.op.key] = self.floor[p.op.key].max(v);
                }
                as_expected
            }
            Kind::Transfer => {
                t.transfers += 1;
                t.transfers_committed += res.applied as u64;
                self.gen.transfer_done(&p.op, res.applied);
                res.applied
            }
        };
        if !ok {
            self.tallies.failed += 1;
            return None;
        }
        self.tallies.completed += 1;
        let ns = now.saturating_duration_since(p.due).as_nanos() as u64;
        if p.op.kind == Kind::Transfer {
            if let Some(h) = sinks.transfer_latency.as_deref_mut() {
                h.record(ns);
            }
        }
        if let Some(tr) = sinks.spans.as_deref_mut() {
            let (due, sent, end) = (tr.ns_of(p.due), tr.ns_of(p.sent), tr.ns_of(now));
            let root = tr.push(Span {
                name: "client.op",
                start_ns: due,
                end_ns: end,
                parent: NONE,
                shard,
                seq: res.seq,
            });
            tr.push(Span {
                name: "client.submit",
                start_ns: due,
                end_ns: sent,
                parent: root,
                shard,
                seq: res.seq,
            });
        }
        Some(ns)
    }

    fn overdue(&self, now: Instant) -> bool {
        self.pending
            .values()
            .any(|p| now.saturating_duration_since(p.sent) > OP_DEADLINE)
    }

    /// Exactly one op outstanding, the caller blocked in
    /// `PipelinedKvClient::wait`, until `until`.
    pub fn window1(&mut self, until: Instant, sinks: &mut Sinks) -> Result<(), String> {
        if let Some(w1) = sinks.w1.as_deref_mut() {
            w1.restart();
        }
        while Instant::now() < until {
            self.one_op(sinks)?;
        }
        Ok(())
    }

    fn one_op(&mut self, sinks: &mut Sinks) -> Result<(), String> {
        let due = Instant::now();
        self.submit_next(due, sinks);
        let shard = self.pending.keys().next().map_or(0, |k| k.0);
        while !self.pending.is_empty() {
            let done = self
                .client
                .wait(shard, Duration::from_millis(100))
                .map_err(|e| format!("window 1: {e}"))?;
            let now = Instant::now();
            for (s, r) in &done {
                if let Some(ns) = self.complete(*s, r, now, sinks) {
                    if let Some(w1) = sinks.w1.as_deref_mut() {
                        w1.add(ns as f64 / 1e3);
                    }
                    if let Some(h) = sinks.latency.as_deref_mut() {
                        h.record(ns);
                    }
                }
            }
            if self.overdue(now) {
                return Err("window 1: an op got no answer in 10 s".into());
            }
        }
        Ok(())
    }

    /// Closed loop: `window` ops kept outstanding until `until`, then the
    /// window is drained (the drain is not part of any slice).
    pub fn closed_loop(
        &mut self,
        window: usize,
        until: Instant,
        sinks: &mut Sinks,
    ) -> Result<(), String> {
        if let Some(r) = sinks.rate.as_deref_mut() {
            r.restart();
        }
        loop {
            let now = Instant::now();
            let open = now < until;
            if !open && self.pending.is_empty() {
                return Ok(());
            }
            while open && self.pending.len() < window {
                self.submit_next(now, sinks);
            }
            self.collect(Duration::from_millis(2), open, sinks)?;
        }
    }

    /// Open loop: ops fall due at `rate` per second for `span`, whatever
    /// the cluster does, and are timed from the instant they were due. The
    /// in-flight cap keeps an overloaded rung finite; ops held back by it
    /// are late, and counted late. Returns `(completed, left_waiting)`:
    /// how many finished and how many were still outstanding when the
    /// schedule ended (a backlog).
    pub fn open_loop(
        &mut self,
        rate: f64,
        span: Duration,
        sinks: &mut Sinks,
    ) -> Result<(u64, usize), String> {
        const IN_FLIGHT_CAP: usize = 4_096;
        let start = Instant::now();
        let total = (rate * span.as_secs_f64()) as u64;
        let gap = Duration::from_secs_f64(1.0 / rate);
        let before = self.tallies.completed;
        let mut issued = 0u64;
        let mut backlog = None;
        loop {
            let now = Instant::now();
            let due_by_now =
                ((now.duration_since(start).as_secs_f64() * rate) as u64 + 1).min(total);
            while issued < due_by_now && self.pending.len() < IN_FLIGHT_CAP {
                self.submit_next(start + gap * issued as u32, sinks);
                issued += 1;
            }
            if issued == total && backlog.is_none() {
                backlog = Some(self.pending.len());
            }
            if issued == total && self.pending.is_empty() {
                break;
            }
            // Sleep in `wait` until the next op falls due (or a reply).
            let next_due = start + gap * issued as u32;
            let idle = next_due
                .saturating_duration_since(Instant::now())
                .clamp(Duration::from_micros(50), Duration::from_millis(2));
            self.collect(idle, true, sinks)?;
        }
        Ok((self.tallies.completed - before, backlog.unwrap_or(0)))
    }

    /// Take what has completed (blocking up to `idle` if nothing has).
    fn collect(
        &mut self,
        idle: Duration,
        count_rate: bool,
        sinks: &mut Sinks,
    ) -> Result<(), String> {
        let timed = sinks.client_ns.is_some();
        let done = if timed {
            // Traced: time the non-blocking cycle on its own, then sleep.
            let t0 = Instant::now();
            let mut done = self.client.pump().map_err(|e| format!("pump: {e}"))?;
            if let Some(c) = sinks.client_ns.as_deref_mut() {
                c.pump_ns += t0.elapsed().as_nanos() as u64;
                c.pumped_ops += done.len() as u64;
            }
            if done.is_empty() {
                done = self
                    .client
                    .pump_or_wait(idle)
                    .map_err(|e| format!("wait: {e}"))?;
            }
            done
        } else {
            self.client
                .pump_or_wait(idle)
                .map_err(|e| format!("wait: {e}"))?
        };
        let now = Instant::now();
        let mut ok = 0;
        for (s, r) in &done {
            if let Some(ns) = self.complete(*s, r, now, sinks) {
                ok += 1;
                if let Some(h) = sinks.latency.as_deref_mut() {
                    h.record(ns);
                }
            }
        }
        if count_rate {
            if let Some(r) = sinks.rate.as_deref_mut() {
                r.add(ok, now);
            }
        }
        if done.is_empty() && self.overdue(now) {
            return Err("an op got no answer in 10 s".into());
        }
        Ok(())
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Submit the next op of a schedule kept by the caller.
    pub fn submit_scheduled(&mut self, due: Instant) {
        self.submit_next(due, &mut Sinks::default());
    }

    /// Take what has completed; returns how many finished within `limit`
    /// of the instant they were due.
    pub fn collect_scheduled(&mut self, idle: Duration, limit: Duration) -> Result<u64, String> {
        let done = self
            .client
            .pump_or_wait(idle)
            .map_err(|e| format!("wait: {e}"))?;
        let now = Instant::now();
        let mut within = 0;
        for (s, r) in &done {
            if let Some(ns) = self.complete(*s, r, now, &mut Sinks::default()) {
                within += (ns <= limit.as_nanos() as u64) as u64;
            }
        }
        if done.is_empty() && self.overdue(now) {
            return Err("an op got no answer in 10 s".into());
        }
        Ok(within)
    }

    /// Set-up traffic: every key written once (accounts funded), then 50
    /// warm-up ops of the workload's own kind, one at a time.
    pub fn populate_and_warm_up(&mut self, workload: Workload) -> Result<(), String> {
        let initial = gen::initial_values(workload == Workload::Txn2Shard);
        let mut waiting = 0usize;
        let mut next = 0usize;
        let deadline = Instant::now() + OP_DEADLINE;
        while next < initial.len() || waiting > 0 {
            while next < initial.len() && waiting < WINDOW {
                self.client.submit(Request::Write(KvOp::Put {
                    key: gen::key(next),
                    value: initial[next],
                }));
                next += 1;
                waiting += 1;
            }
            let done = self
                .client
                .pump_or_wait(Duration::from_millis(2))
                .map_err(|e| format!("populate: {e}"))?;
            if done.iter().any(|(_, r)| !r.applied) {
                return Err("populate: a put was refused".into());
            }
            waiting -= done.len();
            if Instant::now() > deadline {
                return Err("populate: not done in 10 s".into());
            }
        }
        self.tallies.attempted += initial.len() as u64;
        // Lease reads before the first grant bounce to the log path and
        // cost three times as much, so warming up with them made set-up
        // time a coin toss on when the grant lands; warm up with puts.
        let (first, _) = workload.patterns();
        self.gen.set_pattern(if workload == Workload::ReadLease {
            gen::PUTS
        } else {
            first
        });
        for _ in 0..WARMUP_OPS {
            self.one_op(&mut Sinks::default())?;
        }
        self.gen.set_pattern(first);
        Ok(())
    }

    /// With leases on: read until 50 reads in a row were served from the
    /// lease (none bounced to the log path). The first grant arrives with
    /// the first heartbeat round after the election — up to a whole round
    /// of idle waiting, at a phase set-up cannot control — so this wait is
    /// kept out of `setup_s`.
    pub fn await_lease(&mut self) -> Result<(), String> {
        let mut clean = 0;
        let deadline = Instant::now() + OP_DEADLINE;
        while clean < WARMUP_OPS {
            let retries = self.client.retries();
            self.one_op(&mut Sinks::default())?;
            clean = if self.client.retries() != retries {
                0
            } else {
                clean + 1
            };
            if Instant::now() > deadline {
                return Err("the lease never settled".into());
            }
        }
        Ok(())
    }

    /// Switch from the window-1 pattern to the pattern of later phases.
    pub fn later_phases(&mut self, workload: Workload) {
        self.gen.set_pattern(workload.patterns().1);
    }

    /// Every key read back through the log must hold the model's value
    /// (which, for accounts, also proves the balances are conserved).
    ///
    /// A transfer is answered when its decision is recorded; the commit
    /// records that apply it on the participant shards follow on their own,
    /// so an account read straight after may still show the old balance.
    /// Keys that do not match are therefore read again, for up to 2 s,
    /// before they count against the run.
    ///
    /// Returns how many keys read back *older* than a put this client saw
    /// acknowledged: acknowledged writes that were lost.
    pub fn read_back(&mut self, out: &mut Outcome, who: &str) -> Result<u64, String> {
        let deadline = Instant::now() + OP_DEADLINE;
        let settle_by = Instant::now() + Duration::from_secs(2);
        let mut todo: Vec<usize> = (0..gen::KEYS).collect();
        loop {
            let mut wrong: Vec<(usize, KvResult)> = Vec::new();
            let mut asked: HashMap<(u32, u64), usize> = HashMap::new();
            let mut next = 0usize;
            while next < todo.len() || !asked.is_empty() {
                while next < todo.len() && asked.len() < WINDOW {
                    let key = gen::key(todo[next]);
                    let id = self.client.submit(Request::Write(KvOp::Read { key }));
                    asked.insert(id, todo[next]);
                    next += 1;
                }
                let done = self
                    .client
                    .pump_or_wait(Duration::from_millis(2))
                    .map_err(|e| format!("read back: {e}"))?;
                for (s, r) in done {
                    if let Some(k) = asked.remove(&(s, r.seq)) {
                        if !r.applied || r.value != Some(self.gen.model[k]) {
                            wrong.push((k, r));
                        }
                    }
                }
                if Instant::now() > deadline {
                    return Err("read back: not done in 10 s".into());
                }
            }
            self.tallies.attempted += todo.len() as u64;
            if wrong.is_empty() || Instant::now() > settle_by {
                let mut lost = 0;
                for (k, r) in wrong {
                    lost += (r.value.unwrap_or(i64::MIN) < self.floor[k]) as u64;
                    out.check(false, || {
                        format!(
                            "{who}: {} read back {:?}, model says {}",
                            gen::key(k),
                            r.value,
                            self.gen.model[k]
                        )
                    });
                }
                return Ok(lost);
            }
            todo = wrong.into_iter().map(|(k, _)| k).collect();
            out.notes.push((
                "read_back_again",
                format!("{} keys not yet at the model's value: {todo:?}", todo.len()),
            ));
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// What a run accumulates over its rounds.
pub struct Acc {
    pub w1: LatencySlices,
    pub w1_all: Histogram,
    pub rate: RateSlices,
    pub setup_s: Vec<f64>,
    pub tallies: Tallies,
    pub leader_moves: u64,
    pub leader_changes: u64,
    pub boots: u64,
    pub rounds: u64,
}

impl Acc {
    pub fn new(workload: Workload) -> Acc {
        Acc {
            w1: LatencySlices::new(50),
            w1_all: Histogram::new(),
            rate: RateSlices::new(workload.slice_ops()),
            setup_s: Vec::new(),
            tallies: Tallies::default(),
            leader_moves: 0,
            leader_changes: 0,
            boots: 0,
            rounds: 0,
        }
    }

    pub fn absorb(&mut self, t: &Tallies) {
        let a = &mut self.tallies;
        a.attempted += t.attempted;
        a.failed += t.failed;
        a.wrong += t.wrong;
        a.stale_reads += t.stale_reads;
        a.unknown_completions += t.unknown_completions;
        a.transfers += t.transfers;
        a.transfers_committed += t.transfers_committed;
        a.cas += t.cas;
        a.cas_refused += t.cas_refused;
        a.completed += t.completed;
    }
}

/// Set-up of one round: boot to the canonical placement, connect,
/// populate, warm up. Returns the seconds all of it took.
pub fn set_up(workload: Workload, spec: Spec, seed: u64) -> Result<(Cluster, Driver, f64), String> {
    let start = Instant::now();
    let cluster = Cluster::boot(spec)?;
    let mut driver = Driver::new(&cluster, workload, seed);
    driver.populate_and_warm_up(workload)?;
    let secs = start.elapsed().as_secs_f64();
    if cluster.spec.lease {
        driver.await_lease()?;
    }
    Ok((cluster, driver, secs))
}

pub struct RoundEnd {
    /// Final counters and recorded spans of each server.
    pub finals: Vec<(Snapshot, Tracer)>,
    pub lost_acked_keys: u64,
}

/// The checks that end every round, and the teardown: the model holds, the
/// leaders did not move, every op completed exactly once, and — after the
/// server threads are joined — the replicas' state machines are equal,
/// session tables included. Returns the servers' final counters.
pub fn end_round(
    workload: Workload,
    mut cluster: Cluster,
    mut driver: Driver,
    acc: &mut Acc,
    out: &mut Outcome,
) -> RoundEnd {
    let who = workload.name();
    let lost_acked_keys = match driver.read_back(out, who) {
        Ok(lost) => lost,
        Err(e) => {
            out.check(false, || format!("{who}: {e}"));
            0
        }
    };
    let t = driver.tallies.clone();
    out.check(driver.pending.is_empty(), || {
        format!("{who}: {} ops never completed", driver.pending.len())
    });
    out.check(t.unknown_completions == 0, || {
        format!(
            "{who}: {} completions for ops not outstanding (completed twice?)",
            t.unknown_completions
        )
    });
    out.check(t.wrong == 0, || {
        format!("{who}: {} answers contradict the model", t.wrong)
    });
    out.check(t.stale_reads == 0, || {
        format!(
            "{who}: {} lease reads older than a put completed before they were sent",
            t.stale_reads
        )
    });
    let now = cluster.current_leaders();
    if now != cluster.leaders {
        acc.leader_moves += 1;
        out.notes
            .push(("leader_moved", format!("{:?} -> {now:?}", cluster.leaders)));
    }
    acc.boots += cluster.boots as u64;
    acc.absorb(&t);
    drop(driver);

    let mut servers = cluster.stop();
    out.check(servers.len() == cluster.spec.replicas as usize, || {
        format!("{who}: a server thread panicked")
    });
    let settled = tcpcluster::settle(&mut servers);
    out.check(settled, || {
        format!("{who}: replicas never reached equal decided lengths")
    });
    let mut entries = 0;
    for s in 0..cluster.spec.shards as u32 {
        let sm = |srv: &Server| srv.node().shard(s).state_machine().clone();
        if let Some(((head, _), rest)) = servers.split_first() {
            for (other, _) in rest {
                out.check(sm(other) == sm(head), || {
                    format!("{who}: shard {s} state machines differ between replicas")
                });
            }
            entries += head.node().shard(s).server_ref().decided_len();
            acc.leader_changes += servers
                .iter()
                .map(|(srv, _)| srv.node().shard(s).server_ref().ballot_audit().len())
                .max()
                .unwrap_or(1)
                .saturating_sub(1) as u64;
        }
    }
    if workload == Workload::ReadLease {
        let per_op = entries as f64 / t.attempted.max(1) as f64;
        out.check(
            per_op <= 0.06 + (gen::KEYS * 2) as f64 / t.attempted.max(1) as f64,
            || format!("{who}: {per_op:.3} log entries per op: lease reads are riding the log"),
        );
    }
    acc.rounds += 1;
    let finals: Vec<(Snapshot, Tracer)> = servers
        .iter_mut()
        .map(|(srv, tr)| {
            (
                tcpcluster::snapshot_of(srv),
                std::mem::replace(tr, Tracer::new(0)),
            )
        })
        .collect();
    tcpcluster::drop_all(servers);
    RoundEnd {
        finals,
        lost_acked_keys,
    }
}

/// One end-to-end run (`--trace 0`): [`ROUNDS`] rounds inside `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64, smoke: bool, out: &mut Outcome) {
    // Of each round's share: ~0.4 s set-up, 41 % window 1, 50 % window
    // 256, the rest checks and teardown.
    let rounds = if smoke { 1 } else { ROUNDS };
    let share = seconds / rounds as f64;
    let w1_span = Duration::from_secs_f64(share * 0.41);
    let w256_span = Duration::from_secs_f64(share * 0.50);
    let mut acc = Acc::new(workload);
    for round in 0..rounds {
        let round_seed = seed.wrapping_mul(1_000_003).wrapping_add(round);
        let (cluster, mut driver, secs) = match set_up(workload, workload.spec(false), round_seed) {
            Ok(x) => x,
            Err(e) => {
                out.check(false, || {
                    format!("{}: round {round} set-up: {e}", workload.name())
                });
                continue;
            }
        };
        acc.setup_s.push(secs);
        let measured = (|| {
            let mut sinks = Sinks {
                w1: Some(&mut acc.w1),
                latency: Some(&mut acc.w1_all),
                ..Sinks::default()
            };
            driver.window1(Instant::now() + w1_span, &mut sinks)?;
            driver.later_phases(workload);
            let mut sinks = Sinks {
                rate: Some(&mut acc.rate),
                ..Sinks::default()
            };
            driver.closed_loop(WINDOW, Instant::now() + w256_span, &mut sinks)
        })();
        if let Err(e) = measured {
            out.check(false, || format!("{}: round {round}: {e}", workload.name()));
        }
        end_round(workload, cluster, driver, &mut acc, out);
    }
    report_end_to_end(workload, &acc, out);
}

pub fn report_end_to_end(workload: Workload, acc: &Acc, out: &mut Outcome) {
    out.attempted = acc.tallies.attempted;
    out.failed = acc.tallies.failed;
    if acc.setup_s.is_empty() || acc.w1.medians.is_empty() || acc.rate.rates.is_empty() {
        out.check(false, || {
            format!("{}: nothing was measured", workload.name())
        });
        return;
    }
    out.set("setup_s", estimator::median(&acc.setup_s));
    out.set("w1_p50_us", estimator::quiet_latency(&acc.w1.medians));
    out.set("ops_per_s", estimator::quiet_rate(&acc.rate.rates));
    out.notes.push((
        "slices",
        format!(
            "{} rounds ({} boots), {}, {} leader moves",
            acc.rounds,
            acc.boots,
            estimator::slices_note(acc.w1.medians.len(), acc.rate.rates.len()),
            acc.leader_moves
        ),
    ));
    out.notes.push((
        "plain",
        format!(
            "w1 p50 {:.1} us, {:.0} ops/s, set-ups {:?} s",
            acc.w1_all.quantile_or_zero(0.5) / 1e3,
            acc.rate.plain_rate(),
            acc.setup_s
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
    ));
}
