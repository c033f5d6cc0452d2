//! `engine_put_wal`: the protocol engine on one thread, no sockets.
//!
//! Three `KvNode<WalStorage<KvCommand>>` exchange messages by function
//! call, each message taking the deployed byte path — `Wire::encode` with
//! the sender's `BatchCache` (as `TcpTransport::send` does) →
//! `frame::encode_frame` → `frame::decode_frame` → `Wire::from_bytes` —
//! so `kvstore::store`, `omnipaxos::{service, sequence_paxos, wal, storage,
//! wire}` and `net::frame` do all the work and sockets and threads none:
//! the mirror image of `tcp_put`. Timers tick on an op-count schedule and
//! the working set is bounded (a fresh cluster and fresh WAL files every
//! [`LIFE_OPS`] ops), so message, byte, sync and allocation counts per op
//! repeat exactly, run after run and seed after seed.

use crate::estimator::{self, LatencySlices, RateSlices};
use crate::gen::{self, Generator, Request};
use crate::hist::Histogram;
use crate::host::{self, TempDir};
use crate::metrics::Outcome;
use crate::trace::{Span, Stopwatch, NONE};
use kvstore::{KvCommand, KvNode, KvOp, KvResult};
use net::frame::{self, kind};
use omnipaxos::service::{OmniPaxosServer, ServerConfig};
use omnipaxos::wire::{BatchCache, Wire};
use omnipaxos::{ServiceMsg, Storage, WalStorage};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Wal = WalStorage<KvCommand>;
pub type Node = KvNode<Wal>;

const CLIENT: u64 = 0xE9;
/// Single puts per sub-phase: 128 latency slices of 50.
const SINGLES: u64 = 6_400;
/// Ops per throughput slice: 200 batches of 64, ~25 ms of work.
const BATCH: u64 = 64;
const SLICE_OPS: u64 = 200 * BATCH;
/// Throughput slices per sub-phase.
const SLICES: u64 = 3;
/// Alternations of (singles, batches) per cluster life, so both metrics
/// sample the same stretches of host time.
const SUBPHASES: u64 = 4;
/// Measured ops in one cluster's life; log and WAL files stay bounded.
pub const LIFE_OPS: u64 = SUBPHASES * (SINGLES + SLICES * SLICE_OPS);
/// Timers advance one tick per this many ops.
const TICK_EVERY_OPS: u64 = 2_048;
const WARMUP_OPS: u64 = 50;

const GEN: usize = 0;
const SUBMIT: usize = 1;
const LEADER_HANDLE: usize = 2;
const FOLLOWER_HANDLE: usize = 3;
const OUTGOING: usize = 4;
const TAKE_RESULTS: usize = 5;
const TICK: usize = 6;
const WIRE_ENCODE: usize = 7;
const WIRE_DECODE: usize = 8;
const FRAME_ENCODE: usize = 9;
const FRAME_DECODE: usize = 10;
const CLASSES: usize = 11;
const CLASS_NAMES: [&str; CLASSES] = [
    "gen",
    "submit",
    "leader_handle",
    "follower_handle",
    "outgoing",
    "take_results",
    "tick",
    "wire_encode",
    "wire_decode",
    "frame_encode",
    "frame_decode",
];
const CLASS_METRICS: [&str; CLASSES] = [
    "engine.gen_ns",
    "engine.submit_ns",
    "engine.leader_handle_ns",
    "engine.follower_handle_ns",
    "engine.outgoing_ns",
    "engine.take_results_ns",
    "engine.tick_ns",
    "engine.wire_encode_ns",
    "engine.wire_decode_ns",
    "engine.frame_encode_ns",
    "engine.frame_decode_ns",
];

pub type Watch = Stopwatch<CLASSES>;

pub fn watch(on: bool) -> Watch {
    Watch::new(on, CLASS_NAMES, if on { 200_000 } else { 0 })
}

/// Exact counts over the throughput slices of a run.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
pub struct Counts {
    pub ops: u64,
    pub msgs: u64,
    pub wire_bytes: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Counts {
    /// Equal ratios to `ops`, compared exactly (cross-multiplied).
    pub fn same_per_op(&self, other: &Counts) -> bool {
        let same = |a: u64, b: u64| a as u128 * other.ops as u128 == b as u128 * self.ops as u128;
        same(self.msgs, other.msgs)
            && same(self.wire_bytes, other.wire_bytes)
            && same(self.allocs, other.allocs)
            && same(self.alloc_bytes, other.alloc_bytes)
    }
}

/// One throughput slice of a traced run: how long it took and where the
/// time went.
struct SliceProfile {
    secs: f64,
    class_ns: [u64; CLASSES],
}

/// Everything the measured phases of a run accumulate.
pub struct Tally {
    pub w1: LatencySlices,
    pub w1_all: Histogram,
    pub rate: RateSlices,
    pub setup_s: Vec<f64>,
    pub counts: Counts,
    profiles: Vec<SliceProfile>,
    pub attempted: u64,
    pub failed: u64,
    pub lives: u64,
    /// WAL figures, summed over the nodes of every life.
    pub wal_syncs: u64,
    pub wal_entries_synced: u64,
    pub wal_file_bytes: u64,
    pub wal_file_entries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub log_entries: u64,
    pub leader_changes: u64,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            w1: LatencySlices::new(50),
            w1_all: Histogram::new(),
            rate: RateSlices::new(SLICE_OPS),
            setup_s: Vec::new(),
            counts: Counts::default(),
            profiles: Vec::new(),
            attempted: 0,
            failed: 0,
            lives: 0,
            wal_syncs: 0,
            wal_entries_synced: 0,
            wal_file_bytes: 0,
            wal_file_entries: 0,
            cache_hits: 0,
            cache_misses: 0,
            log_entries: 0,
            leader_changes: 0,
        }
    }
}

/// One cluster: `n` replicas on fresh WAL files under `dir`.
pub struct Life {
    pub nodes: Vec<Node>,
    caches: Vec<BatchCache>,
    payload: Vec<u8>,
    dir: PathBuf,
    next_seq: u64,
    ops_since_tick: u64,
    /// Results of the leader not yet claimed by the driver.
    results: Vec<KvResult>,
    msgs: u64,
    wire_bytes: u64,
    /// Node index whose messages (in and out) are dropped: a cut link.
    pub muted: Option<usize>,
}

fn wal_path(dir: &Path, pid: u64, config_id: u32) -> PathBuf {
    dir.join(format!("node{pid}-cfg{config_id}.wal"))
}

impl Life {
    /// Build the replicas and elect pid 1 (it carries the ballot priority,
    /// and with every message delivered in order it always wins).
    pub fn boot(dir: &Path, n: u64, sw: &mut Watch) -> Result<Life, String> {
        let pids: Vec<u64> = (1..=n).collect();
        let mut nodes = Vec::new();
        for &pid in &pids {
            let mut cfg = ServerConfig::with(pid);
            cfg.priority = (pid == 1) as u64;
            let storage = Wal::open(wal_path(dir, pid, 1)).map_err(|e| format!("open wal: {e}"))?;
            let later = dir.to_path_buf();
            let server = OmniPaxosServer::with_storage_factory(
                cfg,
                pids.clone(),
                storage,
                move |config_id| {
                    Wal::open(wal_path(&later, pid, config_id)).expect("open a later config's wal")
                },
            );
            nodes.push(KvNode::from_server(server));
        }
        let mut life = Life {
            caches: pids.iter().map(|_| BatchCache::new()).collect(),
            nodes,
            payload: Vec::new(),
            dir: dir.to_path_buf(),
            next_seq: 0,
            ops_since_tick: 0,
            results: Vec::new(),
            msgs: 0,
            wire_bytes: 0,
            muted: None,
        };
        for _ in 0..200 {
            if life.nodes[0].is_leader() {
                return Ok(life);
            }
            life.tick_all(sw);
            life.deliver(sw);
        }
        Err("pid 1 was not elected within 200 ticks".into())
    }

    pub fn tick_all(&mut self, sw: &mut Watch) {
        for node in &mut self.nodes {
            let t = sw.begin();
            node.tick();
            sw.end(TICK, t);
        }
        self.ops_since_tick = 0;
    }

    /// One sweep: every node's queued messages go through the codecs and
    /// are handled by their destination. Returns how many were delivered.
    fn sweep(&mut self, sw: &mut Watch) -> usize {
        let mut delivered = 0;
        for i in 0..self.nodes.len() {
            let t = sw.begin();
            let out = self.nodes[i].outgoing();
            sw.end(OUTGOING, t);
            if out.is_empty() {
                continue;
            }
            // Cycle boundary for the sender's batch cache, as in
            // `TcpTransport::poll`.
            self.caches[i].reset();
            let from = i as u64 + 1;
            for (to, msg) in out {
                let dest = (to - 1) as usize;
                if self.muted == Some(i) || self.muted == Some(dest) {
                    continue;
                }
                let t = sw.begin();
                self.payload.clear();
                msg.encode(&mut self.payload, &mut self.caches[i]);
                sw.end(WIRE_ENCODE, t);

                let t = sw.begin();
                let framed = frame::encode_frame(kind::MSG, &self.payload);
                sw.end(FRAME_ENCODE, t);
                drop(msg);

                let t = sw.begin();
                let (f, used) = frame::decode_frame(&framed).expect("own frame decodes");
                sw.end(FRAME_DECODE, t);
                debug_assert_eq!(used, framed.len());

                let t = sw.begin();
                let msg = ServiceMsg::<KvCommand>::from_bytes(&f.payload).expect("own message");
                sw.end(WIRE_DECODE, t);

                self.msgs += 1;
                self.wire_bytes += framed.len() as u64;
                let t = sw.begin();
                self.nodes[dest].handle(from, msg);
                sw.end(
                    if dest == 0 {
                        LEADER_HANDLE
                    } else {
                        FOLLOWER_HANDLE
                    },
                    t,
                );
                delivered += 1;
            }
        }
        let t = sw.begin();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let res = node.take_results();
            if i == 0 {
                self.results.extend(res);
            }
        }
        sw.end(TAKE_RESULTS, t);
        delivered
    }

    /// Sweep until no node has anything left to say.
    pub fn deliver(&mut self, sw: &mut Watch) {
        while self.sweep(sw) > 0 {}
    }

    fn command(&mut self, op: KvOp) -> KvCommand {
        self.next_seq += 1;
        KvCommand {
            client: CLIENT,
            seq: self.next_seq,
            op,
        }
    }

    /// Propose `ops` at the leader as one append run and sweep until all of
    /// them have been answered (decided on a majority — each replica's WAL
    /// flushed before its acknowledgement left — and applied).
    pub fn round_trip(&mut self, ops: Vec<KvOp>, sw: &mut Watch) -> Result<Vec<KvResult>, String> {
        let n = ops.len();
        let first = self.next_seq + 1;
        let cmds: Vec<KvCommand> = ops.into_iter().map(|op| self.command(op)).collect();
        let t = sw.begin();
        let accepted = self.nodes[0].submit_batch(cmds);
        sw.end(SUBMIT, t);
        if accepted != Ok(n) {
            return Err(format!("leader refused a proposal: {accepted:?}"));
        }
        for _ in 0..64 {
            let delivered = self.sweep(sw);
            if self.results.len() >= n {
                break;
            }
            if delivered == 0 {
                // Nothing in flight and no answer: a lone replica decides
                // on its own but applies only when something calls into
                // it — as deployed, the next tick.
                self.tick_all(sw);
            }
        }
        if self.results.len() != n {
            return Err(format!("{} of {n} ops answered", self.results.len()));
        }
        let out = std::mem::take(&mut self.results);
        for (i, r) in out.iter().enumerate() {
            if r.client != CLIENT || r.seq != first + i as u64 {
                return Err(format!(
                    "answer {i} is for seq {}, not {}",
                    r.seq,
                    first + i as u64
                ));
            }
        }
        self.ops_since_tick += n as u64;
        if self.ops_since_tick >= TICK_EVERY_OPS {
            self.tick_all(sw);
        }
        Ok(out)
    }

    fn wal(&mut self, node: usize) -> Option<&mut Wal> {
        Some(self.nodes[node].server().omni()?.sequence_paxos().storage())
    }
}

/// Set-up of one life: cluster elected, every key populated, 50 warm-up
/// puts committed. Returns the life and the seconds it took.
fn set_up(dir: &Path, n: u64, gen: &mut Generator, sw: &mut Watch) -> Result<(Life, f64), String> {
    let start = Instant::now();
    let mut life = Life::boot(dir, n, sw)?;
    let initial = gen::initial_values(false);
    for (c, chunk) in initial.chunks(BATCH as usize).enumerate() {
        let base = c * BATCH as usize;
        let ops = chunk
            .iter()
            .enumerate()
            .map(|(i, &value)| KvOp::Put {
                key: gen::key(base + i),
                value,
            })
            .collect();
        life.round_trip(ops, sw)?;
    }
    for _ in 0..WARMUP_OPS {
        let (op, _) = put_of(gen);
        life.round_trip(vec![op], sw)?;
    }
    Ok((life, start.elapsed().as_secs_f64()))
}

/// The next generated put and the value it must report.
fn put_of(gen: &mut Generator) -> (KvOp, i64) {
    let op = gen.next_op();
    match op.request {
        Request::Write(w) => (w, op.expect_value.expect("puts report their value")),
        _ => unreachable!("the engine pattern is puts only"),
    }
}

/// The measured phases of one life.
fn measure(
    life: &mut Life,
    gen: &mut Generator,
    tally: &mut Tally,
    sw: &mut Watch,
) -> Result<(), String> {
    for _ in 0..SUBPHASES {
        tally.w1.restart();
        for _ in 0..SINGLES {
            let t0 = Instant::now();
            let root = open_op_span(sw, life.next_seq + 1, t0);
            let t = sw.begin();
            let (op, value) = put_of(gen);
            sw.end(GEN, t);
            let res = life.round_trip(vec![op], sw)?;
            let ns = t0.elapsed().as_nanos() as u64;
            close_op_span(sw, root);
            tally.attempted += 1;
            if !res[0].applied || res[0].value != Some(value) {
                tally.failed += 1;
            }
            tally.w1.add(ns as f64 / 1e3);
            tally.w1_all.record(ns);
        }

        tally.rate.restart();
        for _ in 0..SLICES {
            let slice_start = Instant::now();
            let class_before = sw.total_ns;
            let (msgs0, bytes0) = (life.msgs, life.wire_bytes);
            let (allocs0, alloc_bytes0) = host::thread_allocs();
            for _ in 0..SLICE_OPS / BATCH {
                let t0 = Instant::now();
                let root = open_op_span(sw, life.next_seq + 1, t0);
                let t = sw.begin();
                let mut ops = Vec::with_capacity(BATCH as usize);
                let mut values = [0i64; BATCH as usize];
                for v in values.iter_mut() {
                    let (op, value) = put_of(gen);
                    ops.push(op);
                    *v = value;
                }
                sw.end(GEN, t);
                let res = life.round_trip(ops, sw)?;
                close_op_span(sw, root);
                tally.attempted += BATCH;
                for (r, v) in res.iter().zip(values) {
                    if !r.applied || r.value != Some(v) {
                        tally.failed += 1;
                    }
                }
            }
            // Read the counters before this harness's own bookkeeping
            // (a growing `Vec`) can add to them.
            let (allocs1, alloc_bytes1) = host::thread_allocs();
            let now = Instant::now();
            tally.rate.add(SLICE_OPS, now);
            tally.counts.ops += SLICE_OPS;
            tally.counts.msgs += life.msgs - msgs0;
            tally.counts.wire_bytes += life.wire_bytes - bytes0;
            tally.counts.allocs += allocs1 - allocs0;
            tally.counts.alloc_bytes += alloc_bytes1 - alloc_bytes0;
            if sw.on {
                let mut class_ns = [0; CLASSES];
                for (d, (a, b)) in class_ns
                    .iter_mut()
                    .zip(sw.total_ns.iter().zip(class_before))
                {
                    *d = a - b;
                }
                tally.profiles.push(SliceProfile {
                    secs: now.duration_since(slice_start).as_secs_f64(),
                    class_ns,
                });
            }
        }
    }
    Ok(())
}

fn open_op_span(sw: &mut Watch, seq: u64, t0: Instant) -> u32 {
    if !sw.on {
        return NONE;
    }
    let start_ns = sw.tracer.ns_of(t0);
    let root = sw.tracer.push(Span {
        name: "op",
        start_ns,
        end_ns: start_ns,
        parent: NONE,
        shard: 0,
        seq,
    });
    sw.parent = root;
    sw.op = (0, seq);
    root
}

fn close_op_span(sw: &mut Watch, root: u32) {
    if sw.on {
        let now = sw.tracer.now_ns();
        sw.tracer.close(root, now);
        sw.parent = NONE;
        sw.op = (NONE, 0);
    }
}

/// The checks that end every life. `durability` also cuts the WAL copies
/// back to their last `COMMIT` marker and replays them (two replays of a
/// ~10 MB file: done on the first and last life of a run, not on each).
fn end_of_life_checks(
    life: &mut Life,
    gen: &Generator,
    tally: &mut Tally,
    out: &mut Outcome,
    durability: bool,
    sw: &mut Watch,
) -> Result<(), String> {
    // Every key reads back through the log as the model's last value.
    let acked = life.next_seq;
    for base in (0..gen::KEYS).step_by(BATCH as usize) {
        let reads = (base..base + BATCH as usize)
            .map(|i| KvOp::Read { key: gen::key(i) })
            .collect();
        let res = life.round_trip(reads, sw)?;
        for (i, r) in res.iter().enumerate() {
            let want = Some(gen.model[base + i]);
            out.check(r.applied && r.value == want, || {
                format!(
                    "engine: {} read back {:?}, model says {want:?}",
                    gen::key(base + i),
                    r.value
                )
            });
        }
    }
    // Let the last Decide reach the followers, then compare state machines
    // (session tables included).
    life.tick_all(sw);
    life.deliver(sw);
    let (head, rest) = life.nodes.split_first().expect("at least one node");
    for node in rest {
        out.check(node.state_machine() == head.state_machine(), || {
            format!("engine: replica {} diverged from the leader", node.pid())
        });
    }
    let decided = head.server_ref().decided_len();
    out.check(decided == life.next_seq, || {
        format!("engine: {decided} log entries for {} ops", life.next_seq)
    });
    tally.log_entries += decided;
    tally.leader_changes += head.server_ref().ballot_audit().len().saturating_sub(1) as u64;

    for i in 0..life.nodes.len() {
        let (hits, misses) = life.caches[i].stats();
        tally.cache_hits += hits;
        tally.cache_misses += misses;
        let path = wal_path(&life.dir, i as u64 + 1, 1);
        let (syncs, synced) = life.wal(i).map_or((0, 0), |w| w.group_commit_stats());
        tally.wal_syncs += syncs;
        tally.wal_entries_synced += synced;
        tally.wal_file_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        tally.wal_file_entries += decided;
    }
    if durability {
        check_durability(life, acked, out);
    }
    Ok(())
}

/// FNV-1a over tag, length and payload — the WAL's record checksum
/// (`core/src/wal.rs`, "Record framing").
fn wal_checksum(tag: u8, payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let len = (payload.len() as u32).to_le_bytes();
    for &b in std::iter::once(&tag).chain(&len).chain(payload) {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Offset just past the last valid `COMMIT` marker in a WAL file image:
/// everything before the marker was covered by a completed fsync, and the
/// marker asserts so. `[tag 10][len 8][own offset u64][crc]`.
pub fn last_commit_end(bytes: &[u8]) -> usize {
    const MARKER: usize = 17;
    let mut at = bytes.len().saturating_sub(MARKER);
    loop {
        if bytes.len() >= at + MARKER
            && bytes[at] == 10
            && bytes[at + 1..at + 5] == 8u32.to_le_bytes()
            && bytes[at + 5..at + 13] == (at as u64).to_le_bytes()
            && bytes[at + 13..at + 17] == wal_checksum(10, &bytes[at + 5..at + 13]).to_le_bytes()
        {
            return at + MARKER;
        }
        if at == 0 {
            return 0;
        }
        at -= 1;
    }
}

/// Discard everything each replica wrote after its last sync (killing a
/// process would keep what the OS still holds; this does not) and replay:
/// every acknowledged op must still be in the log on a majority.
fn check_durability(life: &Life, acked: u64, out: &mut Outcome) {
    let n = life.nodes.len();
    let mut holding = 0;
    for pid in 1..=n as u64 {
        let Ok(bytes) = std::fs::read(wal_path(&life.dir, pid, 1)) else {
            continue;
        };
        let cut = last_commit_end(&bytes);
        let copy = life.dir.join(format!("node{pid}-cut.wal"));
        if std::fs::write(&copy, &bytes[..cut]).is_err() {
            continue;
        }
        if let Ok(wal) = Wal::open(&copy) {
            let entries = wal.entries_ref(0, acked);
            let intact = entries.len() as u64 == acked
                && entries.iter().enumerate().all(|(i, e)| {
                    matches!(e, omnipaxos::LogEntry::Normal(c) if c.client == CLIENT && c.seq == i as u64 + 1)
                });
            holding += intact as usize;
        }
        let _ = std::fs::remove_file(&copy);
        if holding > n / 2 {
            break;
        }
    }
    out.check(holding > n / 2, || {
        format!("engine: only {holding} of {n} WAL copies hold all {acked} acknowledged ops after the cut")
    });
}

/// When a run of lives ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// Untraced: as many whole lives as fit in this many seconds.
    Budget(f64),
    /// Traced: a fixed amount of work, so the counts repeat exactly.
    Lives(u64),
}

pub fn run_lives(
    seed: u64,
    replicas: u64,
    until: Until,
    wal_root: &Path,
    sw: &mut Watch,
    out: &mut Outcome,
) -> Tally {
    let start = Instant::now();
    let mut tally = Tally::new();
    let mut life_secs = 0.0f64;
    // Would `lives` more lives of the last one's length overrun the budget?
    let overruns = |lives: f64, done: u64, life_secs: f64| match until {
        Until::Lives(n) => done + lives as u64 > n,
        Until::Budget(secs) => done > 0 && start.elapsed().as_secs_f64() + lives * life_secs > secs,
    };
    loop {
        if overruns(1.0, tally.lives, life_secs) {
            break;
        }
        let life_start = Instant::now();
        // Every life draws from its own stream: the run's keys depend on
        // the seed, its kinds and byte counts on nothing.
        let mut gen = Generator::new(
            seed.wrapping_mul(1_000_003).wrapping_add(tally.lives),
            gen::PUTS,
            1,
        );
        let dir = match TempDir::create(wal_root, &format!("wal-{}", tally.lives)) {
            Ok(d) => d,
            Err(e) => {
                out.check(false, || {
                    format!("engine: cannot create a WAL directory: {e}")
                });
                break;
            }
        };
        let first = tally.lives == 0;
        let result = set_up(&dir.0, replicas, &mut gen, sw).and_then(|(mut life, secs)| {
            tally.setup_s.push(secs);
            measure(&mut life, &mut gen, &mut tally, sw)?;
            let last = overruns(2.0, tally.lives, life_secs);
            end_of_life_checks(&mut life, &gen, &mut tally, out, first || last, sw)
        });
        if let Err(e) = result {
            out.check(false, || {
                format!("engine: life {} aborted: {e}", tally.lives)
            });
            break;
        }
        tally.lives += 1;
        life_secs = life_start.elapsed().as_secs_f64();
    }
    tally
}

pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let (wal_root, tmpfs) = host::wal_root();
    host::sweep_stale(&wal_root);
    out.notes.push((
        "wal_dir",
        format!(
            "{} ({})",
            wal_root.display(),
            if tmpfs { "tmpfs" } else { "disk" }
        ),
    ));
    if !traced {
        let mut sw = watch(false);
        let tally = run_lives(seed, 3, Until::Budget(seconds), &wal_root, &mut sw, out);
        report_end_to_end(&tally, out);
        return;
    }

    // Traced: a third of the time under the stopwatch on a fixed number of
    // lives, then the 1-replica baseline, then the isolated layer timings.
    let probe = host::host_probe_mops(Duration::from_secs_f64(0.05 * seconds.min(4.0)));
    let cpu0 = host::process_cpu_seconds();
    let lives = ((seconds / 3.0) as u64).clamp(1, 10);
    let mut sw = watch(true);
    let tally = run_lives(seed, 3, Until::Lives(lives), &wal_root, &mut sw, out);
    let cpu = host::process_cpu_seconds() - cpu0;
    report_end_to_end(&tally, out);
    report_traced(&tally, out);
    out.set("load.host_probe_mops", probe);
    out.set(
        "load.cpu_ms_per_kop",
        cpu * 1e3 / (tally.attempted.max(1) as f64 / 1e3),
    );

    // Same lives with the stopwatch off: what the stopwatch itself costs.
    let mut off = watch(false);
    let plain = run_lives(
        seed,
        3,
        Until::Lives(lives.min(3)),
        &wal_root,
        &mut off,
        out,
    );
    if !plain.rate.rates.is_empty() && !tally.rate.rates.is_empty() {
        let (a, b) = (
            estimator::quiet_rate(&plain.rate.rates),
            estimator::quiet_rate(&tally.rate.rates),
        );
        out.set("trace.overhead_frac", (a - b) / a);
        // The counts must not depend on the seed or on the stopwatch.
        let other = run_lives(seed ^ 0x5EED, 3, Until::Lives(1), &wal_root, &mut off, out);
        for (what, t) in [("another seed", &other), ("the stopwatch", &tally)] {
            out.check(t.counts.same_per_op(&plain.counts), || {
                format!(
                    "engine: counts per op change with {what}: {:?} vs {:?}",
                    t.counts, plain.counts
                )
            });
        }
    }

    let solo = run_lives(seed, 1, Until::Lives(1), &wal_root, &mut off, out);
    if !solo.rate.rates.is_empty() {
        out.set(
            "engine.solo_ns",
            1e9 / estimator::quiet_rate(&solo.rate.rates),
        );
        out.set(
            "load.solo_w1_p50_us",
            estimator::quiet_latency(&solo.w1.medians),
        );
    }
    out.attempted = tally.attempted + plain.attempted + solo.attempted;
    out.failed = tally.failed + plain.failed + solo.failed;

    crate::isolated::run(seed, &wal_root, out);
    out.set("load.peak_rss_mb", host::peak_rss_mb());
    out.set(
        "load.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("load.checks_failed", out.check_failures.len() as f64);

    let path = host::out_dir().join("trace-engine_put_wal.json");
    if let Err(e) = sw.tracer.write_json(&path, "engine_put_wal") {
        out.notes.push(("trace_file_error", e.to_string()));
    } else {
        out.notes.push(("trace_file", path.display().to_string()));
    }
}

fn report_end_to_end(tally: &Tally, out: &mut Outcome) {
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.check(tally.failed == 0, || {
        format!("engine: {} ops answered wrongly", tally.failed)
    });
    if tally.setup_s.is_empty() || tally.w1.medians.is_empty() || tally.rate.rates.is_empty() {
        out.check(false, || "engine: no complete life was measured".into());
        return;
    }
    // ~45 set-ups of 3 ms each: short enough that a burst of host noise
    // inflates whichever it lands on, and numerous enough for the same
    // remedy as the latencies — the 10th percentile (2.9–3.0 ms run after
    // run where the median ranges 3.1–4.3 ms).
    out.set("setup_s", estimator::quiet_latency(&tally.setup_s));
    out.set("w1_p50_us", estimator::quiet_latency(&tally.w1.medians));
    out.set("ops_per_s", estimator::quiet_rate(&tally.rate.rates));
    out.notes.push((
        "slices",
        format!(
            "{} lives, {}",
            tally.lives,
            estimator::slices_note(tally.w1.medians.len(), tally.rate.rates.len())
        ),
    ));
    out.notes.push((
        "plain",
        format!(
            "w1 p50 {:.2} us, {:.0} ops/s, set-up median {:.4} s",
            tally.w1_all.quantile_or_zero(0.5) / 1e3,
            tally.rate.plain_rate(),
            estimator::median(&tally.setup_s)
        ),
    ));
}

fn report_traced(tally: &Tally, out: &mut Outcome) {
    out.set("load.w1_p99_us", tally.w1_all.quantile_or_zero(0.99) / 1e3);
    out.set(
        "load.plain_w1_p50_us",
        tally.w1_all.quantile_or_zero(0.5) / 1e3,
    );
    out.set("load.plain_ops_per_s", tally.rate.plain_rate());
    out.set(
        "load.slice_spread_frac",
        estimator::iqr_over_median(&tally.rate.rates),
    );
    // One batch of 64 is one round trip: its latency is the window's.
    let ops = tally.counts.ops.max(1) as f64;
    out.set("engine.msgs_per_op", tally.counts.msgs as f64 / ops);
    out.set(
        "engine.wire_bytes_per_op",
        tally.counts.wire_bytes as f64 / ops,
    );
    out.set("engine.allocs_per_op", tally.counts.allocs as f64 / ops);
    out.set(
        "engine.alloc_bytes_per_op",
        tally.counts.alloc_bytes as f64 / ops,
    );

    // Self time per op by class, over the quiet fifth of the throughput
    // slices — the same slices the 90th-percentile rate is read from, so
    // the classes and the unattributed rest add up to 1e9 / ops_per_s.
    let mut order: Vec<usize> = (0..tally.profiles.len()).collect();
    order.sort_by(|&a, &b| tally.profiles[a].secs.total_cmp(&tally.profiles[b].secs));
    let quiet = &order[..(order.len() / 5).max(1).min(order.len())];
    if !quiet.is_empty() {
        let slice_ops = SLICE_OPS as f64;
        let total_ns: f64 = quiet.iter().map(|&i| tally.profiles[i].secs * 1e9).sum();
        let mut attributed = 0.0;
        for (c, name) in CLASS_METRICS.iter().enumerate() {
            let ns: f64 = quiet
                .iter()
                .map(|&i| tally.profiles[i].class_ns[c] as f64)
                .sum();
            attributed += ns;
            out.set(name, ns / (quiet.len() as f64 * slice_ops));
        }
        let unattributed = ((total_ns - attributed) / total_ns).max(0.0);
        out.set("engine.unattributed_frac", unattributed);
        out.set("trace.unattributed_frac", unattributed);
        out.set(
            "load.win_lat_p50_us",
            total_ns / (quiet.len() as f64 * (SLICE_OPS / BATCH) as f64) / 1e3,
        );
    }

    let entries = tally.log_entries.max(1) as f64;
    out.set(
        "omnipaxos.sequence_paxos.log_entries_per_op",
        entries / (tally.lives * (LIFE_OPS + gen::KEYS as u64 * 2 + WARMUP_OPS)).max(1) as f64,
    );
    out.set("omnipaxos.ble.leader_changes", tally.leader_changes as f64);
    out.set(
        "omnipaxos.wire.batch_cache_hit_frac",
        tally.cache_hits as f64 / (tally.cache_hits + tally.cache_misses).max(1) as f64,
    );
    out.set(
        "omnipaxos.wal.entries_per_sync",
        tally.wal_entries_synced as f64 / tally.wal_syncs.max(1) as f64,
    );
    out.set(
        "omnipaxos.wal.syncs_per_op",
        tally.wal_syncs as f64 / 3.0 / entries,
    );
    out.set(
        "omnipaxos.wal.bytes_per_entry",
        tally.wal_file_bytes as f64 / tally.wal_file_entries.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_marker_scan_finds_the_last_synced_offset() {
        let mut bytes = vec![1u8, 2, 3, 4, 5];
        let marker = |at: usize| {
            let mut m = vec![10u8];
            m.extend_from_slice(&8u32.to_le_bytes());
            m.extend_from_slice(&(at as u64).to_le_bytes());
            m.extend_from_slice(&wal_checksum(10, &(at as u64).to_le_bytes()).to_le_bytes());
            m
        };
        assert_eq!(last_commit_end(&bytes), 0);
        bytes.extend(marker(5));
        bytes.extend([9u8; 40]);
        assert_eq!(last_commit_end(&bytes), 22);
        let at = bytes.len();
        bytes.extend(marker(at));
        bytes.extend([7u8; 3]);
        assert_eq!(last_commit_end(&bytes), at + 17);
        // A marker that lies about its offset is not a marker.
        let mut torn = vec![0u8; 4];
        torn.extend(marker(5));
        assert_eq!(last_commit_end(&torn), 0);
    }

    /// A short run end to end: the checks hold, the counts are exact and
    /// the same for two seeds, and the WAL directory is gone afterwards.
    #[test]
    fn two_seeds_repeat_the_counts_exactly_and_leave_nothing_behind() {
        let root = host::wal_root()
            .0
            .join(format!("omni-bench-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let mut sw = watch(false);
        let mut out = Outcome::default();
        let a = run_lives(1, 3, Until::Lives(1), &root, &mut sw, &mut out);
        let b = run_lives(2, 3, Until::Lives(1), &root, &mut sw, &mut out);
        assert!(out.correct(), "{:?}", out.check_failures);
        assert_eq!(a.counts, b.counts);
        assert!(a.counts.same_per_op(&b.counts));
        assert_eq!(a.counts.ops, SUBPHASES * SLICES * SLICE_OPS);
        assert_eq!((a.failed, a.attempted), (0, LIFE_OPS));
        assert_eq!(a.w1.medians.len() as u64, SUBPHASES * SINGLES / 50);
        assert_eq!(
            std::fs::read_dir(&root).unwrap().count(),
            0,
            "WAL directories removed"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
