//! Isolated layer timings: one public function (or the smallest assembly
//! of them that does something) per figure, timed from outside.
//!
//! Each figure is the 10th percentile over ~20 equal chunks of work — the
//! quiet-slice rule again — so a burst of host noise in one chunk does not
//! move it.

use crate::engine::{self, Life, Wal};
use crate::estimator::quiet_latency;
use crate::gen;
use crate::hist::Histogram;
use crate::host::{self, TempDir};
use crate::metrics::Outcome;
use kvstore::{KvCommand, KvOp, KvStateMachine, KvWire};
use omnipaxos::ballot::Ballot;
use omnipaxos::ble::{BallotLeaderElection, BleConfig};
use omnipaxos::sequence_paxos::{SequencePaxos, SequencePaxosConfig};
use omnipaxos::wire::Wire;
use omnipaxos::{LogEntry, MemoryStorage, Phase, Role, Storage};
use simulator::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const CHUNKS: usize = 20;

/// ns per item: `chunk` does `items` items of work; the 10th percentile of
/// [`CHUNKS`] timed chunks.
fn quiet_ns_per_item(items: u64, mut chunk: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let t = Instant::now();
        chunk();
        ns.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    quiet_latency(&ns)
}

fn put_cmd(rng: &mut Rng, seq: u64) -> KvCommand {
    KvCommand {
        client: 7,
        seq,
        op: KvOp::Put {
            key: gen::key(rng.below_usize(gen::KEYS)),
            value: seq as i64,
        },
    }
}

/// Three `SequencePaxos<u64>` over memory storage, messages passed by
/// function call with no codec: the replication protocol on its own.
fn decide_ns_per_entry() -> Option<f64> {
    let nodes = [1u64, 2, 3];
    let mut sp: Vec<SequencePaxos<u64, MemoryStorage<u64>>> = nodes
        .iter()
        .map(|&pid| {
            SequencePaxos::new(
                SequencePaxosConfig::with(1, pid, &nodes),
                MemoryStorage::new(),
            )
        })
        .collect();
    let pump = |sp: &mut Vec<SequencePaxos<u64, MemoryStorage<u64>>>| loop {
        let mut any = false;
        for i in 0..sp.len() {
            for m in sp[i].outgoing_messages() {
                any = true;
                let to = (m.to - 1) as usize;
                sp[to].handle_message(m);
            }
        }
        if !any {
            break;
        }
    };
    let elected = Ballot::new(1, 0, 1);
    for s in sp.iter_mut() {
        s.handle_leader(elected);
    }
    pump(&mut sp);
    if sp[0].state() != (Role::Leader, Phase::Accept) {
        return None;
    }
    let mut next = 0u64;
    Some(quiet_ns_per_item(100 * 64, || {
        for _ in 0..100 {
            for _ in 0..64 {
                next += 1;
                let _ = sp[0].append(next);
            }
            pump(&mut sp);
        }
        black_box(sp[0].decided_idx());
    }))
}

/// ns per node per heartbeat round: three BLE instances, one tick per
/// round, requests and replies passed by function call.
fn ble_round_ns() -> f64 {
    let nodes = [1u64, 2, 3];
    let mut ble: Vec<BallotLeaderElection> = nodes
        .iter()
        .map(|&pid| BallotLeaderElection::new(BleConfig::with(pid, &nodes, 1)))
        .collect();
    let rounds = 2_000u64;
    quiet_ns_per_item(rounds * 3, || {
        for _ in 0..rounds {
            for b in ble.iter_mut() {
                black_box(b.tick());
            }
            // Requests out, then the replies they provoke.
            for _ in 0..2 {
                for i in 0..3 {
                    for m in ble[i].outgoing_messages() {
                        let to = (m.to - 1) as usize;
                        ble[to].handle_message(m);
                    }
                }
            }
        }
    })
}

fn wal_timings(seed: u64, wal_root: &Path, out: &mut Outcome) -> std::io::Result<()> {
    let mut rng = Rng::seed_from_u64(seed);
    let dir = TempDir::create(wal_root, "isolated")?;
    let open = |p: &Path| Wal::open(p).map_err(|e| std::io::Error::other(e.to_string()));

    // Append + group commit, batches of 64, on the engine's file system.
    let path = dir.0.join("append.wal");
    let mut wal = open(&path)?;
    let mut seq = 0u64;
    let mut failed = false;
    let ns = quiet_ns_per_item(50 * 64, || {
        let batches: Vec<Vec<LogEntry<KvCommand>>> = (0..50)
            .map(|_| {
                (0..64)
                    .map(|_| {
                        seq += 1;
                        LogEntry::Normal(put_cmd(&mut rng, seq))
                    })
                    .collect()
            })
            .collect();
        // The chunk's own timer covers building the batches too; they are
        // the same work every chunk and small beside the appends.
        for b in batches {
            failed |= wal.append_entries(b).is_err() || wal.flush().is_err();
        }
    });
    out.check(!failed, || "isolated: WAL append failed".into());
    out.set("omnipaxos.wal.append_ns_per_entry", ns);
    drop(wal);

    // Replay: reopen a 100 000-entry log.
    let path = dir.0.join("replay.wal");
    let mut wal = open(&path)?;
    for _ in 0..100_000 / 64 + 1 {
        let batch = (0..64)
            .map(|_| {
                seq += 1;
                LogEntry::Normal(put_cmd(&mut rng, seq))
            })
            .collect();
        failed |= wal.append_entries(batch).is_err() || wal.flush().is_err();
    }
    let entries = wal.get_log_len();
    drop(wal);
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let wal = open(&path)?;
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out.check(wal.get_log_len() == entries, || {
            "isolated: replay lost entries".into()
        });
    }
    out.set(
        "omnipaxos.wal.replay_ms_per_100k",
        best * 100_000.0 / entries as f64,
    );

    // fsync on the real disk (the engine's files sit on a tmpfs).
    let disk = TempDir::create(&host::out_dir(), "sync")?;
    let mut wal = open(&disk.0.join("sync.wal"))?;
    let mut h = Histogram::new();
    for _ in 0..200 {
        seq += 1;
        failed |= wal
            .append_entry(LogEntry::Normal(put_cmd(&mut rng, seq)))
            .is_err();
        let t = Instant::now();
        failed |= wal.flush().is_err();
        h.record(t.elapsed().as_nanos() as u64);
    }
    out.check(!failed, || "isolated: WAL write failed".into());
    out.set("omnipaxos.wal.sync_us_p50", h.quantile_or_zero(0.5) / 1e3);
    Ok(())
}

/// A follower that missed 50 000 entries reconnects and catches up through
/// the codecs: wall time from `reconnected` to equal decided lengths.
fn catchup_ms(wal_root: &Path, out: &mut Outcome) -> Result<f64, String> {
    let dir = TempDir::create(wal_root, "catchup").map_err(|e| e.to_string())?;
    let mut sw = engine::watch(false);
    let mut life = Life::boot(&dir.0, 3, &mut sw)?;
    life.muted = Some(2);
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..50_000 / 64 {
        let ops = (0..64)
            .map(|i| KvOp::Put {
                key: gen::key(rng.below_usize(gen::KEYS)),
                value: i,
            })
            .collect();
        life.round_trip(ops, &mut sw)?;
    }
    life.muted = None;
    let target = life.nodes[0].server_ref().decided_len();
    let t = Instant::now();
    life.nodes[2].server().reconnected(1);
    for _ in 0..1_000 {
        life.deliver(&mut sw);
        if life.nodes[2].server_ref().decided_len() >= target {
            break;
        }
        life.tick_all(&mut sw);
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(life.nodes[2].server_ref().decided_len() >= target, || {
        "isolated: the lagging follower never caught up".into()
    });
    out.check(
        life.nodes[2].state_machine().state() == life.nodes[0].state_machine().state(),
        || "isolated: the caught-up follower's state differs".into(),
    );
    Ok(ms)
}

/// ns per `KvStateMachine::apply`. `apply` consumes its command, so each
/// chunk builds its commands first and times only the loop applying them.
fn timed_apply(
    sm: &mut KvStateMachine,
    rng: &mut Rng,
    seq: &mut u64,
    mut build: impl FnMut(u64, &mut Rng) -> KvCommand,
) -> f64 {
    let n = 10_000u64;
    let mut ns = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let batch: Vec<KvCommand> = (0..n)
            .map(|_| {
                *seq += 1;
                build(*seq, rng)
            })
            .collect();
        let t = Instant::now();
        for c in batch {
            black_box(sm.apply(c));
        }
        ns.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    quiet_latency(&ns)
}

fn store_and_wire_timings(seed: u64, out: &mut Outcome) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sm = KvStateMachine::default();
    let mut seq = 0u64;
    for i in 0..gen::KEYS {
        seq += 1;
        sm.apply(KvCommand {
            client: 7,
            seq,
            op: KvOp::Put {
                key: gen::key(i),
                value: 0,
            },
        });
    }
    let n = 10_000u64;
    out.set(
        "kvstore.store.apply_put_ns",
        timed_apply(&mut sm, &mut rng, &mut seq, |seq, rng| put_cmd(rng, seq)),
    );
    out.set(
        "kvstore.store.apply_cas_ns",
        timed_apply(&mut sm, &mut rng, &mut seq, |seq, rng| KvCommand {
            client: 7,
            seq,
            op: KvOp::Cas {
                key: gen::key(rng.below_usize(gen::KEYS)),
                // Whatever the key holds, this does not match: the refused
                // path, which still caches its verdict.
                expect: Some(-1),
                set: Some(seq as i64),
            },
        }),
    );
    // A retransmission of the latest (client, seq): the session table
    // replays the cached verdict.
    let latest = seq;
    out.set(
        "kvstore.store.apply_dup_ns",
        timed_apply(&mut sm, &mut rng, &mut seq, |_, rng| KvCommand {
            client: 7,
            seq: latest,
            op: KvOp::Put {
                key: gen::key(rng.below_usize(gen::KEYS)),
                value: 1,
            },
        }),
    );

    let msgs: Vec<KvWire> = (0..n)
        .map(|i| KvWire::Request(put_cmd(&mut rng, i)))
        .collect();
    out.set(
        "kvstore.wire.encode_ns",
        quiet_ns_per_item(n, || {
            for m in &msgs {
                black_box(m.to_bytes());
            }
        }),
    );
    let bytes: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_bytes()).collect();
    out.set(
        "kvstore.wire.decode_ns",
        quiet_ns_per_item(n, || {
            for b in &bytes {
                black_box(KvWire::from_bytes(b).ok());
            }
        }),
    );
    let ops: Vec<KvOp> = msgs
        .into_iter()
        .filter_map(|m| match m {
            KvWire::Request(c) => Some(c.op),
            _ => None,
        })
        .collect();
    out.set(
        "kvstore.shard.route_ns",
        quiet_ns_per_item(n, || {
            for op in &ops {
                black_box(kvstore::shard_of_op(black_box(op), 2));
            }
        }),
    );
}

pub fn run(seed: u64, wal_root: &Path, out: &mut Outcome) {
    match decide_ns_per_entry() {
        Some(ns) => out.set("omnipaxos.sequence_paxos.decide_ns_per_entry", ns),
        None => out.check(false, || {
            "isolated: bare SequencePaxos never reached Accept".into()
        }),
    }
    out.set("omnipaxos.ble.round_ns", ble_round_ns());
    if let Err(e) = wal_timings(seed, wal_root, out) {
        out.check(false, || format!("isolated: WAL timings: {e}"));
    }
    match catchup_ms(wal_root, out) {
        Ok(ms) => out.set("omnipaxos.service.catchup_ms", ms),
        Err(e) => out.check(false, || format!("isolated: catch-up: {e}")),
    }
    store_and_wire_timings(seed, out);
}
