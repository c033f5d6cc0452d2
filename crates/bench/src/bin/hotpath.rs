//! `hotpath` — offline benchmark of the replication hot path.
//!
//! Two scenarios, both driven directly (no simulated network), so the
//! measured wall-clock is dominated by the engine's own copying and
//! allocation behaviour rather than by scheduling:
//!
//! * **replication** — a 5-server cluster decides a stream of entries.
//!   The leader fans each drained batch out to four followers; this is
//!   the `AcceptDecide` path whose per-follower deep copies the
//!   zero-copy refactor removes.
//! * **migration** — a reconfiguration that replaces a majority of a
//!   5-server cluster (Fig. 9 shape): three joiners each pull the full
//!   multi-million-entry log from the five donors in parallel stripes.
//! * **catchup** (`-- --catchup`) — a follower partitioned long enough to
//!   miss a large decided log heals and re-syncs, once via full log
//!   replay and once snapshot-first after the leader compacted: the
//!   state-machine snapshot ([`CounterSm`]) plus the tail replaces
//!   replaying the whole log. Writes `BENCH_PR2.json`.
//! * **net-loopback** (`-- --net-loopback`) — a real 3-replica kv
//!   cluster over the `crates/net` TCP transport on 127.0.0.1, measured
//!   open loop: a pipelined client sweeps its in-flight window from 1 to
//!   10,000 (throughput + p50/p99 per point), against a closed-loop
//!   comparison point, with every completion audited exactly-once and
//!   final values checked by linearizable reads. Also measures WAL group
//!   commit directly (entries per fsync). Writes `BENCH_PR6.json`.
//! * **read modes** (`-- --reads`) — the same loopback cluster with
//!   leader leases enabled, driven with a 95/5 read/write open-loop mix
//!   once per read mode (log / lease / read-index): lease reads skip
//!   the log entirely, and the decided-log length after each run proves
//!   it. Writes `BENCH_PR8.json`.
//! * **txn mix** (`-- --txn-mix`) — a 4-shard loopback cluster under an
//!   80/15/5 put/cas/cross-shard-transfer mix with per-class latency
//!   percentiles; CAS verdicts, committed-transfer balances, and total
//!   conservation are all predicted client-side and audited. Writes
//!   `BENCH_PR9.json`.
//!
//! Run with `cargo run --release --bin hotpath` (add `-- --quick` for a
//! fast smoke run). Results are printed and written to `BENCH_PR1.json`;
//! pass `-- --baseline <repl_eps>,<mig_eps>` to embed previously
//! recorded pre-change numbers so the file carries both sides of the
//! comparison.

use std::time::Instant;

use omnipaxos::snapshot::Snapshottable;
use omnipaxos::{
    CounterSm, LogEntry, MemoryStorage, NodeId, OmniPaxos, OmniPaxosConfig, OmniPaxosServer,
    ServerConfig, ServerRole,
};

type Replica = OmniPaxos<u64, MemoryStorage<u64>>;

/// Deliver queued messages directly until the wire is quiet.
fn pump(replicas: &mut [Replica], rounds: usize) {
    for _ in 0..rounds {
        for i in 0..replicas.len() {
            for m in replicas[i].outgoing_messages() {
                let to = m.to() as usize - 1;
                replicas[to].handle_message(m);
            }
        }
    }
}

/// Scenario (a): 5-server replication throughput, decided entries/sec.
fn bench_replication(total: u64, batch: u64) -> (f64, f64) {
    let nodes: Vec<NodeId> = (1..=5).collect();
    let mut replicas: Vec<Replica> = nodes
        .iter()
        .map(|&pid| {
            OmniPaxos::new(
                OmniPaxosConfig::with(1, pid, nodes.clone()),
                MemoryStorage::new(),
            )
        })
        .collect();
    // Elect a leader: tick + deliver until someone claims leadership.
    for _ in 0..100 {
        for r in replicas.iter_mut() {
            r.tick();
        }
        pump(&mut replicas, 1);
        if replicas.iter().any(|r| r.is_leader()) {
            break;
        }
    }
    let leader = replicas.iter().position(|r| r.is_leader()).expect("leader");

    let start = Instant::now();
    let mut appended = 0u64;
    while appended < total {
        let n = batch.min(total - appended);
        for v in 0..n {
            replicas[leader].append(appended + v).expect("append");
        }
        appended += n;
        // One batch round-trip: AcceptDecide out, Accepted back, Decide out.
        pump(&mut replicas, 3);
    }
    let mut guard = 0;
    while replicas.iter().any(|r| r.decided_idx() < total) {
        pump(&mut replicas, 3);
        guard += 1;
        assert!(guard < 1_000, "replication failed to settle");
    }
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, total as f64 / elapsed)
}

type Server = OmniPaxosServer<u64>;

/// Tick every server once, then deliver messages until the wire is quiet.
fn step(servers: &mut [Server]) {
    for s in servers.iter_mut() {
        s.tick();
    }
    loop {
        let mut wire = Vec::new();
        for s in servers.iter_mut() {
            let from = s.pid();
            for (to, msg) in s.outgoing() {
                wire.push((from, to, msg));
            }
        }
        if wire.is_empty() {
            break;
        }
        for (from, to, msg) in wire {
            servers[to as usize - 1].handle(from, msg);
        }
    }
}

/// Scenario (b): majority-replacement reconfiguration over a large log.
/// Servers 1-5 hold `size` decided entries; the new configuration is
/// {4,5,6,7,8}, so joiners 6-8 each migrate the full log from 5 donors.
fn bench_migration(size: u64) -> (f64, f64) {
    let old_nodes: Vec<NodeId> = (1..=5).collect();
    let new_nodes: Vec<NodeId> = (4..=8).collect();
    let mut servers: Vec<Server> = Vec::new();
    for pid in 1..=8u64 {
        if pid <= 5 {
            servers.push(OmniPaxosServer::with_storage(
                ServerConfig::with(pid),
                old_nodes.clone(),
                MemoryStorage::with_decided_log((0..size).collect()),
            ));
        } else {
            servers.push(OmniPaxosServer::new_joiner(ServerConfig::with(pid)));
        }
    }
    // Settle: initial history applied everywhere, a leader elected.
    let mut guard = 0;
    while !(servers[..5].iter().all(|s| s.decided_len() == size)
        && servers[..5].iter().any(|s| s.is_leader()))
    {
        step(&mut servers);
        guard += 1;
        assert!(guard < 500, "initial configuration failed to settle");
    }
    let leader = servers[..5]
        .iter()
        .position(|s| s.is_leader())
        .expect("leader");

    let start = Instant::now();
    servers[leader]
        .reconfigure(new_nodes.clone())
        .expect("reconfigure");
    let done = |servers: &[Server]| {
        new_nodes.iter().all(|&pid| {
            let s = &servers[pid as usize - 1];
            s.config_id() == 2 && s.role() == ServerRole::Active && s.decided_len() >= size
        })
    };
    let mut guard = 0;
    while !done(&servers) {
        step(&mut servers);
        guard += 1;
        assert!(guard < 5_000, "migration failed to complete");
    }
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, size as f64 / elapsed)
}

/// Deliver queued messages for `rounds` rounds with ticks, dropping
/// anything to or from the nodes in `cut` (a network partition).
fn pump_cut(replicas: &mut [Replica], rounds: usize, cut: &[u64]) {
    for _ in 0..rounds {
        for i in 0..replicas.len() {
            replicas[i].tick();
            let from = replicas[i].pid();
            for m in replicas[i].outgoing_messages() {
                let to = m.to();
                if cut.contains(&from) || cut.contains(&to) {
                    continue;
                }
                replicas[(to - 1) as usize].handle_message(m);
            }
        }
    }
}

/// Scenario (c): a follower partitioned while `size` entries were decided
/// heals and catches up. With `compacted == false` the leader still holds
/// the full log and the follower replays it; with `compacted == true` the
/// connected servers compacted the whole log into a [`CounterSm`] snapshot,
/// so the follower receives O(state) bytes plus an empty tail instead of
/// `size` entries. Timed region: heal → follower's state machine caught up.
/// Returns (elapsed, catch-up entries/sec equivalent).
fn bench_catchup(size: u64, compacted: bool) -> (f64, f64) {
    let nodes: Vec<NodeId> = (1..=3).collect();
    let mut replicas: Vec<Replica> = nodes
        .iter()
        .map(|&pid| {
            OmniPaxos::new(
                OmniPaxosConfig::with(1, pid, nodes.clone()),
                MemoryStorage::new(),
            )
        })
        .collect();
    pump_cut(&mut replicas, 60, &[]);
    let leader = replicas.iter().position(|r| r.is_leader()).expect("leader");
    let follower = (leader + 1) % 3;
    let follower_pid = (follower + 1) as u64;

    // Decide `size` entries behind the follower's back.
    let cut = [follower_pid];
    let mut appended = 0u64;
    while appended < size {
        let n = 4_096.min(size - appended);
        for v in 1..=n {
            replicas[leader].append(appended + v).expect("append");
        }
        appended += n;
        pump_cut(&mut replicas, 3, &cut);
    }
    let mut guard = 0;
    while replicas[leader].decided_idx() < size {
        pump_cut(&mut replicas, 3, &cut);
        guard += 1;
        assert!(guard < 1_000, "majority failed to settle");
    }
    let expected_sum = (1..=size).fold(0u64, u64::wrapping_add);
    if compacted {
        // The application checkpointed its state machine and trimmed the
        // whole log: the prefix only exists as a 16-byte snapshot now.
        let mut sm = CounterSm::default();
        for v in 1..=size {
            sm.apply(v);
        }
        let snap = sm.snapshot();
        for (i, r) in replicas.iter_mut().enumerate() {
            if i != follower {
                r.compact(size, snap.clone()).expect("compact");
            }
        }
        pump_cut(&mut replicas, 10, &cut);
    }
    assert_eq!(replicas[follower].decided_idx(), 0, "follower is cut off");

    // Timed: heal the partition and run until the follower's state
    // machine has caught up (replay or snapshot restore + tail).
    let start = Instant::now();
    for r in replicas.iter_mut() {
        for &p in &nodes {
            if p != r.pid() {
                r.reconnected(p);
            }
        }
    }
    let mut guard = 0;
    while replicas[follower].decided_idx() < size {
        pump_cut(&mut replicas, 1, &[]);
        guard += 1;
        assert!(guard < 10_000, "follower failed to catch up");
    }
    let mut sm = CounterSm::default();
    let from = match replicas[follower].take_installed_snapshot() {
        Some((idx, data)) => {
            sm.restore(&data);
            idx
        }
        None => 0,
    };
    for e in replicas[follower].read_decided(from) {
        if let LogEntry::Normal(v) = e {
            sm.apply(v);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(sm.applied, size, "state machine caught up");
    assert_eq!(sm.sum, expected_sum, "state machine checksum");
    assert_eq!(
        compacted,
        replicas[follower].compacted_idx() == size,
        "snapshot path taken exactly when the log was trimmed"
    );
    (elapsed, size as f64 / elapsed)
}

/// Nearest-rank percentile over an already-sorted latency sample.
fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

/// Direct WAL group-commit measurement: batched appends between fsyncs,
/// reported as entries made durable per `sync_data` call. Returns
/// `(appends, syncs, entries_per_sync, elapsed_s)`.
fn bench_wal_group_commit(quick: bool) -> (u64, u64, f64, f64) {
    use omnipaxos::{LogEntry, Storage, WalStorage};
    let dir = std::env::temp_dir().join(format!("omni-wal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("wal bench dir");
    let path = dir.join("group-commit.wal");
    let _ = std::fs::remove_file(&path);
    let rounds: u64 = if quick { 20 } else { 200 };
    let batch: u64 = 512;
    let mut wal: WalStorage<u64> = WalStorage::open(&path).expect("open wal");
    let start = Instant::now();
    for r in 0..rounds {
        let entries: Vec<LogEntry<u64>> = (0..batch)
            .map(|v| LogEntry::Normal(r * batch + v))
            .collect();
        wal.append_entries(entries).expect("append batch");
        wal.sync().expect("sync");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (syncs, committed) = wal.group_commit_stats();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        committed,
        rounds * batch,
        "every appended entry group-committed"
    );
    let per_sync = committed as f64 / syncs.max(1) as f64;
    (committed, syncs, per_sync, elapsed)
}

/// `--net-loopback`: a real 3-replica kv cluster over TCP on 127.0.0.1
/// (the `crates/net` transport, not the simulator), measured *open loop*:
/// a pipelined client sweeps its in-flight window from 1 to 10,000 and
/// each point reports throughput and p50/p99 submit→completion latency.
/// A closed-loop client provides the lockstep comparison point. Under
/// load, every seq must complete exactly once, final values must read
/// back linearizably, and the three replicas (session tables included)
/// must converge to identical states. Written to `BENCH_PR6.json`.
fn run_net_loopback(quick: bool) {
    use kvstore::{KvCommand, KvNode, KvOp, ShardedKvNode};
    use net::server::{ClientGateway, KvServer};
    use net::tcp::{TcpConfig, TcpTransport};
    use net::{KvClient, NetworkLink, PipelinedKvClient};
    use omnipaxos::ServiceMsg;
    use std::collections::{HashMap, HashSet};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    type Transport = TcpTransport<ServiceMsg<KvCommand>>;

    println!("hotpath: net-loopback open-loop sweep (3 replicas over TCP)");

    // Boot: ephemeral replication + gateway ports, one drive thread per node.
    let mut listeners = HashMap::new();
    let mut repl_addrs = HashMap::new();
    for pid in 1..=3u64 {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind replication port");
        repl_addrs.insert(pid, l.local_addr().unwrap());
        listeners.insert(pid, l);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    let mut client_addrs = Vec::new();
    for pid in 1..=3u64 {
        let transport = Transport::with_listener(
            pid,
            listeners.remove(&pid).unwrap(),
            repl_addrs.clone(),
            TcpConfig::default(),
        )
        .expect("transport");
        let gateway =
            ClientGateway::bind(TcpListener::bind("127.0.0.1:0").unwrap()).expect("gateway");
        client_addrs.push((pid, gateway.local_addr()));
        let node = ShardedKvNode::from_shards(vec![KvNode::new(pid, vec![1, 2, 3])]);
        let server = KvServer::new_sharded(node, transport).with_gateway(gateway);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            server.run(Duration::from_millis(3), stop)
        }));
    }

    let mut client = KvClient::new(0xBE9C4, client_addrs.clone());
    // Warmup: rides out leader election and fills the session caches.
    for i in 0..50u64 {
        client.put("warm", i as i64).expect("warmup put");
    }

    // Closed-loop comparison point: one put at a time, lockstep.
    let closed_ops: u64 = if quick { 200 } else { 1_000 };
    let mut closed_lat: Vec<f64> = Vec::with_capacity(closed_ops as usize);
    let start = Instant::now();
    for i in 0..closed_ops {
        let t = Instant::now();
        let r = client.put(&format!("k{}", i % 64), i as i64).expect("put");
        assert!(r.applied, "fresh put must apply");
        closed_lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let closed_elapsed = start.elapsed().as_secs_f64();
    closed_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let closed_mean = closed_lat.iter().sum::<f64>() / closed_lat.len() as f64;
    let closed_ops_sec = closed_ops as f64 / closed_elapsed;
    println!(
        "  closed loop: {closed_ops_sec:.0} ops/sec  p50 {:.0}us  p99 {:.0}us",
        percentile(&closed_lat, 0.50),
        percentile(&closed_lat, 0.99)
    );

    // Open-loop sweep: in-flight window 1 → 10,000. The client-side
    // model tracks the last submitted value per key; per-key order is
    // guaranteed by contiguous admission, so the linearizable audit
    // below must see exactly these values.
    struct Point {
        window: usize,
        ops: u64,
        elapsed: f64,
        ops_sec: f64,
        p50: f64,
        p99: f64,
        mean: f64,
        retries: u64,
    }
    let windows: &[usize] = &[1, 16, 128, 1_024, 4_096, 10_000];
    let mut pipe = PipelinedKvClient::new(0xBE9C5, client_addrs.clone());
    let mut model: HashMap<String, i64> = HashMap::new();
    let mut points: Vec<Point> = Vec::new();
    let mut value_counter = 0i64;
    for &window in windows {
        let ops: u64 = if quick {
            (window as u64 * 4).clamp(300, 8_000)
        } else {
            (window as u64 * 20).clamp(2_000, 100_000)
        };
        let retries_before = pipe.retries_seen();
        let mut lat: Vec<f64> = Vec::with_capacity(ops as usize);
        let mut starts: HashMap<u64, Instant> = HashMap::new();
        let mut seen: HashSet<u64> = HashSet::with_capacity(ops as usize);
        let mut submitted = 0u64;
        let start = Instant::now();
        while (seen.len() as u64) < ops {
            while submitted < ops && pipe.in_flight() < window {
                let key = format!("k{}", submitted % 64);
                value_counter += 1;
                model.insert(key.clone(), value_counter);
                let seq = pipe.submit(KvOp::Put {
                    key,
                    value: value_counter,
                });
                starts.insert(seq, Instant::now());
                submitted += 1;
            }
            for r in pipe
                .wait(Duration::from_millis(50))
                .expect("pipelined put under sweep")
            {
                assert!(seen.insert(r.seq), "seq {} completed twice", r.seq);
                if let Some(t0) = starts.remove(&r.seq) {
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let point = Point {
            window,
            ops,
            elapsed,
            ops_sec: ops as f64 / elapsed,
            p50: percentile(&lat, 0.50),
            p99: percentile(&lat, 0.99),
            mean: lat.iter().sum::<f64>() / lat.len().max(1) as f64,
            retries: pipe.retries_seen() - retries_before,
        };
        println!(
            "  open loop w={:<6} {:>8.0} ops/sec  p50 {:>7.0}us  p99 {:>8.0}us  ({} retries)",
            point.window, point.ops_sec, point.p50, point.p99, point.retries
        );
        points.push(point);
    }

    // Linearizable audit: every key must read back as the last value the
    // open-loop client submitted for it (per-key order survived
    // shedding, redirects, and retransmission).
    for (k, v) in &model {
        assert_eq!(
            client.read(k).expect("audit read"),
            Some(*v),
            "linearizable audit of {k}"
        );
    }
    // Give followers a moment to apply the tail, then snapshot states.
    client.put("sentinel", 1).expect("sentinel");
    std::thread::sleep(Duration::from_millis(500));

    stop.store(true, Ordering::SeqCst);
    let servers: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node"))
        .collect();
    let sm0 = servers[0].node().shard(0).state_machine();
    assert!(
        servers[1..]
            .iter()
            .all(|s| s.node().shard(0).state_machine() == sm0),
        "replicas (session tables included) must converge"
    );

    let (mut msgs_sent, mut bytes_sent, mut sessions) = (0u64, 0u64, 0u64);
    let (mut wbatches, mut wframes, mut wbytes) = (0u64, 0u64, 0u64);
    let (mut hb_sent, mut hb_supp) = (0u64, 0u64);
    let (mut pbatches, mut pops) = (0u64, 0u64);
    let (mut rbatches, mut rframes) = (0u64, 0u64);
    let mut shed = 0u64;
    for s in &servers {
        if let Some(link) = s.link() {
            let c = link.counters();
            msgs_sent += c.msgs_sent;
            bytes_sent += c.bytes_sent;
            sessions += c.sessions_established;
            wbatches += c.writer_batches;
            wframes += c.writer_frames;
            wbytes += c.writer_bytes;
            hb_sent += c.heartbeats_sent;
            hb_supp += c.heartbeats_suppressed;
        }
        let (pb, po) = s.proposal_stats();
        pbatches += pb;
        pops += po;
        let (rb, rf) = s.gateway_reply_stats();
        rbatches += rb;
        rframes += rf;
        shed += s.shed_requests();
    }

    println!("hotpath: wal group commit (direct WalStorage measurement)");
    let (wal_entries, wal_syncs, wal_per_sync, wal_elapsed) = bench_wal_group_commit(quick);
    println!(
        "  {wal_entries} entries in {wal_syncs} fsyncs ({wal_per_sync:.0} entries/fsync, {:.0} entries/sec)",
        wal_entries as f64 / wal_elapsed.max(1e-9)
    );

    let best = points
        .iter()
        .max_by(|a, b| a.ops_sec.partial_cmp(&b.ops_sec).unwrap())
        .expect("sweep points");
    let speedup = best.ops_sec / closed_ops_sec;
    println!(
        "  best: {:.0} ops/sec at w={} ({speedup:.1}x the closed loop)",
        best.ops_sec, best.window
    );

    let sweep_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"in_flight\": {},\n      \"ops\": {},\n      \"elapsed_s\": {:.3},\n      \"ops_per_sec\": {},\n      \"p50_us\": {},\n      \"p99_us\": {},\n      \"mean_us\": {},\n      \"retries\": {}\n    }}",
                p.window,
                p.ops,
                p.elapsed,
                json_num(p.ops_sec),
                json_num(p.p50),
                json_num(p.p99),
                json_num(p.mean),
                p.retries
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"bench\": \"net-open-loop\",\n  \"quick\": {quick},\n  \"replicas\": 3,\n  \"closed_loop\": {{\n    \"ops\": {closed_ops},\n    \"elapsed_s\": {closed_elapsed:.3},\n    \"ops_per_sec\": {},\n    \"p50_us\": {},\n    \"p99_us\": {},\n    \"mean_us\": {}\n  }},\n  \"open_loop_sweep\": [\n{}\n  ],\n  \"best\": {{\n    \"in_flight\": {},\n    \"ops_per_sec\": {},\n    \"speedup_vs_closed_loop\": {}\n  }},\n  \"transport\": {{\n    \"replication_msgs_sent\": {msgs_sent},\n    \"replication_bytes_sent\": {bytes_sent},\n    \"sessions_established\": {sessions},\n    \"writer_batches\": {wbatches},\n    \"writer_frames\": {wframes},\n    \"writer_bytes\": {wbytes},\n    \"heartbeats_sent\": {hb_sent},\n    \"heartbeats_suppressed\": {hb_supp}\n  }},\n  \"server\": {{\n    \"proposal_batches\": {pbatches},\n    \"proposed_ops\": {pops},\n    \"reply_batches\": {rbatches},\n    \"reply_frames\": {rframes},\n    \"shed_requests\": {shed}\n  }},\n  \"wal_group_commit\": {{\n    \"entries\": {wal_entries},\n    \"syncs\": {wal_syncs},\n    \"entries_per_sync\": {},\n    \"elapsed_s\": {wal_elapsed:.3}\n  }},\n  \"checks\": {{\n    \"completions_exactly_once\": 1,\n    \"final_reads_linearizable\": 1,\n    \"replicas_converged\": 1\n  }}\n}}\n",
        json_num(closed_ops_sec),
        json_num(percentile(&closed_lat, 0.50)),
        json_num(percentile(&closed_lat, 0.99)),
        json_num(closed_mean),
        sweep_json.join(",\n"),
        best.window,
        json_num(best.ops_sec),
        if speedup.is_finite() {
            format!("{speedup:.2}")
        } else {
            "null".into()
        },
        json_num(wal_per_sync),
    );
    std::fs::write("BENCH_PR6.json", &out).expect("write BENCH_PR6.json");
    print!("{out}");
}

/// `--net-loopback --shards`: the sharded open-loop sweep. Boots the same
/// 3-replica TCP loopback cluster once per shard count in {1, 2, 4} —
/// per-shard Omni-Paxos groups multiplexed over shared sessions, leaders
/// spread round-robin — and drives a [`net::ShardedKvClient`] open loop.
/// Peak throughput per shard count is found by sweeping the per-shard
/// in-flight window (up to the gateway's per-shard admission bound,
/// which replies Busy beyond `DEFAULT_MAX_PENDING` pending commands per
/// group) and keeping the best point. Groups scale across cores, so the
/// sweep also measures the host's *effective* parallelism (cgroup quotas
/// make `nproc` a lie) and each point's CPU saturation, and records both:
/// on a single-core host every shard count converges to the same
/// CPU-saturated ceiling and `scaling_1_to_4 ≈ 1`, which is the honest
/// result there — the gate in `check_bench.sh` reads
/// `host_effective_cores` to decide what scaling to demand. Each point
/// self-audits: exactly-once per `(shard, seq)`, linearizable final
/// reads through a routing-oblivious client, and per-shard replica
/// convergence (session tables included). Writes `BENCH_PR7.json` with
/// the 1→4 scaling factor.
fn run_net_sharded(quick: bool) {
    use kvstore::{KvCommand, KvOp, ShardedKvNode};
    use net::server::{ClientGateway, KvServer};
    use net::tcp::{TcpConfig, TcpTransport};
    use net::{fetch_shards, KvClient, ShardedKvClient};
    use omnipaxos::ServiceMsg;
    use std::collections::{HashMap, HashSet};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    type Transport = TcpTransport<ServiceMsg<KvCommand>>;

    println!("hotpath: sharded net-loopback sweep (3 replicas over TCP, shards 1/2/4)");

    struct ShardPoint {
        shards: usize,
        ops: u64,
        elapsed: f64,
        ops_sec: f64,
        p50: f64,
        p99: f64,
        retries: u64,
        per_shard_ops: Vec<u64>,
        distinct_leaders: usize,
        cpu_cores_busy: f64,
        window: usize,
    }
    let shard_counts: &[usize] = &[1, 2, 4];
    // Peak = max over offered load: each shard count is swept over
    // per-shard in-flight windows (capped by the gateway's per-shard
    // admission bound) and reports its best point. A saturated host
    // peaks at a small aggregate window; a host with spare cores keeps
    // gaining from deeper per-group pipelines.
    let windows: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 4096]
    };
    assert!(windows
        .iter()
        .all(|&w| w <= net::server::DEFAULT_MAX_PENDING));
    let mut points: Vec<ShardPoint> = Vec::new();

    // Whether shard-count scaling is physically possible on this host:
    // groups parallelize across cores, so a host whose scheduler grants
    // one core total (cgroup quota, single-cpu VM) runs every shard count
    // at the same CPU-saturated ceiling. Measured, not assumed — the
    // number and the per-point saturation evidence go into the JSON so
    // the gate in check_bench.sh can judge the sweep honestly.
    let effective_cores = measure_effective_cores();
    println!("  host effective cores: {effective_cores:.2}");

    for &shards in shard_counts {
        // Boot a fresh cluster for this shard count (shard count is part
        // of the routing contract; it cannot change on a live cluster).
        let mut listeners = HashMap::new();
        let mut repl_addrs = HashMap::new();
        for pid in 1..=3u64 {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind replication port");
            repl_addrs.insert(pid, l.local_addr().unwrap());
            listeners.insert(pid, l);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        let mut client_addrs = Vec::new();
        for pid in 1..=3u64 {
            let transport = Transport::with_listener(
                pid,
                listeners.remove(&pid).unwrap(),
                repl_addrs.clone(),
                TcpConfig::default(),
            )
            .expect("transport");
            let gateway =
                ClientGateway::bind(TcpListener::bind("127.0.0.1:0").unwrap()).expect("gateway");
            client_addrs.push((pid, gateway.local_addr()));
            let node = ShardedKvNode::new(pid, vec![1, 2, 3], shards);
            let server = KvServer::new_sharded(node, transport).with_gateway(gateway);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                server.run(Duration::from_millis(3), stop)
            }));
        }

        // Wait for routing to converge: every shard has a leader.
        let deadline = Instant::now() + Duration::from_secs(20);
        let leaders = loop {
            if let Ok(l) = fetch_shards(&client_addrs, Duration::from_millis(500)) {
                if l.len() == shards && l.iter().all(|&p| p != 0) {
                    break l;
                }
            }
            assert!(
                Instant::now() < deadline,
                "routing never converged for {shards} shards"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        let distinct_leaders = leaders.iter().collect::<HashSet<_>>().len();

        let mut pipe = ShardedKvClient::bootstrap(
            0xBE9C6 + shards as u64,
            client_addrs.clone(),
            Duration::from_secs(5),
        )
        .expect("sharded client bootstrap");

        // Open loop with one admission window in flight per shard (keys
        // hash-spread over the shards); per-(shard, seq) exactly-once
        // audited as results drain. The submit gate is head-of-line: keys
        // cycle uniformly over the shards, so one full window means they
        // are all within a batch of full.
        let mut model: HashMap<String, i64> = HashMap::new();
        let mut value_counter = 0i64;
        let mut best: Option<ShardPoint> = None;
        for &per_shard_window in windows {
            // Size each segment to its aggregate window so the pipeline
            // spends most of the run full rather than ramping.
            let aggregate = per_shard_window * shards;
            let ops = (6 * aggregate).max(if quick { 12_000 } else { 48_000 }) as u64;
            let mut starts: HashMap<(u32, u64), Instant> = HashMap::new();
            let mut seen: HashSet<(u32, u64)> = HashSet::with_capacity(ops as usize);
            let mut per_shard_ops = vec![0u64; shards];
            let mut in_flight = vec![0usize; shards];
            let mut lat: Vec<f64> = Vec::with_capacity(ops as usize);
            let mut submitted = 0u64;
            let retries_before = pipe.retries_seen();
            let cpu0 = process_cpu_seconds();
            let start = Instant::now();
            // Each segment fully drains (seen == submitted == ops) before
            // the next starts, so completions never leak across segments.
            while (seen.len() as u64) < ops {
                let mut blocked = false;
                while submitted < ops {
                    let key = format!("k{}", submitted % 64);
                    if in_flight[kvstore::shard_of_key(&key, shards) as usize] >= per_shard_window {
                        blocked = true;
                        break;
                    }
                    value_counter += 1;
                    model.insert(key.clone(), value_counter);
                    let (shard, seq) = pipe.submit(KvOp::Put {
                        key,
                        value: value_counter,
                    });
                    in_flight[shard as usize] += 1;
                    starts.insert((shard, seq), Instant::now());
                    submitted += 1;
                }
                for (shard, r) in pipe.pump().expect("sharded pump") {
                    assert!(
                        seen.insert((shard, r.seq)),
                        "seq {} on shard {shard} completed twice",
                        r.seq
                    );
                    per_shard_ops[shard as usize] += 1;
                    in_flight[shard as usize] -= 1;
                    if let Some(t0) = starts.remove(&(shard, r.seq)) {
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                if blocked || submitted >= ops {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            let cpu_cores_busy = (process_cpu_seconds() - cpu0) / elapsed;
            lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let retries = pipe.retries_seen() - retries_before;
            let point = ShardPoint {
                shards,
                ops,
                elapsed,
                ops_sec: ops as f64 / elapsed,
                p50: percentile(&lat, 0.50),
                p99: percentile(&lat, 0.99),
                retries,
                per_shard_ops,
                distinct_leaders,
                cpu_cores_busy,
                window: per_shard_window,
            };
            println!(
                "  shards={:<2} window={:<5} {:>8.0} ops/sec  p50 {:>7.0}us  p99 {:>8.0}us  leaders={}  per-shard {:?}  ({} retries, {:.2} cores busy)",
                point.shards,
                point.window,
                point.ops_sec,
                point.p50,
                point.p99,
                point.distinct_leaders,
                point.per_shard_ops,
                point.retries,
                point.cpu_cores_busy
            );
            if best.as_ref().is_none_or(|b| point.ops_sec > b.ops_sec) {
                best = Some(point);
            }
        }

        // Linearizable audit through a routing-oblivious client (it
        // discovers per-shard leaders by chasing ShardRedirect).
        let mut audit = KvClient::new(0xAD17 + shards as u64, client_addrs.clone());
        for (k, v) in &model {
            assert_eq!(
                audit.read(k).expect("audit read"),
                Some(*v),
                "linearizable audit of {k} at {shards} shards"
            );
        }
        audit.put("sentinel", 1).expect("sentinel");
        std::thread::sleep(Duration::from_millis(500));

        stop.store(true, Ordering::SeqCst);
        let servers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("node"))
            .collect();
        // Per-shard convergence, session tables included.
        for s in 0..shards as u32 {
            let sm0 = servers[0].node().shard(s).state_machine();
            assert!(
                servers[1..]
                    .iter()
                    .all(|sv| sv.node().shard(s).state_machine() == sm0),
                "shard {s} replicas must converge at {shards} shards"
            );
        }

        let best = best.expect("at least one window per shard count");
        println!(
            "  shards={:<2} peak {:>8.0} ops/sec at window {}/shard",
            best.shards, best.ops_sec, best.window
        );
        points.push(best);
    }

    let one = points
        .iter()
        .find(|p| p.shards == 1)
        .expect("1-shard point");
    let four = points
        .iter()
        .find(|p| p.shards == 4)
        .expect("4-shard point");
    let scaling = four.ops_sec / one.ops_sec;
    println!("  scaling 1 -> 4 shards: {scaling:.2}x");

    let sweep_json: Vec<String> = points
        .iter()
        .map(|p| {
            let per_shard: Vec<String> = p.per_shard_ops.iter().map(|n| n.to_string()).collect();
            format!(
                "    {{\n      \"shards\": {},\n      \"per_shard_window\": {},\n      \"ops\": {},\n      \"elapsed_s\": {:.3},\n      \"ops_per_sec\": {},\n      \"p50_us\": {},\n      \"p99_us\": {},\n      \"retries\": {},\n      \"distinct_leaders\": {},\n      \"cpu_cores_busy\": {:.2},\n      \"per_shard_ops\": [{}]\n    }}",
                p.shards,
                p.window,
                p.ops,
                p.elapsed,
                json_num(p.ops_sec),
                json_num(p.p50),
                json_num(p.p99),
                p.retries,
                p.distinct_leaders,
                p.cpu_cores_busy,
                per_shard.join(", ")
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"bench\": \"net-sharded-open-loop\",\n  \"quick\": {quick},\n  \"replicas\": 3,\n  \"windows_swept\": [{}],\n  \"host_effective_cores\": {effective_cores:.2},\n  \"shard_sweep\": [\n{}\n  ],\n  \"scaling_1_to_4\": {scaling:.2},\n  \"checks\": {{\n    \"completions_exactly_once_per_shard\": 1,\n    \"final_reads_linearizable\": 1,\n    \"per_shard_replicas_converged\": 1,\n    \"routing_converged\": 1\n  }}\n}}\n",
        windows
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        sweep_json.join(",\n"),
    );
    std::fs::write("BENCH_PR7.json", &out).expect("write BENCH_PR7.json");
    print!("{out}");
}

/// `--reads`: the read-mode comparison. Boots the same 3-replica TCP
/// loopback cluster once per [`kvstore::ReadMode`] — leases enabled
/// cluster-wide — and drives a 95/5 read/write open-loop mix through a
/// pipelined client in that mode, sweeping the in-flight window and
/// keeping each mode's best point. `Log` reads ride the replicated log
/// (every read is a decided entry); `Lease` reads are answered from the
/// leader's local state machine while its lease holds; `ReadIndex` reads
/// capture the commit index and wait for local apply. The decided-log
/// length after each run is the log-free evidence: in the log-free modes
/// it grows with the writes only. Each mode self-audits exactly-once
/// completions, a final linearizable read-back of the client's model,
/// and replica convergence. Writes `BENCH_PR8.json` with the
/// lease-over-log throughput ratio that `check_bench.sh` gates on
/// (cores-conditional: a single-core host serializes the read path with
/// the replication threads, so the multiplier is only demanded when the
/// host can actually run them in parallel).
fn run_net_read_modes(quick: bool) {
    use kvstore::{shard_config, KvCommand, KvNode, KvOp, ReadMode, ShardedKvNode};
    use net::server::{ClientGateway, KvServer};
    use net::tcp::{TcpConfig, TcpTransport};
    use net::{KvClient, PipelinedKvClient};
    use omnipaxos::ServiceMsg;
    use std::collections::{HashMap, HashSet};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    type Transport = TcpTransport<ServiceMsg<KvCommand>>;

    println!("hotpath: read-mode sweep (3 replicas over TCP, 95/5 read/write)");

    struct ModePoint {
        mode: &'static str,
        window: usize,
        ops: u64,
        reads: u64,
        writes: u64,
        /// Writes across ALL windows of this mode's run — the decided log
        /// is measured once per mode, so the log-free check must compare
        /// against the whole run's writes, not the best point's.
        total_writes: u64,
        elapsed: f64,
        ops_sec: f64,
        read_p50: f64,
        read_p99: f64,
        write_p50: f64,
        write_p99: f64,
        retries: u64,
        decided_len: u64,
        cpu_cores_busy: f64,
    }

    let effective_cores = measure_effective_cores();
    println!("  host effective cores: {effective_cores:.2}");

    let modes: &[(ReadMode, &'static str)] = &[
        (ReadMode::Log, "log"),
        (ReadMode::Lease, "lease"),
        (ReadMode::ReadIndex, "read-index"),
    ];
    let windows: &[usize] = if quick {
        &[128, 1024]
    } else {
        &[256, 1024, 4096]
    };
    let members: Vec<u64> = vec![1, 2, 3];
    // Lease window in 3ms drive-loop ticks: 40 ticks ≈ 120ms, renewed
    // every TCP heartbeat — the same contract the loopback tests use.
    let lease_ticks = 40u64;
    let mut points: Vec<ModePoint> = Vec::new();
    let mut converged = true;

    for &(mode, mode_name) in modes {
        // Fresh cluster per mode so each run's decided-log length is
        // attributable to that mode alone.
        let mut listeners = HashMap::new();
        let mut repl_addrs = HashMap::new();
        for pid in 1..=3u64 {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind replication port");
            repl_addrs.insert(pid, l.local_addr().unwrap());
            listeners.insert(pid, l);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        let mut client_addrs = Vec::new();
        for pid in 1..=3u64 {
            let mut base = omnipaxos::ServerConfig::with(pid);
            base.lease_ticks = lease_ticks;
            base.lease_epsilon_ticks = (lease_ticks / 10).max(1);
            let node = ShardedKvNode::from_shards(vec![KvNode::with_config(
                shard_config(&base, 0, &members),
                members.clone(),
            )]);
            let transport = Transport::with_listener(
                pid,
                listeners.remove(&pid).unwrap(),
                repl_addrs.clone(),
                TcpConfig::default(),
            )
            .expect("transport");
            let gateway =
                ClientGateway::bind(TcpListener::bind("127.0.0.1:0").unwrap()).expect("gateway");
            client_addrs.push((pid, gateway.local_addr()));
            let server = KvServer::new_sharded(node, transport).with_gateway(gateway);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                server.run(Duration::from_millis(3), stop)
            }));
        }

        // Warmup: ride out the election, fill session caches, seed every
        // key the mix will read, then give the lease a window to form.
        let mut client = KvClient::new(0xBE9C7, client_addrs.clone());
        let mut model: HashMap<String, i64> = HashMap::new();
        for k in 0..64u64 {
            let key = format!("k{k}");
            client.put(&key, -1).expect("warmup put");
            model.insert(key, -1);
        }
        std::thread::sleep(Duration::from_millis(400));

        let mut pipe =
            PipelinedKvClient::new(0xBE9C8 + mode.discriminant() as u64, client_addrs.clone());
        pipe.read_mode = mode;
        let mut value_counter = 0i64;
        let mut best: Option<ModePoint> = None;
        let mut mode_writes = 0u64;
        for &window in windows {
            let ops: u64 = if quick {
                (window as u64 * 4).clamp(1_000, 8_000)
            } else {
                (window as u64 * 20).clamp(4_000, 60_000)
            };
            let retries_before = pipe.retries_seen();
            let mut read_lat: Vec<f64> = Vec::new();
            let mut write_lat: Vec<f64> = Vec::new();
            let mut starts: HashMap<u64, Instant> = HashMap::new();
            let mut read_tokens: HashSet<u64> = HashSet::new();
            let mut seen: HashSet<u64> = HashSet::with_capacity(ops as usize);
            let (mut reads, mut writes) = (0u64, 0u64);
            let mut submitted = 0u64;
            let cpu0 = process_cpu_seconds();
            let start = Instant::now();
            while (seen.len() as u64) < ops {
                while submitted < ops && pipe.in_flight() < window {
                    let key = format!("k{}", submitted % 64);
                    // 5% writes keep the log (and the lease's write path)
                    // warm while reads dominate the offered load.
                    let token = if submitted.is_multiple_of(20) {
                        value_counter += 1;
                        model.insert(key.clone(), value_counter);
                        writes += 1;
                        pipe.submit(KvOp::Put {
                            key,
                            value: value_counter,
                        })
                    } else {
                        reads += 1;
                        let t = pipe.submit_read(&key);
                        read_tokens.insert(t);
                        t
                    };
                    starts.insert(token, Instant::now());
                    submitted += 1;
                }
                for r in pipe
                    .wait(Duration::from_millis(50))
                    .expect("pipelined mix under sweep")
                {
                    assert!(seen.insert(r.seq), "token {} completed twice", r.seq);
                    assert!(r.applied, "op {} must apply in a healthy cluster", r.seq);
                    if let Some(t0) = starts.remove(&r.seq) {
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        if read_tokens.contains(&r.seq) {
                            read_lat.push(us);
                        } else {
                            write_lat.push(us);
                        }
                    }
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            let cpu_cores_busy = (process_cpu_seconds() - cpu0) / elapsed;
            mode_writes += writes;
            read_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            write_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let point = ModePoint {
                mode: mode_name,
                window,
                ops,
                reads,
                writes,
                total_writes: 0,
                elapsed,
                ops_sec: ops as f64 / elapsed,
                read_p50: percentile(&read_lat, 0.50),
                read_p99: percentile(&read_lat, 0.99),
                write_p50: percentile(&write_lat, 0.50),
                write_p99: percentile(&write_lat, 0.99),
                retries: pipe.retries_seen() - retries_before,
                decided_len: 0,
                cpu_cores_busy,
            };
            println!(
                "  mode={:<10} w={:<5} {:>8.0} ops/sec  read p50 {:>6.0}us p99 {:>7.0}us  write p50 {:>6.0}us p99 {:>7.0}us  ({} retries, {:.2} cores busy)",
                point.mode,
                point.window,
                point.ops_sec,
                point.read_p50,
                point.read_p99,
                point.write_p50,
                point.write_p99,
                point.retries,
                point.cpu_cores_busy
            );
            if best.as_ref().is_none_or(|b| point.ops_sec > b.ops_sec) {
                best = Some(point);
            }
        }

        // Linearizable audit of the final model through the closed-loop
        // client, in the mode under test (lease/read-index audits take
        // the log-free path they are auditing).
        for (k, v) in &model {
            assert_eq!(
                client.read_with_mode(k, mode).expect("audit read"),
                Some(*v),
                "linearizable audit of {k} in mode {mode_name}"
            );
        }
        client.put("sentinel", 1).expect("sentinel");
        std::thread::sleep(Duration::from_millis(400));

        stop.store(true, Ordering::SeqCst);
        let servers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("node"))
            .collect();
        let sm0 = servers[0].node().shard(0).state_machine();
        converged &= servers[1..]
            .iter()
            .all(|s| s.node().shard(0).state_machine() == sm0);
        assert!(converged, "replicas must converge after {mode_name} run");
        let mut best = best.expect("at least one window per mode");
        best.total_writes = mode_writes;
        best.decided_len = servers[0].node().shard(0).server_ref().decided_len();
        println!(
            "  mode={:<10} peak {:>8.0} ops/sec at w={} (decided log {} entries)",
            best.mode, best.ops_sec, best.window, best.decided_len
        );
        points.push(best);
    }

    let by = |name: &str| points.iter().find(|p| p.mode == name).expect("mode point");
    let (log, lease, ri) = (by("log"), by("lease"), by("read-index"));
    let lease_over_log = lease.ops_sec / log.ops_sec;
    let read_index_over_log = ri.ops_sec / log.ops_sec;
    println!("  lease/log: {lease_over_log:.2}x   read-index/log: {read_index_over_log:.2}x");
    // Log-free evidence: in lease / read-index mode the decided log
    // grows with the run's writes (plus warmup, sessions, sentinel),
    // never with the reads. The decided log is cumulative over every
    // swept window, so the bound uses the mode's total writes. A lease
    // implementation quietly falling through to the log path on every
    // read fails this, whatever its throughput.
    let slack = 300u64;
    let lease_log_free = lease.decided_len < lease.total_writes + slack;
    let read_index_log_free = ri.decided_len < ri.total_writes + slack;
    assert!(
        log.decided_len > log.total_writes + slack,
        "log-mode reads must ride the replicated log"
    );

    let mode_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"mode\": \"{}\",\n      \"in_flight\": {},\n      \"ops\": {},\n      \"reads\": {},\n      \"writes\": {},\n      \"total_writes\": {},\n      \"elapsed_s\": {:.3},\n      \"ops_per_sec\": {},\n      \"read_p50_us\": {},\n      \"read_p99_us\": {},\n      \"write_p50_us\": {},\n      \"write_p99_us\": {},\n      \"retries\": {},\n      \"decided_log_entries\": {},\n      \"cpu_cores_busy\": {:.2}\n    }}",
                p.mode,
                p.window,
                p.ops,
                p.reads,
                p.writes,
                p.total_writes,
                p.elapsed,
                json_num(p.ops_sec),
                json_num(p.read_p50),
                json_num(p.read_p99),
                json_num(p.write_p50),
                json_num(p.write_p99),
                p.retries,
                p.decided_len,
                p.cpu_cores_busy
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"bench\": \"net-read-modes\",\n  \"quick\": {quick},\n  \"replicas\": 3,\n  \"read_fraction\": 0.95,\n  \"lease_ticks\": {lease_ticks},\n  \"windows_swept\": [{}],\n  \"host_effective_cores\": {effective_cores:.2},\n  \"mode_sweep\": [\n{}\n  ],\n  \"lease_over_log\": {lease_over_log:.2},\n  \"read_index_over_log\": {read_index_over_log:.2},\n  \"checks\": {{\n    \"completions_exactly_once\": 1,\n    \"final_reads_linearizable\": 1,\n    \"replicas_converged\": {},\n    \"lease_reads_log_free\": {},\n    \"read_index_reads_log_free\": {}\n  }}\n}}\n",
        windows
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        mode_json.join(",\n"),
        converged as u8,
        lease_log_free as u8,
        read_index_log_free as u8,
    );
    std::fs::write("BENCH_PR8.json", &out).expect("write BENCH_PR8.json");
    print!("{out}");
}

/// `--txn-mix`: the transactional mixed workload. Boots one 3-replica,
/// 4-shard TCP loopback cluster and drives an 80/15/5 put/cas/transfer
/// open loop through a [`net::ShardedKvClient`], with every transfer a
/// *cross-shard* pair (account pairs are pre-filtered so each rides the
/// 2PC coordinator, never the single-entry same-shard fast path). The
/// per-shard in-flight window is swept and the best point kept, with
/// separate latency percentiles per op class — a 2PC transfer costs
/// several log entries across two shards plus coordinator round trips,
/// so folding it into one histogram would hide both its cost and the
/// fast path's. Every outcome is predicted and audited: CAS verdicts
/// are checked against a client-side model (a quarter of them are
/// submitted with a deliberately stale `expect` and must report
/// `applied = false` with the actual value), transfer commit verdicts
/// accumulate into expected per-account balances (deltas commute, so
/// the final balance is exact whatever the commit order), and the run
/// ends with a linearizable read-back of every key, a total-balance
/// conservation check, and per-shard replica convergence. Writes
/// `BENCH_PR9.json`.
fn run_net_txn_mix(quick: bool) {
    use kvstore::{KvCommand, KvOp, ShardedKvNode};
    use net::server::{ClientGateway, KvServer};
    use net::tcp::{TcpConfig, TcpTransport};
    use net::{fetch_shards, KvClient, ShardedKvClient};
    use omnipaxos::ServiceMsg;
    use std::collections::{HashMap, HashSet};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    type Transport = TcpTransport<ServiceMsg<KvCommand>>;

    const SHARDS: usize = 4;
    const ACCOUNTS: usize = 512;
    const OPENING: i64 = 1_000;

    println!("hotpath: txn mix (3 replicas over TCP, {SHARDS} shards, 80/15/5 put/cas/transfer)");

    let mut listeners = HashMap::new();
    let mut repl_addrs = HashMap::new();
    for pid in 1..=3u64 {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind replication port");
        repl_addrs.insert(pid, l.local_addr().unwrap());
        listeners.insert(pid, l);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    let mut client_addrs = Vec::new();
    for pid in 1..=3u64 {
        let transport = Transport::with_listener(
            pid,
            listeners.remove(&pid).unwrap(),
            repl_addrs.clone(),
            TcpConfig::default(),
        )
        .expect("transport");
        let gateway =
            ClientGateway::bind(TcpListener::bind("127.0.0.1:0").unwrap()).expect("gateway");
        client_addrs.push((pid, gateway.local_addr()));
        let node = ShardedKvNode::new(pid, vec![1, 2, 3], SHARDS);
        let server = KvServer::new_sharded(node, transport).with_gateway(gateway);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            server.run(Duration::from_millis(3), stop)
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(l) = fetch_shards(&client_addrs, Duration::from_millis(500)) {
            if l.len() == SHARDS && l.iter().all(|&p| p != 0) {
                break;
            }
        }
        assert!(Instant::now() < deadline, "routing never converged");
        std::thread::sleep(Duration::from_millis(50));
    }

    let effective_cores = measure_effective_cores();
    println!("  host effective cores: {effective_cores:.2}");

    // Account pairs whose endpoints hash to *different* shards: the only
    // pairs the workload draws from, so every transfer is a real 2PC.
    let accounts: Vec<String> = (0..ACCOUNTS).map(|i| format!("acct{i}")).collect();
    let acct_shard: Vec<u32> = accounts
        .iter()
        .map(|a| kvstore::shard_of_key(a, SHARDS))
        .collect();
    assert!(
        acct_shard.iter().any(|&s| s != acct_shard[0]),
        "accounts must span at least two shards"
    );
    // The t-th transfer's endpoints: stride 13 (coprime to the account
    // count) walks `from` across every account so consecutive in-flight
    // transfers never pile onto one account's lock, and `to` probes
    // forward to the next account on a different shard.
    let pick_pair = |t: usize| -> (usize, usize) {
        let from = (t * 13) % ACCOUNTS;
        let mut to = (from + 1 + (t % (ACCOUNTS - 1))) % ACCOUNTS;
        while to == from || acct_shard[to] == acct_shard[from] {
            to = (to + 1) % ACCOUNTS;
        }
        (from, to)
    };

    let mut pipe =
        ShardedKvClient::bootstrap(0x9BE9C, client_addrs.clone(), Duration::from_secs(5))
            .expect("sharded client bootstrap");

    // Fund the accounts before measuring.
    for a in &accounts {
        pipe.submit(KvOp::Put {
            key: a.clone(),
            value: OPENING,
        });
    }
    pipe.drain(Duration::from_secs(10)).expect("funding drain");

    struct MixPoint {
        window: usize,
        ops: u64,
        puts: u64,
        cas_ops: u64,
        transfers: u64,
        elapsed: f64,
        ops_sec: f64,
        put_p50: f64,
        put_p99: f64,
        cas_p50: f64,
        cas_p99: f64,
        txn_p50: f64,
        txn_p99: f64,
        retries: u64,
        cpu_cores_busy: f64,
    }
    let windows: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 4096]
    };
    assert!(windows
        .iter()
        .all(|&w| w <= net::server::DEFAULT_MAX_PENDING));

    // Cross-window accumulators: the model and the expected balances are
    // cumulative (the cluster keeps its state between windows), as are
    // the transfer commit/abort counts reported in the JSON.
    let mut model: HashMap<String, i64> = HashMap::new();
    let mut expected_bal: Vec<i64> = vec![OPENING; ACCOUNTS];
    let mut value_counter = 0i64;
    let mut committed_total = 0u64;
    let mut aborted_total = 0u64;
    let mut cas_conflicts = 0u64;
    let mut cas_verdicts_ok = true;
    let mut best: Option<MixPoint> = None;

    for &per_shard_window in windows {
        let aggregate = per_shard_window * SHARDS;
        let ops = (4 * aggregate).max(if quick { 8_000 } else { 40_000 }) as u64;
        // Op class and latency bucket: 0 = put, 1 = cas, 2 = transfer.
        let mut starts: HashMap<(u32, u64), (Instant, usize)> = HashMap::new();
        let mut seen: HashSet<(u32, u64)> = HashSet::with_capacity(ops as usize);
        let mut in_flight = [0usize; SHARDS];
        let mut lat: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut counts = [0u64; 3];
        // Predicted CAS verdict per token; committed-transfer bookkeeping.
        let mut cas_expect: HashMap<(u32, u64), bool> = HashMap::new();
        let mut txn_info: HashMap<(u32, u64), (usize, usize, i64)> = HashMap::new();
        let mut submitted = 0u64;
        let mut txn_in_flight = 0usize;
        // Concurrent-transaction bound: a 2PC transfer locks both
        // accounts for its whole prepare→resolve window, so an unbounded
        // 5% of a deep pipeline (hundreds of concurrent transfers) would
        // conflict-abort almost everything it touches. Real transactional
        // clients bound their open transactions; so does the bench — the
        // 80/15/5 totals stay exact, transfers just trickle at the cap
        // while puts and cas fill the pipe.
        const TXN_CAP: usize = 16;
        let txn_quota = ops / 20;
        let cas_quota = 3 * ops / 20;
        let put_quota = ops - txn_quota - cas_quota;
        let retries_before = pipe.retries_seen();
        let cpu0 = process_cpu_seconds();
        let start = Instant::now();
        while (seen.len() as u64) < ops {
            let mut blocked = false;
            while submitted < ops {
                // Pacing: a class is due when its submitted share has
                // fallen behind its target fraction. A transfer due while
                // the cap is full yields its slot to the other classes
                // and catches up later.
                let txn_due = counts[2] < txn_quota && counts[2] * 20 <= submitted;
                let cas_due = counts[1] < cas_quota && counts[1] * 20 <= 3 * submitted;
                let cls = if txn_due && txn_in_flight < TXN_CAP {
                    2
                } else if cas_due || (counts[0] >= put_quota && counts[1] < cas_quota) {
                    1
                } else if counts[0] < put_quota {
                    0
                } else if counts[1] < cas_quota {
                    1
                } else {
                    // Only transfers remain and the cap is full: wait for
                    // completions to free transaction slots.
                    blocked = true;
                    break;
                };
                let (shard, token) = if cls == 2 {
                    let (from, to) = pick_pair(counts[2] as usize);
                    // Every 16th transfer asks for more money than the
                    // whole bank holds: a guaranteed abort, so the abort
                    // path is always exercised and counted.
                    let amount = if counts[2] % 16 == 15 {
                        ACCOUNTS as i64 * OPENING + 1
                    } else {
                        1 + (counts[2] % 50) as i64
                    };
                    let coord = acct_shard[from].min(acct_shard[to]);
                    if in_flight[coord as usize] >= per_shard_window {
                        blocked = true;
                        break;
                    }
                    let (shard, token) = pipe.transfer(&accounts[from], &accounts[to], amount);
                    assert_eq!(shard, coord, "transfer must land on its coordinator shard");
                    txn_info.insert((shard, token), (from, to, amount));
                    txn_in_flight += 1;
                    (shard, token)
                } else {
                    let key = format!("k{}", (counts[0] + counts[1]) % 64);
                    let shard = kvstore::shard_of_key(&key, SHARDS);
                    if in_flight[shard as usize] >= per_shard_window {
                        blocked = true;
                        break;
                    }
                    value_counter += 1;
                    if cls == 1 {
                        // A quarter of the CAS ops carry a deliberately
                        // stale expectation and must lose.
                        let cur = model.get(&key).copied();
                        let stale = counts[1] % 4 == 0;
                        let expect = if stale {
                            Some(cur.unwrap_or(0) + 1_000_000)
                        } else {
                            cur
                        };
                        let (s, seq) = pipe.submit(KvOp::Cas {
                            key: key.clone(),
                            expect,
                            set: Some(value_counter),
                        });
                        if !stale {
                            model.insert(key, value_counter);
                        }
                        cas_expect.insert((s, seq), !stale);
                        (s, seq)
                    } else {
                        model.insert(key.clone(), value_counter);
                        pipe.submit(KvOp::Put {
                            key,
                            value: value_counter,
                        })
                    }
                };
                counts[cls] += 1;
                in_flight[shard as usize] += 1;
                starts.insert((shard, token), (Instant::now(), cls));
                submitted += 1;
            }
            for (shard, r) in pipe.pump().expect("txn-mix pump") {
                assert!(
                    seen.insert((shard, r.seq)),
                    "token {} on shard {shard} completed twice",
                    r.seq
                );
                in_flight[shard as usize] -= 1;
                if let Some((t0, cls)) = starts.remove(&(shard, r.seq)) {
                    lat[cls].push(t0.elapsed().as_secs_f64() * 1e6);
                }
                if let Some(expect_applied) = cas_expect.remove(&(shard, r.seq)) {
                    if r.applied != expect_applied {
                        cas_verdicts_ok = false;
                    }
                    if !r.applied {
                        cas_conflicts += 1;
                    }
                }
                if let Some((from, to, amount)) = txn_info.remove(&(shard, r.seq)) {
                    txn_in_flight -= 1;
                    if r.applied {
                        committed_total += 1;
                        expected_bal[from] -= amount;
                        expected_bal[to] += amount;
                    } else {
                        aborted_total += 1;
                    }
                }
            }
            if blocked || submitted >= ops {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cpu_cores_busy = (process_cpu_seconds() - cpu0) / elapsed;
        for l in &mut lat {
            l.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }
        let retries = pipe.retries_seen() - retries_before;
        let point = MixPoint {
            window: per_shard_window,
            ops,
            puts: counts[0],
            cas_ops: counts[1],
            transfers: counts[2],
            elapsed,
            ops_sec: ops as f64 / elapsed,
            put_p50: percentile(&lat[0], 0.50),
            put_p99: percentile(&lat[0], 0.99),
            cas_p50: percentile(&lat[1], 0.50),
            cas_p99: percentile(&lat[1], 0.99),
            txn_p50: percentile(&lat[2], 0.50),
            txn_p99: percentile(&lat[2], 0.99),
            retries,
            cpu_cores_busy,
        };
        println!(
            "  window={:<5} {:>8.0} ops/sec  put p50 {:>6.0}us  cas p50 {:>6.0}us  2pc p50 {:>7.0}us p99 {:>8.0}us  ({} retries, {:.2} cores busy)",
            point.window,
            point.ops_sec,
            point.put_p50,
            point.cas_p50,
            point.txn_p50,
            point.txn_p99,
            point.retries,
            point.cpu_cores_busy
        );
        if best.as_ref().is_none_or(|b| point.ops_sec > b.ops_sec) {
            best = Some(point);
        }
    }
    assert!(
        pipe.take_cross_shard_rejections().is_empty(),
        "no workload op may span shards at the gateway"
    );
    assert!(committed_total > 0, "some transfers must commit");
    assert!(
        aborted_total > 0,
        "the guaranteed-abort transfers must abort"
    );
    assert!(cas_verdicts_ok, "every CAS verdict must match the model");

    // Linearizable read-back of every key through a routing-oblivious
    // client, plus the conservation audit: committed deltas commute, so
    // each account must hold exactly its expected balance and the bank's
    // total must still be ACCOUNTS * OPENING.
    let mut audit = KvClient::new(0x9AD17, client_addrs.clone());
    for (k, v) in &model {
        assert_eq!(
            audit.read(k).expect("audit read"),
            Some(*v),
            "linearizable audit of {k}"
        );
    }
    // A transfer's outcome is reported the moment its decision record is
    // durable, but the participant-side commit records that move the
    // money may still be applying — poll until the balances settle.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut total, mut settled) = (0i64, false);
    while !settled {
        total = 0;
        settled = true;
        for (i, a) in accounts.iter().enumerate() {
            let bal = audit
                .read(a)
                .expect("balance read")
                .expect("account exists");
            if bal != expected_bal[i] {
                settled = false;
            }
            total += bal;
        }
        if settled || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if !settled {
        let actual: Vec<i64> = accounts
            .iter()
            .map(|a| audit.read(a).unwrap().unwrap())
            .collect();
        panic!(
            "accounts never settled to the committed-transfer balances:\n\
             expected {expected_bal:?}\n\
             actual   {actual:?}"
        );
    }
    let conserved = total == ACCOUNTS as i64 * OPENING;
    assert!(conserved, "total balance drifted: {total}");
    audit.put("sentinel", 1).expect("sentinel");
    std::thread::sleep(Duration::from_millis(500));

    stop.store(true, Ordering::SeqCst);
    let servers: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node"))
        .collect();
    for s in 0..SHARDS as u32 {
        let sm0 = servers[0].node().shard(s).state_machine();
        assert!(
            servers[1..]
                .iter()
                .all(|sv| sv.node().shard(s).state_machine() == sm0),
            "shard {s} replicas must converge"
        );
    }

    let best = best.expect("at least one window");
    println!(
        "  peak {:>8.0} ops/sec at window {}/shard  ({} committed / {} aborted transfers, {} cas conflicts)",
        best.ops_sec, best.window, committed_total, aborted_total, cas_conflicts
    );

    let out = format!(
        "{{\n  \"bench\": \"net-txn-mix\",\n  \"quick\": {quick},\n  \"replicas\": 3,\n  \"shards\": {SHARDS},\n  \"accounts\": {ACCOUNTS},\n  \"opening_balance\": {OPENING},\n  \"mix\": {{\n    \"put\": 0.80,\n    \"cas\": 0.15,\n    \"transfer\": 0.05\n  }},\n  \"windows_swept\": [{}],\n  \"host_effective_cores\": {effective_cores:.2},\n  \"best\": {{\n    \"per_shard_window\": {},\n    \"ops\": {},\n    \"puts\": {},\n    \"cas_ops\": {},\n    \"transfers\": {},\n    \"elapsed_s\": {:.3},\n    \"ops_per_sec\": {},\n    \"put_p50_us\": {},\n    \"put_p99_us\": {},\n    \"cas_p50_us\": {},\n    \"cas_p99_us\": {},\n    \"txn_p50_us\": {},\n    \"txn_p99_us\": {},\n    \"retries\": {},\n    \"cpu_cores_busy\": {:.2}\n  }},\n  \"transfers_committed\": {committed_total},\n  \"transfers_aborted\": {aborted_total},\n  \"cas_conflicts\": {cas_conflicts},\n  \"checks\": {{\n    \"completions_exactly_once\": 1,\n    \"cas_verdicts_match_model\": {},\n    \"transfer_balances_conserved\": {},\n    \"final_reads_linearizable\": 1,\n    \"per_shard_replicas_converged\": 1,\n    \"no_cross_shard_rejections\": 1\n  }}\n}}\n",
        windows
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        best.window,
        best.ops,
        best.puts,
        best.cas_ops,
        best.transfers,
        best.elapsed,
        json_num(best.ops_sec),
        json_num(best.put_p50),
        json_num(best.put_p99),
        json_num(best.cas_p50),
        json_num(best.cas_p99),
        json_num(best.txn_p50),
        json_num(best.txn_p99),
        best.retries,
        best.cpu_cores_busy,
        cas_verdicts_ok as u8,
        conserved as u8,
    );
    std::fs::write("BENCH_PR9.json", &out).expect("write BENCH_PR9.json");
    print!("{out}");
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// `--catchup`: snapshot-first catch-up vs full-log replay, written to
/// `BENCH_PR2.json`. Separate from the default run so the PR 1 numbers in
/// `BENCH_PR1.json` stay reproducible with the same invocation.
fn run_catchup(quick: bool) {
    let size: u64 = if quick { 20_000 } else { 100_000 };
    let reps = if quick { 1 } else { 5 };
    let best = |label: &str, runs: &mut dyn FnMut() -> (f64, f64)| -> (f64, f64) {
        let mut best = (f64::INFINITY, 0.0);
        for i in 0..reps {
            let (s, eps) = runs();
            println!("  {label} run {i}: {:.3}ms  {eps:.0} entries/sec", s * 1e3);
            if s < best.0 {
                best = (s, eps);
            }
        }
        best
    };

    println!("hotpath: catchup via full log replay ({size} entries, 3 servers)");
    let (replay_s, replay_eps) = best("replay", &mut || bench_catchup(size, false));
    println!("hotpath: catchup snapshot-first (trimmed {size}-entry log)");
    let (snap_s, snap_eps) = best("snapshot", &mut || bench_catchup(size, true));

    let speedup = replay_s / snap_s;
    let out = format!(
        "{{\n  \"bench\": \"catchup\",\n  \"quick\": {quick},\n  \"log_entries\": {size},\n  \"full_log_replay\": {{\n    \"elapsed_s\": {replay_s:.6},\n    \"entries_per_sec\": {}\n  }},\n  \"snapshot_first\": {{\n    \"elapsed_s\": {snap_s:.6},\n    \"entries_per_sec\": {},\n    \"snapshot_bytes\": 16,\n    \"tail_entries\": 0\n  }},\n  \"speedup\": {speedup:.2}\n}}\n",
        json_num(replay_eps),
        json_num(snap_eps),
    );
    std::fs::write("BENCH_PR2.json", &out).expect("write BENCH_PR2.json");
    print!("{out}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--catchup") {
        run_catchup(quick);
        return;
    }
    if args.iter().any(|a| a == "--reads") {
        run_net_read_modes(quick);
        return;
    }
    if args.iter().any(|a| a == "--txn-mix") {
        run_net_txn_mix(quick);
        return;
    }
    if args.iter().any(|a| a == "--net-loopback") {
        if args.iter().any(|a| a == "--shards") {
            run_net_sharded(quick);
        } else {
            run_net_loopback(quick);
        }
        return;
    }
    let baseline: Option<(f64, f64)> = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| {
            let (a, b) = s.split_once(',')?;
            Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
        });

    let (repl_total, repl_batch) = if quick {
        (100_000, 4_096)
    } else {
        (2_000_000, 4_096)
    };
    let mig_size: u64 = if quick { 500_000 } else { 5_000_000 };
    let reps = if quick { 1 } else { 5 };

    // Best-of-N: the machine hosting the benchmark may be noisy; the
    // fastest run is the least-perturbed measurement of the code itself.
    let best = |label: &str, runs: &mut dyn FnMut() -> (f64, f64)| -> (f64, f64) {
        let mut best = (f64::INFINITY, 0.0);
        for i in 0..reps {
            let (s, eps) = runs();
            println!("  {label} run {i}: {s:.3}s  {eps:.0} entries/sec");
            if s < best.0 {
                best = (s, eps);
            }
        }
        best
    };

    println!("hotpath: replication ({repl_total} entries, 5 servers, batch {repl_batch})");
    let (repl_s, repl_eps) = best("replication", &mut || {
        bench_replication(repl_total, repl_batch)
    });

    println!("hotpath: migration ({mig_size} entries, replace-majority, 3 joiners)");
    let (mig_s, mig_eps) = best("migration", &mut || bench_migration(mig_size));

    let (speedup_repl, speedup_mig) = match baseline {
        Some((br, bm)) => (repl_eps / br, mig_eps / bm),
        None => (f64::NAN, f64::NAN),
    };
    let (base_repl, base_mig) = baseline.unwrap_or((f64::NAN, f64::NAN));
    let out = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"quick\": {quick},\n  \"replication_5servers\": {{\n    \"entries\": {repl_total},\n    \"elapsed_s\": {repl_s:.3},\n    \"entries_per_sec\": {},\n    \"baseline_entries_per_sec\": {},\n    \"speedup\": {}\n  }},\n  \"migration_replace_majority\": {{\n    \"log_entries\": {mig_size},\n    \"joiners\": 3,\n    \"donors\": 5,\n    \"elapsed_s\": {mig_s:.3},\n    \"entries_per_sec\": {},\n    \"baseline_entries_per_sec\": {},\n    \"speedup\": {}\n  }}\n}}\n",
        json_num(repl_eps),
        json_num(base_repl),
        if speedup_repl.is_finite() { format!("{speedup_repl:.2}") } else { "null".into() },
        json_num(mig_eps),
        json_num(base_mig),
        if speedup_mig.is_finite() { format!("{speedup_mig:.2}") } else { "null".into() },
    );
    std::fs::write("BENCH_PR1.json", &out).expect("write BENCH_PR1.json");
    print!("{out}");
}

/// Whole-process CPU seconds (utime + stime) from `/proc/self/stat`, for
/// the per-point saturation evidence in the sharded sweep. Returns 0 on
/// non-Linux hosts, which simply records `cpu_cores_busy: 0.00`.
fn process_cpu_seconds() -> f64 {
    let st = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime/stime are the 2nd and 3rd fields after the parenthesized comm
    // (which may itself contain spaces), counting from state.
    let rest = &st[st.rfind(')').map(|i| i + 2).unwrap_or(0)..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0)
        + f.get(12).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    ticks / 100.0 // USER_HZ
}

/// How many cores of fixed CPU work this process can actually run in
/// parallel — `nproc` lies under cgroup quotas, so measure: the same
/// spin-work once on one thread and once on four, compared by wall time.
/// A host pinned to one core returns ~1.0 no matter what `nproc` says.
fn measure_effective_cores() -> f64 {
    const WORK: u64 = 200_000_000;
    fn burn() -> u64 {
        let mut x = 1u64;
        for _ in 0..WORK {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        x
    }
    let t0 = Instant::now();
    std::hint::black_box(burn());
    let serial = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let hs: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(|| std::hint::black_box(burn())))
        .collect();
    for h in hs {
        let _ = h.join();
    }
    let parallel = t0.elapsed().as_secs_f64();
    (4.0 * serial / parallel.max(1e-9)).clamp(0.0, 4.0)
}
