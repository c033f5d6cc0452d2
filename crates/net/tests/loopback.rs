//! Loopback deployment harness: real kv clusters on 127.0.0.1.
//!
//! These are the ISSUE-level acceptance tests for the TCP transport: a
//! 3-node cluster boots over real sockets, serves client traffic, has
//! the leader's transport killed out from under it, recovers, and still
//! answers linearizable reads; a 4th node then joins a separate cluster
//! by live reconfiguration. Everything binds ephemeral ports, so the
//! tests are safe to run in parallel with anything.

use kvstore::{shard_config, KvCommand, KvNode, KvOp, NodeId, ReadMode, ShardedKvNode};
use net::client::READ_FLAG;
use net::server::{ClientGateway, KvServer, ServerHandle};
use net::tcp::{TcpConfig, TcpTransport};
use net::{fetch_shards, KvClient, NetworkLink, PipelinedKvClient, ShardedKvClient};
use omnipaxos::service::ServerConfig;
use omnipaxos::ServiceMsg;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Transport = TcpTransport<ServiceMsg<KvCommand>>;
type Server = KvServer<Transport>;

/// One server inside `KvServer::run` on its own thread — the deployed
/// loop, not a copy of it. Tests look at and interfere with the server
/// through its [`ServerHandle`].
struct Node {
    pid: NodeId,
    handle: ServerHandle<Transport>,
    thread: JoinHandle<Server>,
    client_addr: SocketAddr,
}

impl Node {
    /// Run `f` on the server's thread.
    fn ask<R: Send + 'static>(&self, f: impl FnOnce(&mut Server) -> R + Send + 'static) -> R {
        self.handle.call(f).expect("server loop is running")
    }

    fn is_leader(&self) -> bool {
        self.ask(|s| s.node().is_leader(0))
    }

    /// Value of the "sentinel" key in the node's applied state — the
    /// convergence probe.
    fn sentinel(&self) -> Option<i64> {
        self.ask(|s| s.node().read_local("sentinel"))
    }

    /// Tear the transport out from under the replica: it stays up but
    /// mute until `restart_transport`.
    fn kill_transport(&self) {
        self.ask(|s| drop(s.kill_transport()));
    }

    /// Rebind the killed transport (same pid, same address — AddrInUse is
    /// retried inside bind). Sessions come back with higher numbers and
    /// the node re-syncs via PrepareReq.
    fn restart_transport(&self, repl_addrs: &HashMap<NodeId, SocketAddr>) {
        let t = Transport::bind(self.pid, repl_addrs.clone(), tcp_cfg()).unwrap();
        self.ask(|s| s.set_transport(t));
    }
}

/// The wake-loop tests judge latencies and cycle counts, which a dozen
/// other clusters on the same two cores would decide for them. Every
/// cluster holds this lock for its lifetime: shared, or — `Opts::alone` —
/// exclusively, so those tests have the machine to themselves.
static MACHINE: RwLock<()> = RwLock::new(());

#[allow(dead_code)] // held, never read
enum MachineShare {
    Shared(RwLockReadGuard<'static, ()>),
    Alone(RwLockWriteGuard<'static, ()>),
}

struct Cluster {
    nodes: Vec<Node>,
    stop: Arc<AtomicBool>,
    repl_addrs: HashMap<NodeId, SocketAddr>,
    _machine: MachineShare,
}

fn tcp_cfg() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_timeout: Duration::from_millis(300),
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(500),
        ..TcpConfig::default()
    }
}

/// Everything about a cluster boot beyond its initial members.
struct Opts {
    /// Idle servers outside the initial configuration.
    joiners: Vec<NodeId>,
    /// Per-server `max_pending` override (small values force overload
    /// shedding under pipelined load).
    max_pending: Option<usize>,
    /// Omni-Paxos groups per server, over its one replication transport.
    shards: usize,
    /// Leader-lease length in ticks; 0 disables leases. 40 ticks of 3 ms
    /// ≈ 120 ms of lease per heartbeat round — comfortably renewable at
    /// the 25 ms heartbeat interval.
    lease_ticks: u64,
    tick_every: Duration,
    /// Run while no other test's cluster does.
    alone: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            joiners: Vec::new(),
            max_pending: None,
            shards: 1,
            lease_ticks: 0,
            tick_every: Duration::from_millis(3),
            alone: false,
        }
    }
}

impl Cluster {
    /// Boot `members` as the initial configuration, one shard, defaults.
    fn boot(members: &[NodeId]) -> Cluster {
        Cluster::boot_opts(members, Opts::default())
    }

    /// Boot a sharded cluster.
    fn boot_sharded(members: &[NodeId], shards: usize) -> Cluster {
        Cluster::boot_opts(
            members,
            Opts {
                shards,
                ..Opts::default()
            },
        )
    }

    /// All replication and client ports are ephemeral.
    fn boot_opts(members: &[NodeId], opts: Opts) -> Cluster {
        let Opts {
            joiners,
            max_pending,
            shards,
            lease_ticks,
            tick_every,
            alone,
        } = opts;
        // A failed test poisons the lock; the others still run.
        let machine = if alone {
            MachineShare::Alone(MACHINE.write().unwrap_or_else(|e| e.into_inner()))
        } else {
            MachineShare::Shared(MACHINE.read().unwrap_or_else(|e| e.into_inner()))
        };
        let all: Vec<NodeId> = members.iter().chain(&joiners).copied().collect();
        let mut listeners = HashMap::new();
        let mut repl_addrs = HashMap::new();
        for &pid in &all {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            repl_addrs.insert(pid, l.local_addr().unwrap());
            listeners.insert(pid, l);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut nodes = Vec::new();
        for &pid in &all {
            let node = if lease_ticks > 0 {
                // Lease-enabled boot mirrors the server binary: one base
                // config carries the cluster-wide lease contract, shard
                // configs spread leadership preferences across pids.
                let mut base = ServerConfig::with(pid);
                base.lease_ticks = lease_ticks;
                base.lease_epsilon_ticks = (lease_ticks / 10).max(1);
                if members.contains(&pid) {
                    ShardedKvNode::from_shards(
                        (0..shards as u32)
                            .map(|s| {
                                KvNode::with_config(
                                    shard_config(&base, s, members),
                                    members.to_vec(),
                                )
                            })
                            .collect(),
                    )
                } else {
                    ShardedKvNode::from_shards(
                        (0..shards)
                            .map(|_| KvNode::joiner_with_config(base.clone()))
                            .collect(),
                    )
                }
            } else if members.contains(&pid) {
                ShardedKvNode::new(pid, members.to_vec(), shards)
            } else {
                ShardedKvNode::joiner(pid, shards)
            };
            let transport = Transport::with_listener(
                pid,
                listeners.remove(&pid).unwrap(),
                repl_addrs.clone(),
                tcp_cfg(),
            )
            .unwrap();
            let gateway = ClientGateway::bind(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
            let client_addr = gateway.local_addr();
            let mut server = KvServer::new_sharded(node, transport).with_gateway(gateway);
            if let Some(mp) = max_pending {
                server = server.with_max_pending(mp);
            }
            let handle = server.handle();
            let stop = Arc::clone(&stop);
            let thread = std::thread::Builder::new()
                .name(format!("kv-node-{pid}"))
                .spawn(move || server.run(tick_every, stop))
                .unwrap();
            nodes.push(Node {
                pid,
                handle,
                thread,
                client_addr,
            });
        }
        Cluster {
            nodes,
            stop,
            repl_addrs,
            _machine: machine,
        }
    }

    fn client_addrs(&self) -> Vec<(NodeId, SocketAddr)> {
        self.nodes.iter().map(|n| (n.pid, n.client_addr)).collect()
    }

    fn wait_for_leader(&self) -> NodeId {
        self.wait_for_leader_except(0)
    }

    /// Wait until some node other than `not` leads shard 0.
    fn wait_for_leader_except(&self, not: NodeId) -> NodeId {
        wait(Duration::from_secs(10), "a leader", || {
            self.nodes
                .iter()
                .find(|n| n.pid != not && n.is_leader())
                .map(|n| n.pid)
        })
    }

    /// Wait until every replica's applied state has `sentinel == value`.
    fn wait_for_sentinel(&self, value: i64) {
        wait(Duration::from_secs(15), "sentinel on all replicas", || {
            self.nodes
                .iter()
                .all(|n| n.sentinel() == Some(value))
                .then_some(())
        });
    }

    fn node(&self, pid: NodeId) -> &Node {
        self.nodes.iter().find(|n| n.pid == pid).unwrap()
    }

    fn shutdown(self) -> Vec<(NodeId, Server)> {
        self.stop.store(true, Ordering::SeqCst);
        self.nodes
            .into_iter()
            .map(|n| (n.pid, n.thread.join().expect("node thread")))
            .collect()
    }
}

/// Push `ops` puts through a pipelined client, keeping up to `window` in
/// flight, and assert every seq completes exactly once. Out-of-order
/// completion is fine; per-key order is still submission order because
/// the server admits each client's seqs contiguously.
fn pipelined_puts(
    pipe: &mut PipelinedKvClient,
    ops: u64,
    window: usize,
    mut key_of: impl FnMut(u64) -> String,
    mut val_of: impl FnMut(u64) -> i64,
) {
    let mut seqs = HashSet::new();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while completed < ops {
        assert!(
            Instant::now() < deadline,
            "pipelined workload stalled at {completed}/{ops}"
        );
        while submitted < ops && pipe.in_flight() < window {
            pipe.submit(KvOp::Put {
                key: key_of(submitted),
                value: val_of(submitted),
            });
            submitted += 1;
        }
        for r in pipe
            .wait(Duration::from_millis(100))
            .expect("pipelined put")
        {
            assert!(seqs.insert(r.seq), "seq {} completed twice", r.seq);
            completed += 1;
        }
    }
}

fn wait<T>(timeout: Duration, what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn three_node_cluster_survives_leader_transport_kill() {
    let cluster = Cluster::boot(&[1, 2, 3]);
    let mut pipe = PipelinedKvClient::new(0xC11E47, cluster.client_addrs());
    let mut client = KvClient::new(0xC11E4A, cluster.client_addrs());

    // Phase 1: normal traffic, open loop — many puts in flight at once.
    let ops: u64 = if std::env::var("NET_SMOKE_OPS").is_ok() {
        std::env::var("NET_SMOKE_OPS").unwrap().parse().unwrap()
    } else {
        200
    };
    pipelined_puts(
        &mut pipe,
        ops,
        128,
        |i| format!("k{}", i % 50),
        |i| i as i64,
    );
    let leader = cluster.wait_for_leader();

    // Phase 2: kill the leader's transport. The replica stays up but
    // mute; the others detect the dead sessions and elect around it.
    cluster.node(leader).kill_transport();
    cluster.wait_for_leader_except(leader);

    // Traffic continues against the surviving majority — still
    // pipelined, so redirects and reconnects hit a full window.
    pipelined_puts(&mut pipe, 50, 32, |i| format!("k{i}"), |i| (ops + i) as i64);

    // Phase 3: restart the killed transport.
    cluster.node(leader).restart_transport(&cluster.repl_addrs);

    // Phase 4: linearizable reads see the latest values.
    for i in 0..50u64 {
        let v = client.read(&format!("k{i}")).expect("linearizable read");
        assert_eq!(v, Some((ops + i) as i64), "k{i} after recovery");
    }

    // Convergence: a sentinel write must reach every replica's applied
    // state — including the one whose transport was killed.
    client.put("sentinel", 42).expect("sentinel");
    cluster.wait_for_sentinel(42);

    let servers = cluster.shutdown();
    let states: Vec<_> = servers
        .iter()
        .map(|(pid, s)| (*pid, s.node().shard(0).state_machine().state().clone()))
        .collect();
    for w in states.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "replica states diverged: {} vs {}",
            w[0].0, w[1].0
        );
    }
    // The restarted node observed new sessions and asked for re-sync.
    let killed = servers.iter().find(|(pid, _)| *pid == leader).unwrap();
    assert!(
        killed.1.reconnects_seen() > 0,
        "restarted node must see SessionEstablished events"
    );
}

/// Lost wake-up: with a 100 ms tick, a wake that goes missing anywhere on
/// the path (client request → leader, AcceptDecide → follower, Accepted →
/// leader) strands that op until the next tick, so it shows as a ≥ 50 ms
/// outlier. Closed-loop puts take all three hops, one at a time, with
/// every server asleep in between.
#[test]
fn no_wakeup_is_lost_between_sparse_ticks() {
    let cluster = Cluster::boot_opts(
        &[1, 2, 3],
        Opts {
            tick_every: Duration::from_millis(100),
            alone: true,
            ..Opts::default()
        },
    );
    wait(Duration::from_secs(30), "a leader at 100 ms ticks", || {
        cluster.nodes.iter().any(Node::is_leader).then_some(())
    });
    let mut pipe = PipelinedKvClient::new(0xC11E70, cluster.client_addrs());
    // Ride out redirects to the leader before measuring.
    pipelined_puts(&mut pipe, 20, 1, |i| format!("w{i}"), |i| i as i64);

    let paced = |c: &Cluster| -> Vec<u64> {
        let nodes = c.nodes.iter();
        nodes.map(|n| n.ask(|s| s.loop_stats().paced)).collect()
    };
    let paced_before = paced(&cluster);
    let mut slow = 0;
    for i in 0..5_000i64 {
        let t0 = Instant::now();
        pipe.submit(KvOp::Put {
            key: format!("w{}", i % 64),
            value: i,
        });
        while pipe.in_flight() > 0 {
            pipe.wait(Duration::from_secs(5)).expect("window-1 put");
        }
        if t0.elapsed() >= Duration::from_millis(50) {
            slow += 1;
        }
    }
    assert!(
        slow <= 2,
        "{slow} of 5000 window-1 puts took ≥ 50 ms: wake-ups are being lost"
    );
    // Burst pacing spaces out windows, never lone ops.
    assert_eq!(paced(&cluster), paced_before, "a window-1 op was paced");
    pipelined_puts(
        &mut pipe,
        2_000,
        128,
        |i| format!("w{}", i % 64),
        |i| i as i64,
    );
    assert!(
        paced(&cluster).iter().sum::<u64>() > paced_before.iter().sum::<u64>(),
        "128-op windows were not paced"
    );
    cluster.shutdown();
}

/// Busy spin: an idle cluster's loops run because something happened — a
/// tick came due or a message arrived — not continuously. Each such event
/// costs at most the cycle that handles it plus the empty cycle that
/// precedes going back to sleep.
#[test]
fn idle_cluster_does_not_spin() {
    let cluster = Cluster::boot_opts(
        &[1, 2, 3],
        Opts {
            alone: true,
            ..Opts::default()
        },
    );
    cluster.wait_for_leader();
    let sample = |n: &Node| {
        n.ask(|s| {
            let events = s.link().map_or(0, |l| l.counters().msgs_received);
            (s.loop_stats(), events)
        })
    };
    let started = Instant::now();
    let before: Vec<_> = cluster.nodes.iter().map(sample).collect();
    std::thread::sleep(Duration::from_secs(1));
    for (n, (s0, e0)) in cluster.nodes.iter().zip(before) {
        let (s1, e1) = sample(n);
        let pumps = s1.pumps - s0.pumps;
        let ticks = s1.ticks - s0.ticks;
        let events = e1 - e0;
        // Never early; late only as far as a busy host makes it.
        let most = started.elapsed().as_millis() as u64 / 3 + 1;
        assert!(
            (100..=most).contains(&ticks),
            "node {}: {ticks} ticks of 3 ms in {:?}",
            n.pid,
            started.elapsed()
        );
        assert!(
            pumps <= 2 * (ticks + events) + 10,
            "node {}: {pumps} pump cycles for {ticks} ticks + {events} link events",
            n.pid
        );
        assert!(
            2 * (s1.parks - s0.parks) >= ticks,
            "node {}: an idle loop sleeps between ticks ({:?} -> {:?})",
            n.pid,
            s0,
            s1
        );
    }
    cluster.shutdown();
}

/// Kill-and-restart nemesis: repeated rounds of taking down the current
/// leader — transport torn out AND the replica crash-recovered from its
/// persistent state, modeling a full process restart — while a client
/// keeps writing. Every round the restarted node must re-join via fresh
/// sessions (PrepareReq re-sync) and the cluster must converge before
/// the nemesis strikes again.
#[test]
fn kill_and_restart_nemesis_keeps_the_cluster_consistent() {
    let cluster = Cluster::boot(&[1, 2, 3]);
    let mut pipe = PipelinedKvClient::new(0xC11E49, cluster.client_addrs());
    let mut client = KvClient::new(0xC11E4B, cluster.client_addrs());

    pipelined_puts(&mut pipe, 40, 16, |i| format!("n{}", i % 10), |i| i as i64);

    let rounds = 3u64;
    let mut last = [0i64; 10];
    for round in 1..=rounds {
        let victim = cluster.wait_for_leader();

        // Process restart: the transport dies with its sessions, and the
        // replica rebuilds volatile protocol state from storage.
        cluster.node(victim).kill_transport();
        cluster.node(victim).ask(|s| s.node_mut().fail_recovery());

        // The survivors elect around the dead node.
        cluster.wait_for_leader_except(victim);

        // Traffic continues against the surviving majority, with a full
        // pipeline window in flight across the leader change.
        pipelined_puts(
            &mut pipe,
            30,
            16,
            |i| format!("n{}", i % 10),
            |i| (round * 1000 + i) as i64,
        );
        for i in 0..30u64 {
            last[(i % 10) as usize] = (round * 1000 + i) as i64;
        }

        cluster.node(victim).restart_transport(&cluster.repl_addrs);

        // Full convergence — including the restarted node — before the
        // nemesis picks its next victim.
        client.put("sentinel", round as i64).expect("sentinel");
        cluster.wait_for_sentinel(round as i64);
    }

    // Linearizable reads see the last round's writes.
    for (i, &v) in last.iter().enumerate() {
        let got = client.read(&format!("n{i}")).expect("read after nemesis");
        assert_eq!(got, Some(v), "n{i} after {rounds} nemesis rounds");
    }

    let servers = cluster.shutdown();
    let states: Vec<_> = servers
        .iter()
        .map(|(pid, s)| (*pid, s.node().shard(0).state_machine().state().clone()))
        .collect();
    for w in states.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "replica states diverged: {} vs {}",
            w[0].0, w[1].0
        );
    }
    // Every round produced real session churn and re-syncs somewhere.
    let total_reconnects: u64 = servers.iter().map(|(_, s)| s.reconnects_seen()).sum();
    assert!(
        total_reconnects >= rounds,
        "nemesis rounds must churn sessions (saw {total_reconnects})"
    );
}

/// Overload: a pipelined client whose in-flight window dwarfs the
/// server's `max_pending` bound. Excess ops are shed with `Retry` (never
/// silently dropped, never reordered past an admitted sibling — the
/// contiguous-admission rule), every op eventually completes exactly
/// once, and per-key final values match submission order.
#[test]
fn pipelined_overload_sheds_excess_but_completes_everything() {
    let cluster = Cluster::boot_opts(
        &[1, 2, 3],
        Opts {
            max_pending: Some(64),
            ..Opts::default()
        },
    );
    cluster.wait_for_leader();

    let mut pipe = PipelinedKvClient::new(0xC11E51, cluster.client_addrs());
    let total = 1500u64;
    let keys = 16u64;
    let mut expected: HashMap<String, i64> = HashMap::new();
    for i in 0..total {
        let key = format!("o{}", i % keys);
        pipe.submit(KvOp::Put {
            key: key.clone(),
            value: i as i64,
        });
        expected.insert(key, i as i64);
    }
    assert_eq!(pipe.in_flight() as u64, total);

    let mut seqs = HashSet::new();
    for r in pipe
        .drain(Duration::from_secs(60))
        .expect("drain under overload")
    {
        assert!(seqs.insert(r.seq), "seq {} completed twice", r.seq);
    }
    assert_eq!(seqs.len() as u64, total, "every op must complete");
    assert!(
        pipe.retries_seen() > 0,
        "a {total}-deep window over max_pending=64 must be shed with Retry"
    );

    // Per-key order held: the final value of each key is its last
    // submitted write, despite shedding and retransmission.
    let mut reader = KvClient::new(0xC11E52, cluster.client_addrs());
    for (k, v) in &expected {
        assert_eq!(
            reader.read(k).expect("read"),
            Some(*v),
            "final value of {k}"
        );
    }

    // Convergence barrier: once every replica applied the sentinel, the
    // whole log prefix (all ops and reads above) is applied everywhere,
    // so the state snapshots below are race-free.
    reader.put("sentinel", 7).expect("sentinel");
    cluster.wait_for_sentinel(7);

    let servers = cluster.shutdown();
    let sheds: u64 = servers.iter().map(|(_, s)| s.shed_requests()).sum();
    assert!(sheds > 0, "servers must have shed requests");
    // Replicas agree on both the kv state and the session tables (the
    // dedup invariant under windowed seqs).
    let states: Vec<_> = servers
        .iter()
        .map(|(pid, s)| {
            (
                *pid,
                s.node().shard(0).state_machine().state().clone(),
                s.node().shard(0).state_machine().sessions().clone(),
            )
        })
        .collect();
    for w in states.windows(2) {
        assert_eq!(
            (&w[0].1, &w[0].2),
            (&w[1].1, &w[1].2),
            "replica state/sessions diverged: {} vs {}",
            w[0].0,
            w[1].0
        );
    }
    // The session table records exactly the client's highest seq.
    for (_, _, sessions) in &states {
        assert_eq!(
            sessions.get(&0xC11E51).map(|e| e.seq),
            Some(pipe.last_seq())
        );
    }
}

/// Regression (stall handling): a gateway that keeps *answering* — even
/// if every answer is `Retry` for a while — must not be abandoned by the
/// rotation timer. Rotating away from a live-but-shedding server drops
/// the connection and retransmits the whole window elsewhere, turning an
/// overload blip into a stampede. The stall timer must reset on any
/// inbound frame, not only on completions.
#[test]
fn slow_but_live_gateway_is_not_abandoned() {
    use net::frame::{self, kind};
    use omnipaxos::wire::Wire;

    // A fake gateway: decodes requests, answers `Retry` for the first
    // `shed_for`, then applies everything (echo replies). A second
    // listener that accepts but never answers plays the "mute server"
    // a rotation would land on.
    let live = TcpListener::bind("127.0.0.1:0").unwrap();
    let mute = TcpListener::bind("127.0.0.1:0").unwrap();
    let live_addr = live.local_addr().unwrap();
    let mute_addr = mute.local_addr().unwrap();
    let shed_for = Duration::from_millis(900);
    let t0 = Instant::now();
    std::thread::spawn(move || {
        for stream in live.incoming().flatten() {
            let t0 = t0;
            std::thread::spawn(move || {
                let mut r = &stream;
                while let Ok(f) = frame::read_frame(&mut r) {
                    if f.kind != kind::KV {
                        continue;
                    }
                    let Ok(kvstore::KvWire::Request(cmd)) = kvstore::KvWire::from_bytes(&f.payload)
                    else {
                        continue;
                    };
                    let reply = if t0.elapsed() < shed_for {
                        kvstore::KvWire::Retry { seq: cmd.seq }
                    } else {
                        kvstore::KvWire::Reply(kvstore::KvResult {
                            client: cmd.client,
                            seq: cmd.seq,
                            value: Some(1),
                            applied: true,
                        })
                    };
                    let mut w = &stream;
                    if frame::write_frame(&mut w, kind::KV, &reply.to_bytes()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in mute.incoming().flatten() {
            held.push(stream); // accept and go mute
        }
    });

    let mut pipe = PipelinedKvClient::new(0xC11E53, vec![(1, live_addr), (2, mute_addr)]);
    // Rotation threshold well inside the shed window: without the fix,
    // 300ms of Retry-only answers trip the stall timer and the client
    // rotates to the mute server mid-window.
    pipe.rotate_after = Duration::from_millis(300);
    pipe.retry_delay = Duration::from_millis(20);
    for i in 0..32u64 {
        pipe.submit(KvOp::Put {
            key: format!("s{i}"),
            value: i as i64,
        });
    }
    let done = pipe.drain(Duration::from_secs(20)).expect("drain");
    assert_eq!(done.len(), 32, "every op completes once shedding ends");
    assert!(
        pipe.retries_seen() > 0,
        "the shed window must actually have shed"
    );
    assert_eq!(
        pipe.rotations_seen(),
        0,
        "a live gateway answering Retry must not be abandoned"
    );
}

/// End-to-end sharded cluster: 4 Omni-Paxos groups over 3 replicas and
/// one transport each. The routing table converges (every shard gets a
/// leader), a sharded open-loop client completes everything exactly once
/// across shards, wrong-shard requests earn `ShardRedirect`, and every
/// replica converges per shard — session tables included, proving the
/// per-shard session isolation.
#[test]
fn sharded_cluster_routes_and_converges() {
    let shards = 4usize;
    let cluster = Cluster::boot_sharded(&[1, 2, 3], shards);

    // Routing converges: every shard elects and publishes a leader, and
    // leadership spreads over the replicas rather than funneling through
    // one node (priorities place shard s on node (s % 3) + 1; transient
    // single-owner tables right after boot are allowed to settle).
    wait(Duration::from_secs(20), "spread leaders per shard", || {
        let l = fetch_shards(&cluster.client_addrs(), Duration::from_millis(500)).ok()?;
        let distinct: HashSet<NodeId> = l.iter().copied().collect();
        (l.len() == shards && l.iter().all(|&p| p != 0) && distinct.len() >= 2).then_some(())
    });

    let mut sharded =
        ShardedKvClient::bootstrap(0xC11E54, cluster.client_addrs(), Duration::from_millis(500))
            .expect("bootstrap routing table");
    assert_eq!(sharded.n_shards(), shards);

    let total = 400u64;
    let mut expected: HashMap<String, i64> = HashMap::new();
    for i in 0..total {
        let key = format!("sk{}", i % 40);
        sharded.submit(KvOp::Put {
            key: key.clone(),
            value: i as i64,
        });
        expected.insert(key, i as i64);
    }
    let done = sharded
        .drain(Duration::from_secs(60))
        .expect("sharded drain");
    // Exactly-once per shard session: (shard, seq) never repeats.
    let mut seen: HashSet<(u32, u64)> = HashSet::new();
    for (s, r) in &done {
        assert!(seen.insert((*s, r.seq)), "shard {s} seq {} twice", r.seq);
    }
    assert_eq!(done.len() as u64, total, "every op completes");
    // The workload actually spanned several shards.
    let shards_hit: HashSet<u32> = done.iter().map(|(s, _)| *s).collect();
    assert!(
        shards_hit.len() >= 2,
        "40 keys over 4 shards must hit several shards"
    );

    // A routing-oblivious closed-loop client still works: wrong-shard
    // requests bounce via ShardRedirect until they land.
    let mut reader = KvClient::new(0xC11E55, cluster.client_addrs());
    for (k, v) in &expected {
        assert_eq!(
            reader.read(k).expect("read"),
            Some(*v),
            "final value of {k} via redirect-routing"
        );
    }

    // Convergence barrier, then per-shard replica agreement.
    reader.put("sentinel", 9).expect("sentinel");
    cluster.wait_for_sentinel(9);
    let servers = cluster.shutdown();
    for s in 0..shards as u32 {
        let states: Vec<_> = servers
            .iter()
            .map(|(pid, srv)| {
                (
                    *pid,
                    srv.node().shard(s).state_machine().state().clone(),
                    srv.node().shard(s).state_machine().sessions().clone(),
                )
            })
            .collect();
        for w in states.windows(2) {
            assert_eq!(
                (&w[0].1, &w[0].2),
                (&w[1].1, &w[1].2),
                "shard {s} diverged between {} and {}",
                w[0].0,
                w[1].0
            );
        }
        // Per-shard sessions: the sharded client's session appears only
        // on shards it wrote to, with that shard's own last seq.
        let wrote: u64 = done.iter().filter(|(sh, _)| *sh == s).count() as u64;
        let session = states[0].2.get(&0xC11E54).map(|e| e.seq);
        if wrote > 0 {
            assert_eq!(
                session,
                Some(wrote),
                "shard {s} session table carries its own seq space"
            );
        } else {
            assert_eq!(session, None, "shard {s} never saw this client");
        }
    }
}

#[test]
fn reconfiguration_brings_a_fourth_node_in_over_tcp() {
    let cluster = Cluster::boot_opts(
        &[1, 2, 3],
        Opts {
            joiners: vec![4],
            ..Opts::default()
        },
    );
    let mut client = KvClient::new(0xC11E48, cluster.client_addrs());

    for i in 0..60u64 {
        client.put(&format!("r{}", i % 20), i as i64).expect("put");
    }
    let leader = cluster.wait_for_leader();
    cluster.node(leader).ask(|s| {
        let _ = s.node_mut().reconfigure(0, vec![1, 2, 3, 4]);
    });

    // The new configuration (config_id 2) must activate everywhere,
    // including the joiner, which migrates the log over real sockets.
    wait(
        Duration::from_secs(15),
        "config 2 on all four nodes",
        || {
            cluster
                .nodes
                .iter()
                .all(|n| n.ask(|s| s.node().shard(0).server_ref().config_id()) >= 2)
                .then_some(())
        },
    );

    // Writes still apply in the new configuration, and the joiner
    // converges to the same state.
    client.put("sentinel", 42).expect("post-reconfig write");
    cluster.wait_for_sentinel(42);

    let servers = cluster.shutdown();
    let states: Vec<_> = servers
        .iter()
        .map(|(pid, s)| (*pid, s.node().shard(0).state_machine().state().clone()))
        .collect();
    for w in states.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "replica states diverged: {} vs {}",
            w[0].0, w[1].0
        );
    }
}

/// All three read modes answer correctly over real sockets: log reads
/// go through the log, leader-lease reads serve locally without log
/// growth, and read-index reads are answered by a follower out of its
/// own state machine (the pinned client is never given the leader's
/// address). Mixed open-loop traffic then interleaves pipelined lease
/// reads with puts and every submission completes exactly once.
#[test]
fn read_modes_answer_over_tcp() {
    let cluster = Cluster::boot_opts(
        &[1, 2, 3],
        Opts {
            lease_ticks: 40,
            ..Opts::default()
        },
    );
    let leader = cluster.wait_for_leader();
    let mut client = KvClient::new(901, cluster.client_addrs());
    client.put("sentinel", 7).expect("seed write");
    cluster.wait_for_sentinel(7);

    // Baseline: the read-through-log path.
    assert_eq!(
        client
            .read_with_mode("sentinel", ReadMode::Log)
            .expect("log read"),
        Some(7)
    );

    // Once the leader's lease assembles, lease reads serve locally. A
    // renewal race may downgrade the odd read to the log path, so allow
    // slack, but 16 reads must not have appended 16 read markers.
    wait(Duration::from_secs(10), "the leader's lease", || {
        cluster
            .node(leader)
            .ask(|s| s.node().lease_valid(0))
            .then_some(())
    });
    // Shard 0's decided log length — lets the test assert log-free.
    let decided = || {
        cluster
            .node(leader)
            .ask(|s| s.node().shard(0).server_ref().decided_len())
    };
    let log_before = decided();
    for _ in 0..16 {
        assert_eq!(
            client
                .read_with_mode("sentinel", ReadMode::Lease)
                .expect("lease read"),
            Some(7)
        );
    }
    let log_after = decided();
    assert!(
        log_after - log_before < 16,
        "lease reads grew the log: {log_before} -> {log_after}"
    );

    // Read-index serves at the follower itself — no redirect exists in
    // that path, so a client that only knows one follower still reads.
    let follower = cluster
        .nodes
        .iter()
        .map(|n| n.pid)
        .find(|&p| p != leader)
        .unwrap();
    let mut pinned = KvClient::new(902, vec![(follower, cluster.node(follower).client_addr)]);
    assert_eq!(
        pinned
            .read_with_mode("sentinel", ReadMode::ReadIndex)
            .expect("follower read-index"),
        Some(7)
    );

    // Pipelined lease reads interleaved with puts: reads live in their
    // own (READ_FLAG-tagged) identity space, so they must not disturb
    // the write session's contiguous admission. Seed the key through
    // the closed-loop client first — open-loop reads are concurrent
    // with the in-flight puts and may serve before any of them commit,
    // but a read must never run before a write that COMPLETED earlier.
    client.put("mixed", -1).expect("seed mixed key");
    let mut pipe = PipelinedKvClient::new(903, cluster.client_addrs());
    pipe.read_mode = ReadMode::Lease;
    let mut reads = HashSet::new();
    for i in 0..40i64 {
        pipe.submit(KvOp::Put {
            key: "mixed".into(),
            value: i,
        });
        reads.insert(pipe.submit_read("mixed"));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut writes_done = 0u64;
    while (!reads.is_empty() || writes_done < 40) && Instant::now() < deadline {
        for r in pipe
            .wait(Duration::from_millis(50))
            .expect("pipelined wait")
        {
            if r.seq & READ_FLAG != 0 {
                assert!(reads.remove(&r.seq), "duplicate or unknown read completion");
                assert!(r.applied, "read completions are always applied");
                assert!(r.value.is_some(), "mixed key was written before the read");
            } else {
                writes_done += 1;
            }
        }
    }
    assert!(
        reads.is_empty() && writes_done == 40,
        "mixed traffic incomplete: {} reads pending, {writes_done}/40 writes",
        reads.len()
    );

    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Transactions: CAS exactly-once, spanning-op rejection, cross-shard 2PC

/// A raw framed connection to a gateway — lets tests retransmit the
/// *same* `(client, seq)` byte-for-byte, on the same connection and on a
/// fresh one, which no well-behaved client wrapper would do voluntarily.
/// A leadership move mid-test redirects like any client would see; the
/// connection then follows it (the retransmit invariants under test are
/// connection-independent, so this only loses the same-socket flavor in
/// the rare run where an election lands mid-exchange).
struct RawConn {
    addrs: Vec<(NodeId, SocketAddr)>,
    current: usize,
    stream: std::net::TcpStream,
}

impl RawConn {
    fn connect(addrs: Vec<(NodeId, SocketAddr)>, at: NodeId) -> RawConn {
        let current = addrs.iter().position(|(p, _)| *p == at).unwrap_or(0);
        let stream = Self::dial(addrs[current].1);
        RawConn {
            addrs,
            current,
            stream,
        }
    }

    fn dial(addr: SocketAddr) -> std::net::TcpStream {
        let stream = std::net::TcpStream::connect(addr).expect("connect gateway");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// Send `msg` and read frames until a `Reply` for `seq` arrives,
    /// following redirects (reconnect + resend) if leadership moved.
    fn ask(&mut self, msg: &kvstore::KvWire, seq: u64) -> kvstore::KvResult {
        use omnipaxos::wire::Wire;
        let deadline = Instant::now() + Duration::from_secs(20);
        'resend: while Instant::now() < deadline {
            let mut w = &self.stream;
            net::frame::write_frame(&mut w, net::frame::kind::KV, &msg.to_bytes())
                .expect("send frame");
            let mut r = &self.stream;
            loop {
                if Instant::now() >= deadline {
                    break;
                }
                let f = net::frame::read_frame(&mut r).expect("read frame");
                if f.kind != net::frame::kind::KV {
                    continue;
                }
                match kvstore::KvWire::from_bytes(&f.payload) {
                    Ok(kvstore::KvWire::Reply(res)) if res.seq == seq => return res,
                    Ok(kvstore::KvWire::Redirect { leader })
                    | Ok(kvstore::KvWire::ShardRedirect { leader, .. }) => {
                        if let Some(i) = self.addrs.iter().position(|(p, _)| *p == leader) {
                            self.current = i;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                        self.stream = Self::dial(self.addrs[self.current].1);
                        continue 'resend;
                    }
                    Ok(kvstore::KvWire::Retry { .. }) => {
                        std::thread::sleep(Duration::from_millis(50));
                        continue 'resend;
                    }
                    Ok(_) | Err(_) => continue,
                }
            }
        }
        panic!("no reply for seq {seq} within 20s");
    }
}

/// The session table must pin a CAS verdict: a duplicate retransmission
/// of the latest seq — through the gateway's duplicate-exemption path on
/// the same connection AND from a brand-new connection — replays the
/// original verdict verbatim without re-executing anything.
#[test]
fn retried_cas_replays_original_verdict_through_the_gateway() {
    let cluster = Cluster::boot(&[1, 2, 3]);
    let leader = cluster.wait_for_leader();

    // Seed the key under a different client so the CAS client's seq
    // space starts clean.
    let mut seeder = KvClient::new(0xC11E60, cluster.client_addrs());
    seeder.put("cas-key", 5).expect("seed put");

    let client = 0xC11E61u64;
    let cas_fail = kvstore::KvWire::Request(KvCommand {
        client,
        seq: 1,
        op: KvOp::Cas {
            key: "cas-key".into(),
            expect: Some(999), // mismatch: actual is 5
            set: Some(777),
        },
    });
    let mut conn = RawConn::connect(cluster.client_addrs(), leader);
    let first = conn.ask(&cas_fail, 1);
    assert!(!first.applied, "mismatched CAS must fail");
    assert_eq!(first.value, Some(5), "failed CAS reports the actual value");

    // Same connection: the gateway's duplicate exemption admits the
    // retransmit of an already-admitted seq, and the session table
    // replays the cached verdict.
    let replay = conn.ask(&cas_fail, 1);
    assert_eq!((replay.value, replay.applied), (first.value, first.applied));

    // Fresh connection (client crashed and came back): same verdict.
    let mut conn2 = RawConn::connect(cluster.client_addrs(), leader);
    let replay2 = conn2.ask(&cas_fail, 1);
    assert_eq!(
        (replay2.value, replay2.applied),
        (first.value, first.applied)
    );

    // A successful *effectful* op replays applied=true without
    // re-executing: Add is not idempotent, so a re-execution would be
    // visible in the value.
    let add = kvstore::KvWire::Request(KvCommand {
        client,
        seq: 2,
        op: KvOp::Add {
            key: "cas-key".into(),
            delta: 7,
        },
    });
    let added = conn2.ask(&add, 2);
    assert!(added.applied);
    assert_eq!(added.value, Some(12));
    let added_replay = conn2.ask(&add, 2);
    assert!(added_replay.applied, "latest-seq duplicate replays applied");
    assert_eq!(added_replay.value, Some(12), "replay must not re-execute");
    let mut conn3 = RawConn::connect(cluster.client_addrs(), leader);
    let added_replay2 = conn3.ask(&add, 2);
    assert_eq!(added_replay2.value, Some(12), "replay must not re-execute");

    assert_eq!(seeder.read("cas-key").expect("read"), Some(12));
    cluster.shutdown();
}

/// Two keys guaranteed to live on different shards (panics if the key
/// space is too small to produce one, which it never is for 4 shards).
fn cross_shard_keys(n_shards: usize) -> (String, String) {
    let a = "acct0".to_string();
    let sa = kvstore::shard_of_key(&a, n_shards);
    for i in 1..64 {
        let b = format!("acct{i}");
        if kvstore::shard_of_key(&b, n_shards) != sa {
            return (a, b);
        }
    }
    panic!("no cross-shard key pair found");
}

/// Regression for the PR 7 routing hazard: a plain multi-key op whose
/// keys span shards must be rejected with a typed error — not silently
/// routed by its first key — and must leave BOTH shards untouched.
#[test]
fn spanning_transfer_is_rejected_and_touches_neither_shard() {
    let shards = 4usize;
    let cluster = Cluster::boot_sharded(&[1, 2, 3], shards);
    wait(Duration::from_secs(20), "leaders per shard", || {
        let l = fetch_shards(&cluster.client_addrs(), Duration::from_millis(500)).ok()?;
        (l.len() == shards && l.iter().all(|&p| p != 0)).then_some(())
    });
    let (from, to) = cross_shard_keys(shards);

    let mut sharded =
        ShardedKvClient::bootstrap(0xC11E62, cluster.client_addrs(), Duration::from_millis(500))
            .expect("bootstrap");
    sharded.submit(KvOp::Put {
        key: from.clone(),
        value: 100,
    });
    sharded.submit(KvOp::Put {
        key: to.clone(),
        value: 50,
    });
    sharded.drain(Duration::from_secs(30)).expect("fund");

    // Submit the spanning op raw, bypassing the client-side routing that
    // would have turned it into a transaction.
    let (_, token) = sharded.submit(KvOp::Transfer {
        from: from.clone(),
        to: to.clone(),
        amount: 30,
    });
    let rejected = wait(Duration::from_secs(10), "a CrossShard rejection", || {
        sharded.pump().expect("pump");
        let r = sharded.take_cross_shard_rejections();
        (!r.is_empty()).then_some(r)
    });
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].1, token, "the rejected token is the transfer");
    assert_eq!(sharded.in_flight(), 0, "rejection removes the op");

    // Both shards untouched: balances exactly as funded. Seqs are
    // per-shard, so completions match on the (shard, seq) pair.
    let rf = sharded.submit_read(&from);
    let rt = sharded.submit_read(&to);
    let reads = sharded.drain(Duration::from_secs(30)).expect("read back");
    for (sh, r) in &reads {
        if (*sh, r.seq) == rf {
            assert_eq!(r.value, Some(100), "`from` must be untouched");
        }
        if (*sh, r.seq) == rt {
            assert_eq!(r.value, Some(50), "`to` must be untouched");
        }
    }

    // The synchronous client surfaces the same rejection as a hard error.
    let mut sync = KvClient::new(0xC11E63, cluster.client_addrs());
    let err = sync
        .op(KvOp::Transfer {
            from: from.clone(),
            to: to.clone(),
            amount: 10,
        })
        .expect_err("spanning transfer must error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    cluster.shutdown();
}

/// End-to-end cross-shard 2PC: transfers between accounts on different
/// shards commit when funded and abort when not, conserving the total
/// balance either way; `TxnStatus` answers `Committed` for the decided
/// transaction from any gateway.
#[test]
fn cross_shard_transactions_commit_abort_and_conserve_balance() {
    let shards = 4usize;
    let cluster = Cluster::boot_sharded(&[1, 2, 3], shards);
    wait(Duration::from_secs(20), "leaders per shard", || {
        let l = fetch_shards(&cluster.client_addrs(), Duration::from_millis(500)).ok()?;
        (l.len() == shards && l.iter().all(|&p| p != 0)).then_some(())
    });
    let (a, b) = cross_shard_keys(shards);

    let client_id = 0xC11E64u64;
    let mut sharded = ShardedKvClient::bootstrap(
        client_id,
        cluster.client_addrs(),
        Duration::from_millis(500),
    )
    .expect("bootstrap");
    sharded.submit(KvOp::Put {
        key: a.clone(),
        value: 100,
    });
    sharded.submit(KvOp::Put {
        key: b.clone(),
        value: 50,
    });
    sharded.drain(Duration::from_secs(30)).expect("fund");

    // Funded cross-shard transfer: commits.
    let (_, token) = sharded.transfer(&a, &b, 30);
    assert!(token & net::client::TXN_FLAG != 0, "cross-shard ⇒ txn");
    let done = sharded.drain(Duration::from_secs(30)).expect("transfer");
    let res = done
        .iter()
        .map(|(_, r)| r)
        .find(|r| r.seq == token)
        .expect("transfer completion");
    assert!(res.applied, "funded transfer must commit");
    assert_eq!(res.value, Some(1));

    // Overdraft: aborts, and the verdict is a normal completion.
    let (_, token2) = sharded.transfer(&a, &b, 1_000_000);
    let done = sharded.drain(Duration::from_secs(30)).expect("overdraft");
    let res2 = done
        .iter()
        .map(|(_, r)| r)
        .find(|r| r.seq == token2)
        .expect("overdraft completion");
    assert!(!res2.applied, "overdraft must abort");
    assert_eq!(res2.value, Some(0));

    // Balances moved exactly once, total conserved. Seqs are per-shard,
    // so completions match on the (shard, seq) pair.
    let ra = sharded.submit_read(&a);
    let rb = sharded.submit_read(&b);
    let reads = sharded.drain(Duration::from_secs(30)).expect("read back");
    let read_of = |tok: (u32, u64)| {
        reads
            .iter()
            .find(|(sh, r)| (*sh, r.seq) == tok)
            .and_then(|(_, r)| r.value)
    };
    assert_eq!(read_of(ra), Some(70), "a: 100 - 30");
    assert_eq!(read_of(rb), Some(80), "b: 50 + 30");

    // Every gateway that hosts a participant shard reports Committed.
    let mut sync = KvClient::new(0xC11E65, cluster.client_addrs());
    assert_eq!(
        sync.txn_status(client_id, token).expect("status"),
        kvstore::TxnState::Committed
    );

    // The synchronous txn path works end to end too.
    let spec = kvstore::TxnSpec::transfer(&a, &b, 10);
    let res3 = sync.txn(spec).expect("sync txn");
    assert!(res3.applied, "funded sync transfer commits");

    // The client learns the verdict when the decision is recorded; the
    // commit records to the participant shards propagate asynchronously.
    // Wait for the locks to release: a plain write to a locked key
    // reports applied=false, so a zero-delta Add succeeding on both
    // keys proves both shards are unlocked.
    wait(Duration::from_secs(15), "prepare locks released", || {
        let ta = sharded.submit(KvOp::Add {
            key: a.clone(),
            delta: 0,
        });
        let tb = sharded.submit(KvOp::Add {
            key: b.clone(),
            delta: 0,
        });
        let done = sharded.drain(Duration::from_secs(10)).ok()?;
        let ok = |tok: (u32, u64)| {
            done.iter()
                .find(|(sh, r)| (*sh, r.seq) == tok)
                .is_some_and(|(_, r)| r.applied)
        };
        (ok(ta) && ok(tb)).then_some(())
    });
    // The leaders answered; give the followers a few heartbeats to
    // apply the same commit records before inspecting them directly.
    std::thread::sleep(Duration::from_millis(500));

    // No orphaned locks anywhere once everything is decided.
    let servers = cluster.shutdown();
    for (pid, s) in &servers {
        for sh in 0..shards as u32 {
            let sm = s.node().shard(sh).state_machine();
            assert!(
                sm.locks().is_empty(),
                "node {pid} shard {sh} left locks: {:?}",
                sm.locks()
            );
            assert!(
                sm.prepared().is_empty(),
                "node {pid} shard {sh} left prepares"
            );
        }
    }
}

/// A transaction rides its own identity space, so it leaves no hole in
/// the closed-loop client's write session: the put after it is admitted
/// at once, not gap-shed and resent.
#[test]
fn closed_loop_write_after_a_txn_is_not_shed() {
    let cluster = Cluster::boot(&[1, 2, 3]);
    let leader = cluster.wait_for_leader();
    let shed = |cluster: &Cluster| -> u64 {
        cluster
            .nodes
            .iter()
            .map(|n| n.ask(|s| s.shed_requests()))
            .sum()
    };
    let mut client = KvClient::new(0xC11E66, cluster.client_addrs());
    let before = shed(&cluster);
    assert!(client.put("acct-a", 10).expect("put").applied);
    let res = client
        .txn(kvstore::TxnSpec::transfer("acct-a", "acct-b", 4))
        .expect("txn");
    assert!(res.applied, "funded transfer commits");
    assert!(client.put("acct-c", 1).expect("put after txn").applied);
    assert_eq!(
        shed(&cluster),
        before,
        "a request was shed (leader {leader})"
    );
    cluster.shutdown();
}
