//! A kv cluster on 127.0.0.1, built exactly as `omni-kv-server` builds one
//! (`shard_config` → `KvNode::with_config` → `ShardedKvNode::from_shards`
//! → `KvServer::new_sharded(..).with_gateway(..)`, `TcpConfig::default()`,
//! `DEFAULT_MAX_PENDING`, memory storage, 10 ms tick), one thread per
//! server.
//!
//! End-to-end runs drive each server with the library's own loop,
//! `KvServer::run`. Traced runs drive it with [`traced_loop`], a copy of
//! that loop kept here — same cycle, plus a stopwatch around `pump` and
//! `tick` and a control channel — because the library's loop has no place
//! to read a counter from while it runs.
//!
//! No regime lottery: the servers start only once every replication
//! session is up, so the first BLE round sees full connectivity and the
//! ballot priorities of `shard_config` decide the election; the boot is
//! repeated (at most [`MAX_BOOTS`] times, all counted in set-up time) if
//! the placement still comes out other than canonical.

use crate::trace::{Span, Tracer, NONE};
use kvstore::{shard_config, KvCommand, KvNode, NodeId, ShardedKvNode};
use net::link::LinkCounters;
use net::server::{ClientGateway, KvServer};
use net::tcp::{TcpConfig, TcpTransport};
use net::{fetch_shards, NetworkLink};
use omnipaxos::service::ServerConfig;
use omnipaxos::ServiceMsg;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Transport = TcpTransport<ServiceMsg<KvCommand>>;
pub type Server = KvServer<Transport>;

/// The server binary's default `--tick-ms`.
pub const TICK: Duration = Duration::from_millis(10);
/// BLE round of the measured clusters, in ticks: 200 ms, so no host stall
/// this box produces outlasts a round and moves the leader mid-run. (The
/// fail-over block runs the default, 5 ticks.)
pub const STEADY_HB_TICKS: u64 = 20;
pub const MAX_BOOTS: u32 = 5;

#[derive(Clone, Copy)]
pub struct Spec {
    pub shards: usize,
    pub replicas: u64,
    /// Leader leases on (`lease_ticks` = 8 rounds, epsilon one round).
    pub lease: bool,
    pub hb_timeout_ticks: u64,
    /// Drive the servers with [`traced_loop`] instead of `KvServer::run`.
    pub traced: bool,
}

/// What a traced server publishes on request.
#[derive(Clone, Default)]
pub struct Snapshot {
    pub proposal_batches: u64,
    pub proposed_ops: u64,
    pub reply_batches: u64,
    pub reply_frames: u64,
    pub shed: u64,
    pub cross_shard_rejects: u64,
    pub link: LinkCounters,
    /// Decided log length per shard.
    pub decided: Vec<u64>,
    /// Who this server believes leads each shard (0 = nobody yet).
    pub leaders: Vec<NodeId>,
    pub pumps: u64,
    pub pump_ns: u64,
    /// `pump` calls that found work, and the time they took.
    pub busy_pumps: u64,
    pub busy_ns: u64,
    pub ticks: u64,
    pub tick_ns: u64,
    pub idle_sleeps: u64,
}

pub enum Ctl {
    Snapshot(Sender<Snapshot>),
    /// Stopwatch (and span recording) on or off.
    Stopwatch(bool),
    KillTransport,
    SetTransport(Box<Transport>),
}

pub struct Cluster {
    pub spec: Spec,
    pub client_addrs: Vec<(NodeId, SocketAddr)>,
    pub repl_addrs: HashMap<NodeId, SocketAddr>,
    /// Leader of each shard when set-up finished.
    pub leaders: Vec<NodeId>,
    /// Boots it took to get the canonical placement.
    pub boots: u32,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<(Server, Tracer)>>,
    ctl: Vec<Sender<Ctl>>,
}

fn base_config(pid: NodeId, spec: &Spec) -> ServerConfig {
    let mut base = ServerConfig::with(pid);
    base.hb_timeout_ticks = spec.hb_timeout_ticks;
    if spec.lease {
        base.lease_ticks = 8 * spec.hb_timeout_ticks;
        base.lease_epsilon_ticks = spec.hb_timeout_ticks;
    }
    base
}

/// The placement `shard_config`'s priorities ask for: shard `s` led by
/// node `s % replicas + 1`.
pub fn canonical(spec: &Spec) -> Vec<NodeId> {
    (0..spec.shards as u64)
        .map(|s| s % spec.replicas + 1)
        .collect()
}

impl Cluster {
    /// Boot until every shard is led by its canonical node.
    pub fn boot(spec: Spec) -> Result<Cluster, String> {
        let want = canonical(&spec);
        let mut last = Vec::new();
        for boots in 1..=MAX_BOOTS {
            let mut cluster = Cluster::boot_once(spec)?;
            match cluster.await_leaders(Duration::from_secs(10)) {
                Ok(leaders) if leaders == want => {
                    cluster.leaders = leaders;
                    cluster.boots = boots;
                    return Ok(cluster);
                }
                Ok(leaders) => last = leaders,
                Err(e) => {
                    cluster.shutdown();
                    return Err(e);
                }
            }
            cluster.shutdown();
        }
        Err(format!(
            "leaders {last:?} after {MAX_BOOTS} boots, want {want:?}"
        ))
    }

    fn boot_once(spec: Spec) -> Result<Cluster, String> {
        let io = |e: std::io::Error| format!("boot: {e}");
        let nodes: Vec<NodeId> = (1..=spec.replicas).collect();
        let mut listeners = Vec::new();
        let mut repl_addrs = HashMap::new();
        for &pid in &nodes {
            let l = TcpListener::bind("127.0.0.1:0").map_err(io)?;
            repl_addrs.insert(pid, l.local_addr().map_err(io)?);
            listeners.push(l);
        }
        let mut servers = Vec::new();
        let mut client_addrs = Vec::new();
        for (&pid, listener) in nodes.iter().zip(listeners) {
            let base = base_config(pid, &spec);
            let node = ShardedKvNode::from_shards(
                (0..spec.shards as u32)
                    .map(|s| KvNode::with_config(shard_config(&base, s, &nodes), nodes.clone()))
                    .collect(),
            );
            let transport =
                Transport::with_listener(pid, listener, repl_addrs.clone(), TcpConfig::default())
                    .map_err(io)?;
            let gateway = TcpListener::bind("127.0.0.1:0")
                .and_then(ClientGateway::bind)
                .map_err(io)?;
            client_addrs.push((pid, gateway.local_addr()));
            servers.push(KvServer::new_sharded(node, transport).with_gateway(gateway));
        }
        // Full connectivity before the first tick.
        let deadline = Instant::now() + Duration::from_secs(5);
        let connected = |s: &Server| {
            s.link()
                .is_some_and(|l| l.counters().sessions_established >= spec.replicas - 1)
        };
        while !servers.iter().all(connected) {
            if Instant::now() > deadline {
                return Err("boot: replication sessions did not come up in 5 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        let mut ctl = Vec::new();
        for server in servers {
            let stop = Arc::clone(&stop);
            let (tx, rx) = mpsc::channel();
            ctl.push(tx);
            let name = format!("bench-kv-{}", server.node().pid());
            let body = move || {
                if spec.traced {
                    traced_loop(server, TICK, stop, rx)
                } else {
                    (server.run(TICK, stop), Tracer::new(0))
                }
            };
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(body)
                    .map_err(io)?,
            );
        }
        Ok(Cluster {
            spec,
            client_addrs,
            repl_addrs,
            leaders: Vec::new(),
            boots: 0,
            stop,
            handles,
            ctl,
        })
    }

    /// The routing table once every shard has a leader.
    fn await_leaders(&self, timeout: Duration) -> Result<Vec<NodeId>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Ok(l) = fetch_shards(&self.client_addrs, Duration::from_millis(500)) {
                if l.len() == self.spec.shards && l.iter().all(|&p| p != 0) {
                    return Ok(l);
                }
            }
            if Instant::now() > deadline {
                return Err(format!("no leader for every shard within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The routing table as the servers report it now.
    pub fn current_leaders(&self) -> Vec<NodeId> {
        fetch_shards(&self.client_addrs, Duration::from_millis(500)).unwrap_or_default()
    }

    pub fn send(&self, pid: NodeId, msg: Ctl) {
        let _ = self.ctl[(pid - 1) as usize].send(msg);
    }

    pub fn send_all(&self, msg: impl Fn() -> Ctl) {
        for tx in &self.ctl {
            let _ = tx.send(msg());
        }
    }

    /// Counters of every traced server (empty for `KvServer::run` servers,
    /// which answer nothing).
    pub fn snapshots(&self) -> Vec<Snapshot> {
        if !self.spec.traced {
            return Vec::new();
        }
        let mut out = Vec::new();
        for tx in &self.ctl {
            let (reply, rx) = mpsc::channel();
            if tx.send(Ctl::Snapshot(reply)).is_ok() {
                if let Ok(s) = rx.recv_timeout(Duration::from_secs(2)) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Stop and join every server thread; the servers come back for their
    /// counters and state machines, still connected to each other.
    pub fn stop(&mut self) -> Vec<(Server, Tracer)> {
        self.stop.store(true, Ordering::SeqCst);
        self.handles
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect()
    }

    /// Stop, join and drop everything (transports and gateways join their
    /// own threads when dropped).
    pub fn shutdown(mut self) {
        let servers = self.stop();
        drop_all(servers);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // A path out that skipped `stop` (a failed check, a panic) still
        // joins the server threads before the process moves on.
        let servers = self.stop();
        drop_all(servers);
    }
}

/// Dropping a transport waits out its threads' poll intervals (~50 ms);
/// three in parallel cost one interval instead of three.
pub fn drop_all<T: Send>(items: Vec<T>) {
    std::thread::scope(|s| {
        for item in items {
            s.spawn(move || drop(item));
        }
    });
}

pub fn snapshot_of(server: &Server) -> Snapshot {
    let (proposal_batches, proposed_ops) = server.proposal_stats();
    let (reply_batches, reply_frames) = server.gateway_reply_stats();
    let node = server.node();
    Snapshot {
        proposal_batches,
        proposed_ops,
        reply_batches,
        reply_frames,
        shed: server.shed_requests(),
        cross_shard_rejects: server.cross_shard_rejects(),
        link: server.link().map(|l| l.counters()).unwrap_or_default(),
        decided: (0..node.n_shards() as u32)
            .map(|s| node.shard(s).server_ref().decided_len())
            .collect(),
        leaders: node.leaders(),
        ..Snapshot::default()
    }
}

/// `KvServer::run`, copied: pump continuously, tick every `tick_every`,
/// sleep 1 ms only after an idle cycle — plus a stopwatch around `pump`
/// and `tick`, one span per busy `pump` and per `tick`, and the control
/// channel. Keep in step with `crates/net/src/server.rs`.
fn traced_loop(
    mut server: Server,
    tick_every: Duration,
    stop: Arc<AtomicBool>,
    ctl: Receiver<Ctl>,
) -> (Server, Tracer) {
    let mut tracer = Tracer::new(60_000);
    let mut stats = Snapshot::default();
    let mut timing = false;
    let mut last_tick = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        while let Ok(msg) = ctl.try_recv() {
            match msg {
                Ctl::Snapshot(reply) => {
                    let _ = reply.send(Snapshot {
                        pumps: stats.pumps,
                        pump_ns: stats.pump_ns,
                        busy_pumps: stats.busy_pumps,
                        busy_ns: stats.busy_ns,
                        ticks: stats.ticks,
                        tick_ns: stats.tick_ns,
                        idle_sleeps: stats.idle_sleeps,
                        ..snapshot_of(&server)
                    });
                }
                Ctl::Stopwatch(on) => timing = on,
                Ctl::KillTransport => drop(server.kill_transport()),
                Ctl::SetTransport(t) => server.set_transport(*t),
            }
        }
        let work = if timing {
            let t0 = tracer.now_ns();
            let work = server.pump();
            let t1 = tracer.now_ns();
            stats.pumps += 1;
            stats.pump_ns += t1 - t0;
            if work > 0 {
                stats.busy_pumps += 1;
                stats.busy_ns += t1 - t0;
                tracer.push(Span {
                    name: "server.pump",
                    start_ns: t0,
                    end_ns: t1,
                    parent: NONE,
                    shard: NONE,
                    seq: work as u64,
                });
            }
            work
        } else {
            server.pump()
        };
        if last_tick.elapsed() >= tick_every {
            last_tick = Instant::now();
            if timing {
                let t0 = tracer.now_ns();
                server.tick();
                let t1 = tracer.now_ns();
                stats.ticks += 1;
                stats.tick_ns += t1 - t0;
                tracer.push(Span {
                    name: "server.tick",
                    start_ns: t0,
                    end_ns: t1,
                    parent: NONE,
                    shard: NONE,
                    seq: 0,
                });
            } else {
                server.tick();
            }
        }
        if work == 0 {
            stats.idle_sleeps += timing as u64;
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    (server, tracer)
}

/// After the threads are joined the replicas are still connected: pump
/// them from here until every shard has the same decided length on every
/// replica (the last `Decide` may still have been in flight), so their
/// state machines can be compared.
pub fn settle(servers: &mut [(Server, Tracer)]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        for (s, _) in servers.iter_mut() {
            s.pump();
        }
        let lens: Vec<Vec<u64>> = servers
            .iter()
            .map(|(s, _)| snapshot_of(s).decided)
            .collect();
        if lens.windows(2).all(|w| w[0] == w[1]) {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
