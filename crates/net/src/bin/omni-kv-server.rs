//! A deployable Omni-Paxos kv server.
//!
//! ```text
//! omni-kv-server --pid 1 \
//!     --peers 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 \
//!     --client-addr 127.0.0.1:7201
//! ```
//!
//! `--peers` lists every replica's replication address (own pid
//! included); `--client-addr` is where clients connect. Run one process
//! per pid in `--peers` and the cluster elects a leader and serves
//! traffic; kill any minority and it keeps going.

use kvstore::{shard_config, KvCommand, KvNode, NodeId, ShardedKvNode};
use net::server::{ClientGateway, KvServer};
use net::tcp::{TcpConfig, TcpTransport};
use omnipaxos::service::ServerConfig;
use omnipaxos::ServiceMsg;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::str::FromStr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: omni-kv-server --pid <n> --peers <pid=addr,...> --client-addr <addr> \
         [--tick-ms <ms>] [--joiner] [--shards <n>] \
         [--lease-ticks <n>] [--lease-epsilon <n>]"
    );
    std::process::exit(2)
}

/// The value after a numeric flag; a missing or malformed value is a
/// usage error, never a silent default (a mistyped `--shards` would
/// misroute the cluster, a mistyped `--lease-ticks` turn leases off).
fn num<T: FromStr>(v: Option<&String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn parse_peers(spec: &str) -> Option<HashMap<NodeId, SocketAddr>> {
    let mut out = HashMap::new();
    for part in spec.split(',') {
        let (pid, addr) = part.split_once('=')?;
        out.insert(pid.trim().parse().ok()?, addr.trim().parse().ok()?);
    }
    Some(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pid: Option<NodeId> = None;
    let mut peers: Option<HashMap<NodeId, SocketAddr>> = None;
    let mut client_addr: Option<SocketAddr> = None;
    let mut tick_ms: u64 = 10;
    let mut joiner = false;
    let mut shards: usize = 1;
    // Leader leases for local reads, in ticks of `--tick-ms` (0 = off).
    // Every replica must run the same lease settings: the epsilon bound
    // is a cluster-wide clock-skew contract, not a local knob.
    let mut lease_ticks: u64 = 0;
    let mut lease_epsilon: u64 = 2;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pid" => pid = it.next().and_then(|v| v.parse().ok()),
            "--peers" => peers = it.next().and_then(|v| parse_peers(v)),
            "--client-addr" => client_addr = it.next().and_then(|v| v.parse().ok()),
            "--tick-ms" => tick_ms = num(it.next()),
            "--joiner" => joiner = true,
            "--shards" => shards = num(it.next()),
            "--lease-ticks" => lease_ticks = num(it.next()),
            "--lease-epsilon" => lease_epsilon = num(it.next()),
            _ => usage(),
        }
    }
    if shards == 0 || tick_ms == 0 {
        // Zero shards route nothing; a zero tick busy-spins the loop.
        eprintln!("error: --shards and --tick-ms must be at least 1");
        usage();
    }
    let (Some(pid), Some(peers), Some(client_addr)) = (pid, peers, client_addr) else {
        usage()
    };
    if !peers.contains_key(&pid) {
        eprintln!("error: own pid {pid} missing from --peers");
        std::process::exit(2);
    }

    let mut nodes: Vec<NodeId> = peers.keys().copied().collect();
    nodes.sort_unstable();
    // Every pid in the cluster must be launched with the same --shards
    // value: shard count is part of the routing contract.
    let mut base = ServerConfig::with(pid);
    base.lease_ticks = lease_ticks;
    base.lease_epsilon_ticks = lease_epsilon;
    let node = if joiner {
        ShardedKvNode::from_shards(
            (0..shards)
                .map(|_| KvNode::joiner_with_config(base.clone()))
                .collect(),
        )
    } else {
        ShardedKvNode::from_shards(
            (0..shards as u32)
                .map(|s| KvNode::with_config(shard_config(&base, s, &nodes), nodes.clone()))
                .collect(),
        )
    };

    let transport: TcpTransport<ServiceMsg<KvCommand>> =
        TcpTransport::bind(pid, peers, TcpConfig::default()).unwrap_or_else(|e| {
            eprintln!("error: replication bind failed: {e}");
            std::process::exit(1);
        });
    let gateway = TcpListener::bind(client_addr)
        .and_then(ClientGateway::bind)
        .unwrap_or_else(|e| {
            eprintln!("error: client bind failed: {e}");
            std::process::exit(1);
        });

    eprintln!(
        "omni-kv-server pid={pid} shards={shards} replication={} clients={}",
        transport.local_addr(),
        gateway.local_addr()
    );

    let stop = Arc::new(AtomicBool::new(false));
    // Run until killed; a SIGINT handler would need a dependency, so the
    // process relies on the OS to tear sockets down.
    let server = KvServer::new_sharded(node, transport).with_gateway(gateway);
    server.run(Duration::from_millis(tick_ms), stop);
}
