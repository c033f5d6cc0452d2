//! Live reconfiguration with parallel log migration (the paper's §6).
//!
//! A 3-server cluster with history replaces one member with a fresh server.
//! The stop-sign is decided through normal Sequence Paxos; the service
//! layer then migrates the decided log to the newcomer **in parallel from
//! all donors** while the continuing servers keep serving traffic.
//!
//! Run with: `cargo run --example reconfiguration`

use omnipaxos::service::{OmniPaxosServer, ServerConfig, ServerRole, ServiceMsg};
use omnipaxos::NodeId;
use simulator::{ms, Network, NetworkConfig};

fn main() {
    let initial: Vec<NodeId> = vec![1, 2, 3];
    let mut servers: Vec<OmniPaxosServer<u64>> = initial
        .iter()
        .map(|&pid| OmniPaxosServer::new(ServerConfig::with(pid), initial.clone()))
        .collect();
    // Server 4 starts outside the configuration, idle until notified.
    servers.push(OmniPaxosServer::new_joiner(ServerConfig::with(4)));

    let mut net: Network<ServiceMsg<u64>> = Network::new(NetworkConfig {
        nodes: vec![1, 2, 3, 4],
        default_latency_us: 100,
        ..Default::default()
    });
    let step = |servers: &mut Vec<OmniPaxosServer<u64>>, net: &mut Network<ServiceMsg<u64>>| {
        let next = net.now() + ms(1);
        while let Some(d) = net.pop_next_before(next) {
            servers[(d.dst - 1) as usize].handle(d.src, d.msg);
        }
        net.advance_to(next);
        for s in servers.iter_mut() {
            s.tick();
        }
        for (i, server) in servers.iter_mut().enumerate() {
            let from = (i + 1) as NodeId;
            for (to, msg) in server.outgoing() {
                if (1..=4).contains(&to) {
                    let bytes = msg.size_bytes();
                    net.send(from, to, bytes, msg);
                }
            }
        }
    };

    // Warm up: elect and replicate some history.
    while !servers.iter().any(|s| s.is_leader()) {
        step(&mut servers, &mut net);
    }
    let leader = servers.iter().position(|s| s.is_leader()).unwrap();
    for v in 0..1_000u64 {
        servers[leader].propose(v).expect("propose");
    }
    while servers[..3].iter().any(|s| s.decided_len() < 1_000) {
        step(&mut servers, &mut net);
    }
    println!(
        "configuration 1 = {:?}, leader = server {}, history = {} entries",
        initial,
        leader + 1,
        servers[leader].decided_len()
    );

    // Replace server 1 with server 4 (keep the leader).
    let keep: Vec<NodeId> = (2..=4).collect();
    println!("reconfiguring to {keep:?} ...");
    servers[leader]
        .reconfigure(keep.clone())
        .expect("reconfigure");

    // Proposals during the switch are buffered and flushed into c_2.
    for v in 1_000..1_010u64 {
        servers[leader].propose(v).expect("propose during switch");
    }

    let start = net.now();
    while servers[3].role() != ServerRole::Active || servers[3].decided_len() < 1_010 {
        step(&mut servers, &mut net);
    }
    println!(
        "server 4 migrated {} entries and joined configuration {} after {} ms",
        servers[3].decided_len(),
        servers[3].config_id(),
        (net.now() - start) / 1_000
    );
    assert_eq!(servers[0].role(), ServerRole::Retired, "server 1 retired");
    // The migrated log matches the original exactly, including the
    // buffered proposals.
    let expected: Vec<u64> = (0..1_010).collect();
    assert_eq!(servers[3].log().copied().collect::<Vec<u64>>(), expected);
    println!(
        "ok: server 1 retired, server 4 active in c_{}, log intact ({} entries)",
        servers[3].config_id(),
        servers[3].decided_len()
    );
}
