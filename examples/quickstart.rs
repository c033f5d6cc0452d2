//! Quickstart: a 3-server Omni-Paxos cluster replicating commands.
//!
//! Builds three `OmniPaxosServer`s, connects them through the deterministic
//! network simulator, elects a leader via Ballot Leader Election, proposes
//! commands, and reads the identical decided log back from every server.
//!
//! Run with: `cargo run --example quickstart`

use omnipaxos::service::{OmniPaxosServer, ServerConfig, ServiceMsg};
use omnipaxos::NodeId;
use simulator::{ms, Network, NetworkConfig};

fn main() {
    let nodes: Vec<NodeId> = vec![1, 2, 3];
    let mut servers: Vec<OmniPaxosServer<u64>> = nodes
        .iter()
        .map(|&pid| OmniPaxosServer::new(ServerConfig::with(pid), nodes.clone()))
        .collect();
    let mut net: Network<ServiceMsg<u64>> = Network::new(NetworkConfig {
        nodes: nodes.clone(),
        default_latency_us: 100, // 0.2 ms RTT, the paper's LAN setting
        ..Default::default()
    });

    // Drive the cluster: 1 ms ticks, delivering due messages in between.
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
                let bytes = msg.size_bytes();
                net.send(from, to, bytes, msg);
            }
        }
    };

    // 1. Ballot Leader Election elects a quorum-connected leader.
    while !servers.iter().any(|s| s.is_leader()) {
        step(&mut servers, &mut net);
    }
    let leader = servers.iter().position(|s| s.is_leader()).unwrap();
    println!(
        "elected leader: server {} (ballot {:?}) after {} ms",
        leader + 1,
        servers[leader].leader().unwrap(),
        net.now() / 1000
    );

    // 2. Propose commands through the leader.
    for value in 1..=10u64 {
        servers[leader].propose(value).expect("propose");
    }

    // 3. Wait until every server has decided all ten entries.
    while !servers.iter().all(|s| s.decided_len() == 10) {
        step(&mut servers, &mut net);
    }
    println!("all servers decided after {} ms", net.now() / 1000);

    // 4. The replicated log is identical everywhere (Sequence Consensus).
    for s in &servers {
        let log: Vec<u64> = s.log().copied().collect();
        println!("server {} log: {:?}", s.pid(), log);
        assert_eq!(log, (1..=10).collect::<Vec<u64>>());
    }
    println!("ok: logs are identical and in proposal order");
}
