//! Session semantics end to end: a dropped-and-reestablished session
//! must trigger PrepareReq-based re-sync (paper §4.1.3) — on **both**
//! backends, with the same observable protocol facts:
//!
//! 1. while the session is down, the disconnected follower misses
//!    decided writes;
//! 2. on re-establishment, the leader receives at least one `PrepareReq`
//!    it did not have before;
//! 3. the follower converges to the leader's state.
//!
//! The simulator variant is fully deterministic (fixed seed, fixed tick
//! schedule); the TCP variant runs the same `KvServer` driver over real
//! sockets with the transport killed and rebuilt. That the one driver
//! code path passes both is the point of the `NetworkLink` abstraction.

use kvstore::{KvCommand, KvNode, KvOp, NodeId, ShardedKvNode};
use net::server::KvServer;
use net::tcp::{TcpConfig, TcpTransport};
use net::SimHub;
use omnipaxos::ServiceMsg;
use simulator::NetworkConfig;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

fn put(client: u64, seq: u64, key: &str, value: i64) -> KvCommand {
    KvCommand {
        client,
        seq,
        op: KvOp::Put {
            key: key.into(),
            value,
        },
    }
}

// ---------------------------------------------------------------------------
// simulator backend: deterministic

#[test]
fn sim_session_reestablish_triggers_prepare_req_resync() {
    let hub: SimHub<ServiceMsg<KvCommand>> = SimHub::new(NetworkConfig {
        nodes: vec![1, 2, 3],
        default_latency_us: 100,
        seed: 11,
        ..Default::default()
    });
    let mut servers: Vec<KvServer<_>> = (1..=3u64)
        .map(|pid| {
            let node = ShardedKvNode::from_shards(vec![KvNode::new(pid, vec![1, 2, 3])]);
            KvServer::new_sharded(node, hub.link(pid))
        })
        .collect();

    // Drive: 1 ms ticks; pump after every delivery phase.
    let mut now: u64 = 0;
    let step = |servers: &mut Vec<KvServer<_>>, now: &mut u64, ticks: u64| {
        for _ in 0..ticks {
            *now += 1_000;
            hub.drain_due(*now);
            for s in servers.iter_mut() {
                s.pump();
                s.tick();
            }
        }
    };

    // Elect a leader.
    step(&mut servers, &mut now, 50);
    let leader = servers
        .iter()
        .position(|s| s.node().is_leader(0))
        .expect("a leader after 50 ticks");
    let leader_pid = (leader + 1) as NodeId;
    // Pick a follower to disconnect.
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let follower_pid = (follower + 1) as NodeId;

    // Baseline writes reach everyone.
    servers[leader]
        .node_mut()
        .shard_mut(0)
        .submit(put(1, 1, "a", 1))
        .unwrap();
    step(&mut servers, &mut now, 20);
    assert_eq!(servers[follower].node().read_local("a"), Some(1));

    // Fully isolate the follower (cutting only the leader link is not
    // enough: under partial connectivity the third node relays, which is
    // the paper's whole point). Both sessions drop, like a transport
    // teardown on the follower's box.
    let third_pid = (1..=3u64)
        .find(|&p| p != leader_pid && p != follower_pid)
        .unwrap();
    hub.cut(leader_pid, follower_pid);
    hub.cut(third_pid, follower_pid);
    hub.drop_in_flight_between(leader_pid, follower_pid);
    hub.drop_in_flight_between(third_pid, follower_pid);

    // Writes decided by the remaining majority while the session is down.
    servers[leader]
        .node_mut()
        .shard_mut(0)
        .submit(put(1, 2, "b", 2))
        .unwrap();
    servers[leader]
        .node_mut()
        .shard_mut(0)
        .submit(put(1, 3, "c", 3))
        .unwrap();
    step(&mut servers, &mut now, 50);
    assert_eq!(
        servers[follower].node().read_local("b"),
        None,
        "follower must miss writes while its session is down"
    );

    let reqs_before = servers[leader].prepare_reqs_received();

    // Re-establish: new sessions ⇒ both ends call reconnected() ⇒ the
    // follower asks the leader to re-sync it.
    hub.heal(leader_pid, follower_pid);
    hub.heal(third_pid, follower_pid);
    step(&mut servers, &mut now, 100);

    assert!(
        servers[leader].prepare_reqs_received() > reqs_before,
        "leader must receive a PrepareReq after the session reforms"
    );
    assert!(servers[follower].reconnects_seen() > 0);
    assert_eq!(servers[follower].node().read_local("b"), Some(2));
    assert_eq!(servers[follower].node().read_local("c"), Some(3));
    let leader_state = servers[leader]
        .node()
        .shard(0)
        .state_machine()
        .state()
        .clone();
    let follower_state = servers[follower]
        .node()
        .shard(0)
        .state_machine()
        .state()
        .clone();
    assert_eq!(leader_state, follower_state, "states must converge");
}

// ---------------------------------------------------------------------------
// TCP backend: same driver, real sockets

type Transport = TcpTransport<ServiceMsg<KvCommand>>;

fn tcp_cfg() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_timeout: Duration::from_millis(250),
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(300),
        ..TcpConfig::default()
    }
}

/// Pump/tick all servers for `dur`, wall-clock.
fn drive(servers: &mut [KvServer<Transport>], dur: Duration) {
    let deadline = Instant::now() + dur;
    let mut last_tick = Instant::now();
    while Instant::now() < deadline {
        for s in servers.iter_mut() {
            s.pump();
        }
        if last_tick.elapsed() >= Duration::from_millis(3) {
            last_tick = Instant::now();
            for s in servers.iter_mut() {
                s.tick();
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn drive_until(
    servers: &mut [KvServer<Transport>],
    timeout: Duration,
    what: &str,
    mut done: impl FnMut(&[KvServer<Transport>]) -> bool,
) {
    let deadline = Instant::now() + timeout;
    while !done(servers) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        drive(servers, Duration::from_millis(20));
    }
}

#[test]
fn tcp_session_reestablish_triggers_prepare_req_resync() {
    let mut repl_addrs: HashMap<NodeId, SocketAddr> = HashMap::new();
    let mut listeners = HashMap::new();
    for pid in 1..=3u64 {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        repl_addrs.insert(pid, l.local_addr().unwrap());
        listeners.insert(pid, l);
    }
    let mut servers: Vec<KvServer<Transport>> = (1..=3u64)
        .map(|pid| {
            let t = Transport::with_listener(
                pid,
                listeners.remove(&pid).unwrap(),
                repl_addrs.clone(),
                tcp_cfg(),
            )
            .unwrap();
            let node = ShardedKvNode::from_shards(vec![KvNode::new(pid, vec![1, 2, 3])]);
            KvServer::new_sharded(node, t)
        })
        .collect();

    drive_until(&mut servers, Duration::from_secs(10), "a leader", |s| {
        s.iter().any(|s| s.node().is_leader(0))
    });
    let leader = servers.iter().position(|s| s.node().is_leader(0)).unwrap();
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let follower_pid = (follower + 1) as NodeId;

    servers[leader]
        .node_mut()
        .shard_mut(0)
        .submit(put(1, 1, "a", 1))
        .unwrap();
    drive_until(
        &mut servers,
        Duration::from_secs(5),
        "baseline write",
        |s| s[follower].node().read_local("a") == Some(1),
    );

    // Kill the follower's transport: sessions to it die for real.
    drop(servers[follower].kill_transport());
    servers[leader]
        .node_mut()
        .shard_mut(0)
        .submit(put(1, 2, "b", 2))
        .unwrap();
    servers[leader]
        .node_mut()
        .shard_mut(0)
        .submit(put(1, 3, "c", 3))
        .unwrap();
    drive_until(
        &mut servers,
        Duration::from_secs(5),
        "majority decide",
        |s| s[leader].node().read_local("c") == Some(3),
    );
    assert_eq!(
        servers[follower].node().read_local("b"),
        None,
        "follower must miss writes while its transport is dead"
    );
    let reqs_before = servers[leader].prepare_reqs_received();

    // Rebuild the transport on the same address: sessions re-form with
    // higher numbers, and the follower re-syncs.
    let t = Transport::bind(follower_pid, repl_addrs.clone(), tcp_cfg()).unwrap();
    servers[follower].set_transport(t);
    drive_until(
        &mut servers,
        Duration::from_secs(10),
        "follower resync",
        |s| {
            s[follower].node().read_local("b") == Some(2)
                && s[follower].node().read_local("c") == Some(3)
        },
    );

    assert!(
        servers[leader].prepare_reqs_received() > reqs_before,
        "leader must receive a PrepareReq after the session reforms"
    );
    assert!(servers[follower].reconnects_seen() > 0);
    let leader_state = servers[leader]
        .node()
        .shard(0)
        .state_machine()
        .state()
        .clone();
    let follower_state = servers[follower]
        .node()
        .shard(0)
        .state_machine()
        .state()
        .clone();
    assert_eq!(leader_state, follower_state, "states must converge");
}
