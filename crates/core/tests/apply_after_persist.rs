//! Apply after persist: a server delivers a decided entry only once its
//! storage would keep that entry across a crash.
//!
//! A follower that fell behind is re-synchronized by one `AcceptSync`
//! whose decided index covers the very suffix it carries, so the follower
//! learns that entries are decided in the same call that appends them. Its
//! disk then fails the flush that would have made the suffix durable, and
//! recovery rolls the suffix back. Delivering it before the flush would
//! hand the application entries the replica no longer holds.

use omnipaxos::{
    FaultyStorage, MemoryStorage, Message, NodeId, OmniMessage, OmniPaxosServer, PaxosMsg,
    ServerConfig, ServiceMsg, StorageFaultKind,
};

type Server = OmniPaxosServer<u64, FaultyStorage<u64, MemoryStorage<u64>>>;

/// Three servers over fault-injectable storage, fully connected except
/// for an optionally isolated one. Messages sent in a step are handled in
/// the same step.
struct Cluster {
    servers: Vec<Server>,
    isolated: Option<NodeId>,
}

impl Cluster {
    fn new() -> Self {
        let nodes: Vec<NodeId> = vec![1, 2, 3];
        let servers = nodes
            .iter()
            .map(|&pid| OmniPaxosServer::new(ServerConfig::with(pid), nodes.clone()))
            .collect();
        Cluster {
            servers,
            isolated: None,
        }
    }

    fn server(&mut self, pid: NodeId) -> &mut Server {
        &mut self.servers[pid as usize - 1]
    }

    /// One step; `intercept` sees every message to a live link first and
    /// may handle it itself (returning `true`).
    fn step(&mut self, mut intercept: impl FnMut(&mut Server, &ServiceMsg<u64>) -> bool) {
        let mut wire = Vec::new();
        for s in &mut self.servers {
            s.tick();
            let from = s.pid();
            wire.extend(s.outgoing().into_iter().map(|(to, m)| (from, to, m)));
        }
        for (from, to, msg) in wire {
            if self.isolated.is_some_and(|p| p == from || p == to) {
                continue;
            }
            let dest = self.server(to);
            if !intercept(dest, &msg) {
                dest.handle(from, msg);
            }
        }
    }

    fn run_until(&mut self, mut done: impl FnMut(&mut Self) -> bool) {
        for _ in 0..2_000 {
            if done(self) {
                return;
            }
            self.step(|_, _| false);
        }
        panic!("not reached: {:?}", self.servers);
    }
}

fn accept_sync(msg: &ServiceMsg<u64>) -> Option<(u64, u64, usize)> {
    match msg {
        ServiceMsg::Omni {
            msg:
                OmniMessage::Paxos(Message {
                    msg: PaxosMsg::AcceptSync(sync),
                    ..
                }),
            ..
        } => Some((sync.sync_idx, sync.decided_idx, sync.suffix.len())),
        _ => None,
    }
}

#[test]
fn decided_suffix_is_delivered_only_after_it_is_durable() {
    let mut c = Cluster::new();
    c.run_until(|c| c.servers.iter().filter(|s| s.is_leader()).count() == 1);
    let leader = c.servers.iter().find(|s| s.is_leader()).unwrap().pid();
    let f = (1..=3).rev().find(|&p| p != leader).unwrap();
    for v in 1..=5 {
        c.server(leader).propose(v).unwrap();
    }
    c.run_until(|c| c.servers.iter().all(|s| s.decided_len() == 5));
    let mut delivered: Vec<u64> = c.server(f).poll_applied().copied().collect();

    // The follower misses five decisions, then rejoins.
    c.isolated = Some(f);
    for v in 6..=10 {
        c.server(leader).propose(v).unwrap();
    }
    c.run_until(|c| c.server(leader).decided_len() == 10);
    c.isolated = None;
    c.server(f).reconnected(leader);
    c.server(leader).reconnected(f);

    // Its disk fails the flush after the re-sync: the suffix the sync
    // decides is appended, but never becomes durable.
    let mut synced = false;
    for _ in 0..100 {
        c.step(|s, msg| {
            let Some((sync_idx, decided_idx, len)) = accept_sync(msg) else {
                return false;
            };
            if synced || s.pid() != f {
                return false;
            }
            assert_eq!((sync_idx, decided_idx, len), (5, 10, 5), "{msg:?}");
            s.omni()
                .unwrap()
                .sequence_paxos()
                .storage()
                .arm(StorageFaultKind::SyncFailed);
            s.handle(leader, msg.clone());
            let early: Vec<u64> = s.poll_applied().copied().collect();
            assert_eq!(early, Vec::<u64>::new(), "delivered before its flush");
            assert_eq!(s.decided_len(), 5);
            synced = true;
            true
        });
        if synced {
            break;
        }
    }
    assert!(synced, "the leader never re-synced the follower");
    c.step(|_, _| false);
    assert!(c.server(f).is_halted(), "the flush should have failed");
    delivered.extend(c.server(f).poll_applied().copied());
    assert_eq!(delivered, (1..=5).collect::<Vec<u64>>());

    // Recovery rolls the unsynced suffix back; the re-sync brings it in
    // again, and every entry is delivered exactly once, in order.
    c.server(f).fail_recovery();
    c.run_until(|c| {
        delivered.extend(c.server(f).poll_applied().copied());
        delivered.len() >= 10
    });
    assert_eq!(delivered, (1..=10).collect::<Vec<u64>>());
}
