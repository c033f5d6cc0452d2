//! The replication hot path has an allocation budget.
//!
//! Three `KvNode`s on write-ahead logs exchange every message through
//! `Wire::encode` and `Wire::from_bytes`, as a socket transport does. Once
//! warm, the leader proposes batches of 64 puts to keys that already
//! exist. A counting global allocator charges every allocation to the call
//! that made it. The total per put must stay under [`BUDGET_PER_OP`].
//!
//! An entry should be allocated once per replica, when its message is
//! decoded. Storage takes it by move, the state machine reads it by
//! reference, and the wire and WAL encoders write into buffers they
//! reuse. A per-entry copy anywhere on that path adds at least one
//! allocation per put and fails this test. Print the per-class split with
//! `cargo test -p kvstore --test alloc_budget -- --nocapture`.

use kvstore::{KvCommand, KvNode, KvOp};
use omnipaxos::service::{OmniPaxosServer, ServerConfig, ServiceMsg};
use omnipaxos::wal::WalStorage;
use omnipaxos::wire::{BatchCache, Wire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// Allocations per put, all classes together. The path made 26.2 per put
/// before entries were encoded in place, moved into storage and applied
/// by reference, and 6.4 while each replica's service layer also copied
/// every decided entry into a log of its own. It makes 3.4 now that the
/// service layer reads decided entries from storage: each follower
/// decodes its key (2), and the leader copies the suffix it fans out (1).
/// One more copy of every entry on any single replica breaks the budget.
const BUDGET_PER_OP: f64 = 4.0;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The counter is a thread-local cell with a const
// initialiser and no destructor: touching it never allocates and never
// runs after thread-local teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's own arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Where the allocations went, one counter per call class.
const CLASSES: [&str; 6] = [
    "submit",
    "outgoing",
    "wire_encode",
    "wire_decode",
    "leader_handle",
    "follower_handle",
];

#[derive(Default)]
struct Tally {
    allocs: [u64; CLASSES.len()],
    on: bool,
}

impl Tally {
    /// Run `f`, charging its allocations to class `c` while counting is on.
    fn charge<R>(&mut self, c: usize, f: impl FnOnce() -> R) -> R {
        let before = ALLOCS.with(Cell::get);
        let r = f();
        if self.on {
            self.allocs[c] += ALLOCS.with(Cell::get) - before;
        }
        r
    }
}

struct Cluster {
    nodes: Vec<KvNode<WalStorage<KvCommand>>>,
    caches: Vec<BatchCache>,
    payload: Vec<u8>,
    dir: PathBuf,
    seq: u64,
}

const BATCH: usize = 64;

impl Cluster {
    fn boot() -> Cluster {
        let mut dir = std::env::temp_dir();
        dir.push(format!("kvstore-alloc-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let pids: Vec<u64> = vec![1, 2, 3];
        let nodes = pids
            .iter()
            .map(|&pid| {
                let mut cfg = ServerConfig::with(pid);
                cfg.priority = (pid == 1) as u64;
                let path = dir.join(format!("node{pid}"));
                let wal = WalStorage::open(path.with_extension("wal")).unwrap();
                // The configuration never changes, so the factory never runs.
                let later = move |id: u32| {
                    WalStorage::open(path.with_extension(format!("cfg{id}"))).unwrap()
                };
                KvNode::from_server(OmniPaxosServer::with_storage_factory(
                    cfg,
                    pids.clone(),
                    wal,
                    later,
                ))
            })
            .collect();
        let mut c = Cluster {
            caches: pids.iter().map(|_| BatchCache::new()).collect(),
            nodes,
            payload: Vec::new(),
            dir,
            seq: 0,
        };
        let mut t = Tally::default();
        for _ in 0..200 {
            if c.nodes[0].is_leader() {
                return c;
            }
            c.nodes.iter_mut().for_each(|n| n.tick());
            while c.sweep(&mut t) > 0 {}
        }
        panic!("pid 1 was not elected");
    }

    /// Every node's queued messages are encoded, decoded and handled by
    /// their destination once. Returns how many were delivered.
    fn sweep(&mut self, t: &mut Tally) -> usize {
        let mut delivered = 0;
        for i in 0..self.nodes.len() {
            let out = t.charge(1, || self.nodes[i].outgoing());
            if out.is_empty() {
                continue;
            }
            self.caches[i].reset();
            for (to, msg) in out {
                self.payload.clear();
                t.charge(2, || msg.encode(&mut self.payload, &mut self.caches[i]));
                drop(msg);
                let msg = t.charge(3, || {
                    ServiceMsg::<KvCommand>::from_bytes(&self.payload).unwrap()
                });
                let dest = (to - 1) as usize;
                let class = if dest == 0 { 4 } else { 5 };
                t.charge(class, || self.nodes[dest].handle(i as u64 + 1, msg));
                delivered += 1;
            }
        }
        delivered
    }

    /// Propose 64 puts to keys `k0..k63` and deliver until all are answered.
    fn round_trip(&mut self, t: &mut Tally) {
        let cmds: Vec<KvCommand> = (0..BATCH)
            .map(|i| {
                self.seq += 1;
                KvCommand {
                    client: 7,
                    seq: self.seq,
                    op: KvOp::Put {
                        key: format!("k{i}"),
                        value: self.seq as i64,
                    },
                }
            })
            .collect();
        let n = t.charge(0, || self.nodes[0].submit_batch(cmds)).unwrap();
        assert_eq!(n, BATCH);
        let mut answered = 0;
        while answered < BATCH {
            assert!(self.sweep(t) > 0, "stalled with {answered} answers");
            answered += self.nodes[0].take_results().len();
            for node in &mut self.nodes[1..] {
                node.take_results();
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.nodes.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn steady_state_puts_stay_within_the_allocation_budget() {
    let mut c = Cluster::boot();
    let mut t = Tally::default();
    // Warm up: every key exists, and every buffer has reached its size.
    for _ in 0..50 {
        c.round_trip(&mut t);
    }
    t.on = true;
    let batches = 200;
    for _ in 0..batches {
        c.round_trip(&mut t);
    }
    let ops = (batches * BATCH) as f64;
    let per_op: Vec<f64> = t.allocs.iter().map(|&a| a as f64 / ops).collect();
    for (name, v) in CLASSES.iter().zip(&per_op) {
        println!("{name:>16}: {v:6.2} allocs/op");
    }
    let total: f64 = per_op.iter().sum();
    println!("{:>16}: {total:6.2} allocs/op", "total");
    assert!(
        total <= BUDGET_PER_OP,
        "{total:.2} allocations per put, budget {BUDGET_PER_OP}"
    );
}
