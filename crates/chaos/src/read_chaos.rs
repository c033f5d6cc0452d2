//! The linearizable read modes under skew and faults: no stale read.
//!
//! This workload checks the *read* contract of [`kvstore::ReadMode`]. A
//! monotone counter per key is grown through `Add` writes at a claiming
//! leader; every read — leader-lease, read-index, or read-through-log —
//! must observe a value at least as large as every `Add` whose completion
//! was observed **before the read was issued**. A lease implementation
//! that let a deposed-but-lease-holding leader keep serving after a
//! successor committed writes, or a read-index barrier captured from a
//! stale leader, shows up here as a counter going backwards.
//!
//! On top of the link cuts and crash/recovery faults, a **clock-skew
//! nemesis** runs each node's lease clock at a slightly different rate:
//! a per-seed subset of nodes gets one extra `tick()` every few steps,
//! with drift bounded by the configured `lease_epsilon_ticks` per lease
//! window — the exact contract the epsilon is supposed to absorb. Skew
//! inside the bound must never produce a stale read.

use crate::driver::{Cluster, Node, Shape, Workload};
use crate::monitor::{breach, Breach};
use crate::trace::Counters;
use crate::NodeId;
use kvstore::{KvCommand, KvOp, KvResult, ReadMode};
use omnipaxos::service::ServerConfig;
use simulator::Rng;
use std::collections::HashMap;

/// Lease duration in simulator ticks; epsilon is the skew the cluster
/// contract absorbs, and the nemesis drifts clocks right up to it.
const LEASE_TICKS: u64 = 30;
const LEASE_EPSILON: u64 = 6;
/// Read clients are `READ_CLIENT + i` at node `i`.
const READ_CLIENT: u64 = 900;

/// Writes and reads in one mode against a per-key staleness floor.
pub struct Reads {
    mode: ReadMode,
    /// Node `i` gets one extra tick every `skew[i]` ticks (0 = a
    /// well-behaved clock). The fastest period keeps drift under
    /// `LEASE_EPSILON` per `LEASE_TICKS` window: 30/8 < 6.
    skew: [u64; 3],
    /// Where each write was submitted: completion is when THAT node
    /// reports it applied — only then does its value join the floor.
    write_site: HashMap<(u64, u64), usize>,
    /// Highest completed counter value per key: the staleness floor.
    floor: HashMap<String, i64>,
    /// Reads in flight: `(node, client, seq)` → (key, floor at issue).
    pending: HashMap<(usize, u64, u64), (String, i64)>,
}

impl Reads {
    pub fn new(mode: ReadMode, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0xBEAD_CAFE);
        Reads {
            mode,
            skew: [(); 3].map(|_| [0, 8, 16][rng.below(3) as usize]),
            write_site: HashMap::new(),
            floor: HashMap::new(),
            pending: HashMap::new(),
        }
    }
}

impl Workload for Reads {
    fn shape(&self) -> Shape {
        Shape {
            shards: 1,
            compact: false,
            disk: false,
        }
    }

    fn config(&self, pid: NodeId) -> ServerConfig {
        let mut cfg = ServerConfig::with(pid);
        cfg.lease_ticks = LEASE_TICKS;
        cfg.lease_epsilon_ticks = LEASE_EPSILON;
        cfg
    }

    fn traffic(&mut self, t: u64, cx: &mut Cluster) {
        // Writes: monotone counters, submitted at a claiming leader (under
        // a partition both the deposed and the new leader may claim — the
        // dangerous interleaving the lease must survive). The key follows
        // from the seq, so a completion maps back to its key.
        let claiming = if t.is_multiple_of(5) {
            cx.claimants(0)
        } else {
            Vec::new()
        };
        if !claiming.is_empty() {
            let li = claiming[cx.rng.below(claiming.len() as u64) as usize];
            let client = cx.rng.range_inclusive(1, 2);
            let seq = cx.issue(0, client);
            let key = format!("k{}", seq % 4);
            let cmd = KvCommand {
                client,
                seq,
                op: KvOp::Add { key, delta: 1 },
            };
            if cx.nodes[li].submit_batch(0, [cmd]).is_ok() {
                cx.stats.add("writes", 1);
                self.write_site.insert((client, seq), li);
            }
        }
        // Reads in the mode under test, issued at a random live node —
        // including deposed leaders and partitioned followers.
        if t.is_multiple_of(3) {
            let i = cx.rng.below(3) as usize;
            if cx.live(i) {
                let key = format!("k{}", cx.rng.below(4));
                let client = READ_CLIENT + i as u64;
                let seq = cx.issue(0, client);
                let floor = self.floor.get(&key).copied().unwrap_or(0);
                if cx.nodes[i]
                    .read(self.mode, client, seq, key.clone())
                    .is_ok()
                {
                    cx.stats.add("reads_issued", 1);
                    self.pending.insert((i, client, seq), (key, floor));
                }
            }
        }
    }

    fn skew(&self, t: u64, i: usize) -> bool {
        self.skew[i] > 0 && t.is_multiple_of(self.skew[i])
    }

    fn observe(
        &mut self,
        i: usize,
        _node: &mut Node,
        results: &[(u32, KvResult)],
        stats: &mut Counters,
    ) -> Result<(), Breach> {
        for (_, r) in results {
            if let Some((key, floor)) = self.pending.remove(&(i, r.client, r.seq)) {
                if !r.applied {
                    stats.add("reads_expired", 1);
                    continue;
                }
                stats.add("reads_served", 1);
                let seen = r.value.unwrap_or(0);
                if seen < floor {
                    return breach(
                        "stale-read",
                        format!(
                            "node {} served {key}={seen} in mode {:?} after a completed \
                             write had raised it to {floor}",
                            i + 1,
                            self.mode
                        ),
                    );
                }
            } else if r.applied && self.write_site.get(&(r.client, r.seq)) == Some(&i) {
                // The submitting site answered: the write completed, so
                // every later read must observe it (`Add` returns the
                // post-apply counter).
                if let Some(v) = r.value {
                    let f = self.floor.entry(format!("k{}", r.seq % 4)).or_insert(0);
                    *f = (*f).max(v);
                }
            }
        }
        Ok(())
    }
}
