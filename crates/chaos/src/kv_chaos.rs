//! Session dedup under faults, on one group or many.
//!
//! The protocol harness checks log safety; this workload checks the
//! *application* contract on top of it. Clients submit windowed bursts of
//! commands with per-client sequence numbers — many seqs outstanding at
//! once, like a pipelined socket client — and deliberately retry seqs
//! anywhere in the window, including ones older than later seqs already
//! applied. Exactly once per `(shard, client, seq)` must take effect,
//! across link cuts, crash + recovery, and snapshot compaction (the
//! session table is part of the snapshot; a snapshot that forgot it
//! would re-apply retries after a transfer).
//!
//! With one shard this is the `--kv-seeds` workload. With four shards and
//! a standby joiner it is `--shard-seeds`: every shard rides the same
//! links and crashes, compaction is per shard, and the driver moves one
//! shard onto the joiner mid-traffic on even seeds. The driver checks
//! verdict stability, per-shard convergence and leader agreement, the
//! session tables against what clients issued, and a post-heal probe
//! write per shard.

use crate::driver::{keys_of, Cluster, Shape, Workload};
use kvstore::{KvCommand, KvOp};
use std::collections::BTreeMap;

/// Keys per shard: few, so retries and fresh writes contend.
const KEYS: usize = 4;
/// A client's retry window.
const WINDOW: usize = 16;

/// Windowed session clients 1 and 2 over `shards` groups.
pub struct Sessions {
    shards: usize,
    keys: Vec<Vec<String>>,
    /// Recent commands per `(client, shard)`: retries resend any of them.
    recent: BTreeMap<(u64, u32), Vec<KvCommand>>,
}

impl Sessions {
    pub fn new(shards: usize) -> Self {
        let keys = (0..shards as u32)
            .map(|s| keys_of("k", s, shards).take(KEYS).collect())
            .collect();
        Sessions {
            shards,
            keys,
            recent: BTreeMap::new(),
        }
    }
}

impl Workload for Sessions {
    fn shape(&self) -> Shape {
        Shape {
            shards: self.shards,
            compact: true,
            disk: false,
        }
    }

    fn traffic(&mut self, t: u64, cx: &mut Cluster) {
        if !t.is_multiple_of(5) {
            return;
        }
        let client = cx.rng.range_inclusive(1, 2);
        let shard = cx.rng.below(self.shards as u64) as u32;
        let Some(li) = cx.leader(shard) else {
            return;
        };
        let window = self.recent.entry((client, shard)).or_default();
        let cmds = if cx.rng.chance(0.3) && !window.is_empty() {
            // Retry: a random in-window seq — often one older than later
            // seqs already applied. Dedup must still apply it once.
            cx.stats.add("retries", 1);
            vec![window[cx.rng.below(window.len() as u64) as usize].clone()]
        } else {
            // Fresh burst: several new seqs back to back, in seq order —
            // the open-loop window filling up.
            let keys = &self.keys[shard as usize];
            (0..cx.rng.range_inclusive(1, 4))
                .map(|_| {
                    let c = KvCommand {
                        client,
                        seq: cx.issue(shard, client),
                        op: KvOp::Add {
                            key: keys[cx.rng.below(keys.len() as u64) as usize].clone(),
                            delta: cx.rng.range_inclusive(1, 9) as i64,
                        },
                    };
                    window.push(c.clone());
                    if window.len() > WINDOW {
                        window.remove(0);
                    }
                    c
                })
                .collect()
        };
        for c in cmds {
            if cx.nodes[li].submit_batch(shard, [c]).is_ok() {
                cx.stats.add("submitted", 1);
            }
        }
    }
}
