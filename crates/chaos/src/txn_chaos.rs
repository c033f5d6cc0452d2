//! Cross-shard transactions under chaos: a bank of accounts spread over
//! the sharded store, moved between by 2PC transfers (DESIGN.md §15)
//! while partitions, crashes, disk faults, and a mid-traffic shard move
//! attack every layer underneath.
//!
//! The workload is transfers between random accounts — some same-shard,
//! most spanning two shards — driven by one [`TxnCoordinator`] per node,
//! with deliberately overdrawn transfers mixed in so both the commit and
//! the abort path run under fire. A restarted node gets a fresh
//! coordinator (a new incarnation, like a restarted gateway), so orphan
//! recovery by the survivors' stale-prepare scanners is exercised, not
//! just simulated. Disk faults use the real [`omnipaxos::FaultyStorage`]
//! failpoints: a shard whose storage fails halts fail-stop
//! mid-transaction — possibly between its prepare vote and the commit
//! record — and recovers by storage rollback + resync.
//!
//! Accounts are funded in a calm cluster first. After the heal the run
//! must reach a state where:
//!
//! * **no orphaned prepares survive** — every per-key lock and staged
//!   prepare on a member replica is resolved, and every coordinator
//!   retired every run it started;
//! * **coordinator verdicts agree with the log** — an outcome reported
//!   to a client must match the decision the coordinator shard recorded;
//! * **balances match the decision log** — each account's balance equals
//!   its opening balance plus exactly the committed transfers that touch
//!   it, at every replica of its shard, and a transaction with no
//!   recorded decision had no effect;
//! * **money is conserved** — the accounts sum to the opening total.

use crate::driver::{Cluster, Node, Shape, Workload};
use crate::monitor::{breach, Breach};
use crate::trace::Counters;
use crate::NodeId;
use kvstore::{shard_of_key, KvCommand, KvOp, KvResult, TxnCoordinator, TxnId, TxnSpec};
use std::collections::BTreeMap;

const SHARDS: usize = 4;
/// Bank accounts, hashed over the shards.
const ACCOUNTS: usize = 8;
const OPENING: i64 = 1_000;
/// An amount no account can ever cover: the guard votes no.
const OVERDRAWN: i64 = ACCOUNTS as i64 * OPENING + 1;
/// Client ids: transactions, funding puts, and plain-write noise.
const TXN_CLIENT: u64 = 7;
const FUND_CLIENT: u64 = 5;
const NOISE_CLIENT: u64 = 2;

/// Bank transfers over 2PC, one coordinator per node.
pub struct Bank {
    accounts: Vec<String>,
    shard: Vec<u32>,
    /// Each account's funding command, retried with the same seq.
    funding: Vec<KvCommand>,
    /// Per node: its coordinator and its incarnation count.
    coords: Vec<(TxnCoordinator, u32)>,
    /// Outcomes the coordinators reported to their clients.
    outcomes: BTreeMap<TxnId, bool>,
    /// Every transaction begun: txn → (from, to, amount).
    ledger: BTreeMap<TxnId, (usize, usize, i64)>,
    next_txn: u64,
}

impl Default for Bank {
    fn default() -> Self {
        let accounts: Vec<String> = (0..ACCOUNTS).map(|i| format!("acct{i}")).collect();
        Bank {
            shard: accounts.iter().map(|a| shard_of_key(a, SHARDS)).collect(),
            accounts,
            funding: Vec::new(),
            coords: (1..=4).map(|p| (TxnCoordinator::new(p), 0)).collect(),
            outcomes: BTreeMap::new(),
            ledger: BTreeMap::new(),
            next_txn: 1,
        }
    }
}

impl Bank {
    /// Does every voter hold account `i`'s opening balance?
    fn funded(&self, cx: &Cluster, i: usize) -> bool {
        (1..=3).all(|p| self.balance(cx, p, i) == Some(OPENING))
    }

    fn balance(&self, cx: &Cluster, pid: NodeId, i: usize) -> Option<i64> {
        cx.node(pid).read_local(&self.accounts[i])
    }
}

impl Workload for Bank {
    fn shape(&self) -> Shape {
        Shape {
            shards: SHARDS,
            compact: true,
            disk: true,
        }
    }

    /// Fund every account, retrying until all voters hold the opening
    /// balances.
    fn ready(&mut self, t: u64, cx: &mut Cluster) -> bool {
        if self.funding.is_empty() {
            self.funding = (0..ACCOUNTS)
                .map(|i| KvCommand {
                    client: FUND_CLIENT,
                    seq: cx.issue(self.shard[i], FUND_CLIENT),
                    op: KvOp::Put {
                        key: self.accounts[i].clone(),
                        value: OPENING,
                    },
                })
                .collect();
        }
        if t >= 240 && t % 40 == 8 && (0..ACCOUNTS).all(|i| self.funded(cx, i)) {
            return true;
        }
        if t >= 200 && t.is_multiple_of(40) {
            for i in 0..ACCOUNTS {
                let s = self.shard[i];
                if let (false, Some(li)) = (self.funded(cx, i), cx.leader(s)) {
                    let _ = cx.nodes[li].submit_batch(s, [self.funding[i].clone()]);
                }
            }
        }
        false
    }

    fn traffic(&mut self, t: u64, cx: &mut Cluster) {
        // Transfers begun at a random live gateway; a fifth are
        // overdrawn on purpose so the abort path runs as often as commits.
        if t.is_multiple_of(8) {
            let gw = cx.rng.below(3) as usize;
            if cx.live(gw) {
                let from = cx.rng.below(ACCOUNTS as u64) as usize;
                let to = (from + 1 + cx.rng.below(ACCOUNTS as u64 - 1) as usize) % ACCOUNTS;
                let amount = if cx.rng.chance(0.2) {
                    OVERDRAWN
                } else {
                    cx.rng.range_inclusive(1, 100) as i64
                };
                let txn: TxnId = (TXN_CLIENT, self.next_txn);
                self.next_txn += 1;
                self.ledger.insert(txn, (from, to, amount));
                cx.stats.add("submitted", 1);
                if self.shard[from] != self.shard[to] {
                    cx.stats.add("cross_shard", 1);
                }
                let spec = TxnSpec::transfer(&self.accounts[from], &self.accounts[to], amount);
                if let Some(committed) = self.coords[gw].0.begin(&mut cx.nodes[gw], txn, &spec) {
                    self.outcomes.insert(txn, committed);
                }
            }
        }
        // Noise: zero-delta adds on account keys — they collide with
        // prepare locks (rejected, applied=false) without moving money,
        // so plain traffic and transactions interleave on the same keys.
        if t.is_multiple_of(16) {
            let i = cx.rng.below(ACCOUNTS as u64) as usize;
            let s = self.shard[i];
            if let Some(li) = cx.leader(s) {
                let cmd = KvCommand {
                    client: NOISE_CLIENT,
                    seq: cx.issue(s, NOISE_CLIENT),
                    op: KvOp::Add {
                        key: self.accounts[i].clone(),
                        delta: 0,
                    },
                };
                let _ = cx.nodes[li].submit_batch(s, [cmd]);
            }
        }
    }

    fn observe(
        &mut self,
        i: usize,
        node: &mut Node,
        results: &[(u32, KvResult)],
        _stats: &mut Counters,
    ) -> Result<(), Breach> {
        let coord = &mut self.coords[i].0;
        coord.observe(node, results);
        coord.tick(node);
        for o in coord.take_outcomes() {
            if let Some(prev) = self.outcomes.insert(o.txn, o.committed) {
                if prev != o.committed {
                    return breach(
                        "verdict-stability",
                        format!(
                            "txn {:?} reported committed={prev} then committed={}",
                            o.txn, o.committed
                        ),
                    );
                }
            }
        }
        Ok(())
    }

    /// The gateway died with the node: its replacement coordinator starts
    /// empty, with a fresh incarnation identity, and the survivors'
    /// scanners own whatever it abandoned.
    fn recovered(&mut self, pid: NodeId) {
        let (coord, incarnation) = &mut self.coords[(pid - 1) as usize];
        *incarnation += 1;
        *coord = TxnCoordinator::with_nonce(pid, *incarnation);
    }

    /// No staged prepare or lock on any member replica (a donor moved
    /// out of a shard keeps a frozen replica that may hold stale locks —
    /// it serves nothing, so it is not consulted), and no coordinator
    /// still driving a run.
    fn settled(&self, cx: &Cluster) -> Result<(), String> {
        let staged: Vec<(u32, NodeId, usize, usize)> = (0..SHARDS as u32)
            .flat_map(|s| cx.membership(s).into_iter().map(move |p| (s, p)))
            .map(|(s, p)| {
                let sm = cx.node(p).shard(s).state_machine();
                (s, p, sm.prepared().len(), sm.locks().len())
            })
            .filter(|&(_, _, prepared, locks)| prepared + locks > 0)
            .collect();
        let runs: Vec<usize> = self.coords.iter().map(|(c, _)| c.in_flight()).collect();
        if staged.is_empty() && runs.iter().all(|&n| n == 0) {
            return Ok(());
        }
        Err(format!(
            "residue (shard, node, prepared, locks) {staged:?}, coordinator runs {runs:?}"
        ))
    }

    fn audit(&mut self, cx: &mut Cluster) -> Result<(), Breach> {
        // Ground truth: the coordinator shard's replicated decision map.
        // No recorded decision means the transaction had no effect
        // (`settled` already proved nothing is staged).
        let mut expected = [OPENING; ACCOUNTS];
        for (txn, &(from, to, amount)) in &self.ledger {
            let cs = self.shard[from].min(self.shard[to]);
            let owner = cx.membership(cs).first().copied().unwrap_or(1);
            let sm = cx.node(owner).shard(cs).state_machine();
            let committed = sm.decisions().get(txn).copied().unwrap_or(false);
            if let Some(&reported) = self.outcomes.get(txn) {
                if reported != committed {
                    return breach(
                        "txn-verdict",
                        format!(
                            "coordinator lied: txn {txn:?} reported committed={reported}, \
                             decision log says {committed}"
                        ),
                    );
                }
            }
            if committed {
                cx.stats.add("committed", 1);
                expected[from] -= amount;
                expected[to] += amount;
            } else if amount == OVERDRAWN {
                cx.stats.add("aborted_overdrawn", 1);
            } else {
                cx.stats.add("aborted_other", 1);
            }
        }
        for (i, &want) in expected.iter().enumerate() {
            for p in cx.membership(self.shard[i]) {
                let got = self.balance(cx, p, i);
                if got != Some(want) {
                    return breach(
                        "balances",
                        format!(
                            "{} on node {p} is {got:?}, the decision log implies {want} \
                             ({} transactions committed)",
                            self.accounts[i],
                            cx.stats.get("committed")
                        ),
                    );
                }
            }
        }
        let total: i64 = expected.iter().sum();
        if total != ACCOUNTS as i64 * OPENING {
            return breach(
                "conservation",
                format!(
                    "accounts sum to {total}, opened with {}",
                    ACCOUNTS as i64 * OPENING
                ),
            );
        }
        Ok(())
    }
}
