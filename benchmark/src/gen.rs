//! The op generator: a fixed repeating pattern of op *kinds*, with only the
//! keys and values drawn from the `--seed`-ed `simulator::Rng`.
//!
//! Keys are fixed-width (`k0000`–`k1023`) and values are 8-byte integers,
//! so every seed produces the same kind sequence and the same bytes on the
//! wire per op — the work of a run is seed-invariant, only *which* keys it
//! touches moves. The generator also keeps the model: the value every key
//! holds once all ops generated so far have applied in order (one client
//! session per shard is FIFO end to end, so they do).

use kvstore::{KvOp, TxnSpec};
use simulator::Rng;

/// Keys every workload works on.
pub const KEYS: usize = 1024;
/// `tcp_txn_2shard`: the first half of the keyspace are funded accounts,
/// touched only by transfers; puts and CAS use the second half, so a key a
/// prepared transfer has locked never refuses a plain write.
pub const ACCOUNTS: usize = 512;
/// Opening balance of an account; transfers move 1–8, so none overdraws.
pub const OPENING_BALANCE: i64 = 1_000_000;

pub fn key(i: usize) -> String {
    format!("k{i:04}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    /// `ReadMode::Lease` read.
    Read,
    /// CAS expecting the model's value: must apply.
    Cas,
    /// CAS expecting a value the key does not hold: must be refused and
    /// report the actual value.
    StaleCas,
    /// Cross-shard transfer between two funded accounts.
    Transfer,
}

/// 100 % puts (`tcp_put`, `engine_put_wal`).
pub const PUTS: &[Kind] = &[Kind::Put];
/// Reads only (`tcp_read_lease`, window-1 phase).
pub const READS: &[Kind] = &[Kind::Read];
/// 95 % lease reads / 5 % puts.
pub const READ_MOSTLY: &[Kind] = &{
    let mut p = [Kind::Read; 20];
    p[10] = Kind::Put;
    p
};
/// 16 put / 3 CAS (one stale) / 1 cross-shard transfer.
pub const TXN_MIX: &[Kind] = &{
    let mut p = [Kind::Put; 20];
    p[4] = Kind::Cas;
    p[9] = Kind::StaleCas;
    p[14] = Kind::Transfer;
    p[19] = Kind::Cas;
    p
};

/// What to hand the client.
#[derive(Debug, Clone)]
pub enum Request {
    Write(KvOp),
    Read(String),
    Txn(TxnSpec),
}

/// One generated op and what a correct system answers.
#[derive(Debug, Clone)]
pub struct GenOp {
    pub kind: Kind,
    pub request: Request,
    /// Key index (the `from` account of a transfer).
    pub key: usize,
    /// The `to` account of a transfer.
    pub key2: usize,
    /// `applied` a correct system reports.
    pub expect_applied: bool,
    /// `value` a correct system reports (`None`: not checked here — reads
    /// are checked against the staleness floor by the caller).
    pub expect_value: Option<i64>,
    /// Amount moved by a transfer.
    pub amount: i64,
    /// Which account pair a transfer uses (index into the generator's list).
    pub pair: usize,
}

pub struct Generator {
    rng: Rng,
    pattern: &'static [Kind],
    at: usize,
    /// Two-shard layout: accounts below [`ACCOUNTS`], plain keys above.
    split_keyspace: bool,
    /// Strictly increasing put values, so "older" is decidable for reads.
    counter: i64,
    /// Value of each key once every generated write has applied.
    pub model: Vec<i64>,
    /// Disjoint account pairs that span two shards, in a seeded order.
    /// Transfers walk the list round-robin, skipping pairs still in
    /// flight: a transfer is answered when its *decision* is recorded, and
    /// its locks are only released when the commit records that follow
    /// apply, so an account reused at once can still be locked and the
    /// next prepare votes no. ~250 transfers (tens of milliseconds at full
    /// speed) between two uses of an account let the locks clear, so every
    /// transfer commits.
    pairs: Vec<(usize, usize)>,
    next_pair: usize,
    /// Pairs with a transfer in flight, by index into `pairs`.
    busy: Vec<bool>,
}

impl Generator {
    /// The model starts at what set-up writes (see [`initial_values`]).
    pub fn new(seed: u64, pattern: &'static [Kind], n_shards: usize) -> Self {
        let split_keyspace = pattern.contains(&Kind::Transfer);
        let mut rng = Rng::seed_from_u64(seed);
        let pairs = if split_keyspace {
            cross_shard_pairs(&mut rng, n_shards)
        } else {
            Vec::new()
        };
        Generator {
            rng,
            pattern,
            at: 0,
            split_keyspace,
            counter: OPENING_BALANCE,
            model: initial_values(split_keyspace),
            busy: vec![false; pairs.len()],
            pairs,
            next_pair: 0,
        }
    }

    /// Continue with another pattern (the window-1 and window-256 phases
    /// of `tcp_read_lease` differ); model and counters carry over.
    pub fn set_pattern(&mut self, pattern: &'static [Kind]) {
        self.pattern = pattern;
        self.at = 0;
    }

    fn plain_key(&mut self) -> usize {
        if self.split_keyspace {
            ACCOUNTS + self.rng.below_usize(KEYS - ACCOUNTS)
        } else {
            self.rng.below_usize(KEYS)
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let kind = self.pattern[self.at];
        self.at = (self.at + 1) % self.pattern.len();
        let mut op = GenOp {
            kind,
            request: Request::Read(String::new()),
            key: 0,
            key2: 0,
            expect_applied: true,
            expect_value: None,
            amount: 0,
            pair: 0,
        };
        match kind {
            Kind::Put => {
                op.key = self.plain_key();
                self.counter += 1;
                let value = self.counter;
                self.model[op.key] = value;
                op.expect_value = Some(value);
                op.request = Request::Write(KvOp::Put {
                    key: key(op.key),
                    value,
                });
            }
            Kind::Read => {
                op.key = self.plain_key();
                op.request = Request::Read(key(op.key));
            }
            Kind::Cas | Kind::StaleCas => {
                op.key = self.plain_key();
                self.counter += 1;
                let set = self.counter;
                let held = self.model[op.key];
                let expect = if kind == Kind::Cas {
                    self.model[op.key] = set;
                    op.expect_value = Some(set);
                    held
                } else {
                    op.expect_applied = false;
                    op.expect_value = Some(held);
                    held - 1
                };
                op.request = Request::Write(KvOp::Cas {
                    key: key(op.key),
                    expect: Some(expect),
                    set: Some(set),
                });
            }
            Kind::Transfer => {
                // The next idle pair (if every pair is in flight — an
                // overloaded open-loop rung — the next one regardless).
                let n = self.pairs.len();
                let idle = (0..n)
                    .map(|i| (self.next_pair + i) % n)
                    .find(|&i| !self.busy[i])
                    .unwrap_or(self.next_pair);
                self.next_pair = (idle + 1) % n;
                self.busy[idle] = true;
                let (a, b) = self.pairs[idle];
                (op.key, op.key2) = if self.rng.chance(0.5) { (a, b) } else { (b, a) };
                op.pair = idle;
                op.amount = 1 + self.rng.below(8) as i64;
                op.expect_value = Some(1);
                op.request = Request::Txn(TxnSpec::transfer(key(op.key), key(op.key2), op.amount));
            }
        }
        op
    }

    /// A transfer completed: its pair may be drawn again (once the walk
    /// comes back round to it), and if it committed the money moved.
    pub fn transfer_done(&mut self, op: &GenOp, committed: bool) {
        self.busy[op.pair] = false;
        if committed {
            self.model[op.key] -= op.amount;
            self.model[op.key2] += op.amount;
        }
    }
}

/// Every account of each shard, zipped into disjoint pairs that span two
/// shards, shuffled by the seed.
fn cross_shard_pairs(rng: &mut Rng, n_shards: usize) -> Vec<(usize, usize)> {
    let on = |shard: u32| {
        (0..ACCOUNTS).filter(move |&i| kvstore::shard_of_key(&key(i), n_shards) == shard)
    };
    let mut pairs: Vec<(usize, usize)> = on(0).zip(on(1)).collect();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.below_usize(i + 1));
    }
    pairs
}

/// What set-up writes before any measured op: every account funded, every
/// plain key holding its own index.
pub fn initial_values(split_keyspace: bool) -> Vec<i64> {
    (0..KEYS)
        .map(|i| {
            if split_keyspace && i < ACCOUNTS {
                OPENING_BALANCE
            } else {
                i as i64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::{KvCommand, KvWire, ReadMode};
    use omnipaxos::wire::Wire;

    fn wire_len(op: &GenOp, seq: u64) -> usize {
        match &op.request {
            Request::Write(o) => KvWire::Request(KvCommand {
                client: 7,
                seq,
                op: o.clone(),
            })
            .to_bytes()
            .len(),
            Request::Read(k) => KvWire::ReadRequest {
                mode: ReadMode::Lease,
                client: 7,
                seq,
                key: k.clone(),
            }
            .to_bytes()
            .len(),
            Request::Txn(spec) => KvWire::TxnRequest {
                client: 7,
                seq,
                spec: spec.clone(),
            }
            .to_bytes()
            .len(),
        }
    }

    #[test]
    fn two_seeds_give_the_same_kinds_and_bytes_but_other_keys() {
        for pattern in [PUTS, READS, READ_MOSTLY, TXN_MIX] {
            let mut a = Generator::new(1, pattern, 2);
            let mut b = Generator::new(2, pattern, 2);
            let mut same_keys = 0;
            for seq in 1..=2000u64 {
                let (x, y) = (a.next_op(), b.next_op());
                assert_eq!(x.kind, y.kind);
                assert_eq!(
                    wire_len(&x, seq),
                    wire_len(&y, seq),
                    "op {seq} {:?}",
                    x.kind
                );
                same_keys += (x.key == y.key) as u32;
                if x.kind == Kind::Transfer {
                    a.transfer_done(&x, true);
                    b.transfer_done(&y, true);
                }
            }
            assert!(same_keys < 100, "seeds must draw different keys");
        }
    }

    #[test]
    fn the_mix_is_sixteen_three_one() {
        let count = |k: Kind| TXN_MIX.iter().filter(|&&x| x == k).count();
        assert_eq!(
            (
                count(Kind::Put),
                count(Kind::Cas) + count(Kind::StaleCas),
                count(Kind::Transfer)
            ),
            (16, 3, 1)
        );
        assert_eq!(count(Kind::StaleCas), 1);
        assert_eq!(READ_MOSTLY.iter().filter(|&&x| x == Kind::Put).count(), 1);
    }

    #[test]
    fn transfers_span_shards_avoid_busy_accounts_and_conserve_the_model() {
        let mut g = Generator::new(9, TXN_MIX, 2);
        let total: i64 = g.model[..ACCOUNTS].iter().sum();
        let mut inflight: Vec<GenOp> = Vec::new();
        let (mut transfers, mut last_used) = (1usize, vec![0usize; ACCOUNTS]);
        assert!(g.pairs.len() > 230, "{} cross-shard pairs", g.pairs.len());
        for _ in 0..40_000 {
            let op = g.next_op();
            if op.kind == Kind::Transfer {
                for other in &inflight {
                    for k in [other.key, other.key2] {
                        assert!(k != op.key && k != op.key2, "busy account reused");
                    }
                }
                // An account rests for most of a lap of the pair list.
                for k in [op.key, op.key2] {
                    let since = transfers - last_used[k];
                    assert!(
                        last_used[k] == 0 || since > 200,
                        "{} reused after {since}",
                        key(k)
                    );
                    last_used[k] = transfers;
                }
                transfers += 1;
                assert_ne!(
                    kvstore::shard_of_key(&key(op.key), 2),
                    kvstore::shard_of_key(&key(op.key2), 2)
                );
                inflight.push(op);
                if inflight.len() == 12 {
                    let done = inflight.remove(0);
                    g.transfer_done(&done, true);
                }
            } else {
                assert!(op.key >= ACCOUNTS, "plain ops stay off the accounts");
            }
        }
        for op in inflight {
            g.transfer_done(&op, false);
        }
        assert_eq!(g.model[..ACCOUNTS].iter().sum::<i64>(), total);
    }
}
