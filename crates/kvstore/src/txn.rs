//! Cross-shard transactions: two-phase commit over per-shard Omni-Paxos
//! logs (DESIGN.md §15).
//!
//! The participant state of textbook 2PC — "prepared" votes, the
//! commit/abort decision, staged writes — lives *inside* the shards'
//! replicated logs as ordinary [`KvOp`] records, so it inherits the
//! durability and failover story of the store itself: a prepare survives
//! any minority of crashes because it is a decided log entry, and
//! coordinator recovery is log replay plus the stale-prepare scanner
//! below, not a separate write-ahead protocol.
//!
//! The protocol, per transaction (identified by the issuing client's
//! `(client, seq)` pair — globally unique, and the dedup key across every
//! coordinator that ever drives it):
//!
//! 1. **Prepare.** The coordinator partitions the [`TxnSpec`]'s guards
//!    and writes by key ownership and proposes a [`KvOp::TxnPrepare`]
//!    into each participant shard's log. Applying it votes: *yes* iff
//!    every guard holds and no touched key is locked by another
//!    transaction (staging the writes and locking the keys), *no*
//!    otherwise — voting no instead of waiting on a lock is what keeps
//!    the protocol deadlock-free.
//! 2. **Decide.** All yes → the coordinator proposes
//!    `TxnDecide { commit: true }`; any no (or the prepare deadline
//!    lapsing — presumed abort) → `commit: false`. The decision is
//!    proposed into the *coordinator shard's* log (the smallest
//!    participant shard id — deterministic, so independent recoveries
//!    agree on where to look). The first decision record for a
//!    transaction wins and is immutable; later conflicting proposals
//!    are no-ops that report the recorded decision. That single rule
//!    serializes a racing recovery abort against the original commit.
//! 3. **Resolve.** The winning decision is pushed to every participant
//!    as `TxnCommit`/`TxnAbort`, which applies or discards the staged
//!    writes and releases the locks. Resolution records are idempotent;
//!    retries are free.
//!
//! **Recovery.** Any replica can finish anyone's transaction: the
//! scanner in [`TxnCoordinator::tick`] watches its node's local shards
//! for prepared transactions that no local run owns. After a grace
//! period it consults the coordinator shard's (local) decision map —
//! a recorded decision is pushed to the stuck participant; no decision
//! earns a proposed abort into the coordinator shard, where first-wins
//! arbitration settles the race with any coordinator still alive.
//! A transaction in doubt is thus always driven to resolution once its
//! shards regain quorum: no orphaned prepare locks survive a heal.

use crate::shard::{shard_of_key, ShardedKvNode};
use crate::store::{KvCommand, KvOp, KvResult, TxnGuard, TxnId, TxnPrepare, TxnSpec, WriteOp};
use omnipaxos::storage::Storage;
use omnipaxos::NodeId;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Marks a coordinator-issued proposal's client id (alongside the read
/// flag used by `net`'s pipelined client): coordinator results are
/// filtered out of the client-reply path by this bit.
pub const TXN_CLIENT_FLAG: u64 = 1 << 62;

/// Ticks between re-proposing an unanswered record (proposals are lost on
/// leader changes; the records themselves are idempotent).
const RETRY_TICKS: u64 = 50;
/// Ticks a transaction may sit in the prepare phase before the
/// coordinator presumes abort and proposes `TxnDecide { commit: false }`.
const PREPARE_TIMEOUT_TICKS: u64 = 400;
/// Ticks between stale-prepare scans of the local shards.
const SCAN_EVERY_TICKS: u64 = 100;
/// Ticks after which a coordinator abandons a run it cannot finish —
/// e.g. its node was migrated out of a participant shard's membership
/// and can no longer propose into (or observe) that shard. The
/// transaction is not left in doubt: any prepares it staged are on
/// *member* replicas, whose scanners drive them to a decision; the
/// client learns the fate via a status query or a retried request.
const ABANDON_AFTER_TICKS: u64 = 4_000;
/// Grace period before the scanner considers a prepared transaction
/// orphaned — long enough for a live coordinator to finish on its own.
const RECOVER_AFTER_TICKS: u64 = 500;

/// The resolved fate of a transaction, reported once per
/// [`TxnCoordinator::begin`] that reached a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutcome {
    pub txn: TxnId,
    pub committed: bool,
}

/// What an in-flight coordinator proposal was for, keyed by its seq.
enum Pending {
    Prepare { txn: TxnId, shard: u32 },
    Decide { txn: TxnId },
    Resolve { txn: TxnId, shard: u32 },
}

/// Where a driven transaction stands.
enum Phase {
    /// Waiting for every participant's vote.
    Preparing { yes: HashSet<u32> },
    /// Votes in (or presumed abort); waiting for the decision record.
    Deciding { commit: bool },
    /// Decision recorded; pushing commit/abort to the participants.
    Resolving { commit: bool, done: HashSet<u32> },
}

/// One transaction this coordinator is driving.
struct Run {
    /// Participant shard → its slice of the spec.
    parts: BTreeMap<u32, (Vec<TxnGuard>, Vec<WriteOp>)>,
    /// The shard whose log arbitrates the decision.
    coord_shard: u32,
    phase: Phase,
    /// Presumed-abort deadline (prepare phase only).
    deadline: u64,
    next_retry: u64,
    /// When this run started (the abandon clock).
    born: u64,
}

/// Drives cross-shard transactions over a node's [`ShardedKvNode`]. One
/// coordinator per gateway; any node can coordinate any transaction
/// (proposals forward to shard leaders), and crashed coordinators are
/// covered by every other node's stale-prepare scanner.
pub struct TxnCoordinator {
    /// This coordinator's result identity:
    /// `TXN_CLIENT_FLAG | nonce << 32 | pid` — unique per incarnation.
    client: u64,
    next_seq: u64,
    ticks: u64,
    runs: BTreeMap<TxnId, Run>,
    pending: HashMap<u64, Pending>,
    outcomes: Vec<TxnOutcome>,
    next_scan: u64,
    /// When the scanner first saw a prepared transaction on a shard (the
    /// grace clock for orphan recovery).
    first_seen: HashMap<(u32, TxnId), u64>,
}

impl TxnCoordinator {
    pub fn new(pid: NodeId) -> Self {
        Self::with_nonce(pid, 0)
    }

    /// A coordinator whose identity is distinguished from earlier
    /// incarnations at the same node. A restarted gateway MUST NOT
    /// reuse its predecessor's `(client, seq)` space: proposals the old
    /// incarnation left in flight still apply (harmlessly — the records
    /// are idempotent), but their *results* would collide with the new
    /// incarnation's pending seqs and be misattributed to whatever
    /// transactions it is driving now — e.g. a stale result read as a
    /// yes-vote for a transaction whose guard actually failed. Any value
    /// that differs across restarts works as the nonce: a restart
    /// counter, or the low bits of the boot time.
    pub fn with_nonce(pid: NodeId, nonce: u32) -> Self {
        TxnCoordinator {
            client: TXN_CLIENT_FLAG | ((nonce as u64 & 0x3FFF_FFFF) << 32) | (pid & 0xFFFF_FFFF),
            next_seq: 1,
            ticks: 0,
            runs: BTreeMap::new(),
            pending: HashMap::new(),
            outcomes: Vec::new(),
            next_scan: SCAN_EVERY_TICKS,
            first_seen: HashMap::new(),
        }
    }

    /// The client id under which this coordinator proposes; results
    /// carrying it belong to the coordinator, not to any client
    /// connection.
    pub fn client_id(&self) -> u64 {
        self.client
    }

    /// Transactions currently being driven.
    pub fn in_flight(&self) -> usize {
        self.runs.len()
    }

    /// Start (or idempotently re-join) transaction `txn` for `spec`.
    /// Returns `Some(committed)` when the outcome is already recorded in
    /// the local coordinator-shard state — the retransmit fast path — and
    /// `None` when the transaction is now (or already was) being driven;
    /// its [`TxnOutcome`] arrives via [`TxnCoordinator::take_outcomes`].
    pub fn begin<S: Storage<KvCommand>>(
        &mut self,
        node: &mut ShardedKvNode<S>,
        txn: TxnId,
        spec: &TxnSpec,
    ) -> Option<bool> {
        if spec.is_empty() {
            return Some(true); // nothing to check, nothing to write
        }
        let n = node.n_shards();
        let mut parts: BTreeMap<u32, (Vec<TxnGuard>, Vec<WriteOp>)> = BTreeMap::new();
        for g in &spec.guards {
            let s = shard_of_key(g.key(), n);
            parts.entry(s).or_default().0.push(g.clone());
        }
        for w in &spec.writes {
            let s = shard_of_key(w.key(), n);
            parts.entry(s).or_default().1.push(w.clone());
        }
        let coord_shard = *parts.keys().next().expect("non-empty spec");
        if let Some(&d) = node
            .shard(coord_shard)
            .state_machine()
            .decisions()
            .get(&txn)
        {
            // Already decided (this gateway or any predecessor drove it to
            // a decision that replicated here): replay the verdict.
            // Resolution to the participants is the scanner's job if the
            // original driver died mid-push.
            return Some(d);
        }
        if self.runs.contains_key(&txn) {
            return None; // duplicate request for an in-flight transaction
        }
        let participants: Vec<u32> = parts.keys().copied().collect();
        for (&shard, (guards, writes)) in &parts {
            let op = KvOp::TxnPrepare(Box::new(TxnPrepare {
                txn,
                coord_shard,
                participants: participants.clone(),
                guards: guards.clone(),
                writes: writes.clone(),
            }));
            self.propose(node, shard, op, Pending::Prepare { txn, shard });
        }
        self.runs.insert(
            txn,
            Run {
                parts,
                coord_shard,
                phase: Phase::Preparing {
                    yes: HashSet::new(),
                },
                deadline: self.ticks + PREPARE_TIMEOUT_TICKS,
                next_retry: self.ticks + RETRY_TICKS,
                born: self.ticks,
            },
        );
        None
    }

    fn propose<S: Storage<KvCommand>>(
        &mut self,
        node: &mut ShardedKvNode<S>,
        shard: u32,
        op: KvOp,
        what: Pending,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let cmd = KvCommand {
            client: self.client,
            seq,
            op,
        };
        if node.shard_mut(shard).submit(cmd).is_ok() {
            self.pending.insert(seq, what);
        }
        // A refused proposal (mid-reconfiguration, no leader) is simply
        // re-proposed by the retry timer.
    }

    /// Fire-and-forget proposal (the scanner's tool: re-scans re-drive).
    fn propose_anon<S: Storage<KvCommand>>(
        &mut self,
        node: &mut ShardedKvNode<S>,
        shard: u32,
        op: KvOp,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let _ = node.shard_mut(shard).submit(KvCommand {
            client: self.client,
            seq,
            op,
        });
    }

    /// Feed shard-tagged results back to the coordinator (the gateway
    /// passes everything from `ShardedKvNode::take_results`; results not
    /// addressed to this coordinator are ignored).
    pub fn observe<S: Storage<KvCommand>>(
        &mut self,
        node: &mut ShardedKvNode<S>,
        results: &[(u32, KvResult)],
    ) {
        let me = self.client;
        for (_, r) in results.iter().filter(|(_, r)| r.client == me) {
            let Some(what) = self.pending.remove(&r.seq) else {
                continue; // a scanner proposal, or a superseded retry
            };
            match what {
                Pending::Prepare { txn, shard } => self.on_vote(node, txn, shard, r.applied),
                Pending::Decide { txn } => {
                    // The value always carries the *winning* decision,
                    // whether or not this proposal recorded it first.
                    let commit = r.value == Some(1);
                    self.on_decided(node, txn, commit);
                }
                Pending::Resolve { txn, shard } => {
                    if let Some(run) = self.runs.get_mut(&txn) {
                        if let Phase::Resolving { done, .. } = &mut run.phase {
                            done.insert(shard);
                            if done.len() == run.parts.len() {
                                self.runs.remove(&txn);
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_vote<S: Storage<KvCommand>>(
        &mut self,
        node: &mut ShardedKvNode<S>,
        txn: TxnId,
        shard: u32,
        vote_yes: bool,
    ) {
        let Some(run) = self.runs.get_mut(&txn) else {
            return;
        };
        let Phase::Preparing { yes } = &mut run.phase else {
            return; // stale vote after the phase moved on
        };
        let commit = if vote_yes {
            yes.insert(shard);
            if yes.len() < run.parts.len() {
                return; // still waiting on other participants
            }
            true
        } else {
            false
        };
        run.phase = Phase::Deciding { commit };
        let coord_shard = run.coord_shard;
        self.propose(
            node,
            coord_shard,
            KvOp::TxnDecide { txn, commit },
            Pending::Decide { txn },
        );
    }

    fn on_decided<S: Storage<KvCommand>>(
        &mut self,
        node: &mut ShardedKvNode<S>,
        txn: TxnId,
        commit: bool,
    ) {
        let Some(run) = self.runs.get_mut(&txn) else {
            return;
        };
        if matches!(run.phase, Phase::Resolving { .. }) {
            return; // duplicate decide result
        }
        run.phase = Phase::Resolving {
            commit,
            done: HashSet::new(),
        };
        self.outcomes.push(TxnOutcome {
            txn,
            committed: commit,
        });
        let shards: Vec<u32> = self.runs[&txn].parts.keys().copied().collect();
        for shard in shards {
            let op = if commit {
                KvOp::TxnCommit { txn }
            } else {
                KvOp::TxnAbort { txn }
            };
            self.propose(node, shard, op, Pending::Resolve { txn, shard });
        }
    }

    /// Resolved outcomes since the last call.
    pub fn take_outcomes(&mut self) -> Vec<TxnOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Advance timers: re-propose unanswered records, presume abort on
    /// prepare timeouts, and scan for orphaned prepares.
    pub fn tick<S: Storage<KvCommand>>(&mut self, node: &mut ShardedKvNode<S>) {
        self.ticks += 1;
        let now = self.ticks;

        // Abandon runs this coordinator can evidently not finish (its
        // proposals into some participant shard keep vanishing — e.g.
        // the node left that shard's membership). The member replicas'
        // scanners own whatever state the run left behind.
        self.runs
            .retain(|_, run| now.saturating_sub(run.born) < ABANDON_AFTER_TICKS);

        // Presumed abort: prepares that outlived their deadline.
        let expired: Vec<TxnId> = self
            .runs
            .iter()
            .filter(|(_, run)| matches!(run.phase, Phase::Preparing { .. }) && run.deadline <= now)
            .map(|(&txn, _)| txn)
            .collect();
        for txn in expired {
            let run = self.runs.get_mut(&txn).expect("just listed");
            run.phase = Phase::Deciding { commit: false };
            let coord_shard = run.coord_shard;
            self.propose(
                node,
                coord_shard,
                KvOp::TxnDecide { txn, commit: false },
                Pending::Decide { txn },
            );
        }

        // Retries: re-propose whatever the current phase still waits on.
        let due: Vec<TxnId> = self
            .runs
            .iter()
            .filter(|(_, run)| run.next_retry <= now)
            .map(|(&txn, _)| txn)
            .collect();
        for txn in due {
            let run = self.runs.get_mut(&txn).expect("just listed");
            run.next_retry = now + RETRY_TICKS;
            let coord_shard = run.coord_shard;
            let participants: Vec<u32> = run.parts.keys().copied().collect();
            // Collect the re-proposals first (the run borrow must end
            // before `propose` takes `&mut self` again).
            let mut todo: Vec<(u32, KvOp, Pending)> = Vec::new();
            match &run.phase {
                Phase::Preparing { yes } => {
                    for (&shard, (guards, writes)) in &run.parts {
                        if yes.contains(&shard) {
                            continue;
                        }
                        todo.push((
                            shard,
                            KvOp::TxnPrepare(Box::new(TxnPrepare {
                                txn,
                                coord_shard,
                                participants: participants.clone(),
                                guards: guards.clone(),
                                writes: writes.clone(),
                            })),
                            Pending::Prepare { txn, shard },
                        ));
                    }
                }
                Phase::Deciding { commit } => {
                    todo.push((
                        coord_shard,
                        KvOp::TxnDecide {
                            txn,
                            commit: *commit,
                        },
                        Pending::Decide { txn },
                    ));
                }
                Phase::Resolving { commit, done } => {
                    for &shard in participants.iter().filter(|s| !done.contains(s)) {
                        let op = if *commit {
                            KvOp::TxnCommit { txn }
                        } else {
                            KvOp::TxnAbort { txn }
                        };
                        todo.push((shard, op, Pending::Resolve { txn, shard }));
                    }
                }
            }
            for (shard, op, what) in todo {
                self.propose(node, shard, op, what);
            }
        }

        // Drop pending entries whose run is gone (their results, if any
        // still arrive, are ignored as unknown seqs).
        self.pending.retain(|_, p| {
            let txn = match p {
                Pending::Prepare { txn, .. }
                | Pending::Decide { txn }
                | Pending::Resolve { txn, .. } => txn,
            };
            self.runs.contains_key(txn)
        });

        if self.next_scan <= now {
            self.next_scan = now + SCAN_EVERY_TICKS;
            self.scan(node);
        }
    }

    /// The stale-prepare scanner: finish transactions whose coordinator
    /// died. Only ever acts on *observed* local state — a recorded
    /// decision is pushed to the prepared shard; a missing decision earns
    /// a proposed abort into the coordinator shard, where the first-wins
    /// record arbitrates against any coordinator still alive.
    fn scan<S: Storage<KvCommand>>(&mut self, node: &mut ShardedKvNode<S>) {
        let now = self.ticks;
        let mut live: HashSet<(u32, TxnId)> = HashSet::new();
        let mut actions: Vec<(u32, KvOp)> = Vec::new();
        for s in 0..node.n_shards() as u32 {
            for (&txn, p) in node.shard(s).state_machine().prepared() {
                live.insert((s, txn));
                if self.runs.contains_key(&txn) {
                    continue; // actively driven by this coordinator
                }
                let born = *self.first_seen.entry((s, txn)).or_insert(now);
                if now.saturating_sub(born) < RECOVER_AFTER_TICKS {
                    continue; // grace: someone may still be driving it
                }
                match node
                    .shard(p.coord_shard)
                    .state_machine()
                    .decisions()
                    .get(&txn)
                {
                    Some(true) => actions.push((s, KvOp::TxnCommit { txn })),
                    Some(false) => actions.push((s, KvOp::TxnAbort { txn })),
                    // No decision visible here: presume abort through the
                    // coordinator shard's log (first decision wins).
                    None => actions.push((p.coord_shard, KvOp::TxnDecide { txn, commit: false })),
                }
            }
        }
        self.first_seen.retain(|k, _| live.contains(k));
        for (shard, op) in actions {
            self.propose_anon(node, shard, op);
        }
    }
}

impl std::fmt::Debug for TxnCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnCoordinator")
            .field("client", &self.client)
            .field("in_flight", &self.runs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TxnGuard;

    const SHARDS: usize = 4;

    /// A 3-node, 4-shard cluster with one coordinator per node.
    struct Sim {
        nodes: Vec<ShardedKvNode>,
        coords: Vec<TxnCoordinator>,
    }

    impl Sim {
        fn new() -> Self {
            let ids: Vec<NodeId> = vec![1, 2, 3];
            Sim {
                nodes: ids
                    .iter()
                    .map(|&p| ShardedKvNode::new(p, ids.clone(), SHARDS))
                    .collect(),
                coords: ids.iter().map(|&p| TxnCoordinator::new(p)).collect(),
            }
        }

        /// One simulated tick with full connectivity (coordinators on the
        /// nodes in `dead` are not driven — a crashed gateway).
        fn step(&mut self, dead: &[usize]) -> Vec<TxnOutcome> {
            let mut out = Vec::new();
            for i in 0..self.nodes.len() {
                self.nodes[i].tick();
                let results = self.nodes[i].take_results();
                if !dead.contains(&i) {
                    self.coords[i].observe(&mut self.nodes[i], &results);
                    self.coords[i].tick(&mut self.nodes[i]);
                    out.extend(self.coords[i].take_outcomes());
                }
            }
            let mut inbox = Vec::new();
            for n in self.nodes.iter_mut() {
                let from = n.pid();
                for (to, m) in n.outgoing() {
                    inbox.push((from, to, m));
                }
            }
            for (from, to, m) in inbox {
                if let Some(n) = self.nodes.iter_mut().find(|n| n.pid() == to) {
                    n.handle(from, m);
                }
            }
            out
        }

        fn run(&mut self, steps: usize, dead: &[usize]) -> Vec<TxnOutcome> {
            let mut out = Vec::new();
            for _ in 0..steps {
                out.extend(self.step(dead));
            }
            out
        }

        fn fund(&mut self, key: &str, amount: i64, seq: u64) {
            let s = shard_of_key(key, SHARDS);
            let li = self.nodes.iter().position(|n| n.is_leader(s)).unwrap();
            self.nodes[li]
                .shard_mut(s)
                .submit(KvCommand {
                    client: 1,
                    seq,
                    op: KvOp::Put {
                        key: key.into(),
                        value: amount,
                    },
                })
                .unwrap();
        }

        fn value(&self, node: usize, key: &str) -> Option<i64> {
            self.nodes[node].read_local(key)
        }

        fn assert_no_locks(&self) {
            for (i, n) in self.nodes.iter().enumerate() {
                for s in 0..SHARDS as u32 {
                    assert!(
                        n.shard(s).state_machine().locks().is_empty(),
                        "node {i} shard {s} holds orphaned locks"
                    );
                    assert!(
                        n.shard(s).state_machine().prepared().is_empty(),
                        "node {i} shard {s} holds orphaned prepares"
                    );
                }
            }
        }
    }

    /// Two keys on different shards.
    fn cross_shard_pair() -> (String, String) {
        let a = "acct0".to_string();
        let sa = shard_of_key(&a, SHARDS);
        for i in 1.. {
            let b = format!("acct{i}");
            if shard_of_key(&b, SHARDS) != sa {
                return (a, b);
            }
        }
        unreachable!()
    }

    #[test]
    fn cross_shard_transfer_commits_and_converges() {
        let mut sim = Sim::new();
        sim.run(150, &[]);
        let (a, b) = cross_shard_pair();
        sim.fund(&a, 100, 1);
        sim.run(100, &[]);
        let spec = TxnSpec::transfer(&a, &b, 40);
        assert_eq!(sim.coords[0].begin(&mut sim.nodes[0], (9, 1), &spec), None);
        let outcomes = sim.run(300, &[]);
        assert_eq!(
            outcomes,
            vec![TxnOutcome {
                txn: (9, 1),
                committed: true
            }]
        );
        sim.run(200, &[]); // let resolution replicate everywhere
        for i in 0..3 {
            assert_eq!(sim.value(i, &a), Some(60), "node {i}");
            assert_eq!(sim.value(i, &b), Some(40), "node {i}");
        }
        sim.assert_no_locks();
        assert_eq!(sim.coords[0].in_flight(), 0, "run retired");
    }

    #[test]
    fn insufficient_funds_aborts_without_side_effects() {
        let mut sim = Sim::new();
        sim.run(150, &[]);
        let (a, b) = cross_shard_pair();
        sim.fund(&a, 10, 1);
        sim.run(100, &[]);
        let spec = TxnSpec::transfer(&a, &b, 40);
        assert_eq!(sim.coords[1].begin(&mut sim.nodes[1], (9, 2), &spec), None);
        let outcomes = sim.run(300, &[]);
        assert_eq!(
            outcomes,
            vec![TxnOutcome {
                txn: (9, 2),
                committed: false
            }]
        );
        sim.run(200, &[]);
        for i in 0..3 {
            assert_eq!(sim.value(i, &a), Some(10), "node {i}: untouched");
            assert_eq!(sim.value(i, &b), None, "node {i}: untouched");
        }
        sim.assert_no_locks();
    }

    #[test]
    fn duplicate_begin_replays_the_recorded_decision() {
        let mut sim = Sim::new();
        sim.run(150, &[]);
        let (a, b) = cross_shard_pair();
        sim.fund(&a, 100, 1);
        sim.run(100, &[]);
        let spec = TxnSpec::transfer(&a, &b, 40);
        sim.coords[0].begin(&mut sim.nodes[0], (9, 3), &spec);
        sim.run(300, &[]);
        sim.run(200, &[]);
        // A retransmitted request — even at a different gateway — sees the
        // recorded decision instead of re-running the transfer.
        assert_eq!(
            sim.coords[2].begin(&mut sim.nodes[2], (9, 3), &spec),
            Some(true)
        );
        assert_eq!(
            sim.coords[0].begin(&mut sim.nodes[0], (9, 3), &spec),
            Some(true)
        );
        for i in 0..3 {
            assert_eq!(sim.value(i, &a), Some(60), "applied exactly once");
        }
    }

    #[test]
    fn guard_equals_makes_cross_shard_cas() {
        let mut sim = Sim::new();
        sim.run(150, &[]);
        let (a, b) = cross_shard_pair();
        sim.fund(&a, 5, 1);
        sim.run(100, &[]);
        // expect a==5 then write both keys — a cross-shard conditional.
        let spec = TxnSpec {
            guards: vec![TxnGuard::Equals {
                key: a.clone(),
                expect: Some(5),
            }],
            writes: vec![
                WriteOp::Put {
                    key: a.clone(),
                    value: 6,
                },
                WriteOp::Put {
                    key: b.clone(),
                    value: 60,
                },
            ],
        };
        sim.coords[0].begin(&mut sim.nodes[0], (9, 4), &spec);
        let outcomes = sim.run(300, &[]);
        assert!(outcomes.iter().any(|o| o.committed));
        sim.run(200, &[]);
        for i in 0..3 {
            assert_eq!(sim.value(i, &a), Some(6));
            assert_eq!(sim.value(i, &b), Some(60));
        }
        // The same guard now fails: aborted, nothing changes.
        sim.coords[0].begin(&mut sim.nodes[0], (9, 5), &spec);
        let outcomes = sim.run(300, &[]);
        assert!(outcomes.iter().any(|o| !o.committed));
        sim.run(200, &[]);
        for i in 0..3 {
            assert_eq!(sim.value(i, &a), Some(6), "failed guard: untouched");
        }
        sim.assert_no_locks();
    }

    #[test]
    fn scanner_resolves_a_prepare_orphaned_by_a_dead_coordinator() {
        let mut sim = Sim::new();
        sim.run(150, &[]);
        let (a, b) = cross_shard_pair();
        sim.fund(&a, 100, 1);
        sim.run(100, &[]);
        let spec = TxnSpec::transfer(&a, &b, 40);
        sim.coords[0].begin(&mut sim.nodes[0], (9, 6), &spec);
        // The coordinator dies immediately after proposing its prepares:
        // they decide and stage locks with nobody left to decide/resolve.
        sim.run(60, &[0]);
        let locked_somewhere = sim
            .nodes
            .iter()
            .any(|n| (0..SHARDS as u32).any(|s| !n.shard(s).state_machine().prepared().is_empty()));
        assert!(locked_somewhere, "prepares staged before the crash");
        // Node 0's gateway is dead from here on; the survivors' scanners
        // must drive the transaction to resolution (presumed abort or —
        // if the decide already landed — commit), releasing every lock.
        sim.run(
            (PREPARE_TIMEOUT_TICKS + RECOVER_AFTER_TICKS + 600) as usize,
            &[0],
        );
        sim.assert_no_locks();
        // Conservation: whatever was decided, no money was created.
        let total = sim.value(1, &a).unwrap_or(0) + sim.value(1, &b).unwrap_or(0);
        assert_eq!(total, 100, "balance conserved across recovery");
        for i in 1..3 {
            assert_eq!(
                sim.value(i, &a).unwrap_or(0) + sim.value(i, &b).unwrap_or(0),
                100
            );
        }
    }

    #[test]
    fn conflicting_transactions_serialize_via_locks() {
        let mut sim = Sim::new();
        sim.run(150, &[]);
        let (a, b) = cross_shard_pair();
        sim.fund(&a, 100, 1);
        sim.fund(&b, 100, 2);
        sim.run(100, &[]);
        // Two opposing transfers over the same pair, begun on different
        // gateways in the same tick: locks force one to vote no; both
        // resolve, money is conserved.
        sim.coords[0].begin(&mut sim.nodes[0], (8, 1), &TxnSpec::transfer(&a, &b, 30));
        sim.coords[1].begin(&mut sim.nodes[1], (8, 2), &TxnSpec::transfer(&b, &a, 70));
        let outcomes = sim.run(1200, &[]);
        assert_eq!(outcomes.len(), 2, "both transactions resolved");
        sim.run(200, &[]);
        sim.assert_no_locks();
        for i in 0..3 {
            let total = sim.value(i, &a).unwrap() + sim.value(i, &b).unwrap();
            assert_eq!(total, 200, "node {i}: conserved");
        }
        // Every replica agrees on both balances.
        for i in 1..3 {
            assert_eq!(sim.value(i, &a), sim.value(0, &a));
            assert_eq!(sim.value(i, &b), sim.value(0, &b));
        }
    }
}
