//! Keyspace sharding: many Omni-Paxos groups over one node's sessions.
//!
//! The keyspace is hash-partitioned into N *shards*; each shard is a full
//! Omni-Paxos instance — its own log, its own storage namespace, its own
//! snapshots and its own reconfiguration (a shard can be migrated to a
//! different replica set without touching the others). A node runs one
//! [`KvNode`] per shard and multiplexes all of them over the *same*
//! transport sessions through the `omnipaxos::multigroup` envelope:
//! consensus frames carry a wire-level group id, and every shard's BLE
//! heartbeats to a peer are coalesced into one `GroupBle` frame per
//! flush, so the failure-detector cost stays per-peer.
//!
//! Routing is deterministic: [`shard_of_key`] is FNV-1a over the key
//! modulo the shard count, computed identically by clients and gateways.
//! Multi-key operations ([`KvOp::Transfer`], [`KvOp::WriteBatch`]) are
//! atomic only within a shard: the gateway checks [`op_spans_shards`] and
//! rejects spanning ops with a typed error instead of silently routing by
//! first key — the client reissues them as cross-shard transactions
//! (`crate::txn`), whose prepare/commit/abort records are addressed to
//! explicit participant shards by the coordinator.
//!
//! Leadership is *spread*: shard `s` raises the ballot priority of node
//! `nodes[s % nodes.len()]`, so with enough shards every replica leads
//! some of them and proposal work (and its fsyncs) is distributed instead
//! of funneling through one leader.

use crate::store::{KvCommand, KvNode, KvOp, KvResult, ReadMode};
use omnipaxos::multigroup::{demux, mux, BleCoalescer};
use omnipaxos::sequence_paxos::ProposeErr;
use omnipaxos::service::{ServerConfig, ServiceMsg};
use omnipaxos::storage::{MemoryStorage, Storage, TrimError};
use omnipaxos::NodeId;

/// Which shard owns `key`, out of `n_shards` (FNV-1a, stable across
/// processes and releases — this is a wire/storage contract).
pub fn shard_of_key(key: &str, n_shards: usize) -> u32 {
    debug_assert!(n_shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n_shards as u64) as u32
}

/// Which shard executes `op`. Multi-key ops route by their first key —
/// valid only when [`op_spans_shards`] is false (the gateway enforces
/// this). Transaction records are addressed to explicit shards by the
/// coordinator and never key-routed; their fallback here (by transaction
/// id) only keeps the function total.
pub fn shard_of_op(op: &KvOp, n_shards: usize) -> u32 {
    let by_txn = |(a, b): (u64, u64)| (a.wrapping_add(b) % n_shards as u64) as u32;
    let key = match op {
        KvOp::Put { key, .. }
        | KvOp::Delete { key }
        | KvOp::Add { key, .. }
        | KvOp::Read { key }
        | KvOp::Cas { key, .. } => key,
        KvOp::Transfer { from, .. } => from,
        KvOp::WriteBatch { writes } => match writes.first() {
            Some(w) => w.key(),
            None => return 0,
        },
        KvOp::TxnPrepare(p) => return by_txn(p.txn),
        KvOp::TxnDecide { txn, .. } | KvOp::TxnCommit { txn } | KvOp::TxnAbort { txn } => {
            return by_txn(*txn)
        }
    };
    shard_of_key(key, n_shards)
}

/// Does `op` touch keys owned by more than one shard? Such an op cannot
/// be one shard's log entry: the gateway answers it with the typed
/// `KvWire::CrossShard` rejection (never silent first-key routing — the
/// pre-transaction hazard where a spanning `Transfer` mutated only the
/// `from` shard), and the client reissues it through the transaction
/// path.
pub fn op_spans_shards(op: &KvOp, n_shards: usize) -> bool {
    let mut owner: Option<u32> = None;
    let mut spans = false;
    let mut check = |key: &str| {
        let s = shard_of_key(key, n_shards);
        if *owner.get_or_insert(s) != s {
            spans = true;
        }
    };
    match op {
        KvOp::Transfer { from, to, .. } => {
            check(from);
            check(to);
        }
        KvOp::WriteBatch { writes } => {
            for w in writes {
                check(w.key());
            }
        }
        _ => {}
    }
    spans
}

/// The per-shard service config: `base` plus leader spreading — shard
/// `s` prefers node `nodes[s % nodes.len()]` via ballot priority (§8's
/// tie-breaking knob), so leaders distribute round-robin over replicas.
pub fn shard_config(base: &ServerConfig, shard: u32, nodes: &[NodeId]) -> ServerConfig {
    let mut cfg = base.clone();
    if !nodes.is_empty() && nodes[shard as usize % nodes.len()] == base.pid {
        cfg.priority = 1;
    }
    cfg
}

/// One node's set of shard replicas, multiplexed onto a single link.
///
/// The API mirrors [`KvNode`] with a shard argument where it matters;
/// `handle`/`outgoing` speak the *shared-session* message stream (group
/// envelopes + coalesced BLE). With one shard the wire format is
/// bit-identical to an unsharded [`KvNode`].
pub struct ShardedKvNode<S: Storage<KvCommand> = MemoryStorage<KvCommand>> {
    pid: NodeId,
    shards: Vec<KvNode<S>>,
    ble: BleCoalescer,
}

impl ShardedKvNode {
    /// A server of the initial configuration `nodes`, with `n_shards`
    /// independent in-memory groups and spread leadership.
    pub fn new(pid: NodeId, nodes: Vec<NodeId>, n_shards: usize) -> Self {
        assert!(n_shards > 0, "at least one shard");
        let shards = (0..n_shards as u32)
            .map(|s| {
                KvNode::with_config(
                    shard_config(&ServerConfig::with(pid), s, &nodes),
                    nodes.clone(),
                )
            })
            .collect();
        ShardedKvNode {
            pid,
            shards,
            ble: BleCoalescer::new(),
        }
    }

    /// A joiner outside every configuration: each shard waits for its own
    /// `StartConfig`, so shards can be migrated onto this node one at a
    /// time (the others stay idle and silent).
    pub fn joiner(pid: NodeId, n_shards: usize) -> Self {
        assert!(n_shards > 0, "at least one shard");
        let shards = (0..n_shards).map(|_| KvNode::joiner(pid)).collect();
        ShardedKvNode {
            pid,
            shards,
            ble: BleCoalescer::new(),
        }
    }
}

impl<S: Storage<KvCommand>> ShardedKvNode<S> {
    /// Assemble from pre-built per-shard nodes (all with the same pid) —
    /// the durable path, where each shard's node owns a namespaced WAL.
    pub fn from_shards(shards: Vec<KvNode<S>>) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        let pid = shards[0].pid();
        assert!(shards.iter().all(|n| n.pid() == pid), "one node, one pid");
        ShardedKvNode {
            pid,
            shards,
            ble: BleCoalescer::new(),
        }
    }

    pub fn pid(&self) -> NodeId {
        self.pid
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's node (panics on out-of-range shard).
    pub fn shard(&self, shard: u32) -> &KvNode<S> {
        &self.shards[shard as usize]
    }

    /// Mutable access to one shard's node.
    pub fn shard_mut(&mut self, shard: u32) -> &mut KvNode<S> {
        &mut self.shards[shard as usize]
    }

    /// Which shard owns `op`.
    pub fn shard_of(&self, op: &KvOp) -> u32 {
        shard_of_op(op, self.shards.len())
    }

    /// Does `op` touch keys on more than one shard? (See
    /// [`op_spans_shards`] — such ops must be rejected, not routed.)
    pub fn spans_shards(&self, op: &KvOp) -> bool {
        op_spans_shards(op, self.shards.len())
    }

    /// Is this node the leader of `shard`?
    pub fn is_leader(&self, shard: u32) -> bool {
        self.shards[shard as usize].is_leader()
    }

    /// The known leader pid of `shard` (0 = unknown).
    pub fn leader_of(&self, shard: u32) -> NodeId {
        self.shards[shard as usize]
            .server_ref()
            .leader()
            .map(|b| b.pid)
            .unwrap_or(0)
    }

    /// The routing table: known leader pid per shard (0 = unknown).
    pub fn leaders(&self) -> Vec<NodeId> {
        (0..self.shards.len() as u32)
            .map(|s| self.leader_of(s))
            .collect()
    }

    /// Submit one shard's admission window as a single contiguous append
    /// run (one `AcceptDecide` + one group-commit flush per shard per
    /// pump; see `KvNode::submit_batch`).
    pub fn submit_batch(
        &mut self,
        shard: u32,
        cmds: impl IntoIterator<Item = KvCommand>,
    ) -> Result<usize, (usize, ProposeErr)> {
        self.shards[shard as usize].submit_batch(cmds)
    }

    /// Advance every shard's timers and apply newly decided commands.
    pub fn tick(&mut self) {
        for n in &mut self.shards {
            n.tick();
        }
    }

    /// Feed one incoming shared-session message: demultiplex the group
    /// envelope (bare messages are group 0, `GroupBle` fans out into
    /// per-shard BLE deliveries) and route to the owning shard. Messages
    /// for unknown groups are dropped — senders retransmit, exactly like
    /// cross-configuration traffic.
    pub fn handle(&mut self, from: NodeId, msg: ServiceMsg<KvCommand>) {
        for (group, inner) in demux(msg) {
            if let Some(shard) = self.shards.get_mut(group as usize) {
                shard.handle(from, inner);
            }
        }
    }

    /// Drain every shard's outgoing messages onto the shared session:
    /// non-BLE frames get the group envelope, all shards' BLE beats
    /// coalesce into one `GroupBle` frame per peer. Single-shard nodes
    /// pass everything through bare (the pre-envelope wire format).
    pub fn outgoing(&mut self) -> Vec<(NodeId, ServiceMsg<KvCommand>)> {
        let n_groups = self.shards.len();
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            mux(
                s as u32,
                n_groups,
                shard.outgoing(),
                &mut self.ble,
                &mut out,
            );
        }
        out.extend(self.ble.flush());
        out
    }

    /// Results applied since the last call, tagged with their shard.
    pub fn take_results(&mut self) -> Vec<(u32, KvResult)> {
        let mut all = Vec::new();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            all.extend(shard.take_results().into_iter().map(|r| (s as u32, r)));
        }
        all
    }

    /// Crash-recover every shard (storage reopen + PrepareReq re-sync).
    pub fn fail_recovery(&mut self) {
        for n in &mut self.shards {
            n.server().fail_recovery();
        }
    }

    /// A transport session to `pid` was (re-)established: every shard
    /// re-syncs, since any shard's in-flight messages may have been lost.
    pub fn reconnected(&mut self, pid: NodeId) {
        for n in &mut self.shards {
            n.server().reconnected(pid);
        }
    }

    /// Compact one shard's log via its own snapshot (the other shards'
    /// logs are untouched — per-shard compaction points are independent).
    pub fn compact(&mut self, shard: u32) -> Result<u64, TrimError> {
        self.shards[shard as usize].compact()
    }

    /// Reconfigure one shard to `new_nodes`: decides a stop-sign in that
    /// shard's log only. Joiners pull that shard's history (snapshot
    /// first if the donors compacted) while every other shard keeps
    /// serving — this is the shard-move primitive.
    pub fn reconfigure(&mut self, shard: u32, new_nodes: Vec<NodeId>) -> Result<(), ProposeErr> {
        self.shards[shard as usize].server().reconfigure(new_nodes)
    }

    /// Eventually-consistent read against the owning shard.
    pub fn read_local(&self, key: &str) -> Option<i64> {
        let s = shard_of_key(key, self.shards.len());
        self.shards[s as usize].read_local(key)
    }

    /// Does this node hold a valid leader lease for `shard`?
    pub fn lease_valid(&self, shard: u32) -> bool {
        self.shards[shard as usize].lease_valid()
    }

    /// Linearizable read routed to the owning shard, served per `mode`
    /// (see [`ReadMode`]); the result arrives shard-tagged via
    /// [`ShardedKvNode::take_results`].
    pub fn read(
        &mut self,
        mode: ReadMode,
        client: u64,
        seq: u64,
        key: impl Into<String>,
    ) -> Result<u32, ProposeErr> {
        let key = key.into();
        let s = shard_of_key(&key, self.shards.len());
        self.shards[s as usize].read(mode, client, seq, key)?;
        Ok(s)
    }
}

impl<S: Storage<KvCommand>> std::fmt::Debug for ShardedKvNode<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKvNode")
            .field("pid", &self.pid)
            .field("n_shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnipaxos::service::ServiceMsg;

    /// Drive a fully connected sharded cluster until quiescent.
    fn run(nodes: &mut [ShardedKvNode], steps: usize) {
        for _ in 0..steps {
            for n in nodes.iter_mut() {
                n.tick();
            }
            let mut inbox = Vec::new();
            for n in nodes.iter_mut() {
                let from = n.pid();
                for (to, m) in n.outgoing() {
                    inbox.push((from, to, m));
                }
            }
            for (from, to, m) in inbox {
                if let Some(n) = nodes.iter_mut().find(|n| n.pid() == to) {
                    n.handle(from, m);
                }
            }
        }
    }

    fn cluster(n: usize, shards: usize) -> Vec<ShardedKvNode> {
        let ids: Vec<NodeId> = (1..=n as NodeId).collect();
        ids.iter()
            .map(|&p| ShardedKvNode::new(p, ids.clone(), shards))
            .collect()
    }

    fn put(key: &str, value: i64, seq: u64) -> KvCommand {
        KvCommand {
            client: 1,
            seq,
            op: KvOp::Put {
                key: key.into(),
                value,
            },
        }
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for n in [1usize, 2, 4, 8] {
            for key in ["a", "b", "user:17", "ctr", ""] {
                let s = shard_of_key(key, n);
                assert!((s as usize) < n);
                assert_eq!(s, shard_of_key(key, n), "stable");
            }
        }
        // All shards are reachable for reasonable shard counts.
        for n in [2usize, 4] {
            let mut hit = vec![false; n];
            for i in 0..256 {
                hit[shard_of_key(&format!("k{i}"), n) as usize] = true;
            }
            assert!(hit.iter().all(|&h| h), "every shard owns some keys");
        }
    }

    /// Two keys guaranteed to live on different shards (of `n`).
    fn spanning_keys(n: usize) -> (String, String) {
        let a = "k0".to_string();
        let sa = shard_of_key(&a, n);
        for i in 1.. {
            let b = format!("k{i}");
            if shard_of_key(&b, n) != sa {
                return (a, b);
            }
        }
        unreachable!()
    }

    #[test]
    fn spanning_multi_key_ops_are_detected_not_first_key_routed() {
        use crate::store::WriteOp;
        let (a, b) = spanning_keys(4);
        let spanning = KvOp::Transfer {
            from: a.clone(),
            to: b.clone(),
            amount: 1,
        };
        assert!(op_spans_shards(&spanning, 4));
        // Same-shard ops (and every single-key op) never span.
        assert!(!op_spans_shards(&spanning, 1), "one shard: nothing spans");
        let local = KvOp::Transfer {
            from: a.clone(),
            to: a.clone(),
            amount: 1,
        };
        assert!(!op_spans_shards(&local, 4));
        assert!(!op_spans_shards(
            &KvOp::Cas {
                key: a.clone(),
                expect: None,
                set: Some(1)
            },
            4
        ));
        // Batches span iff their write set does.
        let batch = |keys: &[&String]| KvOp::WriteBatch {
            writes: keys
                .iter()
                .map(|k| WriteOp::Add {
                    key: (*k).clone(),
                    delta: 1,
                })
                .collect(),
        };
        assert!(op_spans_shards(&batch(&[&a, &b]), 4));
        assert!(!op_spans_shards(&batch(&[&a, &a]), 4));
        assert!(!op_spans_shards(&batch(&[]), 4));
    }

    #[test]
    fn each_shard_elects_and_replicates_independently() {
        let mut nodes = cluster(3, 4);
        run(&mut nodes, 150);
        // Every shard has exactly one leader and all nodes agree on it.
        for s in 0..4u32 {
            let leaders: Vec<NodeId> = nodes
                .iter()
                .filter(|n| n.is_leader(s))
                .map(|n| n.pid())
                .collect();
            assert_eq!(leaders.len(), 1, "shard {s} has one leader");
        }
        // Write one key per shard through that shard's leader.
        let mut seq = 0u64;
        let mut expected = Vec::new();
        for i in 0..32 {
            let key = format!("k{i}");
            let s = shard_of_key(&key, 4);
            seq += 1;
            let li = nodes.iter().position(|n| n.is_leader(s)).unwrap();
            nodes[li]
                .submit_batch(s, [put(&key, i as i64, seq)])
                .unwrap();
            expected.push((key, i as i64));
        }
        run(&mut nodes, 200);
        for (key, v) in &expected {
            for n in &nodes {
                assert_eq!(n.read_local(key), Some(*v), "key {key} on node {}", n.pid());
            }
        }
    }

    #[test]
    fn leaders_spread_across_replicas() {
        let mut nodes = cluster(3, 6);
        run(&mut nodes, 200);
        let mut leads = std::collections::HashMap::new();
        for s in 0..6u32 {
            let l = nodes
                .iter()
                .find(|n| n.is_leader(s))
                .map(|n| n.pid())
                .unwrap();
            *leads.entry(l).or_insert(0u32) += 1;
            // Priority spreading targets nodes[s % 3] = pid s%3 + 1.
            assert_eq!(
                l,
                (s as u64 % 3) + 1,
                "shard {s} led by its priority-preferred node"
            );
        }
        assert_eq!(leads.len(), 3, "all three replicas lead some shard");
    }

    #[test]
    fn multi_shard_wire_is_enveloped_and_ble_coalesced() {
        let mut nodes = cluster(3, 4);
        // After a few ticks every node emits heartbeats for all 4 shards.
        for _ in 0..3 {
            for n in nodes.iter_mut() {
                n.tick();
            }
        }
        let out = nodes[0].outgoing();
        assert!(!out.is_empty());
        let mut ble_frames = 0;
        for (_, m) in &out {
            match m {
                ServiceMsg::GroupBle { beats } => {
                    ble_frames += 1;
                    assert!(
                        beats.len() >= 4,
                        "all shards' beats ride one frame, got {}",
                        beats.len()
                    );
                }
                ServiceMsg::Group { .. } => {}
                ServiceMsg::Omni { .. } => panic!("bare Omni frame from a multi-shard node"),
                _ => {}
            }
        }
        assert!(ble_frames >= 1, "BLE coalesced into GroupBle frames");
        // At most one GroupBle per destination peer per flush.
        let mut per_peer = std::collections::HashMap::new();
        for (to, m) in &out {
            if matches!(m, ServiceMsg::GroupBle { .. }) {
                *per_peer.entry(*to).or_insert(0) += 1;
            }
        }
        assert!(per_peer.values().all(|&c| c == 1), "one BLE frame per peer");
    }

    #[test]
    fn single_shard_wire_is_bare_passthrough() {
        let mut nodes = cluster(3, 1);
        for _ in 0..3 {
            for n in nodes.iter_mut() {
                n.tick();
            }
        }
        for n in nodes.iter_mut() {
            for (_, m) in n.outgoing() {
                assert!(
                    !matches!(m, ServiceMsg::Group { .. } | ServiceMsg::GroupBle { .. }),
                    "single-shard nodes speak the pre-envelope format"
                );
            }
        }
    }

    #[test]
    fn sessions_are_per_shard() {
        // The same (client, seq) on different shards are different
        // sessions: shard A applying seq 5 must not dedup shard B's seq 5.
        let mut nodes = cluster(3, 2);
        run(&mut nodes, 150);
        // Find one key per shard.
        let mut key_for = [None, None];
        for i in 0.. {
            let k = format!("k{i}");
            let s = shard_of_key(&k, 2) as usize;
            if key_for[s].is_none() {
                key_for[s] = Some(k);
            }
            if key_for.iter().all(|k| k.is_some()) {
                break;
            }
        }
        for (s, key) in key_for.iter().enumerate() {
            let key = key.as_ref().unwrap();
            let li = nodes.iter().position(|n| n.is_leader(s as u32)).unwrap();
            nodes[li]
                .submit_batch(s as u32, [put(key, s as i64 + 10, 5)])
                .unwrap();
        }
        run(&mut nodes, 200);
        for (s, key) in key_for.iter().enumerate() {
            let key = key.as_ref().unwrap();
            for n in &nodes {
                assert_eq!(n.read_local(key), Some(s as i64 + 10));
                assert_eq!(
                    n.shard(s as u32)
                        .state_machine()
                        .sessions()
                        .get(&1)
                        .map(|e| e.seq),
                    Some(5),
                    "shard {s} has its own session table"
                );
            }
        }
    }

    #[test]
    fn leases_are_per_shard_and_reads_route_to_the_owner() {
        use crate::store::ReadMode;
        // Lease-enabled cluster with spread leadership: different nodes
        // hold different shards' leases at the same time.
        let ids: Vec<NodeId> = vec![1, 2, 3];
        let mut nodes: Vec<ShardedKvNode> = ids
            .iter()
            .map(|&p| {
                let mut base = ServerConfig::with(p);
                base.lease_ticks = 20;
                base.lease_epsilon_ticks = 2;
                let shards = (0..6u32)
                    .map(|s| KvNode::with_config(shard_config(&base, s, &ids), ids.clone()))
                    .collect();
                ShardedKvNode::from_shards(shards)
            })
            .collect();
        run(&mut nodes, 200);
        // Each shard's lease is held exactly by that shard's leader.
        for s in 0..6u32 {
            let holders: Vec<NodeId> = nodes
                .iter()
                .filter(|n| n.lease_valid(s))
                .map(|n| n.pid())
                .collect();
            let leader = nodes.iter().find(|n| n.is_leader(s)).unwrap().pid();
            assert_eq!(holders, vec![leader], "shard {s} lease at its leader");
        }
        // A write then a lease read through the owning shard's leader.
        let key = "route-me";
        let s = shard_of_key(key, 6);
        let li = nodes.iter().position(|n| n.is_leader(s)).unwrap();
        nodes[li].submit_batch(s, [put(key, 31, 1)]).unwrap();
        run(&mut nodes, 100);
        nodes[li].take_results();
        let routed = nodes[li].read(ReadMode::Lease, 2, 1, key).unwrap();
        assert_eq!(routed, s, "read routed to the owning shard");
        let results = nodes[li].take_results();
        let read = results
            .iter()
            .find(|(sh, r)| *sh == s && r.client == 2)
            .expect("lease read served locally");
        assert_eq!(read.1.value, Some(31));
    }

    #[test]
    fn shard_move_migrates_one_shard_between_replicas() {
        // 3 replicas + a joiner; shard 1 moves from {1,2,3} to {1,2,4}
        // snapshot-first (the donors compact before the move), while
        // shard 0 keeps serving and never changes membership.
        let ids: Vec<NodeId> = vec![1, 2, 3];
        let mut nodes: Vec<ShardedKvNode> = ids
            .iter()
            .map(|&p| ShardedKvNode::new(p, ids.clone(), 2))
            .collect();
        nodes.push(ShardedKvNode::joiner(4, 2));
        run(&mut nodes, 150);
        let mut seq = 0u64;
        let mut keys = Vec::new();
        for i in 0..24 {
            let key = format!("k{i}");
            let s = shard_of_key(&key, 2);
            seq += 1;
            let li = nodes.iter().position(|n| n.is_leader(s)).unwrap();
            nodes[li].submit_batch(s, [put(&key, i, seq)]).unwrap();
            keys.push((key, i));
        }
        run(&mut nodes, 200);
        // Compact shard 1 everywhere so the move is snapshot-first.
        for n in nodes.iter_mut().take(3) {
            n.compact(1).expect("compact shard 1");
        }
        let li = nodes.iter().position(|n| n.is_leader(1)).unwrap();
        nodes[li].reconfigure(1, vec![1, 2, 4]).unwrap();
        run(&mut nodes, 400);
        // The joiner now serves shard 1 with full state...
        for (key, v) in &keys {
            if shard_of_key(key, 2) == 1 {
                assert_eq!(nodes[3].read_local(key), Some(*v), "moved key {key}");
            }
        }
        // ...while its shard 0 never started.
        assert_eq!(
            nodes[3].shard(0).server_ref().config_id(),
            0,
            "unmoved shard stays idle on the joiner"
        );
        // Shard 0 still serves writes afterwards.
        let key0 = keys
            .iter()
            .find(|(k, _)| shard_of_key(k, 2) == 0)
            .map(|(k, _)| k.clone())
            .unwrap();
        seq += 1;
        let li0 = nodes.iter().position(|n| n.is_leader(0)).unwrap();
        nodes[li0].submit_batch(0, [put(&key0, 777, seq)]).unwrap();
        run(&mut nodes, 200);
        for n in nodes.iter().take(3) {
            assert_eq!(n.read_local(&key0), Some(777));
        }
    }
}
