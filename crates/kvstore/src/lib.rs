//! # kvstore — a replicated key-value store on Omni-Paxos
//!
//! The paper motivates RSMs with coordination and data services (§1); this
//! crate is the canonical such service built on the reproduction: a
//! partition-tolerant, linearizable key-value store.
//!
//! Each server embeds an [`omnipaxos::OmniPaxosServer`] replicating
//! [`KvCommand`]s; the store state machine applies decided commands in log
//! order, so every replica converges to the same map. Writes go through the
//! log; reads are served either **eventually consistent** (local state) or
//! **linearizable** by appending a no-op read marker and waiting for it to
//! decide (the classic read-through-log technique).
//!
//! Client sessions carry sequence numbers so command retries (needed under
//! partitions — see the paper's §7.2) are deduplicated: the state machine
//! applies each `(client, seq)` at most once.

pub mod shard;
pub mod store;
pub mod txn;
pub mod wire;

pub use shard::{op_spans_shards, shard_config, shard_of_key, shard_of_op, ShardedKvNode};
pub use store::{
    KvCommand, KvNode, KvOp, KvResult, KvStateMachine, ReadMode, TxnGuard, TxnId, TxnPrepare,
    TxnSpec, WriteOp,
};
pub use txn::{TxnCoordinator, TxnOutcome, TXN_CLIENT_FLAG};
pub use wire::{KvWire, TxnState};

/// Server identifier, shared with the `omnipaxos` crate.
pub type NodeId = omnipaxos::NodeId;
