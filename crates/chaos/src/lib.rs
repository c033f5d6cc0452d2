//! # chaos — deterministic fault injection
//!
//! Two drivers run seeded fault schedules over the deterministic simulator
//! and check the paper's claim: safety always, progress once connectivity
//! returns (§4, §5).
//!
//! * The **protocol harness** ([`harness`]) runs Omni-Paxos and every
//!   baseline of the §7.2 comparison (Raft, Raft PV+CQ, Multi-Paxos, VR)
//!   on the figures' own tick loop, [`cluster::Runner`]. After every tick
//!   the [`monitor`] checks prefix agreement (SC2), durability across
//!   crash + recovery, validity (SC1), one leader per epoch and the LE3
//!   election audit; after a forced heal, fresh probe commands must decide
//!   at every server within a bound. The root package's SC1–SC3 tests run
//!   pinned seeds of it at 3 and 5 servers.
//! * The **kv driver** ([`driver`]) runs the key-value store's workloads
//!   ([`KV_WORKLOADS`]): session dedup on one group and on four shards
//!   with a mid-traffic shard move ([`kv_chaos`]), the three read modes
//!   under clock skew ([`read_chaos`]), and cross-shard 2PC bank transfers
//!   ([`txn_chaos`]). Its nodes are sharded kv nodes, so it keeps its own
//!   tick.
//!
//! Both fire one fault vocabulary ([`Fault`]) through one
//! [`cluster::Nemesis`] over the simulated hub: link cuts and session
//! drops, the paper's named partitions (quorum-loss, constrained
//! election, chained), crash and recovery, disk failpoints (a server
//! whose disk fails must fail-stop), delay spikes, compaction and
//! reconfiguration. A run's faults are generated up front from its seed
//! ([`schedule`]), so every run replays bit-identically — its trace
//! fingerprint ([`trace`]) is its identity — and a failing run shrinks to
//! a 1-minimal schedule ([`minimize()`]).

pub mod driver;
pub mod harness;
pub mod kv_chaos;
pub mod minimize;
pub mod monitor;
pub mod read_chaos;
pub mod schedule;
pub mod trace;
pub mod txn_chaos;

pub use driver::{KvWorkload, Workload, KV_WORKLOADS};
pub use harness::{run, run_schedule, Bug, ChaosConfig};
pub use minimize::minimize;
pub use schedule::{generate, generate_kv, Fault, ScheduledFault};
pub use trace::{fingerprint, render_report, ChaosReport, Counters, TraceEvent, Violation};

/// Server identifier, shared with the rest of the workspace.
pub type NodeId = cluster::NodeId;
