//! # cluster — the evaluation harness of the Omni-Paxos reproduction
//!
//! Runs any of the compared protocols (Omni-Paxos, Raft, Raft PV+CQ,
//! Multi-Paxos, VR) inside the deterministic network simulator, under the
//! paper's workloads and partial-partition scenarios (§7):
//!
//! * [`protocol`] — a uniform [`protocol::Replica`] trait with one adapter
//!   per protocol, so experiments are protocol-agnostic.
//! * [`client`] — the closed-loop client with `CP` concurrent proposals
//!   (the paper's workload parameter), with retry on loss.
//! * [`runner`] — the one simulation loop ([`Runner::step`]): deliver,
//!   fire, tick, client, send. The figures, the protocol chaos harness and
//!   the root safety tests all run on it.
//! * [`nemesis`] — the one fault vocabulary ([`Fault`]) and the one place
//!   a fault is fired ([`Nemesis::fire`]), over the [`net::SimHub`]: cuts,
//!   heals, crashes and recoveries emit the TCP transport's session
//!   events, crashes also drop in-flight traffic, jitter reorders across
//!   links.
//! * [`scenarios`] — the quorum-loss, constrained-election and chained
//!   partial partitions of §2, resolved against the live leader at
//!   injection time exactly as the testbed scripts did.
//! * [`metrics`] — down-time (longest gap in decided replies), windowed
//!   throughput, leader changes, and per-node IO.

pub mod client;
pub mod cmd;
pub mod metrics;
pub mod nemesis;
pub mod protocol;
pub mod runner;
pub mod scenarios;

pub use client::{Client, ClientConfig};
pub use cmd::Cmd;
pub use metrics::RunReport;
pub use nemesis::{Fault, Nemesis, Servers};
pub use protocol::{ProtocolKind, Replica};
pub use runner::{Decided, RunConfig, Runner, Workload};

/// Server identifier (shared across all member crates).
pub type NodeId = u64;
