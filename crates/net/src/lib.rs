//! # net — real transport for the Omni-Paxos reproduction
//!
//! The paper's deployment (§7) runs replicas on separate machines over
//! TCP; until this crate, the reproduction only ran inside the
//! deterministic simulator. This crate closes that gap without giving up
//! the simulator:
//!
//! * [`frame`] — length-prefixed, checksummed frames carrying the wire
//!   codec (`omnipaxos::wire`) payloads, with a typed fatal/droppable
//!   error split implementing the forward-compatibility contract.
//! * [`link`] — the [`NetworkLink`](link::NetworkLink) trait: the narrow
//!   waist replica drivers are written against, plus the deterministic
//!   [`SimHub`](link::SimHub)/[`SimLink`](link::SimLink) backend.
//! * [`tcp`] — [`TcpTransport`](tcp::TcpTransport): session-oriented
//!   connections over `std::net` (zero external dependencies), with
//!   reconnect + exponential backoff, heartbeat dead-session detection,
//!   and monotonically numbered sessions, so the paper's session-based
//!   FIFO link assumptions (§4.1.3) hold over real sockets.
//! * [`server`] / [`client`] — the deployable kvstore: a server driver
//!   generic over the link backend with one admission `Lane` per shard,
//!   a client-facing TCP gateway, and one retrying client —
//!   [`PipelinedKvClient`](client::PipelinedKvClient), a window of
//!   requests in flight, of which [`KvClient`](client::KvClient) is the
//!   window-1 case and [`ShardedKvClient`](client::ShardedKvClient) one
//!   session per shard. `omni-kv-server` / `omni-kv-client` are the
//!   binaries.

pub mod client;
pub mod frame;
pub mod link;
pub mod server;
pub mod tcp;

pub use client::{fetch_shards, KvClient, PipelinedKvClient, ShardedKvClient};
pub use frame::{Frame, FrameError};
pub use link::{LinkCounters, LinkEvent, MsgSize, NetworkLink, SimHub, SimLink};
pub use server::{ClientGateway, KvServer};
pub use tcp::{TcpConfig, TcpTransport};
