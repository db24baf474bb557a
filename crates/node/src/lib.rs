//! SieveStore as a deployable appliance.
//!
//! The paper (Figure 4) envisions SieveStore as a transparent box on the
//! storage network: servers send block I/O to the node; hits are served
//! from its SSD, misses are forwarded to the underlying ensemble, and the
//! sieve decides which blocks earn a cache frame. This crate realizes
//! that physical organization, with TCP standing in for iSCSI:
//!
//! * [`protocol`] — the length-prefixed wire protocol, with typed
//!   [`ErrorCode`] replies and a [`NodeMode`] health indicator;
//! * [`BackingStore`] / [`MemBacking`] / [`FileBacking`] — the ensemble
//!   behind the cache;
//! * [`FaultInjectingBacking`] / [`FaultPlan`] — deterministic fault
//!   injection for exercising every failure path;
//! * [`DataCache`] — policy decisions wired to actual 512-byte payloads
//!   (write-through; the cache never holds the only copy);
//! * [`NodeServer`] — the one TCP front end: a blocking thread per
//!   connection over a cache striped across shards, one lock each
//!   ([`NodeServerBuilder::serve`] / [`NodeServerBuilder::serve_durable`]
//!   build it with one shard, [`NodeServerBuilder::serve_sharded`] with
//!   several — [`ShardedNodeServer`] is the same type), with per-request
//!   deadlines and a circuit breaker into degraded pass-through mode
//!   ([`NodeConfig`]);
//! * [`PipelinedClient`] — the one client: a window of requests in
//!   flight, timeouts, retries and reconnection ([`ClientConfig`],
//!   [`RetryPolicy`]); [`NodeClient`] is it at window 1, call and return.
//!
//! # Examples
//!
//! ```
//! use sievestore::PolicySpec;
//! use sievestore_node::{DataCache, MemBacking, NodeClient, NodeServerBuilder};
//!
//! # fn main() -> std::io::Result<()> {
//! let cache = DataCache::new(MemBacking::new(), PolicySpec::Aod, 1024)
//!     .expect("valid appliance");
//! let server = NodeServerBuilder::new("127.0.0.1:0").serve(cache)?;
//! let mut client = NodeClient::connect(server.addr())?;
//!
//! client.write_block(42, &[7u8; 512])?;
//! let (data, _hit) = client.read_block(42)?;
//! assert_eq!(data, [7u8; 512]);
//!
//! client.quit()?;
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backing;
pub mod client;
pub mod durable;
mod engine;
pub mod faults;
pub mod protocol;
pub mod server;
pub mod store;

pub use backing::{BackingStore, Block, FileBacking, MemBacking};
pub use client::{
    ClientConfig, Completion, NodeClient, NodeStats, OpResult, PipelinedClient, RetryPolicy,
};
pub use durable::{
    crc64, DurableMediaSet, DurableStore, FileMedia, Media, MemMedia, Recovery, RecoveryReport,
    ScrubPass,
};
pub use faults::{
    CrashHandle, CrashPlan, CrashPointMedia, FaultHandle, FaultInjectingBacking, FaultPlan,
    MediaImage,
};
pub use protocol::{ErrorCode, Incoming, NodeMode, PipedReply, PipedRequest, Reply, Request};
pub use server::{NodeConfig, NodeServer, NodeServerBuilder, ShardedNodeServer};
pub use store::{DataCache, DataOutcome, WritePolicy};
