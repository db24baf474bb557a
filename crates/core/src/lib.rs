//! # SieveStore
//!
//! A Rust implementation of **SieveStore** (Pritchett & Thottethodi,
//! ISCA 2010): a highly-selective, ensemble-level disk cache that lets a
//! small SSD (16–32 GB) absorb a large fraction of the block traffic of a
//! multi-terabyte, multi-server storage ensemble.
//!
//! The core mechanism is **sieving** — *selective cache allocation*.
//! Conventional caches allocate a frame on (almost) every miss, and on a
//! write-asymmetric device each such allocation is a slow SSD write. On
//! ensemble workloads, where ≥99 % of daily blocks see ≤10 accesses, those
//! allocation-writes dominate the device's operation mix and cripple it.
//! A sieve refuses allocation to low-reuse blocks, eliminating the writes
//! while *raising* the hit ratio (no cache pollution).
//!
//! Two practical sieves are provided:
//!
//! * **SieveStore-D** ([`PolicySpec::SieveStoreD`]) — discrete: counts every
//!   access per epoch (offline-loggable via `sievestore-extsort`) and
//!   batch-installs the blocks with ≥ 10 accesses at day boundaries.
//! * **SieveStore-C** ([`PolicySpec::SieveStoreC`]) — continuous: allocates on
//!   the n-th miss within a recent window, gated through a two-tier
//!   imprecise/precise miss-count table (`sievestore-sieve`).
//!
//! Baselines from the paper ship alongside: AOD, WMNA, RandSieve-C,
//! RandSieve-BlkD and the clairvoyant per-day ideal.
//!
//! # Quick start
//!
//! ```
//! use sievestore::{PolicySpec, SieveStoreBuilder};
//! use sievestore_types::{Micros, RequestKind};
//!
//! # fn main() -> Result<(), sievestore_types::SieveError> {
//! let mut store = SieveStoreBuilder::new()
//!     .capacity_blocks(32 * 1024) // 16 MiB of 512-B frames
//!     .policy(PolicySpec::SieveStoreD { threshold: 10 })
//!     .build()?;
//!
//! // Feed block accesses; misses bypass until the day boundary installs
//! // the blocks that earned residency.
//! for _ in 0..12 {
//!     store.access(7, RequestKind::Read, Micros::from_hours(1));
//! }
//! store.day_boundary(sievestore_types::Day::new(1));
//! assert!(store.contains(7));
//! # Ok(())
//! # }
//! ```
//!
//! The trace-driven reproduction of the paper's evaluation lives in the
//! companion crates `sievestore-sim` (engine), `sievestore-trace`
//! (calibrated synthetic ensemble traces) and `sievestore-bench`
//! (per-figure experiment harness).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analytical;
pub mod appliance;
mod policy;

pub use appliance::{AccessOutcome, ApplianceStats, SieveStore, SieveStoreBuilder};
pub use policy::PolicySpec;
pub use sievestore_cache::EvictionPolicy;
