//! Sieving: selective cache allocation for SieveStore.
//!
//! "Sieving" is the paper's core mechanism — deciding, per miss or per
//! epoch, whether a block has earned a cache frame, so that low-reuse
//! blocks never trigger allocation-writes. This crate provides every
//! sieving data structure the paper describes:
//!
//! * [`WindowConfig`] — discretized sliding-window miss counts (`W` =
//!   8 h in `k` = 4 subwindows), kept per block as one 8-byte value;
//! * [`Imct`] — the fixed-size, aliased imprecise miss-count table, a
//!   flat array of those values (one cache line per miss);
//! * [`Mct`] — the precise, prunable miss-count table, a hash map with
//!   the same values stored in its slots;
//! * [`TwoTierSieve`] — SieveStore-C's IMCT→MCT admission pipeline
//!   (`t1` = 9 imprecise, then `t2` = 4 precise misses);
//! * [`DiscreteSieve`] — SieveStore-D's epoch access-count rule
//!   (`count >= 10` per day), generic over the counting substrate;
//! * [`RandomMissSieve`] / [`random_block_selection`] — the randomized
//!   baselines RandSieve-C and RandSieve-BlkD.
//!
//! # Examples
//!
//! ```
//! use sievestore_sieve::{TwoTierConfig, TwoTierSieve};
//! use sievestore_types::Micros;
//!
//! let mut sieve = TwoTierSieve::new(TwoTierConfig::paper_default()).unwrap();
//! let now = Micros::from_hours(1);
//! // A single-touch block does not earn a frame.
//! assert!(!sieve.on_miss(123, now));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod discrete;
pub mod random;
pub mod tables;
pub mod two_tier;
pub mod window;

pub use discrete::DiscreteSieve;
pub use random::{random_block_selection, RandomMissSieve};
pub use tables::{Imct, Mct};
pub use two_tier::{TwoTierConfig, TwoTierSieve};
pub use window::WindowConfig;
