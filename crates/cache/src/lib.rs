//! Block caches for the SieveStore reproduction.
//!
//! Three cache organizations, matching the paper's two caching models
//! plus a second replacement policy for the continuous ones:
//!
//! * [`LruCache`] — fully-associative, O(1) LRU; the default for every
//!   *continuous* configuration (SieveStore-C, AOD, WMNA, RandSieve-C).
//! * [`SieveCache`] — fully-associative SIEVE (NSDI '24): a hit sets a
//!   visited bit instead of moving a list node, and a scanning hand
//!   evicts. Selectable for the continuous configurations via
//!   [`EvictionPolicy`].
//! * [`BatchCache`] — epoch-batched residency with move-cancelling
//!   reinstallation; the cache of the *discrete* SieveStore-D.
//!
//! [`LruCache`] and [`SieveCache`] share their resident-frame
//! bookkeeping (pre-sized key index, slot slab, intrusive list) through
//! one private module, so the policies differ only in the replacement
//! decision.
//!
//! All of them operate on packed [`sievestore_types::GlobalBlock`] keys
//! supplied as raw `u64`s, so they are usable with any 64-bit keyed
//! workload.
//!
//! # Examples
//!
//! ```
//! use sievestore_cache::LruCache;
//!
//! let mut cache = LruCache::new(100);
//! cache.insert(42);
//! assert!(cache.touch(42)); // hit
//! assert!(!cache.touch(7)); // miss
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
mod frames;
pub mod lru;
pub mod sieve;

pub use batch::{BatchCache, EpochTransition};
pub use lru::{IterMru, LruCache};
pub use sieve::{IterSieve, SieveCache};

use std::fmt;
use std::str::FromStr;

/// Replacement policy for the continuous configurations' block cache.
///
/// Parsed from CLI flags (`--eviction lru|sieve`) and threaded through
/// `SimConfig` down to the appliance builder. Discrete configurations
/// (SieveStore-D and friends) use the epoch-batched [`BatchCache`]
/// regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Classic move-to-front LRU ([`LruCache`]).
    #[default]
    Lru,
    /// SIEVE: visited bit on hit, hand-moving eviction ([`SieveCache`]).
    Sieve,
}

impl EvictionPolicy {
    /// Stable lowercase name, matching what [`FromStr`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Sieve => "sieve",
        }
    }
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EvictionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "lru" => Ok(EvictionPolicy::Lru),
            "sieve" => Ok(EvictionPolicy::Sieve),
            other => Err(format!(
                "unknown eviction policy {other:?} (expected \"lru\" or \"sieve\")"
            )),
        }
    }
}

#[cfg(test)]
mod eviction_policy_tests {
    use super::EvictionPolicy;

    #[test]
    fn round_trips_through_name() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Sieve] {
            assert_eq!(policy.name().parse::<EvictionPolicy>(), Ok(policy));
            assert_eq!(policy.to_string(), policy.name());
        }
    }

    #[test]
    fn rejects_unknown_names() {
        assert!("fifo".parse::<EvictionPolicy>().is_err());
        assert!("LRU".parse::<EvictionPolicy>().is_err());
    }

    #[test]
    fn defaults_to_lru() {
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Lru);
    }
}
