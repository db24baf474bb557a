//! Shared vocabulary for the SieveStore reproduction.
//!
//! This crate defines the small, copyable value types every other crate in
//! the workspace speaks: block addresses ([`BlockAddr`], [`GlobalBlock`]),
//! server/volume identity ([`ServerId`], [`VolumeId`]), block-level I/O
//! requests ([`Request`], [`RequestKind`]) and time units ([`Micros`],
//! [`Minute`], [`Day`]).
//!
//! SieveStore (ISCA 2010) counts storage accesses at 512-byte block
//! granularity and accounts for SSD device occupancy at 4 KiB page
//! granularity; the corresponding constants live here
//! ([`BLOCK_SIZE`], [`PAGE_SIZE`], [`BLOCKS_PER_PAGE`]).
//!
//! # Examples
//!
//! ```
//! use sievestore_types::{BlockAddr, GlobalBlock, Micros, Request, RequestKind, ServerId, VolumeId};
//!
//! let addr = BlockAddr::new(ServerId::new(3), VolumeId::new(1), 4096);
//! let packed = GlobalBlock::from(addr);
//! assert_eq!(BlockAddr::from(packed), addr);
//!
//! let req = Request::new(Micros::new(1_000_000), addr, 8, RequestKind::Read)
//!     .with_response_time(Micros::new(900));
//! assert_eq!(req.len_bytes(), 8 * sievestore_types::BLOCK_SIZE as u64);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod fastmap;
pub mod ids;
pub mod obs;
pub mod proc;
pub mod request;
pub mod time;

pub use error::{DurableError, ErrorClass, NodeError, ParseRequestError, SieveError};
pub use fastmap::{U64Map, U64Set};
pub use ids::{BlockAddr, GlobalBlock, ServerId, VolumeId};
pub use proc::peak_rss_bytes;
pub use request::{Request, RequestKind};
pub use time::{Day, Micros, Minute};

/// Size of one storage block in bytes (the trace accounting granularity).
pub const BLOCK_SIZE: usize = 512;

/// Size of one SSD page in bytes (the device IOPS accounting granularity).
pub const PAGE_SIZE: usize = 4096;

/// Number of 512-byte blocks per 4 KiB SSD page.
pub const BLOCKS_PER_PAGE: usize = PAGE_SIZE / BLOCK_SIZE;

/// Number of bytes in one gibibyte, used for capacity conversions.
pub const GIB: u64 = 1 << 30;

/// Converts a capacity in gibibytes to a frame count of 512-byte blocks.
///
/// # Examples
///
/// ```
/// assert_eq!(sievestore_types::gib_to_blocks(16), 33_554_432);
/// ```
pub const fn gib_to_blocks(gib: u64) -> u64 {
    gib * GIB / BLOCK_SIZE as u64
}

/// The SplitMix64 finalizer — the canonical block-key hash of the
/// workspace.
///
/// Every consumer that buckets block keys (the sieve's IMCT slots, the
/// analysis crate's sharded counting, the parallel replay engine's
/// worker partitioning) uses this one mixer, so a key's bucket in one
/// subsystem determines its bucket in every other. That shared structure
/// is what lets the replay engine slice the IMCT by slot and still
/// reproduce the sequential sieve's aliasing bit-for-bit.
///
/// # Examples
///
/// ```
/// // Deterministic and well-mixed: distinct keys spread across residues.
/// let a = sievestore_types::mix64(1);
/// assert_eq!(a, sievestore_types::mix64(1));
/// assert_ne!(a, sievestore_types::mix64(2));
/// ```
pub const fn mix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The worker shard a block key belongs to when hash-partitioned across
/// `shards` workers (the replay engine's and `analysis`'s partition
/// function).
///
/// # Panics
///
/// Panics if `shards == 0`.
///
/// # Examples
///
/// ```
/// use sievestore_types::shard_of;
///
/// assert_eq!(shard_of(42, 1), 0);
/// assert!(shard_of(42, 4) < 4);
/// // Stable: the same key always lands on the same shard.
/// assert_eq!(shard_of(42, 4), shard_of(42, 4));
/// ```
pub fn shard_of(key: u64, shards: usize) -> usize {
    shard_index(shards)(key)
}

/// [`shard_of`]`(_, shards)` with the count resolved once, for routing
/// many keys: a mask where that is the same function (power-of-two
/// counts), else the modulo, so the common case costs no division per key.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_index(shards: usize) -> impl Fn(u64) -> usize + Copy {
    assert!(shards > 0, "shard count must be nonzero");
    let shards = shards as u64;
    let mask = shards.is_power_of_two().then(|| shards - 1);
    move |key| match mask {
        Some(mask) => (mix64(key) & mask) as usize,
        None => (mix64(key) % shards) as usize,
    }
}

/// Hints the CPU to pull the cache line holding `target` toward L1 ahead
/// of a later access. Purely a performance hint: it reads no value,
/// changes no state and never faults, so callers may issue it for data
/// they might not touch. A no-op off x86_64.
///
/// # Examples
///
/// ```
/// let table = vec![0u64; 1024];
/// sievestore_types::prefetch_read(&table[512]);
/// assert_eq!(table[512], 0);
/// ```
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch_read<T>(target: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64
        // target has; it is a hint that dereferences nothing, and the
        // address comes from a live reference anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(target).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = target;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_page_constants_are_consistent() {
        assert_eq!(BLOCKS_PER_PAGE, 8);
        assert_eq!(PAGE_SIZE % BLOCK_SIZE, 0);
    }

    #[test]
    fn gib_conversion_matches_hand_computation() {
        // 1 GiB = 2^30 bytes = 2^21 blocks of 512 bytes.
        assert_eq!(gib_to_blocks(1), 1 << 21);
        assert_eq!(gib_to_blocks(32), 32 << 21);
    }

    #[test]
    fn mix64_matches_splitmix_reference() {
        // Reference values of the SplitMix64 finalizer (Steele et al.),
        // pinning the exact constants other subsystems rely on.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn shard_of_partitions_and_is_total() {
        for key in 0..1000u64 {
            assert_eq!(shard_of(key, 1), 0);
            let s = shard_of(key, 7);
            assert!(s < 7);
        }
        // The partition is reasonably balanced for sequential keys.
        let mut per_shard = [0usize; 4];
        for key in 0..4000u64 {
            per_shard[shard_of(key, 4)] += 1;
        }
        for &n in &per_shard {
            assert!((800..1200).contains(&n), "imbalanced: {per_shard:?}");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn shard_of_rejects_zero_shards() {
        let _ = shard_of(1, 0);
    }

    proptest! {
        /// Mask or modulo, the index is the analysis pipeline's partition
        /// function `mix64(key) % n` at every shard count.
        #[test]
        fn shard_index_is_mix64_modulo(keys in proptest::collection::vec(any::<u64>(), 1..64)) {
            for shards in 1usize..=16 {
                let index = shard_index(shards);
                for &key in keys.iter().chain(&[0, u64::MAX]) {
                    let want = (mix64(key) % shards as u64) as usize;
                    prop_assert_eq!(index(key), want, "{} shards", shards);
                    prop_assert_eq!(shard_of(key, shards), want);
                }
            }
        }
    }
}
