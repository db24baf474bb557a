//! Popularity-skew analytics for the SieveStore reproduction.
//!
//! These are the reductions behind the paper's workload-characterization
//! figures:
//!
//! * [`BlockCounts`] — per-block access counting over any trace slice
//!   (the count table of `sievestore-extsort`, re-exported);
//! * [`PopularityBins`] — 10 000-bin ranked access-count curve
//!   (Figure 2(a));
//! * [`popularity_cdf`] — cumulative access distributions and zooms
//!   (Figures 2(b), 2(c), 3(a)–(c));
//! * [`composition_by_server`] — per-server shares of the ensemble top-1 %
//!   (Figure 3(d)) plus hot-set overlap/drift measures;
//! * [`TextTable`] / [`write_csv`] — report formatting.
//!
//! # Examples
//!
//! ```
//! use sievestore_analysis::{popularity_cdf, BlockCounts};
//!
//! let counts = BlockCounts::from_blocks(
//!     std::iter::repeat(7u64).take(50).chain(0..50),
//! );
//! let cdf = popularity_cdf(&counts, 10);
//! // One block holds half the accesses, so the top decile covers > 50 %.
//! assert!(cdf.fraction_at(10.0) > 0.5);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod binning;
pub mod cdf;
pub mod composition;
pub mod counting;
pub mod report;

pub use binning::{BinStat, PopularityBins};
pub use cdf::{popularity_cdf, CdfPoint, PopularityCdf};
pub use composition::{
    composition_by_server, consecutive_day_overlaps, containment_overlap, jaccard_overlap,
    ServerShare,
};
pub use counting::sharded_block_counts;
pub use report::{pct, thousands, write_csv, TextTable};
pub use sievestore_extsort::BlockCounts;
