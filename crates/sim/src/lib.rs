//! Trace-driven simulation of SieveStore configurations.
//!
//! This crate reproduces the paper's evaluation methodology (§4):
//! multi-block requests expand into 512-byte block accesses, every policy
//! of Table 3 runs over the same trace, allocation-writes are charged at
//! request-completion time, and per-minute SSD load feeds the drive-IOPS
//! occupancy model.
//!
//! * [`simulate`] / [`simulate_many`] — the engine ([`SimConfig`]),
//!   every entry point one stream loop: [`replay`] at
//!   [`SimConfig::workers`] workers;
//! * [`oracle`] — clairvoyant per-day top-fraction pre-passes;
//! * [`per_server`] — the §5.3 ensemble-vs-per-server comparison;
//! * [`sweep`](crate::sweep::sweep) — parallel sensitivity sweeps.
//!
//! # Examples
//!
//! ```
//! use sievestore::PolicySpec;
//! use sievestore_sim::{simulate, SimConfig};
//! use sievestore_trace::{EnsembleConfig, SyntheticTrace};
//!
//! # fn main() -> Result<(), sievestore_types::SieveError> {
//! let trace = SyntheticTrace::new(EnsembleConfig::tiny(1))?;
//! let cfg = SimConfig::paper_16gb(trace.config().scale.denominator())
//!     .with_capacity_blocks(4096);
//! let aod = simulate(&trace, PolicySpec::Aod, &cfg)?;
//! println!("AOD captured {:.1}% of accesses", 100.0 * aod.total().captured_fraction());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod belady;
pub mod engine;
pub mod metrics;
pub mod oracle;
pub mod per_server;
pub mod replay;
pub mod snapshot;
pub mod sweep;

pub use belady::{belady_counterexample, belady_min, belady_selective, pinned_set, OfflineResult};
pub use engine::{simulate, simulate_many, simulate_server, simulate_with_snapshots, SimConfig};
pub use metrics::{DayMetrics, SimResult};
pub use oracle::{day_counts, ideal_top_selections, server_day_counts};
pub use per_server::{
    drive_cost_comparison, ensemble_ideal_capture, per_server_ideal_capture, simulate_per_server,
    CaptureSeries,
};
pub use replay::{simulate_sharded, ReplayStats};
pub use sievestore::EvictionPolicy;
pub use snapshot::{DaySnapshot, SnapshotLog, SNAPSHOT_SCHEMA};
pub use sweep::{threshold_sweep, window_sweep, SweepPoint};
