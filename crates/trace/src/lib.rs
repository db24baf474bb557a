//! Synthetic storage-ensemble traces for the SieveStore reproduction.
//!
//! The SieveStore paper (ISCA 2010) is evaluated on week-long block-access
//! traces of a 13-server ensemble. Those traces are not bundled here, so
//! this crate provides a **calibrated synthetic substitute**: an ensemble
//! model mirroring the paper's Table 1 ([`EnsembleConfig::msr_like`]) and a
//! deterministic generator ([`SyntheticTrace`]) whose output reproduces the
//! statistical properties the paper's design observations rest on —
//! popularity skew (O1), per-server/volume/day skew variation and hot-set
//! drift (O2), diurnal load and rare independent bursts.
//!
//! The crate also provides binary trace serialization ([`TraceWriter`],
//! [`TraceReader`]) and an importer for the real MSR-Cambridge CSV traces
//! ([`MsrReader`]).
//!
//! # Quick start
//!
//! ```
//! use sievestore_trace::{EnsembleConfig, SyntheticTrace};
//! use sievestore_types::Day;
//!
//! # fn main() -> Result<(), sievestore_types::SieveError> {
//! let trace = SyntheticTrace::new(EnsembleConfig::tiny(1))?;
//! let requests = trace.day_requests(Day::new(0));
//! println!("day 0 has {} requests", requests.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod io;
pub mod model;
pub mod msr;
pub mod stream;
pub mod synth;
pub mod zipf;

pub use io::{TraceReader, TraceWriter};
pub use model::{EnsembleConfig, Scale, ServerConfig, VolumeConfig};
pub use msr::MsrReader;
pub use stream::{
    request_order_key, sort_requests, RequestOrderKey, RequestStream, StreamMsg, TraceStream,
    TraceStreamConfig,
};
pub use synth::{SizeMix, SyntheticTrace};
pub use zipf::Zipf;
