//! The trace-driven simulation engine.
//!
//! Follows the paper's methodology (§4):
//!
//! * multi-block requests expand into 512-byte block accesses;
//! * hits are served by the SSD at the request's issue minute;
//! * an allocation-write can begin only once the data has been fetched
//!   from the underlying storage, so it is charged at the originating
//!   request's *completion* time (per-block linear interpolation for
//!   multi-block requests);
//! * SSD device cost is accounted at 4 KiB page granularity, charging a
//!   full page for sub-page remainders (the paper's conservative
//!   treatment of unaligned I/O);
//! * SieveStore-D's batch moves are, by default, *not* charged to the
//!   per-minute occupancy — the paper staggers them into slack periods —
//!   but they are counted as allocation-writes in the daily totals.
//!   Set [`SimConfig::charge_batch_moves`] to include them.
//!
//! Every entry point replays through one stream loop: the sharded
//! engine of [`crate::replay`] at [`SimConfig::workers`] workers. It
//! consumes the trace as a *stream* ([`SyntheticTrace::stream`]): a
//! background generator produces day *N + 1* while day *N* replays, and
//! nothing materializes the whole trace. [`simulate_many`] gives each
//! policy a full replay of its own, several at once when the host has
//! cores to spare.

use std::sync::Arc;

use sievestore::{EvictionPolicy, PolicySpec, SieveStoreBuilder};
use sievestore_extsort::CountingConfig;
use sievestore_ssd::{OccupancyTracker, SsdSpec};
use sievestore_trace::{ScenarioConfig, SyntheticTrace, TraceStreamConfig};
use sievestore_types::{Day, Minute, RequestKind, SieveError, BLOCKS_PER_PAGE};

use crate::metrics::{DayMetrics, SimResult};
use crate::replay::{run_sharded, simulate_sharded};
use crate::snapshot::SnapshotLog;
use crate::sweep::sweep;

/// Engine configuration shared by all policies in a run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cache capacity in 512-byte frames (already scaled).
    pub capacity_blocks: usize,
    /// The cache device.
    pub ssd: SsdSpec,
    /// Factor to re-scale simulated loads to full-scale device terms
    /// (use the trace's scale denominator).
    pub load_multiplier: f64,
    /// Charge discrete batch moves to the per-minute occupancy (spread
    /// over the boundary hour) instead of assuming slack scheduling.
    pub charge_batch_moves: bool,
    /// Replay workers, each owning one hash partition of the block
    /// space (see [`crate::replay`]). 1 by default; 0 is rejected.
    pub workers: usize,
    /// Block-cache eviction policy for continuous allocation policies
    /// (LRU by default, or SIEVE, whose hit sets a visited bit). Discrete
    /// policies use the epoch-batched cache regardless.
    pub eviction: EvictionPolicy,
    /// Epoch access-counting backend for discrete policies: in-memory
    /// (default) or spill-to-disk for bounded-memory full-scale runs.
    pub counting: CountingConfig,
    /// Trace-streaming knobs (chunk size, pipeline depth, spill-mode
    /// generation).
    pub trace_stream: TraceStreamConfig,
}

impl SimConfig {
    /// A configuration mirroring the paper: 16 GB cache, X25-E device.
    /// `scale_denominator` shrinks capacity and upscales reported loads.
    pub fn paper_16gb(scale_denominator: u32) -> Self {
        SimConfig {
            capacity_blocks: (sievestore_types::gib_to_blocks(16) / scale_denominator as u64).max(1)
                as usize,
            ssd: SsdSpec::x25e(),
            load_multiplier: scale_denominator as f64,
            charge_batch_moves: false,
            workers: 1,
            eviction: EvictionPolicy::default(),
            counting: CountingConfig::InMemory,
            trace_stream: TraceStreamConfig::default(),
        }
    }

    /// Same as [`SimConfig::paper_16gb`] but 32 GB (the unsieved caches'
    /// larger variant in Figure 5).
    pub fn paper_32gb(scale_denominator: u32) -> Self {
        let mut cfg = Self::paper_16gb(scale_denominator);
        cfg.capacity_blocks *= 2;
        cfg
    }

    /// Sets a custom capacity in (already scaled) blocks.
    #[must_use]
    pub fn with_capacity_blocks(mut self, blocks: usize) -> Self {
        self.capacity_blocks = blocks;
        self
    }

    /// Includes discrete batch moves in the occupancy series.
    #[must_use]
    pub fn with_charge_batch_moves(mut self, charge: bool) -> Self {
        self.charge_batch_moves = charge;
        self
    }

    /// Sets the number of replay workers.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Selects the block-cache eviction policy for continuous allocation
    /// policies.
    #[must_use]
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Selects the epoch access-counting backend for discrete policies.
    #[must_use]
    pub fn with_counting(mut self, counting: CountingConfig) -> Self {
        self.counting = counting;
        self
    }

    /// Sets the trace-streaming configuration (chunking, depth, spill).
    #[must_use]
    pub fn with_trace_stream(mut self, trace_stream: TraceStreamConfig) -> Self {
        self.trace_stream = trace_stream;
        self
    }

    /// Applies an adversarial workload scenario to the replayed stream
    /// (see [`sievestore_trace::scenario`]). Every engine entry point
    /// replays the transformed stream; the scenario is validated against
    /// the trace up front.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.trace_stream.scenario = scenario;
        self
    }

    /// The appliance this configuration runs `spec` on (each shard adds
    /// `.shard(s, n)`).
    pub(crate) fn store_builder(&self, spec: PolicySpec) -> SieveStoreBuilder {
        SieveStoreBuilder::new()
            .capacity_blocks(self.capacity_blocks)
            .policy(spec)
            .eviction(self.eviction)
            .counting(self.counting.clone())
    }
}

fn pages(blocks: u64) -> u64 {
    blocks.div_ceil(BLOCKS_PER_PAGE as u64)
}

/// The replay accounting core. A [`SimResult`] is its own accumulator:
/// the replay engine fills one per shard plus the merged total, all
/// through these functions.
impl SimResult {
    /// An empty result for `policy` over `trace`.
    pub(crate) fn empty(policy: Arc<str>, trace: &SyntheticTrace, cfg: &SimConfig) -> Self {
        SimResult {
            policy,
            capacity_blocks: cfg.capacity_blocks,
            days: Vec::new(),
            occupancy: OccupancyTracker::new(cfg.ssd.clone(), trace.days() as usize * 24 * 60)
                .with_load_multiplier(cfg.load_multiplier),
        }
    }

    fn day_mut(&mut self, day: Day) -> &mut DayMetrics {
        let idx = day.as_usize();
        if idx >= self.days.len() {
            self.days.resize(idx + 1, DayMetrics::default());
        }
        &mut self.days[idx]
    }

    /// Accounts one request — or one shard's fragment of one — of
    /// `blocks` block accesses, `hits` of which hit and `allocated` of
    /// which allocated, counted on the issue day. Device cost is charged
    /// at 4 KiB granularity, sub-page remainders in full: hits at the
    /// issue `minute`, allocation fills at `completion_minute`, once the
    /// underlying fetch has completed.
    pub(crate) fn record_request(
        &mut self,
        minute: Minute,
        completion_minute: Minute,
        kind: RequestKind,
        blocks: u64,
        hits: u64,
        allocated: u64,
    ) {
        self.day_mut(minute.day())
            .record_request(kind, blocks, hits, allocated);
        if hits > 0 {
            if kind.is_read() {
                self.occupancy.record_read_pages(minute, pages(hits));
            } else {
                self.occupancy.record_write_pages(minute, pages(hits));
            }
        }
        if allocated > 0 {
            self.occupancy
                .record_write_pages(completion_minute, pages(allocated));
        }
    }

    /// Counts the `moved` blocks a discrete policy batch-installed at
    /// `day`'s boundary.
    pub(crate) fn record_batch_install(&mut self, day: Day, moved: u64) {
        self.day_mut(day).batch_allocations = moved;
    }

    /// Charges `day`'s batch move to the occupancy series, its pages
    /// spread evenly over the first hour of the day.
    pub(crate) fn charge_batch_moves(&mut self, day: Day) {
        let mut left = pages(self.day(day).batch_allocations);
        let per_minute = left.div_ceil(60);
        let mut minute = day.start().minute().index();
        while left > 0 {
            let chunk = per_minute.min(left);
            self.occupancy
                .record_write_pages(Minute::new(minute), chunk);
            left -= chunk;
            minute += 1;
        }
    }

    /// Folds a partial result — one shard's, or one server's — into the
    /// merged total (commutative integer sums — see [`DayMetrics::merge`]).
    pub(crate) fn absorb(&mut self, part: &SimResult) {
        if part.days.len() > self.days.len() {
            self.days.resize(part.days.len(), DayMetrics::default());
        }
        for (total, d) in self.days.iter_mut().zip(&part.days) {
            total.merge(d);
        }
        self.occupancy.merge(&part.occupancy);
    }
}

/// Simulates one policy over the whole trace, replayed by
/// [`SimConfig::workers`] sharded workers.
///
/// # Errors
///
/// Returns [`SieveError::InvalidConfig`] if the policy, capacity or
/// worker count is invalid.
///
/// # Examples
///
/// ```
/// use sievestore::PolicySpec;
/// use sievestore_sim::{simulate, SimConfig};
/// use sievestore_trace::{EnsembleConfig, SyntheticTrace};
///
/// # fn main() -> Result<(), sievestore_types::SieveError> {
/// let trace = SyntheticTrace::new(EnsembleConfig::tiny(5))?;
/// let cfg = SimConfig::paper_16gb(trace.config().scale.denominator())
///     .with_capacity_blocks(4096);
/// let result = simulate(&trace, PolicySpec::Aod, &cfg)?;
/// assert_eq!(result.days.len(), trace.days() as usize);
/// # Ok(())
/// # }
/// ```
pub fn simulate(
    trace: &SyntheticTrace,
    spec: PolicySpec,
    cfg: &SimConfig,
) -> Result<SimResult, SieveError> {
    simulate_sharded(trace, spec, cfg, cfg.workers).map(|(result, _)| result)
}

/// Simulates one policy and derives its deterministic day-boundary
/// [`SnapshotLog`] from the result. For discrete policies the log has
/// the same bytes at any worker count — see [`crate::snapshot`] for the
/// contract (and `tests/sharded_replay.rs` for the pin).
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_with_snapshots(
    trace: &SyntheticTrace,
    spec: PolicySpec,
    cfg: &SimConfig,
) -> Result<(SimResult, SnapshotLog), SieveError> {
    let result = simulate(trace, spec, cfg)?;
    let log = SnapshotLog::from_result(&result);
    Ok((result, log))
}

/// Simulates one policy over a *single server's* slice of the trace
/// (used by the per-server deployment comparison, quadrants III/IV).
///
/// # Errors
///
/// As [`simulate`], and [`SieveError::InvalidConfig`] for a scenario
/// that moves traffic across servers.
pub fn simulate_server(
    trace: &SyntheticTrace,
    server_idx: usize,
    spec: PolicySpec,
    cfg: &SimConfig,
) -> Result<SimResult, SieveError> {
    run_sharded(trace, Some(server_idx), spec, cfg, cfg.workers).map(|(result, _)| result)
}

/// Simulates several policies over one trace, each a full replay of its
/// own. Replays run side by side on as many threads as the host has
/// cores for, counting the [`SimConfig::workers`] each one spawns.
///
/// Results are returned in the order of `specs`.
///
/// # Errors
///
/// Returns the first error by `specs` order.
pub fn simulate_many(
    trace: &SyntheticTrace,
    specs: Vec<PolicySpec>,
    cfg: &SimConfig,
) -> Result<Vec<SimResult>, SieveError> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    sweep(specs, cores / cfg.workers.max(1), |spec| {
        simulate(trace, spec, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ideal_top_selections;
    use sievestore_sieve::TwoTierConfig;
    use sievestore_trace::EnsembleConfig;

    fn tiny() -> SyntheticTrace {
        SyntheticTrace::new(EnsembleConfig::tiny(11)).unwrap()
    }

    fn cfg(trace: &SyntheticTrace, capacity: usize) -> SimConfig {
        SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(capacity)
    }

    #[test]
    fn aod_has_full_allocation_writes() {
        let trace = tiny();
        let r = simulate(&trace, PolicySpec::Aod, &cfg(&trace, 4096)).unwrap();
        let t = r.total();
        // Every miss allocates.
        assert_eq!(t.allocation_writes, t.read_misses + t.write_misses);
        assert!(t.accesses() > 0);
        assert_eq!(r.days.len(), trace.days() as usize);
    }

    #[test]
    fn wmna_allocates_only_read_misses() {
        let trace = tiny();
        let r = simulate(&trace, PolicySpec::Wmna, &cfg(&trace, 4096)).unwrap();
        let t = r.total();
        assert_eq!(t.allocation_writes, t.read_misses);
    }

    #[test]
    fn accesses_are_identical_across_policies() {
        let trace = tiny();
        let results = simulate_many(
            &trace,
            vec![
                PolicySpec::Aod,
                PolicySpec::Wmna,
                PolicySpec::SieveStoreD { threshold: 10 },
            ],
            &cfg(&trace, 4096),
        )
        .unwrap();
        let accesses: Vec<u64> = results.iter().map(|r| r.total().accesses()).collect();
        assert!(accesses.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(&*results[0].policy, "AOD");
        assert_eq!(&*results[2].policy, "SieveStore-D");
    }

    #[test]
    fn sievestore_c_allocates_orders_of_magnitude_less_than_aod() {
        let trace = tiny();
        let capacity = 16384;
        let results = simulate_many(
            &trace,
            vec![
                PolicySpec::Aod,
                PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 16)),
            ],
            &cfg(&trace, capacity),
        )
        .unwrap();
        let aod = results[0].total();
        let sc = results[1].total();
        assert!(
            sc.allocation_writes * 20 < aod.allocation_writes,
            "sieved {} vs unsieved {}",
            sc.allocation_writes,
            aod.allocation_writes
        );
        // And the sieve should still capture a decent share of accesses.
        assert!(sc.hits() > 0);
    }

    #[test]
    fn sievestore_d_bootstraps_with_empty_day_zero() {
        let trace = tiny();
        let r = simulate(
            &trace,
            PolicySpec::SieveStoreD { threshold: 10 },
            &cfg(&trace, 16384),
        )
        .unwrap();
        assert_eq!(r.days[0].hits(), 0, "day 0 must have zero hits");
        assert_eq!(r.days[0].batch_allocations, 0);
        // Later days get batch installs and hits.
        let later_hits: u64 = r.days[1..].iter().map(|d| d.hits()).sum();
        assert!(later_hits > 0);
        let later_batches: u64 = r.days[1..].iter().map(|d| d.batch_allocations).sum();
        assert!(later_batches > 0);
    }

    #[test]
    fn ideal_tracks_oracle_coverage() {
        let trace = tiny();
        let (selections, covered, totals) = ideal_top_selections(&trace, 0.01);
        let r = simulate(
            &trace,
            PolicySpec::IdealTop1 {
                selections: selections.clone(),
            },
            &cfg(&trace, 1 << 20),
        )
        .unwrap();
        for d in 0..trace.days() as usize {
            let hits = r.days[d].hits();
            // The simulated ideal hits exactly the accesses to the top-1%
            // blocks of that day (capacity is ample).
            assert_eq!(
                hits, covered[d],
                "day {d}: simulated {hits} vs oracle {}",
                covered[d]
            );
            assert_eq!(r.days[d].accesses(), totals[d]);
        }
    }

    #[test]
    fn occupancy_is_recorded_for_hits() {
        let trace = tiny();
        let r = simulate(&trace, PolicySpec::Aod, &cfg(&trace, 65536)).unwrap();
        let busy_minutes = r
            .occupancy
            .occupancy_series()
            .iter()
            .filter(|&&o| o > 0.0)
            .count();
        assert!(busy_minutes > 0, "AOD must load the device");
    }

    #[test]
    fn charge_batch_moves_adds_write_load() {
        let trace = tiny();
        let base = cfg(&trace, 16384);
        let uncharged = simulate(&trace, PolicySpec::SieveStoreD { threshold: 5 }, &base).unwrap();
        let charged = simulate(
            &trace,
            PolicySpec::SieveStoreD { threshold: 5 },
            &base.clone().with_charge_batch_moves(true),
        )
        .unwrap();
        assert!(charged.occupancy.total_write_bytes() > uncharged.occupancy.total_write_bytes());
        // Metrics are unaffected by the accounting choice.
        assert_eq!(charged.total(), uncharged.total());
    }

    #[test]
    fn occupancy_pages_are_consistent_with_block_metrics() {
        // Page-granularity device accounting must bracket the block-level
        // metrics: at least ceil(blocks/8) pages (perfect packing), at
        // most one page per block (each block in its own request).
        let trace = tiny();
        let r = simulate(&trace, PolicySpec::Aod, &cfg(&trace, 65536)).unwrap();
        let t = r.total();
        let minutes = r.occupancy.len_minutes();
        let mut read_pages = 0u64;
        let mut write_pages = 0u64;
        for m in 0..minutes {
            let load = r.occupancy.load(sievestore_types::Minute::new(m as u32));
            read_pages += load.read_pages;
            write_pages += load.write_pages;
        }
        let bpp = BLOCKS_PER_PAGE as u64;
        assert!(
            read_pages >= t.read_hits / bpp,
            "{read_pages} vs {}",
            t.read_hits
        );
        assert!(read_pages <= t.read_hits, "{read_pages} vs {}", t.read_hits);
        let write_blocks = t.write_hits + t.allocation_writes;
        assert!(write_pages >= write_blocks / bpp);
        assert!(write_pages <= write_blocks);
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = tiny();
        let a = simulate(
            &trace,
            PolicySpec::RandSieveC {
                probability: 0.01,
                seed: 3,
            },
            &cfg(&trace, 4096),
        )
        .unwrap();
        let b = simulate(
            &trace,
            PolicySpec::RandSieveC {
                probability: 0.01,
                seed: 3,
            },
            &cfg(&trace, 4096),
        )
        .unwrap();
        assert_eq!(a.total(), b.total());
    }
}
