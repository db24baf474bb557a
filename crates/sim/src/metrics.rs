//! Per-day simulation metrics and result containers.

use std::sync::Arc;

use sievestore_ssd::OccupancyTracker;
use sievestore_types::{Day, RequestKind};

/// Block-level (512 B) counts for one calendar day of simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayMetrics {
    /// Read hits (blocks).
    pub read_hits: u64,
    /// Write hits (blocks).
    pub write_hits: u64,
    /// Read misses (blocks).
    pub read_misses: u64,
    /// Write misses (blocks).
    pub write_misses: u64,
    /// Allocation-writes (blocks) — continuous policies.
    pub allocation_writes: u64,
    /// Blocks batch-installed at this day's boundary — discrete policies.
    pub batch_allocations: u64,
}

impl DayMetrics {
    /// Total block accesses this day.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.write_hits + self.read_misses + self.write_misses
    }

    /// Total hits this day.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Fraction of this day's accesses captured by the cache.
    pub fn captured_fraction(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// All allocation-writes attributable to this day (continuous ones
    /// plus batch moves performed at the boundary).
    pub fn total_allocation_writes(&self) -> u64 {
        self.allocation_writes + self.batch_allocations
    }

    /// Total SSD block operations this day: hits plus allocation-writes
    /// (the composition of Figure 7's bars).
    pub fn ssd_block_ops(&self) -> u64 {
        self.hits() + self.total_allocation_writes()
    }

    /// SSD write block operations (write hits + allocation-writes).
    pub fn ssd_write_blocks(&self) -> u64 {
        self.write_hits + self.total_allocation_writes()
    }

    /// Folds another day's counters into this one. All fields are integer
    /// sums, so merging is commutative and associative — per-shard metrics
    /// from the parallel replay engine combine into the same totals in any
    /// order, and ratios ([`Self::captured_fraction`]) are only derived at
    /// report time from the merged integers.
    pub fn merge(&mut self, other: &DayMetrics) {
        self.read_hits += other.read_hits;
        self.write_hits += other.write_hits;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.allocation_writes += other.allocation_writes;
        self.batch_allocations += other.batch_allocations;
    }

    /// Folds in one request's `blocks` accesses, `hits` of which hit and
    /// `allocated` of which allocated a frame.
    pub fn record_request(&mut self, kind: RequestKind, blocks: u64, hits: u64, allocated: u64) {
        let (hit_count, miss_count) = match kind {
            RequestKind::Read => (&mut self.read_hits, &mut self.read_misses),
            RequestKind::Write => (&mut self.write_hits, &mut self.write_misses),
        };
        *hit_count += hits;
        *miss_count += blocks - hits;
        self.allocation_writes += allocated;
    }
}

/// The full outcome of simulating one policy over one trace.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Policy report name. `Arc<str>` rather than `String`: names start
    /// as `&'static str` from [`PolicySpec::name`]-style sources and get
    /// copied into every result, sweep point and report row — sharing one
    /// allocation keeps that plumbing clone-free.
    ///
    /// [`PolicySpec::name`]: https://docs.rs/sievestore
    pub policy: Arc<str>,
    /// Cache capacity in 512-B frames.
    pub capacity_blocks: usize,
    /// Per-day metrics, indexed by calendar day.
    pub days: Vec<DayMetrics>,
    /// Per-minute SSD load (occupancy, drives needed, endurance).
    pub occupancy: OccupancyTracker,
}

impl SimResult {
    /// Metrics for one day (zeroes for days beyond the trace).
    pub fn day(&self, day: Day) -> DayMetrics {
        self.days.get(day.as_usize()).copied().unwrap_or_default()
    }

    /// Whole-trace totals.
    pub fn total(&self) -> DayMetrics {
        let mut t = DayMetrics::default();
        for d in &self.days {
            t.merge(d);
        }
        t
    }

    /// Mean per-day captured fraction over `days`, skipping day indices in
    /// `exclude` (the paper excludes day 1 when averaging SieveStore-D,
    /// which bootstraps with an empty cache).
    pub fn mean_captured_fraction(&self, exclude: &[usize]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (i, d) in self.days.iter().enumerate() {
            if exclude.contains(&i) || d.accesses() == 0 {
                continue;
            }
            sum += d.captured_fraction();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean bytes written to the SSD per day (512 B blocks; full-scale if
    /// the occupancy tracker carries a load multiplier — this figure uses
    /// raw simulated counts).
    pub fn ssd_write_blocks_per_day(&self) -> f64 {
        if self.days.is_empty() {
            return 0.0;
        }
        let total: u64 = self.days.iter().map(|d| d.ssd_write_blocks()).sum();
        total as f64 / self.days.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_ssd::SsdSpec;

    fn metrics(rh: u64, wh: u64, rm: u64, wm: u64, aw: u64, ba: u64) -> DayMetrics {
        DayMetrics {
            read_hits: rh,
            write_hits: wh,
            read_misses: rm,
            write_misses: wm,
            allocation_writes: aw,
            batch_allocations: ba,
        }
    }

    #[test]
    fn day_metrics_arithmetic() {
        let d = metrics(30, 10, 45, 15, 45, 5);
        assert_eq!(d.accesses(), 100);
        assert_eq!(d.hits(), 40);
        assert!((d.captured_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(d.total_allocation_writes(), 50);
        assert_eq!(d.ssd_block_ops(), 90);
        assert_eq!(d.ssd_write_blocks(), 60);
    }

    #[test]
    fn record_request_routes_counts() {
        let mut d = DayMetrics::default();
        d.record_request(RequestKind::Read, 2, 1, 1);
        d.record_request(RequestKind::Write, 2, 1, 0);
        assert_eq!(d, metrics(1, 1, 1, 1, 1, 0));
        d.record_request(RequestKind::Write, 3, 0, 2);
        assert_eq!(d, metrics(1, 1, 1, 4, 3, 0));
    }

    #[test]
    fn merge_is_order_independent() {
        let days = [
            metrics(1, 2, 3, 4, 5, 6),
            metrics(7, 0, 1, 0, 9, 0),
            metrics(0, 0, 100, 0, 0, 3),
        ];
        let mut fwd = DayMetrics::default();
        for d in &days {
            fwd.merge(d);
        }
        let mut rev = DayMetrics::default();
        for d in days.iter().rev() {
            rev.merge(d);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, metrics(8, 2, 104, 4, 14, 9));
    }

    #[test]
    fn empty_day_has_zero_fraction() {
        assert_eq!(DayMetrics::default().captured_fraction(), 0.0);
    }

    fn result_with_days(days: Vec<DayMetrics>) -> SimResult {
        SimResult {
            policy: "test".into(),
            capacity_blocks: 100,
            days,
            occupancy: OccupancyTracker::new(SsdSpec::x25e(), 1),
        }
    }

    #[test]
    fn totals_sum_days() {
        let r = result_with_days(vec![
            metrics(1, 2, 3, 4, 5, 6),
            metrics(10, 20, 30, 40, 50, 60),
        ]);
        let t = r.total();
        assert_eq!(t.read_hits, 11);
        assert_eq!(t.batch_allocations, 66);
        assert_eq!(r.day(Day::new(0)).read_hits, 1);
        assert_eq!(r.day(Day::new(9)), DayMetrics::default());
    }

    #[test]
    fn mean_capture_skips_excluded_and_empty_days() {
        let r = result_with_days(vec![
            metrics(0, 0, 0, 0, 0, 0),   // empty: skipped automatically
            metrics(50, 0, 50, 0, 0, 0), // 0.5
            metrics(25, 0, 75, 0, 0, 0), // 0.25
        ]);
        assert!((r.mean_captured_fraction(&[]) - 0.375).abs() < 1e-12);
        assert!((r.mean_captured_fraction(&[1]) - 0.25).abs() < 1e-12);
        assert_eq!(result_with_days(vec![]).mean_captured_fraction(&[]), 0.0);
    }

    #[test]
    fn write_blocks_per_day_averages() {
        let r = result_with_days(vec![
            metrics(0, 10, 0, 0, 20, 0),
            metrics(0, 30, 0, 0, 0, 0),
        ]);
        assert!((r.ssd_write_blocks_per_day() - 30.0).abs() < 1e-12);
    }
}
