//! Analytical SSD device model and drive-occupancy accounting.
//!
//! The paper never executes on real hardware: it computes a **drive-IOPS
//! occupancy** per trace minute from the cache simulation and the published
//! ratings of the Intel X25-E SSD (35 000 random-read IOPS and 3 300
//! random-write IOPS at 4 KiB), then derives the number of drives needed at
//! a given time-coverage (Figures 8 and 9) and the write-endurance
//! lifetime. This crate implements exactly that methodology:
//!
//! * [`SsdSpec`] — device ratings ([`SsdSpec::x25e`] is the paper's drive);
//! * [`OccupancyTracker`] — per-minute read/write page counts →
//!   occupancy series, drives-needed series, coverage table;
//! * [`endurance_years`] — lifetime under a measured write rate.
//!
//! Each 4 KiB read occupies the drive for `1/read_iops` seconds and each
//! 4 KiB write for `1/write_iops` seconds; a minute's occupancy is total
//! busy time divided by 60 s. The model deliberately ignores queueing — as
//! the paper argues, the sieved drive operates far below saturation.
//!
//! # Examples
//!
//! ```
//! use sievestore_ssd::{OccupancyTracker, SsdSpec};
//! use sievestore_types::Minute;
//!
//! let mut tracker = OccupancyTracker::new(SsdSpec::x25e(), 2);
//! tracker.record_read_pages(Minute::new(0), 35_000 * 60); // exactly 1 drive-minute
//! assert!((tracker.occupancy(Minute::new(0)) - 1.0).abs() < 1e-9);
//! assert_eq!(tracker.drives_needed(Minute::new(0)), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

use sievestore_types::{Minute, PAGE_SIZE};

/// Published ratings of a solid-state (or mechanical) drive.
///
/// # Examples
///
/// ```
/// let spec = sievestore_ssd::SsdSpec::x25e();
/// assert_eq!(spec.read_iops, 35_000.0);
/// assert!(spec.random_read_mbps() > 130.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Random 4 KiB read IOPS.
    pub read_iops: f64,
    /// Random 4 KiB write IOPS.
    pub write_iops: f64,
    /// Sustained sequential read bandwidth, MB/s.
    pub seq_read_mbps: f64,
    /// Sustained sequential write bandwidth, MB/s.
    pub seq_write_mbps: f64,
    /// Usable capacity in GB.
    pub capacity_gb: u64,
    /// Total write endurance in bytes.
    pub endurance_bytes: u64,
}

impl SsdSpec {
    /// The Intel X25-E Extreme SATA SSD, as modeled in §4 of the paper:
    /// 35 000 / 3 300 random 4 KiB IOPS, 250 / 170 MB/s sequential,
    /// 1 PB write endurance.
    pub fn x25e() -> Self {
        SsdSpec {
            name: "Intel X25-E".to_string(),
            read_iops: 35_000.0,
            write_iops: 3_300.0,
            seq_read_mbps: 250.0,
            seq_write_mbps: 170.0,
            capacity_gb: 32,
            endurance_bytes: 1_000_000_000_000_000, // 1 PB
        }
    }

    /// A representative 15k-RPM enterprise hard drive, for the paper's
    /// "SSD IOPS are 1–2 orders of magnitude above HDD" comparisons.
    pub fn enterprise_hdd() -> Self {
        SsdSpec {
            name: "15k enterprise HDD".to_string(),
            read_iops: 300.0,
            write_iops: 250.0,
            seq_read_mbps: 120.0,
            seq_write_mbps: 120.0,
            capacity_gb: 300,
            endurance_bytes: u64::MAX, // not wear-limited
        }
    }

    /// Random-read bandwidth implied by the IOPS rating at 4 KiB, MB/s.
    /// (The paper notes this is the tighter constraint: ~140 MB/s reads,
    /// ~13.2 MB/s writes for the X25-E.)
    pub fn random_read_mbps(&self) -> f64 {
        self.read_iops * PAGE_SIZE as f64 / 1e6
    }

    /// Random-write bandwidth implied by the IOPS rating at 4 KiB, MB/s.
    pub fn random_write_mbps(&self) -> f64 {
        self.write_iops * PAGE_SIZE as f64 / 1e6
    }

    /// Seconds of drive time one 4 KiB random read occupies.
    pub fn read_service_secs(&self) -> f64 {
        1.0 / self.read_iops
    }

    /// Seconds of drive time one 4 KiB random write occupies.
    pub fn write_service_secs(&self) -> f64 {
        1.0 / self.write_iops
    }
}

impl fmt::Display for SsdSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.0}/{:.0} r/w IOPS, {:.0}/{:.0} MB/s seq)",
            self.name, self.read_iops, self.write_iops, self.seq_read_mbps, self.seq_write_mbps
        )
    }
}

/// Per-minute page-level load on the cache device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinuteLoad {
    /// 4 KiB read operations in this minute.
    pub read_pages: u64,
    /// 4 KiB write operations in this minute (hits + allocation-writes).
    pub write_pages: u64,
}

impl MinuteLoad {
    /// Total page operations.
    pub fn total_pages(&self) -> u64 {
        self.read_pages + self.write_pages
    }
}

/// Accumulates per-minute device load and answers the paper's cost
/// questions: occupancy series (Fig. 8), drives needed per minute and at a
/// coverage level (Fig. 9).
///
/// `load_multiplier` re-scales measured page counts back to full-scale
/// units when the simulation ran on a proportionally shrunk trace.
#[derive(Debug, Clone)]
pub struct OccupancyTracker {
    spec: SsdSpec,
    minutes: Vec<MinuteLoad>,
    load_multiplier: f64,
}

impl OccupancyTracker {
    /// Creates a tracker for `total_minutes` of trace time.
    pub fn new(spec: SsdSpec, total_minutes: usize) -> Self {
        OccupancyTracker {
            spec,
            minutes: vec![MinuteLoad::default(); total_minutes],
            load_multiplier: 1.0,
        }
    }

    /// Sets the factor by which recorded loads are multiplied when
    /// computing occupancy (use the trace scale denominator).
    #[must_use]
    pub fn with_load_multiplier(mut self, multiplier: f64) -> Self {
        self.load_multiplier = multiplier;
        self
    }

    /// The device spec in use.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Number of tracked minutes.
    pub fn len_minutes(&self) -> usize {
        self.minutes.len()
    }

    fn slot(&mut self, minute: Minute) -> &mut MinuteLoad {
        let idx = minute.as_usize();
        if idx >= self.minutes.len() {
            self.minutes.resize(idx + 1, MinuteLoad::default());
        }
        &mut self.minutes[idx]
    }

    /// Records 4 KiB read operations in a minute.
    pub fn record_read_pages(&mut self, minute: Minute, pages: u64) {
        self.slot(minute).read_pages += pages;
    }

    /// Records 4 KiB write operations in a minute.
    pub fn record_write_pages(&mut self, minute: Minute, pages: u64) {
        self.slot(minute).write_pages += pages;
    }

    /// Folds another tracker's per-minute loads into this one with
    /// elementwise integer adds (growing to the longer series). Merging
    /// is commutative and associative, so per-shard trackers from the
    /// parallel replay engine combine into the same series in any order.
    /// The receiver keeps its own spec and load multiplier.
    pub fn merge(&mut self, other: &OccupancyTracker) {
        if other.minutes.len() > self.minutes.len() {
            self.minutes
                .resize(other.minutes.len(), MinuteLoad::default());
        }
        for (mine, theirs) in self.minutes.iter_mut().zip(&other.minutes) {
            mine.read_pages += theirs.read_pages;
            mine.write_pages += theirs.write_pages;
        }
    }

    /// The raw load recorded for a minute.
    pub fn load(&self, minute: Minute) -> MinuteLoad {
        self.minutes
            .get(minute.as_usize())
            .copied()
            .unwrap_or_default()
    }

    /// Drive-IOPS occupancy of one minute: busy seconds divided by 60.
    /// Values above 1.0 mean more than one drive is needed.
    pub fn occupancy(&self, minute: Minute) -> f64 {
        self.occupancy_of(self.load(minute))
    }

    fn occupancy_of(&self, load: MinuteLoad) -> f64 {
        let busy = load.read_pages as f64 * self.spec.read_service_secs()
            + load.write_pages as f64 * self.spec.write_service_secs();
        busy * self.load_multiplier / 60.0
    }

    /// The full per-minute occupancy series (Figure 8's Y values).
    pub fn occupancy_series(&self) -> Vec<f64> {
        self.minutes.iter().map(|&l| self.occupancy_of(l)).collect()
    }

    /// Drives needed in one minute: the occupancy rounded up.
    pub fn drives_needed(&self, minute: Minute) -> u32 {
        Self::drives_of(self.occupancy(minute))
    }

    fn drives_of(occupancy: f64) -> u32 {
        occupancy.ceil() as u32
    }

    /// Per-minute drives-needed series, sorted ascending (Figure 9's
    /// presentation: minutes ordered by requirement, not chronology).
    pub fn drives_needed_sorted(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .occupancy_series()
            .into_iter()
            .map(Self::drives_of)
            .collect();
        v.sort_unstable();
        v
    }

    /// Drives needed to cover `coverage` (in `(0, 1]`) of trace minutes.
    /// `coverage = 1.0` is the worst-case minute.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is not in `(0, 1]` or no minutes are tracked.
    pub fn drives_for_coverage(&self, coverage: f64) -> u32 {
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "coverage must be in (0, 1]"
        );
        let sorted = self.drives_needed_sorted();
        assert!(!sorted.is_empty(), "no minutes tracked");
        let idx = ((sorted.len() as f64 * coverage).ceil() as usize).clamp(1, sorted.len());
        sorted[idx - 1]
    }

    /// Fraction of minutes whose occupancy stays at or below 1.0 (i.e. a
    /// single drive suffices).
    pub fn single_drive_coverage(&self) -> f64 {
        if self.minutes.is_empty() {
            return 1.0;
        }
        let ok = self
            .occupancy_series()
            .iter()
            .filter(|&&o| o <= 1.0)
            .count();
        ok as f64 / self.minutes.len() as f64
    }

    /// Total bytes written over the trace (full-scale, multiplier applied).
    pub fn total_write_bytes(&self) -> f64 {
        let pages: u64 = self.minutes.iter().map(|l| l.write_pages).sum();
        pages as f64 * PAGE_SIZE as f64 * self.load_multiplier
    }

    /// Bandwidth of the busiest minute, MB/s (full-scale); used to check
    /// the paper's network/bandwidth feasibility argument.
    pub fn peak_bandwidth_mbps(&self) -> f64 {
        self.minutes
            .iter()
            .map(|l| l.total_pages() as f64 * PAGE_SIZE as f64 * self.load_multiplier / 60.0 / 1e6)
            .fold(0.0, f64::max)
    }
}

/// Endurance lifetime in years given bytes written per day.
///
/// The paper's check: under 500 M 512-byte writes/day against the X25-E's
/// 1 PB rating, lifetime exceeds 10 years.
///
/// # Examples
///
/// ```
/// use sievestore_ssd::{endurance_years, SsdSpec};
/// let daily = 500.0e6 * 512.0; // 500M 512-B writes per day
/// let years = endurance_years(&SsdSpec::x25e(), daily);
/// assert!(years > 10.0);
/// ```
pub fn endurance_years(spec: &SsdSpec, bytes_written_per_day: f64) -> f64 {
    if bytes_written_per_day <= 0.0 {
        return f64::INFINITY;
    }
    spec.endurance_bytes as f64 / (bytes_written_per_day * 365.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn x25e_matches_paper_parameters() {
        let spec = SsdSpec::x25e();
        assert_eq!(spec.read_iops, 35_000.0);
        assert_eq!(spec.write_iops, 3_300.0);
        assert_eq!(spec.seq_read_mbps, 250.0);
        assert_eq!(spec.seq_write_mbps, 170.0);
        // Random bandwidths from §4: ~140 MB/s reads, ~13.2 MB/s writes.
        assert!((spec.random_read_mbps() - 143.36).abs() < 0.01);
        assert!((spec.random_write_mbps() - 13.52).abs() < 0.01);
    }

    #[test]
    fn hdd_is_orders_of_magnitude_slower() {
        let ssd = SsdSpec::x25e();
        let hdd = SsdSpec::enterprise_hdd();
        assert!(ssd.read_iops / hdd.read_iops >= 100.0);
        assert!(ssd.write_iops / hdd.write_iops >= 10.0);
    }

    #[test]
    fn occupancy_is_linear_in_load() {
        let mut t = OccupancyTracker::new(SsdSpec::x25e(), 1);
        // Half a drive-minute of reads.
        t.record_read_pages(Minute::new(0), 35_000 * 30);
        assert!((t.occupancy(Minute::new(0)) - 0.5).abs() < 1e-9);
        // Add half a drive-minute of writes.
        t.record_write_pages(Minute::new(0), 3_300 * 30);
        assert!((t.occupancy(Minute::new(0)) - 1.0).abs() < 1e-9);
        assert_eq!(t.drives_needed(Minute::new(0)), 1);
        t.record_write_pages(Minute::new(0), 1);
        assert_eq!(t.drives_needed(Minute::new(0)), 2);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let spec = SsdSpec::x25e();
        assert!(spec.write_service_secs() > 10.0 * spec.read_service_secs());
    }

    #[test]
    fn load_multiplier_upscales() {
        let mut t = OccupancyTracker::new(SsdSpec::x25e(), 1).with_load_multiplier(256.0);
        t.record_read_pages(Minute::new(0), 35_000 * 60 / 256);
        let occ = t.occupancy(Minute::new(0));
        assert!((occ - 1.0).abs() < 0.01, "occupancy {occ}");
    }

    #[test]
    fn tracker_grows_for_out_of_range_minutes() {
        let mut t = OccupancyTracker::new(SsdSpec::x25e(), 2);
        t.record_write_pages(Minute::new(10), 5);
        assert_eq!(t.len_minutes(), 11);
        assert_eq!(t.load(Minute::new(10)).write_pages, 5);
        assert_eq!(t.load(Minute::new(100)), MinuteLoad::default());
    }

    #[test]
    fn merge_sums_loads_and_grows_to_longer_series() {
        let mut a = OccupancyTracker::new(SsdSpec::x25e(), 2);
        a.record_read_pages(Minute::new(0), 10);
        a.record_write_pages(Minute::new(1), 3);
        let mut b = OccupancyTracker::new(SsdSpec::x25e(), 4);
        b.record_read_pages(Minute::new(0), 5);
        b.record_write_pages(Minute::new(3), 7);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.len_minutes(), 4);
        assert_eq!(ab.load(Minute::new(0)).read_pages, 15);
        assert_eq!(ab.load(Minute::new(1)).write_pages, 3);
        assert_eq!(ab.load(Minute::new(3)).write_pages, 7);
        // Commutative: merging the other way yields the same series.
        let mut ba = b.clone();
        ba.merge(&a);
        for m in 0..4 {
            assert_eq!(ab.load(Minute::new(m)), ba.load(Minute::new(m)));
        }
    }

    #[test]
    fn coverage_quantiles() {
        let mut t = OccupancyTracker::new(SsdSpec::x25e(), 10);
        // 9 idle minutes, 1 minute needing 3 drives.
        t.record_write_pages(Minute::new(7), 3_300 * 60 * 2 + 60);
        assert_eq!(t.drives_for_coverage(0.9), 0);
        assert_eq!(t.drives_for_coverage(1.0), 3);
        assert!((t.single_drive_coverage() - 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn zero_coverage_panics() {
        let t = OccupancyTracker::new(SsdSpec::x25e(), 1);
        let _ = t.drives_for_coverage(0.0);
    }

    #[test]
    fn endurance_matches_paper_example() {
        // 500M 512-B writes/day on a 1 PB drive: ~10.7 years.
        let years = endurance_years(&SsdSpec::x25e(), 500.0e6 * 512.0);
        assert!((10.0..12.0).contains(&years), "{years}");
        assert!(endurance_years(&SsdSpec::x25e(), 0.0).is_infinite());
    }

    #[test]
    fn write_bytes_and_bandwidth_accounting() {
        let mut t = OccupancyTracker::new(SsdSpec::x25e(), 2).with_load_multiplier(2.0);
        t.record_write_pages(Minute::new(0), 100);
        t.record_read_pages(Minute::new(1), 50);
        assert_eq!(t.total_write_bytes(), 100.0 * 4096.0 * 2.0);
        let peak = t.peak_bandwidth_mbps();
        assert!((peak - 100.0 * 4096.0 * 2.0 / 60.0 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let s = SsdSpec::x25e().to_string();
        assert!(s.contains("X25-E"));
        assert!(s.contains("35000"));
    }

    proptest! {
        #[test]
        fn drives_needed_is_monotone_in_coverage(
            loads in proptest::collection::vec(0u64..200_000, 1..200),
        ) {
            let mut t = OccupancyTracker::new(SsdSpec::x25e(), loads.len());
            for (i, &l) in loads.iter().enumerate() {
                t.record_write_pages(Minute::new(i as u32), l);
            }
            let c50 = t.drives_for_coverage(0.5);
            let c99 = t.drives_for_coverage(0.99);
            let c100 = t.drives_for_coverage(1.0);
            prop_assert!(c50 <= c99);
            prop_assert!(c99 <= c100);
            let max_series = t.drives_needed_sorted().last().copied().unwrap();
            prop_assert_eq!(c100, max_series);
        }

        #[test]
        fn occupancy_additive_across_reads_and_writes(r in 0u64..100_000, w in 0u64..100_000) {
            let spec = SsdSpec::x25e();
            let mut both = OccupancyTracker::new(spec.clone(), 1);
            both.record_read_pages(Minute::new(0), r);
            both.record_write_pages(Minute::new(0), w);
            let mut reads = OccupancyTracker::new(spec.clone(), 1);
            reads.record_read_pages(Minute::new(0), r);
            let mut writes = OccupancyTracker::new(spec, 1);
            writes.record_write_pages(Minute::new(0), w);
            let sum = reads.occupancy(Minute::new(0)) + writes.occupancy(Minute::new(0));
            prop_assert!((both.occupancy(Minute::new(0)) - sum).abs() < 1e-9);
        }
    }
}
