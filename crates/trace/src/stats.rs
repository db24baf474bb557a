//! Streaming trace statistics.
//!
//! [`TraceStats`] accumulates the per-day and whole-trace summary numbers
//! that calibrate the generator against the paper's trace (requests, block
//! accesses, unique blocks, read share, data volume).

use std::collections::HashSet;

use sievestore_types::{Day, Request, BLOCK_SIZE, GIB};

/// Per-day accumulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Number of multi-block requests.
    pub requests: u64,
    /// Number of 512-byte block accesses.
    pub block_accesses: u64,
    /// Number of distinct blocks touched.
    pub unique_blocks: u64,
    /// Block accesses that were reads.
    pub read_blocks: u64,
    /// Requests that were reads.
    pub read_requests: u64,
}

impl DayStats {
    /// Data accessed this day in GB (blocks × 512 B).
    pub fn data_gb(&self) -> f64 {
        self.block_accesses as f64 * BLOCK_SIZE as f64 / GIB as f64
    }

    /// Mean request size in blocks.
    pub fn mean_request_blocks(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.block_accesses as f64 / self.requests as f64
        }
    }

    /// Fraction of block accesses that are reads.
    pub fn read_fraction(&self) -> f64 {
        if self.block_accesses == 0 {
            0.0
        } else {
            self.read_blocks as f64 / self.block_accesses as f64
        }
    }
}

/// Streaming statistics over a whole trace, grouped by calendar day.
///
/// # Examples
///
/// ```
/// use sievestore_trace::{EnsembleConfig, SyntheticTrace, TraceStats, TraceStreamConfig};
///
/// let trace = SyntheticTrace::new(EnsembleConfig::tiny(7)).unwrap();
/// let mut stats = TraceStats::new();
/// for req in trace.stream(TraceStreamConfig::default()).requests() {
///     stats.observe(&req);
/// }
/// assert_eq!(stats.days().len(), 3);
/// assert!(stats.total().block_accesses > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    days: Vec<DayStats>,
    seen: Vec<HashSet<u64>>,
}

impl TraceStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TraceStats::default()
    }

    /// Folds one request into the statistics.
    pub fn observe(&mut self, req: &Request) {
        let day = req.timestamp.day().as_usize();
        if day >= self.days.len() {
            self.days.resize(day + 1, DayStats::default());
            self.seen.resize_with(day + 1, HashSet::new);
        }
        let d = &mut self.days[day];
        d.requests += 1;
        d.block_accesses += req.len_blocks as u64;
        if req.kind.is_read() {
            d.read_requests += 1;
            d.read_blocks += req.len_blocks as u64;
        }
        let seen = &mut self.seen[day];
        for b in req.blocks() {
            if seen.insert(b.raw()) {
                d.unique_blocks += 1;
            }
        }
    }

    /// Per-day statistics, indexed by day.
    pub fn days(&self) -> &[DayStats] {
        &self.days
    }

    /// Statistics for one day, if observed.
    pub fn day(&self, day: Day) -> Option<&DayStats> {
        self.days.get(day.as_usize())
    }

    /// Whole-trace totals. `unique_blocks` sums per-day uniques (a block
    /// active on two days counts twice), matching the paper's per-calendar-
    /// day analysis.
    pub fn total(&self) -> DayStats {
        let mut total = DayStats::default();
        for d in &self.days {
            total.requests += d.requests;
            total.block_accesses += d.block_accesses;
            total.unique_blocks += d.unique_blocks;
            total.read_blocks += d.read_blocks;
            total.read_requests += d.read_requests;
        }
        total
    }
}

impl<'a> FromIterator<&'a Request> for TraceStats {
    fn from_iter<I: IntoIterator<Item = &'a Request>>(iter: I) -> Self {
        let mut stats = TraceStats::new();
        for req in iter {
            stats.observe(req);
        }
        stats
    }
}

impl Extend<Request> for TraceStats {
    fn extend<I: IntoIterator<Item = Request>>(&mut self, iter: I) {
        for req in iter {
            self.observe(&req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_types::{BlockAddr, Micros, RequestKind, ServerId, VolumeId};

    fn req(day: u64, block: u64, len: u32, kind: RequestKind) -> Request {
        Request::new(
            Micros::from_days(day) + Micros::from_secs(1),
            BlockAddr::new(ServerId::new(0), VolumeId::new(0), block),
            len,
            kind,
        )
    }

    #[test]
    fn counts_requests_blocks_and_uniques() {
        let mut stats = TraceStats::new();
        stats.observe(&req(0, 0, 8, RequestKind::Read));
        stats.observe(&req(0, 4, 8, RequestKind::Write)); // overlaps blocks 4..8
        let d = &stats.days()[0];
        assert_eq!(d.requests, 2);
        assert_eq!(d.block_accesses, 16);
        assert_eq!(d.unique_blocks, 12);
        assert_eq!(d.read_blocks, 8);
        assert_eq!(d.read_requests, 1);
        assert!((d.read_fraction() - 0.5).abs() < 1e-12);
        assert!((d.mean_request_blocks() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn uniques_reset_per_day() {
        let mut stats = TraceStats::new();
        stats.observe(&req(0, 0, 4, RequestKind::Read));
        stats.observe(&req(1, 0, 4, RequestKind::Read));
        assert_eq!(stats.days()[0].unique_blocks, 4);
        assert_eq!(stats.days()[1].unique_blocks, 4);
        assert_eq!(stats.total().unique_blocks, 8);
    }

    #[test]
    fn day_gaps_are_zero_filled() {
        let mut stats = TraceStats::new();
        stats.observe(&req(2, 0, 1, RequestKind::Read));
        assert_eq!(stats.days().len(), 3);
        assert_eq!(stats.days()[0], DayStats::default());
        assert_eq!(stats.day(Day::new(1)).unwrap().requests, 0);
    }

    #[test]
    fn empty_stats_are_well_behaved() {
        let stats = TraceStats::new();
        assert!(stats.days().is_empty());
        let total = stats.total();
        assert_eq!(total.requests, 0);
        assert_eq!(total.mean_request_blocks(), 0.0);
        assert_eq!(total.read_fraction(), 0.0);
        assert_eq!(total.data_gb(), 0.0);
    }

    #[test]
    fn from_iterator_and_extend_agree() {
        let reqs = [
            req(0, 0, 8, RequestKind::Read),
            req(0, 100, 2, RequestKind::Write),
            req(1, 0, 1, RequestKind::Read),
        ];
        let a: TraceStats = reqs.iter().collect();
        let mut b = TraceStats::new();
        b.extend(reqs.iter().copied());
        assert_eq!(a.days(), b.days());
    }

    #[test]
    fn data_gb_conversion() {
        let mut stats = TraceStats::new();
        // 2^21 blocks of 512 B = 1 GiB.
        for i in 0..2048u64 {
            stats.observe(&req(0, i * 1024, 1024, RequestKind::Read));
        }
        assert!((stats.days()[0].data_gb() - 1.0).abs() < 1e-9);
    }
}
