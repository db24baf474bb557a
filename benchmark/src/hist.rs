//! Log-linear (HDR-style) latency histogram.
//!
//! Values below 128 are counted exactly; above, each power-of-two range
//! is cut into 128 equal sub-buckets, so a bucket is never wider than
//! 1/128 of its lower edge and a quantile carries more than two
//! significant digits. Quantiles interpolate by rank inside the bucket,
//! so two runs do not report the same bucket edge.
//!
//! `sievestore_types::obs::Histogram` (65 log2 buckets) cannot resolve a
//! 2x change and is deliberately not used here.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn index_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((value >> shift) - SUB)) as usize
}

/// Lower edge and width of bucket `index`.
fn bounds_of(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, 1);
    }
    let shift = index / SUB - 1;
    ((SUB + index % SUB) << shift, 1 << shift)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, value: u64) {
        self.counts[index_of(value)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// How many samples lie beyond quantile `q`: a quantile is only worth
    /// reporting when at least ten do.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        (self.total as f64 * (1.0 - q)).floor() as u64
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        // Nearest-rank target, 1-based.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if seen + count >= rank {
                let (lo, width) = bounds_of(index);
                let within = (rank - seen) as f64 - 0.5;
                return Some(lo as f64 + width as f64 * within / count as f64);
            }
            seen += count;
        }
        unreachable!("rank {rank} beyond total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expected_lo = 0u64;
        for index in 0..BUCKETS {
            let (lo, width) = bounds_of(index);
            assert_eq!(lo, expected_lo, "bucket {index} leaves a gap");
            assert_eq!(index_of(lo), index);
            assert_eq!(index_of(lo + (width - 1)), index);
            expected_lo = lo.wrapping_add(width);
        }
        assert_eq!(expected_lo, 0, "last bucket must end at 2^64");
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_within_one_percent_of_an_exact_sort() {
        let mut rng = SmallRng::seed_from_u64(7);
        // Log-uniform over 1 µs .. 100 ms in ns, plus a heavy tail: the
        // shape of request latencies.
        let mut samples: Vec<u64> = (0..200_000)
            .map(|_| {
                let exp = rng.random_range(0..50_000u64) as f64 / 10_000.0;
                (1_000.0 * 10f64.powf(exp)) as u64
            })
            .collect();
        samples.extend((0..500).map(|i| 1_000_000_000 + i * 7_919));
        let mut hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        assert_eq!(hist.count(), samples.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&samples, q);
            let got = hist.quantile(q).unwrap();
            let err = (got - exact).abs() / exact;
            assert!(err <= 0.01, "q={q}: {got} vs exact {exact} ({err:.4})");
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..10_000u64 {
            let value = v * v;
            if v % 3 == 0 { &mut a } else { &mut b }.record(value);
            both.record(value);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn samples_beyond_gates_the_tail() {
        let mut hist = Histogram::new();
        assert_eq!(hist.quantile(0.5), None);
        for v in 0..999 {
            hist.record(v);
        }
        assert_eq!(hist.samples_beyond(0.99), 9);
        hist.record(999);
        assert_eq!(hist.samples_beyond(0.99), 10);
    }
}
