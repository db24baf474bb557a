//! Replay output digests: every `DayMetrics` field of every day plus the
//! day-snapshot export's bytes, folded into one FNV-1a word. Two replays
//! agree on the digest exactly when they agree on every simulated count.

use std::sync::Arc;

use sievestore_sim::{DayMetrics, SnapshotLog};

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of `days` (padded with empty days up to `trace_days`, so a
/// result that never touched a trailing day still compares equal).
pub fn digest_days(
    policy: &str,
    capacity_blocks: usize,
    days: &[DayMetrics],
    trace_days: usize,
) -> u64 {
    let mut log = SnapshotLog::new(Arc::from(policy), capacity_blocks);
    let mut state = 0xCBF2_9CE4_8422_2325;
    for i in 0..days.len().max(trace_days) {
        let d = days.get(i).copied().unwrap_or_default();
        for field in [
            d.read_hits,
            d.write_hits,
            d.read_misses,
            d.write_misses,
            d.allocation_writes,
            d.batch_allocations,
        ] {
            state = fnv1a(state, &field.to_le_bytes());
        }
        log.push_day(d);
    }
    fnv1a(state, log.to_jsonl().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_field_and_ignores_trailing_padding() {
        let day = DayMetrics {
            read_hits: 1,
            write_hits: 2,
            read_misses: 3,
            write_misses: 4,
            allocation_writes: 5,
            batch_allocations: 6,
        };
        let base = digest_days("p", 64, &[day], 2);
        assert_eq!(base, digest_days("p", 64, &[day, DayMetrics::default()], 2));
        assert_ne!(base, digest_days("q", 64, &[day], 2));
        assert_ne!(base, digest_days("p", 65, &[day], 2));
        for field in 0..6 {
            let mut changed = day;
            match field {
                0 => changed.read_hits += 1,
                1 => changed.write_hits += 1,
                2 => changed.read_misses += 1,
                3 => changed.write_misses += 1,
                4 => changed.allocation_writes += 1,
                _ => changed.batch_allocations += 1,
            }
            assert_ne!(base, digest_days("p", 64, &[changed], 2), "field {field}");
        }
    }
}
