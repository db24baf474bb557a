//! Calibration tests: the synthetic 13-server ensemble must reproduce the
//! trace statistics the paper's design observations (O1, O2) rest on.
//!
//! These run at a coarse scale (fast) — the generator's per-block access
//! counts are scale-invariant by construction, so the shape assertions
//! hold at any scale.

use sievestore_analysis::popularity_cdf;
use sievestore_sim::{day_counts, server_day_counts};
use sievestore_trace::{EnsembleConfig, Scale, SyntheticTrace};
use sievestore_types::Day;

fn msr_like_coarse() -> SyntheticTrace {
    let cfg = EnsembleConfig::msr_like().with_scale(Scale::new(2048).expect("nonzero"));
    SyntheticTrace::new(cfg).expect("default ensemble validates")
}

#[test]
fn o1_popularity_skew_holds_each_day() {
    let trace = msr_like_coarse();
    for d in 0..trace.days() {
        let counts = day_counts(&trace, Day::new(d));
        let cdf = popularity_cdf(&counts, 1000);
        let top1 = cdf.top1_share();
        // Paper: the top 1% of blocks take 14-53% of accesses.
        assert!(
            (0.14..=0.60).contains(&top1),
            "day {d}: top-1% share {top1}"
        );
        // Paper: below the 50th percentile blocks are never reused.
        let single = counts.fraction_with_at_most(1);
        assert!(
            (0.45..=0.80).contains(&single),
            "day {d}: single-touch fraction {single}"
        );
        if d == 0 {
            // The partial first calendar day is the paper's own outlier:
            // very few blocks accumulate >= 10 accesses in 7 hours.
            let ge10 = 1.0 - counts.fraction_with_at_most(9);
            assert!(ge10 < 0.01, "day 0: >=10-access fraction {ge10}");
            continue;
        }
        // Paper: 99% of blocks see 10 or fewer accesses.
        let le10 = counts.fraction_with_at_most(10);
        assert!(le10 >= 0.95, "day {d}: <=10-access fraction {le10}");
        // Paper: the least popular 97% see 4 or fewer.
        let le4 = counts.fraction_with_at_most(4);
        assert!(le4 >= 0.93, "day {d}: <=4-access fraction {le4}");
    }
}

#[test]
fn o1_hot_head_is_steep() {
    let trace = msr_like_coarse();
    let counts = day_counts(&trace, Day::new(2));
    let sorted = counts.sorted_desc();
    // The hottest blocks must dwarf the 1%-boundary blocks (paper: >1000
    // vs <10 per day at full scale; ratios survive scaling).
    let hot_head = sorted[..10.min(sorted.len())]
        .iter()
        .map(|&c| c as f64)
        .sum::<f64>()
        / 10.0;
    let boundary = sorted[sorted.len() / 100];
    assert!(
        hot_head > 20.0 * boundary as f64,
        "head {hot_head} vs 1%-boundary {boundary}"
    );
}

#[test]
fn o2_skew_varies_across_servers() {
    let trace = msr_like_coarse();
    let day = Day::new(1);
    let share = |key: &str| {
        let idx = trace
            .config()
            .servers
            .iter()
            .position(|s| s.key == key)
            .expect("server exists");
        let counts = server_day_counts(&trace, idx, day);
        popularity_cdf(&counts, 500).top1_share()
    };
    let prxy = share("Prxy");
    let src1 = share("Src1");
    assert!(prxy > 0.6, "Prxy should be heavily skewed, got {prxy}");
    assert!(src1 < 0.3, "Src1 should be near-uniform, got {src1}");
}

#[test]
fn o2_hot_sets_drift_but_consecutive_days_overlap() {
    let trace = msr_like_coarse();
    let top = |d: u16| day_counts(&trace, Day::new(d)).top_fraction(0.01).0;
    let overlap = |a: &[u64], b: &[u64]| sievestore_analysis::containment_overlap(a, b);
    let d1 = top(1);
    let d2 = top(2);
    let d7 = top(7);
    let near = overlap(&d1, &d2);
    let far = overlap(&d1, &d7);
    // Meaningful overlap between consecutive days (SieveStore-D's premise)
    // but clearly below identity (the hot set is dynamic).
    assert!(near > 0.15, "consecutive-day overlap {near}");
    assert!(near < 0.98, "hot sets should drift, overlap {near}");
    // Distant days diverge relative to consecutive days.
    assert!(far <= near + 0.05, "far {far} vs near {near}");
}

#[test]
fn daily_volume_tracks_the_paper_band() {
    // Paper: 1.5-2.5 TB of daily block accesses ensemble-wide (intro),
    // with day 1 (partial) the low outlier.
    let trace = msr_like_coarse();
    let scale = trace.config().scale.denominator() as f64;
    let mut daily_gb = Vec::new();
    for d in 0..trace.days() {
        let blocks: u64 = trace
            .day_requests(Day::new(d))
            .iter()
            .map(|r| r.len_blocks as u64)
            .sum();
        daily_gb.push(blocks as f64 * 512.0 * scale / (1u64 << 30) as f64);
    }
    let full_days = &daily_gb[1..];
    let mean = full_days.iter().sum::<f64>() / full_days.len() as f64;
    assert!(
        (1100.0..=2300.0).contains(&mean),
        "mean full-day volume {mean} GB"
    );
    for (d, gb) in daily_gb.iter().enumerate() {
        assert!(
            (300.0..=3000.0).contains(gb),
            "day {d} volume {gb} GB outside plausible band"
        );
    }
    // The partial first day is the low outlier.
    let min = daily_gb.iter().cloned().fold(f64::INFINITY, f64::min);
    assert_eq!(
        daily_gb[0], min,
        "day 0 should be the minimum: {daily_gb:?}"
    );
}

#[test]
fn read_write_mix_is_roughly_three_to_one() {
    let trace = msr_like_coarse();
    let reqs = trace.day_requests(Day::new(1));
    let read_blocks: u64 = reqs
        .iter()
        .filter(|r| r.kind.is_read())
        .map(|r| r.len_blocks as u64)
        .sum();
    let total_blocks: u64 = reqs.iter().map(|r| r.len_blocks as u64).sum();
    let frac = read_blocks as f64 / total_blocks as f64;
    assert!((0.6..=0.9).contains(&frac), "read fraction {frac}");
}
