//! Machine-speed calibration.
//!
//! The box this benchmark runs on is a shared two-core VM whose speed
//! drifts by tens of percent for seconds to minutes at a time (a fixed
//! spin loop measured 35 to 73 ms for identical work within one minute).
//! Wall-clock rates then spread wider between runs of one commit than
//! any bound worth having. So every timed piece of an end-to-end run is
//! bracketed by a fixed calibration kernel and reported in *reference
//! seconds*: wall seconds times the machine's speed at that moment
//! relative to the reference below. On the reference box at its usual
//! speed the factor is 1 and a reference second is a second.
//!
//! The kernel lives here, outside the code under test. It has two parts,
//! a chain of dependent loads over a table that stays in the private
//! caches (core speed) and the same chain over a table that does not
//! (memory latency), because co-tenants slow the two by different
//! amounts and the layers under test lean on both; the speed is the
//! geometric mean of the two. Raw figures are printed beside normalised
//! ones, and the traced run reports the kernel's own time as
//! `bench.calib_ms`.

use std::time::Instant;

use sievestore_types::mix64;

use crate::stats::median;

/// What one part of the kernel walks, how often, and how long a pass
/// takes on the reference box (this repo's 2-core build container) at
/// its usual speed. The reference times are constants of the benchmark:
/// changing them rescales every reported time.
struct Part {
    table_words: usize,
    iterations: usize,
    reference_seconds: f64,
}

const PARTS: [Part; 2] = [
    // 512 KiB: resident in the L2.
    Part {
        table_words: 1 << 16,
        iterations: 800_000,
        reference_seconds: 0.0081,
    },
    // 16 MiB: past the private caches, as the IMCT is.
    Part {
        table_words: 1 << 21,
        iterations: 100_000,
        reference_seconds: 0.0147,
    },
];

pub struct Calibrator {
    tables: [Vec<u64>; 2],
    state: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            tables: PARTS
                .each_ref()
                .map(|p| (0..p.table_words as u64).map(mix64).collect()),
            state: 0x5EED,
        }
    }

    /// One pass over one table; returns its wall seconds.
    fn pass(&mut self, part: usize) -> f64 {
        let table = &mut self.tables[part];
        let mask = table.len() as u64 - 1;
        let mut x = self.state;
        let started = Instant::now();
        for _ in 0..PARTS[part].iterations {
            x = mix64(x);
            let slot = &mut table[(x & mask) as usize];
            x ^= *slot;
            *slot = x;
        }
        self.state = std::hint::black_box(x);
        started.elapsed().as_secs_f64()
    }

    /// Seconds per pass of each part right now: the median of three
    /// passes, so one preemption does not pass for a slow machine.
    pub fn seconds(&mut self) -> [f64; 2] {
        [0, 1].map(|part| median(&[self.pass(part), self.pass(part), self.pass(part)]))
    }

    /// The machine's speed right now relative to the reference (below 1
    /// when it is slower).
    pub fn speed(&mut self) -> f64 {
        let [core, memory] = self.seconds();
        ((PARTS[0].reference_seconds / core) * (PARTS[1].reference_seconds / memory)).sqrt()
    }
}

/// Wall `seconds` measured between two speed samples, in reference
/// seconds.
pub fn reference_seconds(seconds: f64, speed_before: f64, speed_after: f64) -> f64 {
    seconds * (speed_before + speed_after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_scales_with_speed() {
        // Half speed: two wall seconds are one reference second.
        assert_eq!(reference_seconds(2.0, 0.5, 0.5), 1.0);
        assert_eq!(reference_seconds(2.0, 1.0, 1.0), 2.0);
        let mut calibrator = Calibrator::new();
        let speed = calibrator.speed();
        assert!(speed.is_finite() && speed > 0.0);
    }
}
