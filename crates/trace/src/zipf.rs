//! A bounded Zipf sampler.
//!
//! Samples ranks `1..=n` with probability proportional to `rank^-s`, using
//! rejection-inversion for monotone discrete distributions (Hörmann &
//! Derflinger, 1996). This is the popularity law behind the hot-block sets
//! in the synthetic ensemble workload: a small number of top-ranked blocks
//! absorb most accesses, with a rapidly thinning tail — the shape SieveStore
//! observation O1 rests on.

use rand::{Rng, RngExt};

/// A Zipf distribution over ranks `1..=n` with exponent `s >= 0`.
///
/// `s = 0` degenerates to the uniform distribution; larger `s` concentrates
/// probability on low ranks.
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use sievestore_trace::Zipf;
///
/// let zipf = Zipf::new(1000, 1.1).unwrap();
/// let mut rng = SmallRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1000).contains(&rank));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// `H(0.5)`: lower end of the inversion range.
    h_lo: f64,
    /// `H(n + 0.5)`: upper end of the inversion range.
    h_hi: f64,
    /// [`Zipf::accept_bound`] of the head ranks `1..=64`, bit for bit.
    accept: [f64; 64],
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns an error string if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: u64, s: f64) -> Result<Self, String> {
        if n == 0 {
            return Err("zipf support must be nonempty".to_string());
        }
        if !s.is_finite() || s < 0.0 {
            return Err(format!("zipf exponent must be finite and >= 0, got {s}"));
        }
        let mut zipf = Zipf {
            n,
            s,
            h_lo: 0.0,
            h_hi: 0.0,
            accept: [0.0; 64],
        };
        zipf.h_lo = zipf.h(0.5);
        zipf.h_hi = zipf.h(n as f64 + 0.5);
        for k in 1..=n.min(zipf.accept.len() as u64) {
            zipf.accept[k as usize - 1] = zipf.accept_bound(k as f64);
        }
        Ok(zipf)
    }

    /// Returns the number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Returns the exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Antiderivative of the weight function `x^-s`.
    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    /// Inverse of [`Zipf::h`].
    fn h_inv(&self, u: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            u.exp()
        } else {
            (1.0 + (1.0 - self.s) * u).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Top of rank `k`'s probability bar, `H(k - 1/2) + k^-s`.
    fn accept_bound(&self, k: f64) -> f64 {
        self.h(k - 0.5) + k.powf(-self.s)
    }

    /// Draws one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 1 {
            return 1;
        }
        loop {
            let u = self.h_lo + rng.random::<f64>() * (self.h_hi - self.h_lo);
            let x = self.h_inv(u);
            let k = x.round().clamp(1.0, self.n as f64);
            // Accept if u fell inside the probability bar of rank k. Because
            // x^-s is convex and decreasing, the bar [H(k-1/2), H(k-1/2)+k^-s]
            // fits within [H(k-1/2), H(k+1/2)], making this a valid rejection.
            let tabled = self.accept.get(k as usize - 1).copied();
            if u <= tabled.unwrap_or_else(|| self.accept_bound(k)) {
                return k as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn empirical_counts(zipf: &Zipf, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; zipf.n() as usize + 1];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    /// [`Zipf::sample`] with the acceptance bound always evaluated by the
    /// formula, never read from the table.
    fn sample_by_formula(zipf: &Zipf, rng: &mut SmallRng) -> u64 {
        if zipf.n == 1 {
            return 1;
        }
        loop {
            let u = zipf.h_lo + rng.random::<f64>() * (zipf.h_hi - zipf.h_lo);
            let k = zipf.h_inv(u).round().clamp(1.0, zipf.n as f64);
            if u <= zipf.h(k - 0.5) + k.powf(-zipf.s) {
                return k as u64;
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn tabled_acceptance_draws_the_formula_ranks(seed in proptest::prelude::any::<u64>()) {
            for s in [0.0, 0.85, 0.9, 0.95, 1.0, 1.0 + 1e-9, 1.5] {
                for n in [1u64, 2, 63, 64, 65, 1 << 40] {
                    let zipf = Zipf::new(n, s).unwrap();
                    let (mut tabled, mut formula) =
                        (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                    for _ in 0..500 {
                        proptest::prop_assert_eq!(
                            zipf.sample(&mut tabled),
                            sample_by_formula(&zipf, &mut formula),
                            "s = {}, n = {}", s, n
                        );
                    }
                    // Same draws consumed: the streams stay in step.
                    proptest::prop_assert_eq!(&tabled, &formula);
                }
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -0.5).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
        assert!(Zipf::new(10, f64::INFINITY).is_err());
    }

    #[test]
    fn single_rank_always_returns_one() {
        let zipf = Zipf::new(1, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 1);
        }
    }

    #[test]
    fn samples_stay_in_support() {
        for s in [0.0, 0.5, 1.0, 1.2, 2.5] {
            let zipf = Zipf::new(37, s).unwrap();
            let mut rng = SmallRng::seed_from_u64(42);
            for _ in 0..10_000 {
                let k = zipf.sample(&mut rng);
                assert!((1..=37).contains(&k), "s={s} produced {k}");
            }
        }
    }

    #[test]
    fn uniform_when_s_is_zero() {
        let zipf = Zipf::new(10, 0.0).unwrap();
        let counts = empirical_counts(&zipf, 100_000, 1);
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let frac = count as f64 / 100_000.0;
            assert!(
                (frac - 0.1).abs() < 0.01,
                "rank {k} frequency {frac} departs from uniform"
            );
        }
    }

    #[test]
    fn empirical_frequencies_match_zipf_law() {
        // With s = 1, P(k) ∝ 1/k, so P(1)/P(2) = 2 and P(1)/P(4) = 4.
        let zipf = Zipf::new(100, 1.0).unwrap();
        let counts = empirical_counts(&zipf, 400_000, 2);
        let ratio12 = counts[1] as f64 / counts[2] as f64;
        let ratio14 = counts[1] as f64 / counts[4] as f64;
        assert!((ratio12 - 2.0).abs() < 0.15, "P1/P2 = {ratio12}");
        assert!((ratio14 - 4.0).abs() < 0.35, "P1/P4 = {ratio14}");
    }

    #[test]
    fn near_one_exponent_is_continuous() {
        // The s = 1 special case must agree with s just off 1.
        let draws = 200_000;
        let at_one = empirical_counts(&Zipf::new(50, 1.0).unwrap(), draws, 3);
        let near_one = empirical_counts(&Zipf::new(50, 1.0 + 1e-9).unwrap(), draws, 3);
        for k in [1usize, 2, 5, 10, 50] {
            let a = at_one[k] as f64 / draws as f64;
            let b = near_one[k] as f64 / draws as f64;
            assert!((a - b).abs() < 0.01, "rank {k}: {a} vs {b}");
        }
        // (ranks chosen explicitly; indexing is the point of the check)
    }

    #[test]
    fn heavier_exponent_concentrates_mass() {
        let light = empirical_counts(&Zipf::new(1000, 0.8).unwrap(), 100_000, 4);
        let heavy = empirical_counts(&Zipf::new(1000, 1.5).unwrap(), 100_000, 4);
        let top10 = |c: &[u64]| c[1..=10].iter().sum::<u64>();
        assert!(top10(&heavy) > top10(&light));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let zipf = Zipf::new(500, 1.1).unwrap();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn large_support_works() {
        let zipf = Zipf::new(1 << 40, 1.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=1 << 40).contains(&k));
        }
    }
}
