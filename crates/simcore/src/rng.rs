//! Deterministic random numbers for reproducible experiments.
//!
//! Simulation results must be bit-identical across runs and across machines,
//! so instead of depending on an external PRNG whose stream might change
//! between crate versions, we implement **xoshiro256\*\*** (Blackman &
//! Vigna) seeded via **SplitMix64** — both tiny, public-domain algorithms
//! with published reference outputs that we test against.
//!
//! [`SimRng`] also implements [`rand_core::RngCore`] so it plugs into the
//! `rand` ecosystem (distributions, shuffles) when convenient.

use rand_core::{impls, Error, RngCore};

/// SplitMix64 step: used to expand a 64-bit seed into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
///
/// ```
/// use resex_simcore::rng::SimRng;
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeds the generator from a single 64-bit value via SplitMix64, as the
    /// xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    /// If `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// An exponentially distributed f64 with the given mean (for Poisson
    /// inter-arrival times). Mean must be positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean: {mean}");
        // Avoid ln(0) by flipping the uniform sample to (0, 1].
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// A standard-normal sample via Box–Muller (one value per call; the
    /// sibling is discarded to keep the generator state trajectory simple).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Forks an independent child stream. The child is seeded from this
    /// generator's output, so a parent seed fully determines the whole tree
    /// of streams — handy for giving each simulated component its own RNG.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        SimRng::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        impls::fill_bytes_via_next(self, dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256starstar() {
        // First outputs for state {1, 2, 3, 4}, from the public reference
        // implementation (https://prng.di.unimi.it/xoshiro256starstar.c).
        let mut rng = SimRng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // SplitMix64 outputs for seed 0 (from the reference implementation).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(&mut s), 0x6E789E6AA1B965F4);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = rng.next_below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(250.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn forked_streams_are_independent_but_reproducible() {
        let mut parent1 = SimRng::seed_from_u64(99);
        let mut parent2 = SimRng::seed_from_u64(99);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // The child stream differs from the parent's continuation.
        assert_ne!(parent1.next_u64(), c1.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
