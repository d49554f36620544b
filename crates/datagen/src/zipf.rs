//! Zipf-distributed sampling over ranks `0..n`, used to give blocking keys
//! the heavy-tailed frequency distribution that produces the paper's
//! "severe skewness in block sizes".

use rand::Rng;

/// A Zipf distribution over `n` ranks with exponent `s`: rank `r` (0-based)
/// has probability proportional to `1/(r+1)^s`. Sampling is O(log n) via
/// binary search over the precomputed CDF.
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Sample a rank in `0..n`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn rank_zero_dominates_with_high_exponent() {
        let z = Zipf::new(100, 1.5);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[0] > 20_000 / 10, "head rank should be heavy");
        assert!(counts[99] < counts[0] / 20, "tail rank should be light");
    }

    #[test]
    fn zero_exponent_is_uniformish() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn rejects_zero_ranks() {
        let _ = Zipf::new(0, 1.0);
    }
}
