//! Duplicate-probability models (§VI-A4).
//!
//! The number of covered duplicate pairs in a block is estimated as
//! `d(X) = Prob(|X|) · Cov(X)`, where `Prob(|X|)` is the probability that a
//! covered pair of the block is a duplicate. The paper observes that smaller
//! blocks have higher duplicate density and therefore keys the probability
//! on the *fraction* `|X| / |D|`, learned per variable-size sub-range from a
//! training dataset. [`TrainedProb`] implements exactly that;
//! [`HeuristicProb`] is a closed-form fallback with the same monotone shape
//! for use without training data.

use std::collections::HashMap;

use pper_blocking::{build_forests, compute_signatures, BlockingFamily, FamilyIndex};
use pper_datagen::Dataset;
use serde::{Deserialize, Serialize};

/// Estimates `Prob(|X|)`: the probability that a covered pair of a block
/// with `size` members (in a dataset of `dataset_size`) is a duplicate.
pub trait DupProbability: Send + Sync {
    /// Duplicate probability for a block of `size` entities at tree level
    /// `level` of blocking family `family`.
    fn prob(&self, family: FamilyIndex, level: usize, size: usize, dataset_size: usize) -> f64;

    /// `d(X) = Prob(|X|) · Cov(X)`, clamped to `[0, cov]`.
    fn estimate_dups(
        &self,
        family: FamilyIndex,
        level: usize,
        size: usize,
        dataset_size: usize,
        covered_pairs: u64,
    ) -> f64 {
        (self.prob(family, level, size, dataset_size) * covered_pairs as f64)
            .clamp(0.0, covered_pairs as f64)
    }
}

/// Closed-form fallback: `Prob = base / (1 + (|X|/|D| · scale))`, which is
/// large for small blocks and decays for the big skewed ones, mirroring the
/// paper's empirical observation without requiring training data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeuristicProb {
    /// Probability for the smallest blocks.
    pub base: f64,
    /// How fast probability decays with the block's dataset fraction.
    pub scale: f64,
}

impl Default for HeuristicProb {
    fn default() -> Self {
        Self {
            base: 0.5,
            scale: 2_000.0,
        }
    }
}

impl DupProbability for HeuristicProb {
    fn prob(&self, _family: FamilyIndex, _level: usize, size: usize, dataset_size: usize) -> f64 {
        let fraction = size as f64 / dataset_size.max(1) as f64;
        (self.base / (1.0 + fraction * self.scale)).clamp(0.0, 1.0)
    }
}

/// The paper's trained model: for each blocking function (family × level),
/// the fraction range `[0, 1]` is divided into variable-size sub-ranges
/// (log-scale, since fractions concentrate near zero) and a duplicate
/// probability is learned for each sub-range from a labeled training
/// dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedProb {
    /// Learned probability buckets per `(family, level)`. A handful of
    /// entries (families × levels), so linear scan beats a map — and tuple
    /// keys serialize cleanly this way.
    tables: Vec<((usize, usize), Vec<BucketStat>)>,
    /// Exclusive upper bounds of the fraction buckets, ascending.
    bounds: Vec<f64>,
    /// Fallback for empty buckets.
    fallback: HeuristicProb,
}

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct BucketStat {
    dup_pairs: u64,
    total_pairs: u64,
}

impl BucketStat {
    fn prob(&self) -> Option<f64> {
        (self.total_pairs > 0).then(|| self.dup_pairs as f64 / self.total_pairs as f64)
    }
}

/// Default log-scale fraction bucket bounds.
fn default_bounds() -> Vec<f64> {
    vec![1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0]
}

impl TrainedProb {
    /// Learn the model from a labeled training dataset under the given
    /// blocking configuration: build the training forests, and for every
    /// block record its covered-pair duplicate rate into the fraction bucket
    /// of its (family, level).
    ///
    /// The training dataset should be a small sample with the same
    /// generation parameters as the evaluation dataset (the paper learns
    /// "from a training dataset").
    pub fn train(train: &Dataset, families: &[BlockingFamily]) -> Self {
        let bounds = default_bounds();
        let forests = build_forests(train, families);
        let signatures = compute_signatures(train, families);
        let mut tables: HashMap<(usize, usize), Vec<BucketStat>> = HashMap::new();
        let n = train.len().max(1);
        for forest in &forests {
            for tree in &forest.trees {
                for block in &tree.blocks {
                    let fraction = block.size() as f64 / n as f64;
                    let bucket = bounds
                        .partition_point(|&b| b < fraction)
                        .min(bounds.len() - 1);
                    // Count duplicate pairs among *covered* pairs: pairs not
                    // shared with a dominating family's root block.
                    let mut dup = 0u64;
                    let mut total = 0u64;
                    for (i, &a) in block.members.iter().enumerate() {
                        for &b in &block.members[i + 1..] {
                            let covered = !(0..forest.family)
                                .any(|f| signatures[a as usize][f] == signatures[b as usize][f]);
                            if covered {
                                total += 1;
                                dup += u64::from(train.truth.is_duplicate(a, b));
                            }
                        }
                    }
                    let entry = tables
                        .entry((forest.family, block.level))
                        .or_insert_with(|| vec![BucketStat::default(); bounds.len()]);
                    entry[bucket].dup_pairs += dup;
                    entry[bucket].total_pairs += total;
                }
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "drain order discarded by the sort below"
        )]
        let mut tables: Vec<_> = tables.drain().collect();
        tables.sort_by_key(|(k, _)| *k);
        Self {
            tables,
            bounds,
            fallback: HeuristicProb::default(),
        }
    }

    fn table(&self, family: usize, level: usize) -> Option<&Vec<BucketStat>> {
        self.tables
            .iter()
            .find(|((f, l), _)| *f == family && *l == level)
            .map(|(_, t)| t)
    }

    fn lookup(&self, family: usize, level: usize, fraction: f64) -> Option<f64> {
        let table = self
            .table(family, level)
            .or_else(|| self.table(family, 0))?;
        let bucket = self
            .bounds
            .partition_point(|&b| b < fraction)
            .min(self.bounds.len() - 1);
        // Exact bucket, else nearest non-empty bucket.
        table[bucket].prob().or_else(|| {
            (1..self.bounds.len())
                .flat_map(|dist| {
                    [bucket.checked_sub(dist), bucket.checked_add(dist)]
                        .into_iter()
                        .flatten()
                        .filter(|&i| i < table.len())
                        .collect::<Vec<_>>()
                })
                .find_map(|i| table[i].prob())
        })
    }
}

impl DupProbability for TrainedProb {
    fn prob(&self, family: FamilyIndex, level: usize, size: usize, dataset_size: usize) -> f64 {
        let fraction = size as f64 / dataset_size.max(1) as f64;
        self.lookup(family, level, fraction)
            .unwrap_or_else(|| self.fallback.prob(family, level, size, dataset_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_blocking::presets;
    use pper_datagen::PubGen;

    #[test]
    fn heuristic_monotone_decreasing_in_size() {
        let h = HeuristicProb::default();
        let p_small = h.prob(0, 0, 5, 10_000);
        let p_big = h.prob(0, 0, 2_000, 10_000);
        assert!(p_small > p_big);
        assert!((0.0..=1.0).contains(&p_small));
        assert!((0.0..=1.0).contains(&p_big));
    }

    #[test]
    fn estimate_dups_clamped_to_covered() {
        let h = HeuristicProb {
            base: 1.0,
            scale: 0.0,
        };
        assert_eq!(h.estimate_dups(0, 0, 100, 100, 10), 10.0);
    }

    #[test]
    fn trained_model_learns_small_blocks_are_denser() {
        let train = PubGen::new(3_000, 77).generate();
        let families = presets::citeseer_families();
        let model = TrainedProb::train(&train, &families);
        // Small leaf-ish blocks should carry higher duplicate probability
        // than the huge skewed root blocks.
        let p_small = model.prob(0, 2, 4, 3_000);
        let p_large = model.prob(0, 0, 900, 3_000);
        assert!(
            p_small > p_large,
            "small {p_small:.4} should exceed large {p_large:.4}"
        );
        assert!(p_small > 0.0);
    }

    #[test]
    fn trained_model_falls_back_for_unknown_family() {
        let train = PubGen::new(500, 78).generate();
        let families = presets::citeseer_families();
        let model = TrainedProb::train(&train, &families);
        let p = model.prob(99, 0, 10, 500);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn trained_probabilities_in_unit_interval() {
        let train = PubGen::new(2_000, 79).generate();
        let families = presets::citeseer_families();
        let model = TrainedProb::train(&train, &families);
        for family in 0..3 {
            for level in 0..3 {
                for size in [2, 10, 100, 1000] {
                    let p = model.prob(family, level, size, 2_000);
                    assert!((0.0..=1.0).contains(&p), "p={p}");
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let train = PubGen::new(400, 80).generate();
        let model = TrainedProb::train(&train, &presets::citeseer_families());
        let json = serde_json::to_string(&model).unwrap();
        let back: TrainedProb = serde_json::from_str(&json).unwrap();
        assert_eq!(model.prob(0, 0, 50, 400), back.prob(0, 0, 50, 400));
    }
}
