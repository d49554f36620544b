//! The duplicate-probability model (§VI-A4).
//!
//! The number of covered duplicate pairs in a block is estimated as
//! `d(X) = Prob(|X|) · Cov(X)`, where `Prob(|X|)` is the probability that a
//! covered pair of the block is a duplicate. The paper observes that smaller
//! blocks have higher duplicate density and therefore keys the probability
//! on the *fraction* `|X| / |D|`, learned per variable-size sub-range from a
//! training dataset. [`TrainedProb`] implements exactly that. Each dataset
//! preset ships the table [`TrainedProb::train`] learns from a 20 000-entity
//! sample generated at seed 4242 ([`TrainedProb::citeseer`],
//! [`TrainedProb::books`]); an ignored test retrains both and fails if they
//! drift.

use std::collections::BTreeMap;

use pper_blocking::{build_forests, BlockingFamily, FamilyIndex, Signatures};
use pper_datagen::Dataset;

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

const BUCKETS: usize = 10;

/// Upper bounds of the fraction buckets, ascending and inclusive: a block
/// whose fraction equals a bound falls in that bound's bucket. Log-scale,
/// since fractions concentrate near zero.
const BOUNDS: [f64; BUCKETS] = [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0];

/// One blocking function's learned table: its `(family, level)` and, per
/// fraction bucket, the `(duplicate, total)` covered pairs observed.
type Table = ((FamilyIndex, usize), [(u64, u64); BUCKETS]);

/// The paper's trained model: for each blocking function (family × level),
/// the fraction range `[0, 1]` is divided into variable-size sub-ranges
/// (log-scale, since fractions concentrate near zero) and a duplicate
/// probability is learned for each sub-range from a labeled training
/// dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedProb {
    /// One table per `(family, level)` that observed a covered pair, sorted
    /// by key. A handful of entries, so a linear scan beats a map.
    tables: Vec<Table>,
}

fn bucket_of(fraction: f64) -> usize {
    BOUNDS.partition_point(|&b| b < fraction).min(BUCKETS - 1)
}

impl TrainedProb {
    /// The CiteSeerX preset's table: what [`TrainedProb::train`] learns from
    /// `PubGen::new(20_000, 4242)` under `presets::citeseer_families()`.
    pub fn citeseer() -> Self {
        Self {
            tables: CITESEER.to_vec(),
        }
    }

    /// The OL-Books preset's table: what [`TrainedProb::train`] learns from
    /// `BookGen::new(20_000, 4242)` under `presets::books_families()`.
    pub fn books() -> Self {
        Self {
            tables: BOOKS.to_vec(),
        }
    }

    /// Learn the model from a labeled training dataset under the given
    /// blocking configuration: build the training forests, and for every
    /// block record its covered-pair duplicate rate into the fraction bucket
    /// of its (family, level).
    ///
    /// The training dataset should be a small sample with the same
    /// generation parameters as the evaluation dataset (the paper learns
    /// "from a training dataset").
    pub fn train(train: &Dataset, families: &[BlockingFamily]) -> Self {
        let forests = build_forests(train, families);
        let signatures = Signatures::intern(families, &train.entities);
        let mut tables: BTreeMap<(FamilyIndex, usize), [(u64, u64); BUCKETS]> = BTreeMap::new();
        let n = train.len().max(1);
        for forest in &forests {
            for tree in &forest.trees {
                for block in &tree.blocks {
                    // Count duplicate pairs among *covered* pairs: pairs not
                    // shared with a dominating family's root block.
                    let mut dup = 0u64;
                    let mut total = 0u64;
                    for (i, &a) in block.members.iter().enumerate() {
                        for &b in &block.members[i + 1..] {
                            let (sa, sb) = (signatures.row(a), signatures.row(b));
                            let covered = !(0..forest.family).any(|f| sa[f] == sb[f]);
                            if covered {
                                total += 1;
                                dup += u64::from(train.truth.is_duplicate(a, b));
                            }
                        }
                    }
                    let bucket = bucket_of(block.size() as f64 / n as f64);
                    let entry =
                        &mut tables.entry((forest.family, block.level)).or_default()[bucket];
                    entry.0 += dup;
                    entry.1 += total;
                }
            }
        }
        Self {
            tables: tables
                .into_iter()
                .filter(|(_, buckets)| buckets.iter().any(|&(_, total)| total > 0))
                .collect(),
        }
    }

    /// The table for `(family, level)`; else the family's level 0; else
    /// the nearest family's (the lower one on a tie), at `level` or level 0
    /// there too. `None` only for a model that observed no pair.
    fn table(&self, family: FamilyIndex, level: usize) -> Option<&[(u64, u64); BUCKETS]> {
        self.tables
            .iter()
            .min_by_key(|((f, l), _)| (f.abs_diff(family), *l != level, *l != 0))
            .map(|(_, buckets)| buckets)
    }
}

impl DupProbability for TrainedProb {
    fn prob(&self, family: FamilyIndex, level: usize, size: usize, dataset_size: usize) -> f64 {
        let Some(table) = self.table(family, level) else {
            return 0.0;
        };
        let bucket = bucket_of(size as f64 / dataset_size.max(1) as f64);
        // Exact bucket, else nearest non-empty bucket (the lower on a tie);
        // every kept table has one.
        (0..BUCKETS)
            .flat_map(|dist| [bucket.checked_sub(dist), bucket.checked_add(dist)])
            .flatten()
            .filter(|&i| i < BUCKETS)
            .find_map(|i| {
                let (dup, total) = table[i];
                (total > 0).then(|| dup as f64 / total as f64)
            })
            .unwrap_or(0.0)
    }
}

// The preset tables. `preset_tables_are_what_training_learns` prints the
// replacement literal when a change to generation or blocking moves them.
#[rustfmt::skip]
const CITESEER: &[Table] = &[
    ((0, 0), [(0, 0), (0, 0), (1, 4), (0, 6), (0, 0), (0, 231), (1130, 123650), (3250, 942444), (4189, 3200832), (4769, 12976308)]),
    ((0, 1), [(0, 0), (0, 0), (0, 2), (0, 6), (63, 1025), (828, 25913), (2559, 241477), (3706, 1065841), (898, 492846), (2908, 9498261)]),
    ((0, 2), [(0, 0), (0, 0), (11, 31), (138, 494), (752, 6870), (2464, 67219), (3529, 275939), (2710, 831766), (1557, 972865), (0, 0)]),
    ((1, 0), [(0, 0), (0, 0), (0, 2), (0, 16), (0, 20), (0, 0), (0, 0), (0, 60234), (74, 8455803), (73, 30663325)]),
    ((1, 1), [(0, 0), (0, 0), (0, 1), (0, 13), (0, 35), (0, 0), (0, 0), (0, 0), (89, 12045568), (13, 1884523)]),
    ((2, 0), [(0, 0), (0, 0), (0, 26), (0, 72), (0, 434), (0, 646), (0, 0), (0, 0), (10, 5291609), (2, 1842299)]),
    ((2, 1), [(0, 0), (0, 0), (0, 23), (0, 207), (0, 157), (0, 0), (0, 0), (0, 0), (11, 4668553), (0, 0)]),
];

#[rustfmt::skip]
const BOOKS: &[Table] = &[
    ((0, 0), [(0, 0), (0, 0), (0, 3), (0, 12), (3, 214), (165, 6860), (1680, 216286), (2677, 991198), (1785, 1616310), (3777, 15721827)]),
    ((0, 1), [(0, 0), (0, 0), (0, 3), (0, 0), (77, 1487), (1569, 59203), (1716, 192732), (2569, 870016), (1687, 1409363), (0, 0)]),
    ((0, 2), [(0, 0), (0, 0), (4, 19), (143, 594), (491, 5757), (1315, 48607), (2859, 330426), (1421, 571857), (830, 714316), (0, 0)]),
    ((1, 0), [(0, 0), (0, 0), (0, 11), (0, 102), (0, 18), (0, 195), (0, 0), (0, 0), (162, 5916607), (0, 0)]),
    ((1, 1), [(0, 0), (0, 0), (0, 16), (0, 37), (2, 814), (0, 10595), (2, 25783), (0, 0), (151, 5419589), (0, 0)]),
    ((2, 0), [(0, 0), (0, 0), (0, 8), (0, 51), (0, 0), (0, 978), (0, 0), (0, 0), (8, 8620048), (0, 0)]),
    ((2, 1), [(0, 0), (0, 0), (0, 14), (0, 111), (0, 42), (0, 0), (0, 0), (0, 0), (8, 8439843), (0, 0)]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use pper_blocking::presets;
    use pper_datagen::{BookGen, PubGen};

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
    fn unknown_family_reads_the_nearest_known_one() {
        let train = PubGen::new(500, 78).generate();
        let families = presets::citeseer_families();
        let model = TrainedProb::train(&train, &families);
        assert_eq!(model.prob(99, 0, 10, 500), model.prob(2, 0, 10, 500));
        assert_eq!(model.prob(99, 7, 10, 500), model.prob(2, 0, 10, 500));
    }

    #[test]
    fn a_model_that_observed_no_pair_returns_zero() {
        let one = PubGen::new(1, 82).generate();
        let model = TrainedProb::train(&one, &presets::citeseer_families());
        assert_eq!(model.prob(0, 0, 1, 1), 0.0);
        assert_eq!(model.prob(1, 1, 50, 100), 0.0);
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
    fn preset_tables_cover_every_blocking_function() {
        for (model, families) in [
            (TrainedProb::citeseer(), presets::citeseer_families()),
            (TrainedProb::books(), presets::books_families()),
        ] {
            let keys: Vec<_> = model.tables.iter().map(|(key, _)| *key).collect();
            let expected: Vec<_> = families
                .iter()
                .enumerate()
                .flat_map(|(f, family)| (0..family.depth()).map(move |l| (f, l)))
                .collect();
            assert_eq!(keys, expected);
        }
    }

    /// The preset table as a literal to paste over the committed const.
    fn literal(name: &str, model: &TrainedProb) -> String {
        let mut out = format!("#[rustfmt::skip]\nconst {name}: &[Table] = &[\n");
        for ((family, level), buckets) in &model.tables {
            let cells: Vec<String> = buckets.iter().map(|(d, t)| format!("({d}, {t})")).collect();
            out += &format!("    (({family}, {level}), [{}]),\n", cells.join(", "));
        }
        out + "];\n"
    }

    /// The committed tables are what `train` learns from the presets'
    /// 20 000-entity samples at seed 4242. Training enumerates every pair
    /// of every block, so this runs in release:
    /// `cargo test --release -p pper-schedule --lib -- --ignored`.
    #[test]
    #[ignore = "trains on two 20k samples; run in release with --ignored"]
    fn preset_tables_are_what_training_learns() {
        let (n, seed) = (20_000, 4242);
        for (name, committed, trained) in [
            (
                "CITESEER",
                TrainedProb::citeseer(),
                TrainedProb::train(
                    &PubGen::new(n, seed).generate(),
                    &presets::citeseer_families(),
                ),
            ),
            (
                "BOOKS",
                TrainedProb::books(),
                TrainedProb::train(
                    &BookGen::new(n, seed).generate(),
                    &presets::books_families(),
                ),
            ),
        ] {
            assert!(
                committed == trained,
                "{name} drifted from training; paste this over it:\n{}",
                literal(name, &trained)
            );
        }
    }
}
