//! CiteSeerX-like synthetic publication dataset.
//!
//! Schema: `title, abstract, venue, authors, year`. The paper blocks
//! CiteSeerX on title prefixes (2/4/8 chars), abstract prefixes (3/5) and
//! venue prefixes (3/5) — Table II. Titles open with a Zipf-distributed
//! word so short-prefix blocks are heavily skewed, and duplicates are
//! corrupted copies of a master record with exact cluster ground truth.

use rand::rngs::StdRng;
use rand::Rng;

use crate::cluster::Kind;
use crate::corrupt::{CATEGORICAL, HEAVY, LIGHT};
use crate::entity::Dataset;
use crate::words::{
    ABSTRACT_FRAGMENTS, FIRST_NAMES, LAST_NAMES, TITLE_OPENERS, TITLE_WORDS, VENUES,
};
use crate::zipf::Zipf;

/// Generator for the publications dataset.
#[derive(Debug, Clone)]
pub struct PubGen {
    /// Number of entities to generate.
    pub n: usize,
    /// RNG seed; same seed ⇒ identical dataset.
    pub seed: u64,
    /// Probability that a real-world object has more than one record.
    pub dup_cluster_prob: f64,
}

/// The publications kind.
const PUBS: Kind = Kind {
    name: "pubs",
    attrs: &[
        ("title", LIGHT),
        ("abstract", HEAVY),
        ("venue", CATEGORICAL),
        ("authors", LIGHT),
        ("year", CATEGORICAL),
    ],
    seed_mix: 0,
    dup_cluster_prob: 0.35,
    cluster_growth: 0.45,
    max_cluster: 6,
    zipf_exponent: 0.95,
    master,
};

impl PubGen {
    /// Default configuration for `n` entities with the given seed.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            n,
            seed,
            dup_cluster_prob: PUBS.dup_cluster_prob,
        }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        PUBS.generate(self.n, self.seed, self.dup_cluster_prob)
    }
}

fn master(rng: &mut StdRng, openers: &Zipf, _cluster: u32) -> Vec<String> {
    // The words are drawn first, in the order they appear, and joined
    // once: each string is allocated at its final size.
    let mut title = [""; 7];
    title[0] = TITLE_OPENERS[openers.sample(rng)];
    let body_len = rng.random_range(3..=6);
    for word in &mut title[1..=body_len] {
        *word = TITLE_WORDS[rng.random_range(0..TITLE_WORDS.len())];
    }
    let title = title[..=body_len].join(" ");

    // Fragment, word, fragment, word, …
    let n_frags = rng.random_range(3..=5);
    let mut abstract_words = [""; 10];
    for pair in abstract_words[..2 * n_frags].chunks_exact_mut(2) {
        pair[0] = ABSTRACT_FRAGMENTS[rng.random_range(0..ABSTRACT_FRAGMENTS.len())];
        pair[1] = TITLE_WORDS[rng.random_range(0..TITLE_WORDS.len())];
    }
    let abstract_text = abstract_words[..2 * n_frags].join(" ");

    let venue = VENUES[rng.random_range(0..VENUES.len())].to_string();

    let n_authors = rng.random_range(1..=3);
    let authors = (0..n_authors)
        .map(|_| {
            format!(
                "{} {}",
                FIRST_NAMES[rng.random_range(0..FIRST_NAMES.len())],
                LAST_NAMES[rng.random_range(0..LAST_NAMES.len())]
            )
        })
        .collect::<Vec<_>>()
        .join(", ");

    let year = rng.random_range(1990..=2025).to_string();
    vec![title, abstract_text, venue, authors, year]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generates_requested_count() {
        let ds = PubGen::new(500, 1).generate();
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.schema.len(), 5);
        assert!(ds.entities.iter().all(|e| e.attrs.len() == 5));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PubGen::new(200, 9).generate();
        let b = PubGen::new(200, 9).generate();
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.truth, b.truth);
        let c = PubGen::new(200, 10).generate();
        assert_ne!(a.entities, c.entities);
    }

    #[test]
    fn has_duplicate_clusters() {
        let ds = PubGen::new(2_000, 2).generate();
        let dup_pairs = ds.truth.total_duplicate_pairs();
        assert!(
            dup_pairs > 200,
            "expected many duplicate pairs, got {dup_pairs}"
        );
        assert!(ds.truth.num_clusters() < ds.len());
    }

    #[test]
    fn title_prefixes_are_skewed() {
        let ds = PubGen::new(5_000, 3).generate();
        let mut counts: HashMap<String, usize> = HashMap::new();
        for e in &ds.entities {
            let prefix: String = e.attr(0).chars().take(2).collect();
            *counts.entry(prefix).or_insert(0) += 1;
        }
        let max = *counts.values().max().unwrap();
        let mean = ds.len() / counts.len();
        assert!(
            max > 4 * mean,
            "expected skewed blocks: max {max} vs mean {mean}"
        );
    }

    #[test]
    fn duplicates_are_textually_close() {
        let ds = PubGen::new(3_000, 4).generate();
        let mut by_cluster: HashMap<u32, Vec<u32>> = HashMap::new();
        for e in &ds.entities {
            by_cluster
                .entry(ds.truth.cluster(e.id))
                .or_default()
                .push(e.id);
        }
        let mut close = 0usize;
        let mut total = 0usize;
        for ids in by_cluster.values().filter(|v| v.len() >= 2) {
            let a = ds.entity(ids[0]);
            let b = ds.entity(ids[1]);
            total += 1;
            if pper_simil::levenshtein_similarity(a.attr(0), b.attr(0)) > 0.7 {
                close += 1;
            }
        }
        assert!(total > 100);
        assert!(
            close as f64 / total as f64 > 0.75,
            "duplicate titles should usually be similar: {close}/{total}"
        );
    }

    #[test]
    fn cluster_sizes_capped() {
        let ds = PubGen::new(5_000, 5).generate();
        let mut sizes: HashMap<u32, usize> = HashMap::new();
        for e in &ds.entities {
            *sizes.entry(ds.truth.cluster(e.id)).or_insert(0) += 1;
        }
        assert!(sizes.values().all(|&s| s <= PUBS.max_cluster));
    }
}
