//! OL-Books-like synthetic book dataset.
//!
//! Schema (8 attributes, as the paper compares "the values of eight
//! attributes using edit distance or exact matching", §VI-A2):
//! `title, authors, publisher, year, isbn, pages, language, format`.
//! Blocking per Table II: title prefixes (3/5/8), author prefixes (3/5),
//! publisher prefixes (3/5).

use rand::rngs::StdRng;
use rand::Rng;

use crate::cluster::Kind;
use crate::corrupt::{CATEGORICAL, LIGHT};
use crate::entity::Dataset;
use crate::words::{
    FIRST_NAMES, FORMATS, LANGUAGES, LAST_NAMES, PUBLISHERS, TITLE_OPENERS, TITLE_WORDS,
};
use crate::zipf::Zipf;

/// Generator for the books dataset.
#[derive(Debug, Clone)]
pub struct BookGen {
    /// Number of entities to generate.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The books kind.
const BOOKS: Kind = Kind {
    name: "books",
    attrs: &[
        ("title", LIGHT),
        ("authors", LIGHT),
        ("publisher", CATEGORICAL),
        ("year", CATEGORICAL),
        ("isbn", CATEGORICAL),
        ("pages", CATEGORICAL),
        ("language", CATEGORICAL),
        ("format", CATEGORICAL),
    ],
    seed_mix: 0xb00c,
    dup_cluster_prob: 0.3,
    cluster_growth: 0.4,
    max_cluster: 5,
    zipf_exponent: 1.05,
    master,
};

impl BookGen {
    /// Default configuration for `n` entities with the given seed.
    pub fn new(n: usize, seed: u64) -> Self {
        Self { n, seed }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        BOOKS.generate(self.n, self.seed, BOOKS.dup_cluster_prob)
    }
}

fn master(rng: &mut StdRng, openers: &Zipf, cluster: u32) -> Vec<String> {
    let opener = TITLE_OPENERS[openers.sample(rng)];
    let body_len = rng.random_range(2..=5);
    let mut title = String::from(opener);
    for _ in 0..body_len {
        title.push(' ');
        title.push_str(TITLE_WORDS[rng.random_range(0..TITLE_WORDS.len())]);
    }

    let n_authors = rng.random_range(1..=2);
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

    let publisher = PUBLISHERS[rng.random_range(0..PUBLISHERS.len())].to_string();
    let year = rng.random_range(1950..=2025).to_string();
    // ISBN-like key derived from the cluster id plus random check digits:
    // stable within a cluster modulo corruption.
    let isbn = format!(
        "978{:07}{:03}",
        cluster % 10_000_000,
        rng.random_range(0..1000)
    );
    let pages = rng.random_range(80..1200).to_string();
    let language = LANGUAGES[rng.random_range(0..LANGUAGES.len())].to_string();
    let format = FORMATS[rng.random_range(0..FORMATS.len())].to_string();

    vec![
        title, authors, publisher, year, isbn, pages, language, format,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generates_full_schema() {
        let ds = BookGen::new(400, 1).generate();
        assert_eq!(ds.len(), 400);
        assert_eq!(ds.schema.len(), 8);
        assert!(ds.entities.iter().all(|e| e.attrs.len() == 8));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = BookGen::new(300, 5).generate();
        let b = BookGen::new(300, 5).generate();
        assert_eq!(a.entities, b.entities);
        let c = BookGen::new(300, 6).generate();
        assert_ne!(a.entities, c.entities);
    }

    #[test]
    fn books_and_pubs_differ_for_same_seed() {
        let pubs = crate::citeseer::PubGen::new(100, 5).generate();
        let books = BookGen::new(100, 5).generate();
        assert_ne!(pubs.entities[0].attrs, books.entities[0].attrs);
    }

    #[test]
    fn has_duplicates_and_skew() {
        let ds = BookGen::new(4_000, 2).generate();
        assert!(ds.truth.total_duplicate_pairs() > 300);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for e in &ds.entities {
            let p: String = e.attr(0).chars().take(3).collect();
            *counts.entry(p).or_insert(0) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(max > 3 * (ds.len() / counts.len()));
    }

    #[test]
    fn year_is_numeric_for_masters() {
        let ds = BookGen::new(200, 3).generate();
        let numeric_years = ds
            .entities
            .iter()
            .filter(|e| e.attr(3).parse::<u32>().is_ok())
            .count();
        // Corruption may mangle some, but most years stay numeric.
        assert!(numeric_years > 150, "{numeric_years}");
    }
}
