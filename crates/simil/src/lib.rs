//! # pper-simil
//!
//! String-similarity kernels and weighted match rules for entity resolution.
//!
//! The paper resolves a pair of entities by applying "similarity functions on
//! multiple individual attributes and then \[using\] the weighted summation of
//! the attribute similarities to decide whether the two entities co-refer"
//! (§VI-A2): edit distance for free-text attributes (with the abstract
//! attribute capped at its first 350 characters) and exact matching for
//! categorical ones. This crate implements those two kernels and the
//! [`MatchRule`] combinator that turns per-attribute scores into a
//! co-reference decision.
//!
//! All similarity functions return scores in `[0, 1]` where `1.0` means
//! identical.
//!
//! ## Prepared evaluation (the hot path)
//!
//! [`MatchRule::score`] re-truncates and re-decodes both values on every
//! pair. The [`prepared`] module amortizes that work per *entity*:
//! [`PreparedRule::prepare`] builds a [`PreparedEntity`] once (per reduce
//! task, in the task's [`PreparedCache`]), and
//! [`PreparedRule::score`]/[`PreparedRule::matches`] compare two prepared
//! entities through a reusable [`SimScratch`] with **zero per-pair heap
//! allocation**. `score` is bit-identical to the string path; `matches`
//! returns identical decisions, bounding every Levenshtein term on the two
//! values' lengths and character histograms alone and running kernels,
//! heaviest term first, only while the whole rule's bounds leave the
//! decision open. Levenshtein terms on ASCII inputs of any length run the
//! blocked (multi-word) Myers bit-parallel scan over one byte per
//! character; the two-row DP is left for non-ASCII input.
//!
//! The pipeline compares pairs through the prepared path only. The string
//! path — [`MatchRule::score`] and [`MatchRule::matches`] — is the
//! reference the prepared path is held to: by this crate's parity suites
//! score for score, and by the pipeline's oracle tests, which re-decide
//! every pair a run compared.
//!
//! ```
//! use pper_simil::{AttributeSim, MatchRule, WeightedAttr};
//!
//! let rule = MatchRule::new(
//!     vec![
//!         WeightedAttr::new(0, 0.7, AttributeSim::Levenshtein { max_chars: None }),
//!         WeightedAttr::new(1, 0.3, AttributeSim::Exact),
//!     ],
//!     0.8,
//! );
//! let a = vec!["John Lopez".to_string(), "HI".to_string()];
//! let b = vec!["John Lopes".to_string(), "HI".to_string()];
//! assert!(rule.matches(&a, &b));
//! ```

// Determinism invariants D1, D2, D4 and D5 in library code; the methods and
// types are listed in `crates/clippy.toml` (DESIGN.md § "Determinism
// invariants & static enforcement").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod batch;
pub mod levenshtein;
mod myers;
pub mod prepared;
pub mod rule;

pub use batch::BlockScorer;
pub use levenshtein::{levenshtein, levenshtein_similarity};
pub use prepared::{PreparedCache, PreparedEntity, PreparedRule, SimScratch};
pub use rule::{AttributeSim, MatchRule, WeightedAttr};
