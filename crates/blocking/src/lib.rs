//! # pper-blocking
//!
//! Hierarchical ("progressive") blocking, §III-A of the paper.
//!
//! A dataset is partitioned by several **main blocking functions**
//! `X¹, Y¹, Z¹, …`, each refined by **sub-blocking functions**
//! `X², X³, …` that divide every block into smaller child blocks. The
//! blocks of one main function form a forest: one tree per root block, of
//! height `N(X¹)` (the number of sub-blocking functions).
//!
//! This crate provides:
//!
//! * [`function::PrefixFunction`] / [`function::BlockingFamily`] — the
//!   attribute-prefix blocking keys of Table II, plus presets for both of
//!   the paper's datasets and the Table I toy dataset;
//! * [`function::BlockingKey`] — a key as the pipeline moves it: inline up
//!   to 22 bytes, ordered and hashed as its text. Both MR jobs' shuffles,
//!   the root-key interner and the tree splits key by it;
//! * [`forest::Tree`] / [`forest::Forest`] — materialized block hierarchies
//!   with the block-elimination cleanups referenced from §IV-B (empty and
//!   singleton blocks dropped, children identical to their parent merged);
//! * [`stats::TreeStats`] — the per-block statistics the first MR job
//!   gathers (sizes, child keys, and overlap information), including the
//!   uncovered-pair computation of §IV-A via the paper's
//!   inclusion–exclusion formula over `OLP(·)` values, counted over
//!   interned root-key ids ([`stats::Signatures`]) and held in tests to a
//!   brute-force pair scan over the key strings;
//! * [`stats::Placement`] — the side data the first MR job hands the
//!   second: each entity's rank in its root block's sorted order
//!   ([`forest::sort_by_attrs`], [`forest::Tree::ranked`]) and the deepest
//!   block holding it, per family.
//!
//! ```
//! use pper_blocking::{presets, forest::build_forests};
//! use pper_datagen::toy_people;
//!
//! let ds = toy_people();
//! let families = presets::toy_families();
//! let forests = build_forests(&ds, &families);
//! // X¹ partitions the 9 people into 5 name-prefix blocks (Table I); the
//! // three singleton blocks contain no pairs and are eliminated, leaving
//! // the "jo" and "ch" trees.
//! assert_eq!(forests[0].trees.len(), 2);
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

pub mod forest;
pub mod function;
pub mod presets;
pub mod stats;

pub use forest::{build_forests, sort_by_attrs, Block, Forest, Tree};
pub use function::{BlockingFamily, BlockingKey, PrefixFunction};
pub use stats::{
    olp, pairs, uncovered_pairs, DatasetStats, NodeStats, OlpScratch, Place, Placement, Signatures,
    TreeStats,
};

/// Index of a main blocking function within the `⊵F` dominance total order;
/// 0 is the most dominating family (the paper's `Index(X¹) = 1`, 0-based
/// here).
pub type FamilyIndex = usize;
