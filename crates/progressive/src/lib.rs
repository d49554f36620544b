//! # pper-progressive
//!
//! Progressive resolution mechanisms — the paper's pluggable `M` (§II-B).
//!
//! A mechanism takes a block and yields its entity pairs in an order designed
//! to surface duplicates early. Two mechanisms from the literature are
//! implemented, matching the paper's experimental setup (§VI-A3):
//!
//! * [`sn::SnHint`] — the Sorted Neighbor algorithm with the sorted-list hint
//!   of Whang et al. (the paper's ref. \[5\]): entities are sorted by the
//!   blocking attribute and pairs are resolved in non-decreasing rank
//!   distance, up to a window `w`;
//! * [`psnm::Psnm`] — the Progressive Sorted Neighborhood Method of
//!   Papenbrock et al. (ref. \[6\]): the same distance-major base order,
//!   extended with a duplicate-driven look-ahead that eagerly explores the
//!   neighborhood of each found duplicate.
//!
//! Mechanisms are *resumable and feedback-driven* ([`mechanism::PairSource`])
//! so the pipeline can stop a block early (§III-A's termination thresholds),
//! interleave blocks of different trees, and revisit a parent block without
//! repeating child work.
//!
//! [`policy`] holds the stopping rules: the distinct-pair termination
//! thresholds `Th(X)`/`Frac(X)` and per-level windows of §VI-A5, and the
//! Popcorn scheme of ref. \[5\] used by the Basic baseline. A caller drives
//! one (block, mechanism, stop-rule) combination itself, the way the
//! pipeline's resolution job does:
//!
//! ```
//! use pper_progressive::{Mechanism, PairSource, SnHint, StopRule, StopState};
//!
//! // A sorted block of six entities; adjacent ids are duplicates.
//! let mut source = SnHint.start((0..6).collect(), 3);
//! let mut stop = StopState::new(StopRule::Exhaust);
//! let mut duplicates = Vec::new();
//! while let Some((a, b)) = source.next_pair() {
//!     let is_dup = a.abs_diff(b) == 1; // the resolve/match function
//!     source.feedback(is_dup);
//!     if is_dup {
//!         duplicates.push((a, b));
//!     }
//!     if stop.observe(is_dup) {
//!         break;
//!     }
//! }
//! assert_eq!(duplicates.len(), 5);
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

pub mod hierarchy;
pub mod mechanism;
pub mod policy;
pub mod psnm;
pub mod sn;

pub use hierarchy::HierarchyHint;
pub use mechanism::{sort_by_attr, sort_by_attrs, Mechanism, PairSource};
pub use policy::{LevelPolicy, PopcornState, StopRule, StopState};
pub use psnm::Psnm;
pub use sn::SnHint;
