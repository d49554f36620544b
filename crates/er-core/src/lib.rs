//! # pper-er
//!
//! The end-to-end parallel progressive entity-resolution pipeline — the
//! paper's primary contribution (§III), assembled from the workspace's
//! substrates:
//!
//! * [`job1`] — the first MR job: annotate entities with their blocking
//!   keys and gather per-tree block statistics (sizes, hierarchy, overlap
//!   information);
//! * [`job2`] — the second MR job: generate the progressive schedule in the
//!   map setup, route each entity to the reduce tasks owning its trees
//!   (keyed by sequence value, carrying its dominance list), and resolve
//!   blocks incrementally bottom-up with the configured mechanism, skipping
//!   pairs owned by other trees (`SHOULD-RESOLVE`, §V) and pairs already
//!   resolved in child blocks;
//! * [`basic`] — the Basic baseline of §II-C: one MR job, hash
//!   partitioning by blocking key, Popcorn stopping, and the smallest-key
//!   redundancy elimination of Kolb et al. (ref. \[14\]);
//! * [`pipeline`] — orchestration: the two jobs chained, timelines merged,
//!   results exposed as a [`metrics::RecallCurve`];
//! * [`durable`] and [`checkpoint`] — crash/resume: journal every run
//!   event, fold a killed run's in-line cuts into a
//!   [`checkpoint::Checkpoint`], and resume from it in a fresh process to a
//!   bit-identical result (see [`durable::resume_durable`]);
//! * [`metrics`] — duplicate recall curves, the `Qty` quality measure
//!   (Eq. 1), and recall speedup (§VI-B4).
//!
//! Both reducers — [`basic`]'s and [`job2`]'s — compare a pair one way:
//! through `pper_simil`'s prepared path, each reduce task holding one
//! [`pper_simil::PreparedCache`] and memoizing an entity's slot in it per
//! block or tree member. The string path ([`pper_simil::MatchRule::matches`])
//! is the reference, not a mode: `tests/prepared_regression.rs` re-decides
//! every pair job 2 compared with it and checks Basic F against brute force.
//!
//! ```no_run
//! use pper_er::prelude::*;
//! use pper_datagen::PubGen;
//!
//! let ds = PubGen::new(20_000, 7).generate();
//! let config = ErConfig::citeseer(10); // 10 simulated machines
//! let result = ProgressiveEr::new(config).run(&ds);
//! println!("final recall {:.3} at cost {:.0}", result.curve.final_recall(), result.total_cost);
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

pub mod basic;
pub mod budget;
pub mod checkpoint;
pub mod clustering;
pub mod config;
pub mod durable;
pub mod job1;
pub mod job2;
pub mod metrics;
pub mod pipeline;

/// Convenience re-exports covering the whole public surface.
pub mod prelude {
    pub use crate::basic::{BasicApproach, BasicConfig};
    pub use crate::budget::{run_with_budget, BudgetReport};
    pub use crate::checkpoint::{Checkpoint, TaskCheckpoint};
    pub use crate::clustering::{
        correlation_clustering, transitive_closure, ClusterMetrics, UnionFind,
    };
    pub use crate::config::{ErConfig, MechanismKind, ProbModelKind};
    pub use crate::durable::{
        journaled_checkpoint, reprocess_dlq, resume_durable, run_durable, DurableError,
        DurableOptions, ResultFingerprint,
    };
    pub use crate::job1::run_job1;
    pub use crate::metrics::{quality, speedup_at, RecallCurve};
    pub use crate::pipeline::{ErRunResult, ProgressiveEr};
}

pub use prelude::*;

/// Timeline event kind: one duplicate pair identified. The event value is
/// the packed pair (see [`pack_pair`]).
pub const EVENT_DUPLICATE: u32 = 1;

/// Pack an entity pair into one event payload.
#[inline]
pub fn pack_pair(a: u32, b: u32) -> u64 {
    (u64::from(a.min(b)) << 32) | u64::from(a.max(b))
}

/// Inverse of [`pack_pair`].
#[inline]
pub fn unpack_pair(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Marks a block or tree member whose slot in its task's
/// [`PreparedCache`](pper_simil::PreparedCache) is not known yet.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// `entity`'s slot in the reduce task's signature store, memoized in the
/// member's `memo`: the store's id map is probed on the member's first
/// comparison in its block (Basic) or tree (job 2), never per pair.
#[inline]
pub(crate) fn memo_slot(
    cache: &mut pper_simil::PreparedCache<pper_datagen::EntityId>,
    rule: &pper_simil::PreparedRule,
    memo: &mut u32,
    entity: &pper_datagen::Entity,
) -> u32 {
    if *memo == NO_SLOT {
        *memo = cache.slot(rule, entity.id, &entity.attrs);
    }
    *memo
}

/// Per-pair counters of one block, added to the task's
/// [`Counters`](pper_mapreduce::prelude::Counters) once when the block ends instead
/// of one string-keyed probe per pair.
#[derive(Default)]
pub(crate) struct BlockTally {
    pub(crate) compared: u64,
    /// Job 2 only: pairs a child block of the tree already compared.
    pub(crate) skipped_resolved: u64,
    pub(crate) skipped_redundant: u64,
    pub(crate) duplicates: u64,
}

impl BlockTally {
    pub(crate) fn flush(&self, counters: &mut pper_mapreduce::prelude::Counters) {
        // A counter exists from its first increment on, so zeros stay out.
        for (name, n) in [
            ("pairs_compared", self.compared),
            ("pairs_skipped_already_resolved", self.skipped_resolved),
            ("pairs_skipped_redundant", self.skipped_redundant),
            ("duplicates_found", self.duplicates),
        ] {
            if n > 0 {
                counters.add(name, n);
            }
        }
    }
}

#[cfg(test)]
mod pack_tests {
    use super::*;

    #[test]
    fn pack_round_trips_and_normalizes() {
        assert_eq!(unpack_pair(pack_pair(3, 9)), (3, 9));
        assert_eq!(unpack_pair(pack_pair(9, 3)), (3, 9));
        assert_eq!(unpack_pair(pack_pair(0, u32::MAX)), (0, u32::MAX));
    }
}
