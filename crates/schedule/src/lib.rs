//! # pper-schedule
//!
//! Progressive schedule generation — §IV of the paper, the core algorithmic
//! contribution.
//!
//! Given the block statistics from the first MR job, this crate:
//!
//! 1. estimates, per block, the expected duplicates `Dup(X)`, resolution
//!    cost `Cost(X)` and utility `Util(X) = Dup/Cost` (Eq. 2–5), using a
//!    duplicate-probability model `d(X) = Prob(|X|)·Pairs(|X|)` learned from
//!    a training dataset (§VI-A4) — [`estimate`], [`probmodel`];
//! 2. generates the **progressive schedule**: the NP-hard optimal
//!    formulation (§IV-C1) is approximated by `GENERATE-SCHEDULE` (Fig. 6) —
//!    identify overflowed trees, split them (`SPLIT-TREE`/`SHOULD-SPLIT`),
//!    partition trees over reduce tasks greedily by slack `SK(R)`, and sort
//!    each task's blocks by utility — [`generate`];
//! 3. provides the baseline schedulers the paper compares against:
//!    **NoSplit** (same pipeline without tree splitting) and **LPT**
//!    (longest-processing-time load balancing) — [`generate::TreeScheduler`];
//! 4. derives each tree's dominance value `Dom(T)` from its index in the
//!    schedule, with the `List(e, X)` construction and `SHOULD-RESOLVE`
//!    check used for redundancy-free resolution (§V, Fig. 7) —
//!    [`dominance`]. The second job routes a tree to the reduce task
//!    `task_of_tree` names; the paper's sequence values `SQ` order a
//!    streaming reducer's input, which a whole-partition reducer does not
//!    need.

//! ```
//! use pper_blocking::{build_forests, presets, DatasetStats};
//! use pper_datagen::PubGen;
//! use pper_progressive::LevelPolicy;
//! use pper_schedule::{generate_schedule, EstimationContext, ScheduleConfig, TrainedProb};
//!
//! let ds = PubGen::new(1_000, 1).generate();
//! let families = presets::citeseer_families();
//! let forests = build_forests(&ds, &families);
//! let stats = DatasetStats::from_forests(&ds, &families, &forests);
//!
//! let (policy, prob) = (LevelPolicy::citeseer(), TrainedProb::citeseer());
//! let ctx = EstimationContext {
//!     dataset_size: ds.len(),
//!     policy: &policy,
//!     prob: &prob,
//! };
//! let schedule = generate_schedule(&stats, &ctx, &ScheduleConfig::default(), 8);
//! assert_eq!(schedule.num_tasks(), 8);
//! assert_eq!(schedule.trees.len(), schedule.task_of_tree.len());
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

pub mod dominance;
pub mod estimate;
pub mod generate;
pub mod plan;
pub mod probmodel;

pub use dominance::{should_resolve, DomList, TreeLocator, MAX_FAMILIES};
pub use estimate::{recompute_tree, EstimationContext};
pub use generate::{generate_schedule, ScheduleConfig, TreeScheduler, Weighting};
pub use plan::{PlanNode, PlanTree, Schedule};
pub use probmodel::{DupProbability, TrainedProb};
