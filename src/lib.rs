//! # pper — Parallel Progressive Entity Resolution
//!
//! Umbrella crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"Parallel Progressive Approach to Entity Resolution Using
//! MapReduce"* (Altowim & Mehrotra, ICDE 2017).
//!
//! Start with [`er`] for the end-to-end pipeline, or see the runnable
//! binaries in `examples/`.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`mapreduce`] | `pper-mapreduce` | deterministic MapReduce-style runtime |
//! | [`simil`] | `pper-simil` | similarity kernels and match rules |
//! | [`datagen`] | `pper-datagen` | synthetic datasets with ground truth |
//! | [`blocking`] | `pper-blocking` | hierarchical progressive blocking |
//! | [`progressive`] | `pper-progressive` | progressive mechanisms (SN hint, PSNM, Popcorn) |
//! | [`schedule`] | `pper-schedule` | progressive schedule generation |
//! | [`er`] | `pper-er` | the two-job pipeline, baselines, quality metrics |
//! | [`journal`] | `pper-journal` | durable job journal, recovery, dead-letter queue |

// D2: no wall clock (the root `clippy.toml`).
#![deny(clippy::disallowed_methods)]

pub use pper_blocking as blocking;
pub use pper_datagen as datagen;
pub use pper_er as er;
pub use pper_journal as journal;
pub use pper_mapreduce as mapreduce;
pub use pper_progressive as progressive;
pub use pper_schedule as schedule;
pub use pper_simil as simil;
