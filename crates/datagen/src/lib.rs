//! # pper-datagen
//!
//! Seeded synthetic dataset generators with exact ground truth, standing in
//! for the paper's CiteSeerX (1.5M publications) and OL-Books (30M books)
//! dumps, which cannot be redistributed with this repository.
//!
//! The generators preserve the statistical properties the paper's algorithms
//! exploit:
//!
//! * **block-size skew** — title first-words are drawn from a Zipf
//!   distribution, so prefix blocking produces a few very large blocks and a
//!   long tail of small ones (the paper's "Block Size Skewness" challenge);
//! * **duplicate clusters** — a fixed fraction of real-world objects per
//!   kind (`PubGen` lets a caller set it) is represented by 2–6 corrupted
//!   copies, giving exact cluster ground truth for recall measurement;
//! * **dirty data** — corrupted copies suffer typos, token swaps,
//!   truncations, case noise, and missing values, so that any *single*
//!   blocking function misses some duplicate pairs while the union of
//!   several functions covers (nearly) all of them — the reason the paper
//!   uses multiple blocking functions per dataset (§II-A);
//! * **shared pairs** — because duplicates usually agree on several
//!   attributes, many duplicate pairs co-occur in blocks of different
//!   blocking functions, which is what makes the paper's redundancy-free
//!   resolution (§V) and responsible-tree machinery (§IV-A) matter.
//!
//! ```
//! use pper_datagen::{Dataset, PubGen};
//!
//! let ds: Dataset = PubGen::new(1_000, 42).generate();
//! assert_eq!(ds.len(), 1_000);
//! assert!(ds.truth.total_duplicate_pairs() > 0);
//! ```

mod books;
mod citeseer;
mod cluster;
mod corrupt;
mod entity;
mod toy;
mod words;
mod zipf;

pub use books::BookGen;
pub use citeseer::PubGen;
pub use entity::{Dataset, Entity, EntityId, GroundTruth};
pub use toy::toy_people;
