//! # pper-benchmark
//!
//! The end-to-end benchmark of the two-job pipeline, measured from outside
//! the program: four named workloads, end-to-end metrics taken with tracing
//! off (`run` binary), per-layer attribution from a separate traced pass
//! (`trace` binary), and a front-end (`bench`) that runs either, runs all, or
//! compares two reports. `benchmark/README.md` has the tables.

pub mod alloc;
pub mod measure;
pub mod spans;
pub mod verify;
pub mod workload;
