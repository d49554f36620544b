//! # pper-mapreduce
//!
//! An in-process, deterministic MapReduce-style runtime used as the execution
//! substrate for the parallel progressive entity-resolution pipeline of
//! Altowim & Mehrotra (ICDE 2017).
//!
//! The paper runs on Apache Hadoop over a physical cluster; this crate
//! reproduces the *programming model* and the *scheduling semantics* that the
//! paper's algorithms rely on, while replacing wall-clock time with a
//! **virtual cost clock** per simulated task so that experiments are
//! deterministic and hardware-independent:
//!
//! * a job is a map phase followed by a shuffle (partition + sort + group)
//!   and a reduce phase ([`runtime::run_job`]); the shuffle groups each
//!   partition into a flat [`shuffle::GroupedPartition`] arena on the worker
//!   pool and reducers receive borrowed `(&K, &[V])` views — zero per-group
//!   allocations and no copies on fault-plan re-execution;
//! * the cluster is modelled as `machines × slots_per_machine` parallel task
//!   slots ([`job::ClusterSpec`]); when there are more tasks than slots the
//!   virtual makespan is computed with list scheduling, exactly like Hadoop's
//!   wave execution ([`cost::virtual_makespan`]);
//! * every simulated task owns a [`cost::CostClock`]; user code charges cost
//!   units for the work it performs (one unit ≈ one pair resolution in the
//!   ER pipeline) and logs progress events against the clock, from which
//!   recall-versus-cost curves are later assembled;
//! * reduce output can be spooled through an [`progress::IncrementalWriter`]
//!   that cuts a new result segment every `α` cost units, mirroring the
//!   paper's incremental result-file production (§III-B).
//!
//! Real threads (via `std::thread::scope`) are used to execute simulated tasks, so
//! wall-clock benefits of parallelism are also real; but all *reported*
//! quantities derive from the virtual clocks.
//!
//! ## Example
//!
//! ```
//! use pper_mapreduce::prelude::*;
//!
//! /// Classic word count.
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type Input = String;
//!     type Key = String;
//!     type Value = u64;
//!     fn map(&self, line: &String, ctx: &mut TaskContext, out: &mut Emitter<String, u64>) {
//!         for w in line.split_whitespace() {
//!             ctx.charge(1.0);
//!             out.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer for Sum {
//!     type Key = String;
//!     type Value = u64;
//!     type Output = (String, u64);
//!     fn reduce(
//!         &self,
//!         key: &String,
//!         values: &[u64],
//!         ctx: &mut TaskContext,
//!         out: &mut Vec<(String, u64)>,
//!     ) {
//!         ctx.charge(values.len() as f64);
//!         out.push((key.clone(), values.iter().sum()));
//!     }
//! }
//!
//! let cluster = ClusterSpec::new(2, 2, 2); // 2 machines, 2 map + 2 reduce slots each
//! let cfg = JobConfig::new("wordcount", cluster);
//! let input: Vec<String> = vec!["a b a".into(), "b c".into()];
//! let result = run_job(&cfg, &Tokenize, &GroupReducer::new(Sum), &input).unwrap();
//! let mut counts = result.outputs;
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);
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

pub mod cost;
pub mod counters;
pub mod error;
pub mod exec;
pub mod extsort;
pub mod faults;
pub mod fxhash;
pub mod job;
pub mod observe;
pub mod partition;
pub mod progress;
pub mod runtime;
pub mod shuffle;
pub mod spill;

/// Convenience re-exports covering the whole public surface.
pub mod prelude {
    pub use crate::cost::{virtual_makespan, CostClock, CostModel};
    pub use crate::counters::Counters;
    pub use crate::error::MrError;
    pub use crate::exec::ExecutorKind;
    pub use crate::extsort::{ExternalSorter, SortedStream, SpillFullPolicy};
    pub use crate::faults::{AttemptFault, FaultPlan, InjectedAbort};
    // Storage-fault vocabulary, re-exported so spill consumers configure
    // fault plans and retries without naming pper-vfs directly.
    pub use crate::job::{
        ClusterSpec, Emitter, GroupReducer, JobConfig, Mapper, PartitionReducer, Reducer,
        TaskContext, TaskId, TaskKind,
    };
    pub use crate::observe::{AttemptRecord, TaskEvent, TaskObserver};
    pub use crate::partition::{HashPartitioner, Partitioner, RangePartitioner};
    pub use crate::progress::{EventLog, IncrementalWriter, ProgressEvent, Segment};
    pub use crate::runtime::{
        run_job, run_job_spilling, run_job_with_partitioner, JobResult, PhaseReport, WallPhases,
    };
    pub use crate::shuffle::{GroupedPartition, ShuffleSpillConfig, ShuffleSpillStats};
    pub use crate::spill::SpillCodec;
    pub use pper_vfs::{
        std_vfs, FaultKind, FaultVfs, IoFault, IoFaultPlan, IoFaultRule, IoOp, RetryPolicy, Vfs,
    };
}

pub use prelude::*;
