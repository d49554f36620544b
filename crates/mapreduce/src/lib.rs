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
//! ## Shuffle skew and load balancing
//!
//! Hash partitioning sends a whole key group to one reduce task, so a
//! Zipf-skewed key distribution (typical of blocking keys in entity
//! resolution) leaves the reduce makespan dominated by the single hottest
//! task. The [`loadbalance`] module provides three skew-aware remedies:
//!
//! * [`loadbalance::BlockSplitPlan`] — split over-budget blocks into
//!   sub-blocks and enumerate self/cross match tasks so every pair is still
//!   compared exactly once (Kolb, Thor & Rahm, arXiv:1108.1631);
//! * [`loadbalance::PairRangePlan`] — enumerate the global pair space and
//!   range-partition it into equal slices, replicating each entity only to
//!   the ranges that need it;
//! * [`job::JobConfig::shuffle_balance`] — a runtime option for ordinary
//!   keyed jobs that counts records per key after the map phase and places
//!   whole keys on reduce tasks with a weighted LPT pass
//!   ([`loadbalance::ShuffleBalance`]), preserving grouping semantics.
//!
//! [`loadbalance::run_pair_job`] runs a complete pairwise-comparison job
//! under any [`loadbalance::PairStrategy`]; [`runtime::JobResult`] exposes
//! the resulting per-task cost spread via `reduce_max_mean_ratio`, per-phase
//! cost histograms, and a `shuffle_skew_milli` counter.
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

pub mod cost;
pub mod counters;
pub mod error;
pub mod exec;
pub mod extsort;
pub mod faults;
pub mod fxhash;
pub mod job;
pub mod loadbalance;
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
    pub use crate::exec::{CursorExecutor, Executor, ExecutorKind, WorkStealingExecutor};
    pub use crate::extsort::{ExternalSorter, SortedStream, SpillFullPolicy};
    pub use crate::faults::{AttemptFault, FaultPlan, InjectedAbort, SpeculationConfig};
    // Storage-fault vocabulary, re-exported so spill consumers configure
    // fault plans and retries without naming pper-vfs directly.
    pub use crate::job::{
        ClusterSpec, Emitter, GroupReducer, JobConfig, Mapper, PartitionReducer, Reducer,
        TaskContext, TaskId, TaskKind,
    };
    pub use crate::loadbalance::{
        run_pair_job, run_pair_job_with, BlockDistribution, BlockSplitPlan, PairJobReport,
        PairRangePlan, PairStrategy, ShuffleBalance,
    };
    pub use crate::observe::{AttemptRecord, TaskEvent, TaskObserver};
    pub use crate::partition::{
        AssignedPartitioner, HashPartitioner, IndexPartitioner, KeyMapPartitioner, Partitioner,
        RangePartitioner,
    };
    pub use crate::progress::{EventLog, IncrementalWriter, ProgressEvent, Segment};
    pub use crate::runtime::{
        run_job, run_job_spilling, run_job_with_partitioner, JobResult, PhaseReport, WallPhases,
    };
    pub use crate::shuffle::{
        shuffle_partitions, shuffle_partitions_spilling, GroupedPartition, ShuffleSpillConfig,
        ShuffleSpillStats,
    };
    pub use crate::spill::SpillCodec;
    pub use pper_vfs::{
        std_vfs, FaultKind, FaultVfs, IoFault, IoFaultPlan, IoFaultRule, IoOp, RetryPolicy, Vfs,
    };
}

pub use prelude::*;
