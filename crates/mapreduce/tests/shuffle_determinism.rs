//! Bit-level determinism of whole jobs across worker-thread counts.
//!
//! The shuffle sorts and groups partitions on the worker pool, so the one
//! property that keeps experiments reproducible is: the number of OS threads
//! executing a job must never leak into any reported quantity. These tests
//! run the same job at 1, 2, and 8 worker threads — plain and under a fault
//! plan — and demand byte-identical outputs, counters, timelines, and virtual
//! costs.

use pper_mapreduce::prelude::*;

struct WordMapper;
impl Mapper for WordMapper {
    type Input = String;
    type Key = String;
    type Value = u64;
    fn map(&self, line: &String, ctx: &mut TaskContext, out: &mut Emitter<String, u64>) {
        for w in line.split_whitespace() {
            ctx.charge(1.0);
            out.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn reduce(
        &self,
        key: &String,
        values: &[u64],
        ctx: &mut TaskContext,
        out: &mut Vec<(String, u64)>,
    ) {
        ctx.charge(values.len() as f64);
        ctx.counters.add("reduced_values", values.len() as u64);
        ctx.log_event(1, values.len() as u64);
        out.push((key.clone(), values.iter().sum()));
    }
}

/// Zipf-ish corpus: a few very hot words plus a long tail, so partitions
/// hold both large and single-record groups.
fn corpus() -> Vec<String> {
    (0..800)
        .map(|i| format!("the of w{} the w{} tail{}", i % 7, i % 63, i))
        .collect()
}

fn cfg(threads: usize) -> JobConfig {
    let mut cfg = JobConfig::new("determinism", ClusterSpec::paper(4));
    cfg.worker_threads = Some(threads);
    cfg
}

/// Everything in a [`JobResult`] that experiments read, in comparable form.
fn observables(r: &JobResult<(String, u64)>) -> impl PartialEq + std::fmt::Debug {
    let mut counters: Vec<(&'static str, u64)> = r.counters.iter().collect();
    counters.sort();
    (
        r.outputs.clone(),
        counters,
        r.total_virtual_cost.to_bits(),
        r.map_phase.makespan.to_bits(),
        r.reduce_phase.makespan.to_bits(),
        r.map_phase
            .task_costs
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        r.reduce_phase
            .task_costs
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        r.timeline.clone(),
        r.shuffle_records,
    )
}

#[test]
fn plain_job_identical_across_thread_counts() {
    let input = corpus();
    let base = run_job(&cfg(1), &WordMapper, &GroupReducer::new(Sum), &input).unwrap();
    for threads in [2usize, 8] {
        let r = run_job(&cfg(threads), &WordMapper, &GroupReducer::new(Sum), &input).unwrap();
        assert_eq!(
            observables(&base),
            observables(&r),
            "worker_threads={threads}"
        );
    }
}

#[test]
fn faulty_job_identical_across_thread_counts() {
    let input = corpus();
    let run = |threads| {
        let mut c = cfg(threads);
        c.faults = Some(FaultPlan::fail_reduce(0, 2));
        run_job(&c, &WordMapper, &GroupReducer::new(Sum), &input).unwrap()
    };
    let base = run(1);
    assert_eq!(base.counters.get("task_retries"), 2);
    for threads in [2usize, 8] {
        assert_eq!(
            observables(&base),
            observables(&run(threads)),
            "worker_threads={threads}"
        );
    }
}

#[test]
fn wall_phases_are_reported() {
    let input = corpus();
    let r = run_job(&cfg(2), &WordMapper, &GroupReducer::new(Sum), &input).unwrap();
    let sum = r.wall_phases.map + r.wall_phases.shuffle + r.wall_phases.reduce;
    assert!(sum <= r.wall_clock);
    assert!(r.wall_phases.map > std::time::Duration::ZERO);
}
