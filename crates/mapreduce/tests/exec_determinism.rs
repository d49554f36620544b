//! Bit-level determinism of whole jobs across worker-thread counts.
//!
//! The cursor pool (`exec.rs`) only decides which OS thread runs which
//! simulated task and in what wall-clock order; workers publish results
//! into caller-owned per-index slots and the driver collects them in index
//! order after the barrier. So nothing observable may depend on the thread
//! count. These tests run the same three job shapes — plain, under a fault
//! plan, and with a spilling shuffle — at 1, 2 and 8 threads and demand
//! byte-identical outputs, counters, timelines, and virtual costs, plus a
//! property test that dispatch order never leaks into observables.

use proptest::prelude::*;

use pper_mapreduce::prelude::*;

const THREADS: &[usize] = &[1, 2, 8];

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

/// Zipf-ish corpus: a few very hot words plus a long tail, so per-task
/// costs are skewed enough that workers finish out of index order.
fn corpus(lines: usize) -> Vec<String> {
    (0..lines)
        .map(|i| format!("the of w{} the w{} tail{}", i % 7, i % 63, i))
        .collect()
}

fn cfg(threads: usize) -> JobConfig {
    let mut cfg = JobConfig::new("exec-determinism", ClusterSpec::paper(4));
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

/// Run `job` at every thread count and demand each run matches the inline
/// single-thread reference.
fn assert_identical_across_threads(
    job: impl Fn(usize) -> JobResult<(String, u64)>,
    spill_counters: bool,
) {
    let base = job(1);
    if spill_counters {
        assert!(
            base.counters.get("shuffle_spilled_partitions") > 0,
            "spill never engaged; the spilling cell would be vacuous"
        );
    }
    for &threads in THREADS {
        let r = job(threads);
        assert_eq!(
            observables(&base),
            observables(&r),
            "worker_threads={threads}"
        );
    }
}

#[test]
fn plain_job_identical_across_thread_counts() {
    let input = corpus(800);
    assert_identical_across_threads(
        |threads| run_job(&cfg(threads), &WordMapper, &GroupReducer::new(Sum), &input).unwrap(),
        false,
    );
}

#[test]
fn faulty_job_identical_across_thread_counts() {
    let input = corpus(800);
    assert_identical_across_threads(
        |threads| {
            let mut c = cfg(threads);
            c.faults = Some(FaultPlan::fail_reduce(0, 2));
            let r = run_job(&c, &WordMapper, &GroupReducer::new(Sum), &input).unwrap();
            assert_eq!(r.counters.get("task_retries"), 2);
            r
        },
        false,
    );
}

#[test]
fn spilling_job_identical_across_thread_counts() {
    let input = corpus(400);
    // A 60-record budget forces most partitions of this corpus to spill,
    // so the pool also drives the external-sort dispatch path.
    let spill = ShuffleSpillConfig::new(60);
    assert_identical_across_threads(
        |threads| {
            run_job_spilling(
                &cfg(threads),
                &WordMapper,
                &GroupReducer::new(Sum),
                &spill,
                &input,
            )
            .unwrap()
        },
        true,
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    // Whatever corpus shape the generator picks, an 8-thread execution
    // (chunks claimed in whatever order the workers race to the cursor)
    // must be bit-identical to the inline single-thread reference.
    #[test]
    fn prop_dispatch_order_never_leaks(lines in 1usize..300, hot in 1usize..9) {
        let input: Vec<String> = (0..lines)
            .map(|i| format!("hot{} mid{} tail{i}", i % hot, i % 31))
            .collect();
        let base = run_job(&cfg(1), &WordMapper, &GroupReducer::new(Sum), &input).unwrap();
        let raced = run_job(&cfg(8), &WordMapper, &GroupReducer::new(Sum), &input).unwrap();
        prop_assert_eq!(observables(&base), observables(&raced));
    }
}
