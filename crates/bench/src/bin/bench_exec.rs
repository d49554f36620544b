//! Executor-backend benchmark: wall-clock scaling of the two task-dispatch
//! backends (`cursor`, `stealing`) across thread counts and
//! workload shapes. An un-gated measuring tool: it emits `BENCH_exec.json`
//! stamped with the host's core count and refuses to record a `…@N` row
//! from fewer than `N` cores.
//!
//! Workloads:
//!
//! * `uniform` — equal-cost tasks; measures raw dispatch overhead and
//!   scaling. No backend should lose here.
//! * `skewed`  — one task dominates (Zipf-ish tail); the shape where
//!   work-stealing rebalances what static chunking cannot.
//! * `tiny`    — thousands of near-empty tasks; dispatch overhead
//!   dominates, which is what `cursor`'s adaptive chunked claim amortizes.
//! * `spill`   — an end-to-end spilling MapReduce job driven through
//!   `JobConfig::executor`, so the real runtime path is measured too.
//!
//! ```sh
//! cargo run --release -p pper-bench --bin bench_exec -- --quick
//! ```

use std::time::Instant;

use pper_bench::{BenchRecord, BenchReport, ExpOptions};
use pper_mapreduce::prelude::*;

const BACKENDS: &[ExecutorKind] = &[ExecutorKind::Cursor, ExecutorKind::WorkStealing];

const THREADS: &[usize] = &[1, 2, 8];

/// Deterministic integer-mix busy loop (SplitMix64 finalizer); the result
/// feeds `black_box` so the whole loop survives the optimizer.
fn busy(iters: u64) -> u64 {
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..iters {
        x = x.wrapping_add(i).wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
    }
    x
}

/// Time `kind` dispatching `costs.len()` tasks whose per-task busy work is
/// given by `costs`, at `threads` workers.
fn time_dispatch(kind: ExecutorKind, threads: usize, costs: &[u64]) -> std::time::Duration {
    // One warmup keeps thread spawn-up jitter out of the timed run.
    kind.run(costs.len(), threads, &|i| {
        std::hint::black_box(busy(costs[i]));
    });
    let start = Instant::now();
    kind.run(costs.len(), threads, &|i| {
        std::hint::black_box(busy(costs[i]));
    });
    start.elapsed()
}

/// Wordcount-shaped spilling job over a skewed corpus, dispatched through
/// `JobConfig::executor` — the full runtime path (map, spilling shuffle,
/// reduce), not just the raw dispatch loop.
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
        out.push((key.clone(), values.iter().sum()));
    }
}

fn time_spill_job(kind: ExecutorKind, threads: usize, corpus: &[String]) -> std::time::Duration {
    let mut cfg = JobConfig::new("bench-exec-spill", ClusterSpec::paper(4));
    cfg.worker_threads = Some(threads);
    cfg.executor = kind;
    let spill = ShuffleSpillConfig::new(200);
    let run = || {
        run_job_spilling(&cfg, &WordMapper, &GroupReducer::new(Sum), &spill, corpus)
            .expect("spill job");
    };
    run(); // warmup
    let start = Instant::now();
    run();
    start.elapsed()
}

/// ops_per_sec of the named record, if that row was measured.
fn ops(report: &BenchReport, name: &str) -> Option<f64> {
    let r = report.records.iter().find(|r| r.name == name)?;
    Some(r.ops_per_sec)
}

fn main() -> std::io::Result<()> {
    let opts = ExpOptions::from_args(0);
    let scale: u64 = if opts.quick { 1 } else { 8 };

    // uniform: 256 equal tasks. skewed: 64 tasks, task 0 carries half the
    // total work. tiny: 4096 near-empty tasks.
    let uniform: Vec<u64> = vec![20_000 * scale; 256];
    let skewed: Vec<u64> = (0..64u64)
        .map(|i| {
            if i == 0 {
                640_000 * scale
            } else {
                10_000 * scale
            }
        })
        .collect();
    let tiny: Vec<u64> = vec![16; 4096];
    let corpus: Vec<String> = (0..400 * scale)
        .map(|i| format!("the of w{} the w{} tail{i}", i % 7, i % 63))
        .collect();

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut report = BenchReport::new(
        "exec",
        format!(
            "executor backends × threads {THREADS:?} × workloads \
             (uniform 256 tasks, skewed 64 tasks, tiny 4096 tasks, \
             spilling wordcount {} lines); ops = tasks (lines for spill); \
             available_parallelism = {cores}",
            corpus.len()
        ),
    );
    // A `…@N` row taken on fewer than N cores measures oversubscription,
    // not scaling, so it is not recorded.
    let (measured, skipped): (Vec<usize>, Vec<usize>) = THREADS.iter().partition(|&&t| t <= cores);
    for threads in skipped {
        report.note(format!("@{threads} rows skipped: host has {cores} core(s)"));
    }

    for (workload, costs) in [("uniform", &uniform), ("skewed", &skewed), ("tiny", &tiny)] {
        for &kind in BACKENDS {
            for &threads in &measured {
                let elapsed = time_dispatch(kind, threads, costs);
                let name = format!("{workload}/{}@{threads}", kind.name());
                eprintln!("{name}: {elapsed:?}");
                report.push(BenchRecord::from_total(name, costs.len() as u64, elapsed));
            }
        }
    }
    for &kind in BACKENDS {
        for &threads in &measured {
            let elapsed = time_spill_job(kind, threads, &corpus);
            let name = format!("spill/{}@{threads}", kind.name());
            eprintln!("{name}: {elapsed:?}");
            report.push(BenchRecord::from_total(name, corpus.len() as u64, elapsed));
        }
    }

    for workload in ["uniform", "skewed", "tiny", "spill"] {
        let cursor = ops(&report, &format!("{workload}/cursor@8"));
        let stealing = ops(&report, &format!("{workload}/stealing@8"));
        if let (Some(cursor), Some(stealing)) = (cursor, stealing) {
            report.note(format!(
                "{workload}@8: stealing/cursor = {:.2}x",
                stealing / cursor
            ));
        }
    }
    let s1 = ops(&report, "skewed/stealing@1");
    let s8 = ops(&report, "skewed/stealing@8");
    if let (Some(s1), Some(s8)) = (s1, s8) {
        report.note(format!("skewed stealing 8-thread scaling: {:.2}x", s8 / s1));
    }

    print!("{}", report.render_text());
    report.emit(&opts.out_dir)?;
    Ok(())
}
