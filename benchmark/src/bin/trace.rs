//! The traced pass of one workload: counting allocator, observer, spans kept
//! in memory and written out at exit. It attributes the end-to-end time to
//! layers from outside the program — spans around the calls into each layer,
//! phase boundaries from the public observer seam, and probes that run one
//! layer alone on the workload's own dataset.
//!
//! Nothing here feeds an end-to-end metric; those come from the `run` binary.

use std::marker::PhantomData;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pper_benchmark::alloc::{self, CountingAlloc};
use pper_benchmark::measure::{map, median, nproc, result_line, Args, Metrics};
use pper_benchmark::spans::{JobPhases, Tracer};
use pper_benchmark::verify::{check_journal, JournalSummary, Quality};
use pper_benchmark::workload::{
    spill_config, Execution, TmpRoot, Workload, BASIC_WINDOW, JOURNAL_JOB, PARALLEL_THREADS,
    WORKER_THREADS,
};
use pper_blocking::{build_forests, BlockingFamily, DatasetStats};
use pper_datagen::{Dataset, Entity, EntityId};
use pper_er::job1::{run_job1, BlockKey, SpillEntity};
use pper_er::job2::run_job2;
use pper_er::{ErConfig, ResultFingerprint};
use pper_journal::{FileStore, JournalStore, MemStore};
use pper_mapreduce::prelude::*;
use pper_progressive::{sort_by_attrs, PairSource};
use pper_simil::{BlockScorer, PreparedCache, PreparedEntity, PreparedRule, SimScratch};
use pper_store::{EntityStore, StoreBuilder};
use serde::Value;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fewest iterations of the untraced / traced / staged group.
const MIN_ITERATIONS: usize = 2;
/// Share of `--seconds` the iterations may take; the probes need the rest.
const ITERATION_SHARE: f64 = 0.5;
/// The staged spans should sum to the whole traced call within this fraction,
/// and tracing should slow the call by no more than it. Timing checks warn;
/// only wrong outputs fail a pass.
const TIMING_TOLERANCE: f64 = 0.10;

const JOB1: &str = "pper-job1-blocking";
const JOB2: &str = "pper-job2-resolution";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace: {e}");
            ExitCode::from(2)
        }
    }
}

/// Executions attempted and why some failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one execution; it fails unless it reproduces `reference`.
    fn execution(&mut self, what: &str, print: &ResultFingerprint, reference: &ResultFingerprint) {
        self.attempted += 1;
        if print != reference {
            self.fail(format!(
                "{what}: fingerprint differs from the first execution"
            ));
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("trace: FAILED {why}");
        self.failures.push(why);
    }
}

/// What the staged pipeline run of one iteration yields beyond its spans.
struct Staged {
    /// Job 2's duplicates and the summed virtual cost, for verification.
    duplicates: Vec<(EntityId, EntityId)>,
    total_vcost: f64,
    job1: Option<JobPhases>,
    job2: Option<JobPhases>,
    job1_vcost: f64,
    job2_vcost: f64,
    blocks_scheduled: u64,
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let tmp = TmpRoot::create()?;
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();

    // The first of the datasets the end-to-end pass cycles through.
    let ds = tracer.span("datagen.generate", |_| workload.generate(args.seed, 0));

    // ---- Warm-up ---------------------------------------------------------------
    // The first execution of a process pays for its page faults, so nothing
    // is timed on it; it is where allocations are counted (the counts do not
    // depend on timing, and counting slows the call) and the reference every
    // later execution must reproduce.
    let warm = workload.prepare(WORKER_THREADS, &tmp.fresh("warm-up")?, None)?;
    let (reference, alloc_stats) =
        tracer.span("er.warm_up", |_| alloc::count(|| warm.run_unjournaled(&ds)));
    let reference = reference?;
    let reference_print = ResultFingerprint::of(&reference);
    tally.attempted += 1;

    // ---- Iterations: untraced, traced whole, traced staged ------------------
    let mut staged: Vec<Staged> = Vec::new();
    let mut journal_summary = JournalSummary::default();
    let mut journal_bytes = 0u64;
    let started = Instant::now();
    let mut iterations = 0;
    while iterations < MIN_ITERATIONS
        || started.elapsed().as_secs_f64() < args.seconds * ITERATION_SHARE
    {
        iterations += 1;
        let dir = tmp.fresh("iteration")?;

        // Untraced: no observer — the call the `run` binary times, as the base
        // of `trace.overhead_ratio`.
        let plain = workload.prepare(WORKER_THREADS, &dir, None)?;
        let result = tracer.span("er.untraced", |_| plain.run_unjournaled(&ds))?;
        tally.execution(
            "untraced",
            &ResultFingerprint::of(&result),
            &reference_print,
        );

        // Two worker threads, right after the call they are compared with:
        // the thread-scaling base, and the same result.
        let parallel = workload.prepare(PARALLEL_THREADS, &dir, None)?;
        let result = tracer.span("er.two_threads", |_| parallel.run_unjournaled(&ds))?;
        tally.execution(
            "two threads",
            &ResultFingerprint::of(&result),
            &reference_print,
        );

        // Traced whole: observer on.
        let observed = workload.prepare(WORKER_THREADS, &dir, Some(tracer.observer()))?;
        let whole = if workload.is_pipeline() {
            "er.try_run"
        } else {
            "er.basic"
        };
        let result = tracer.span(whole, |_| observed.run_unjournaled(&ds))?;
        tally.execution(whole, &ResultFingerprint::of(&result), &reference_print);
        tracer.take_marks();

        if workload.is_pipeline() {
            let this = run_staged(&mut tracer, &observed, &ds)?;
            tally.attempted += 1;
            if this.duplicates != reference_print.duplicates
                || this.total_vcost.to_bits() != reference_print.total_cost_bits
            {
                tally.fail("staged: duplicates or total cost differ from the whole call".into());
            }
            staged.push(this);
        }

        if workload == Workload::BooksDurable {
            // The journaled run on disk, its recovery, and the same run on an
            // in-memory store: the difference is what the appends cost.
            let store = FileStore::open(dir.join("journal")).map_err(|e| e.to_string())?;
            let journal_path = store.path_for(JOURNAL_JOB);
            let on_disk: Arc<dyn JournalStore> = Arc::new(store);
            let result = tracer.span("er.run_durable", |_| plain.run_durable_on(&ds, &on_disk))?;
            tally.execution(
                "run_durable",
                &ResultFingerprint::of(&result),
                &reference_print,
            );
            match tracer.span("journal.recover", |_| check_journal(&on_disk, &result)) {
                Ok(summary) => journal_summary = summary,
                Err(why) => tally.fail(format!("journal: {why}")),
            }
            journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
            let in_memory = MemStore::shared();
            let result = tracer.span("er.run_durable_mem", |_| {
                plain.run_durable_on(&ds, &in_memory)
            })?;
            tally.execution(
                "run_durable on MemStore",
                &ResultFingerprint::of(&result),
                &reference_print,
            );
        }
    }
    let quality = Quality::of(workload, &ds, &reference);
    // The quality floors hold for the mean over the workload's datasets, which
    // the end-to-end pass checks; one dataset has to reach the recall targets.
    for why in quality.missed_targets() {
        tally.fail(format!("quality: {why}"));
    }

    // ---- Probes: one layer alone, on the workload's own dataset ---------------
    let config = workload.config(WORKER_THREADS, tmp.path());
    let pairs_compared = reference.counters.get("pairs_compared");
    let blocks = probe_blocking(&mut tracer, &ds, &config);
    let kernel = probe_kernels(
        &mut tracer,
        &ds,
        &config,
        &blocks.sorted_roots,
        pairs_compared,
    );
    if kernel.batch_mismatches > 0 {
        tally.fail(format!(
            "batch kernel disagrees with the scalar kernel on {} of {} pairs",
            kernel.batch_mismatches, kernel.batch_pairs
        ));
    }
    let pairs_generated = probe_progressive(&mut tracer, &config, &blocks.sorted_roots);
    let shuffle = probe_mapreduce(&mut tracer, &ds, &config)?;
    let spill = if workload == Workload::BooksDurable {
        probe_spill(&mut tracer, &ds, &config, &tmp)?
    } else {
        SpillProbe::default()
    };
    let store = probe_store(&mut tracer, &ds, &tmp)?;

    // ---- Metrics ---------------------------------------------------------------
    let counters = &reference.counters;
    let count = |name: &str| counters.get(name) as f64;
    let staged_median = |f: &dyn Fn(&Staged) -> Option<f64>| {
        let values: Vec<f64> = staged.iter().filter_map(f).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let wall = |name: &str| tracer.wall_s(name);
    let per_second = |n: f64, seconds: f64| if seconds > 0.0 { n / seconds } else { 0.0 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let untraced_s = wall("er.untraced");
    let staged_sum = wall("er.job1") + wall("schedule.generate") + wall("er.job2");
    // CPU seconds of the job that resolves pairs: job 2, or Basic's only job.
    let resolve_cpu_s = tracer.cpu_s("er.job2") + tracer.cpu_s("er.basic");
    let match_pairs_per_s = per_second(kernel.replay_pairs as f64, wall("simil.match"));
    let kernel_cpu_s = ratio(pairs_compared as f64, match_pairs_per_s);
    let generated = count("pairs_compared")
        + count("pairs_skipped_redundant")
        + count("pairs_skipped_already_resolved");
    let multi_core = nproc() >= 2;

    let mut m = Metrics::new();
    m.push("simil.match_pairs_per_s", match_pairs_per_s, "1/s");
    m.push(
        "simil.prepare_per_s",
        per_second(ds.len() as f64, wall("simil.prepare")),
        "1/s",
    );
    m.push("simil.replay_pairs", kernel.replay_pairs as f64, "count");
    m.push(
        "simil.replay_matches",
        kernel.replay_matches as f64,
        "count",
    );
    m.push(
        "simil.batch_pairs_per_s",
        per_second(kernel.batch_pairs as f64, kernel.batch_s),
        "1/s",
    );

    m.push("er.job1_s", wall("er.job1"), "s");
    m.push(
        "er.job1_map_s",
        staged_median(&|s| s.job1.map(|p| p.map_s)),
        "s",
    );
    m.push(
        "er.job1_shuffle_reduce_s",
        staged_median(&|s| s.job1.map(|p| p.shuffle_reduce_s)),
        "s",
    );
    m.push("er.job2_s", wall("er.job2"), "s");
    m.push(
        "er.job2_map_s",
        staged_median(&|s| s.job2.map(|p| p.map_s)),
        "s",
    );
    m.push(
        "er.job2_shuffle_reduce_s",
        staged_median(&|s| s.job2.map(|p| p.shuffle_reduce_s)),
        "s",
    );
    m.push(
        "er.assemble_s",
        if workload.is_pipeline() {
            wall("er.try_run") - staged_sum
        } else {
            0.0
        },
        "s",
    );
    m.push("er.basic_s", wall("er.basic"), "s");

    m.push("er.pairs_compared", count("pairs_compared"), "count");
    m.push(
        "er.pairs_skipped_redundant",
        count("pairs_skipped_redundant"),
        "count",
    );
    m.push(
        "er.pairs_skipped_resolved",
        count("pairs_skipped_already_resolved"),
        "count",
    );
    m.push("er.duplicates_found", count("duplicates_found"), "count");
    m.push("er.blocks_resolved", count("blocks_resolved"), "count");
    m.push(
        "er.blocks_stopped_early",
        count("blocks_stopped_early"),
        "count",
    );
    m.push(
        "er.useful_pair_ratio",
        ratio(count("pairs_compared"), generated),
        "ratio",
    );
    m.push(
        "er.compare_per_dup",
        ratio(count("pairs_compared"), count("duplicates_found")),
        "ratio",
    );

    m.push(
        "er.pipeline_pairs_per_s",
        per_second(pairs_compared as f64, untraced_s),
        "1/s",
    );
    m.push(
        "er.kernel_share",
        ratio(kernel_cpu_s, resolve_cpu_s),
        "ratio",
    );
    m.push("er.kernel_gap", ratio(resolve_cpu_s, kernel_cpu_s), "ratio");
    m.push(
        "er.job2_reduce_max_mean",
        staged_median(&|s| s.job2.map(|p| p.reduce_max_mean)),
        "ratio",
    );
    m.push(
        "er.job1_reduce_max_mean",
        staged_median(&|s| s.job1.map(|p| p.reduce_max_mean)),
        "ratio",
    );
    m.push(
        "er.allocs_per_pair",
        ratio(alloc_stats.allocations as f64, pairs_compared as f64),
        "ratio",
    );
    m.push(
        "er.alloc_bytes_per_entity",
        ratio(alloc_stats.bytes as f64, ds.len() as f64),
        "B",
    );
    // With one core a thread-scaling ratio says nothing: recorded as 0.
    m.push(
        "er.speedup_2t",
        if multi_core {
            ratio(untraced_s, wall("er.two_threads"))
        } else {
            0.0
        },
        "ratio",
    );
    m.push(
        "mapreduce.speedup_2t",
        if multi_core {
            ratio(shuffle.wall_s, shuffle.two_threads_s)
        } else {
            0.0
        },
        "ratio",
    );
    m.push(
        "er.ns_per_vcost_job1",
        ratio(
            tracer.cpu_s("er.job1") * 1e9,
            staged_median(&|s| Some(s.job1_vcost)),
        ),
        "ns",
    );
    m.push(
        "er.ns_per_vcost_job2",
        ratio(
            tracer.cpu_s("er.job2") * 1e9,
            staged_median(&|s| Some(s.job2_vcost)),
        ),
        "ns",
    );
    m.push(
        "er.vcost_to_recall80",
        quality.vcost_to_recall80.unwrap_or(0.0),
        "vcost",
    );
    m.push("er.total_vcost", quality.total_vcost, "vcost");

    m.push("mapreduce.map_s", shuffle.phases.map.as_secs_f64(), "s");
    m.push(
        "mapreduce.shuffle_s",
        shuffle.phases.shuffle.as_secs_f64(),
        "s",
    );
    m.push(
        "mapreduce.reduce_s",
        shuffle.phases.reduce.as_secs_f64(),
        "s",
    );
    m.push("mapreduce.shuffle_records", shuffle.records as f64, "count");
    m.push(
        "mapreduce.records_per_s",
        per_second(shuffle.records as f64, shuffle.wall_s),
        "1/s",
    );
    m.push("mapreduce.spill_s", spill.shuffle_s, "s");
    m.push("mapreduce.spill_bytes", spill.bytes as f64, "B");
    m.push("mapreduce.spill_runs", spill.runs as f64, "count");
    m.push(
        "mapreduce.spill_io_retries",
        spill.io_retries as f64,
        "count",
    );
    m.push("mapreduce.task_retries", spill.task_retries as f64, "count");

    m.push(
        "er.durable_overhead",
        ratio(wall("er.run_durable"), untraced_s),
        "ratio",
    );
    m.push(
        "er.checkpoint_cuts",
        journal_summary.checkpoint_cuts as f64,
        "count",
    );
    m.push("journal.bytes", journal_bytes as f64, "B");
    m.push("journal.events", journal_summary.events as f64, "count");
    m.push(
        "journal.append_s",
        wall("er.run_durable") - wall("er.run_durable_mem"),
        "s",
    );
    m.push("journal.recover_s", wall("journal.recover"), "s");

    m.push(
        "blocking.build_forests_s",
        wall("blocking.build_forests"),
        "s",
    );
    m.push("blocking.stats_s", wall("blocking.stats"), "s");
    m.push("blocking.trees", blocks.trees as f64, "count");
    m.push("blocking.blocks", blocks.blocks as f64, "count");
    m.push("schedule.generate_s", wall("schedule.generate"), "s");
    m.push(
        "schedule.blocks_scheduled",
        staged.last().map_or(0.0, |s| s.blocks_scheduled as f64),
        "count",
    );
    m.push(
        "progressive.pairs_per_s",
        per_second(pairs_generated as f64, wall("progressive.drain")),
        "1/s",
    );
    m.push(
        "progressive.pairs_generated",
        pairs_generated as f64,
        "count",
    );
    m.push("store.build_s", wall("store.build"), "s");
    m.push("store.bytes", store.bytes as f64, "B");
    m.push("store.open_s", wall("store.open"), "s");
    m.push(
        "store.scan_rows_per_s",
        per_second(ds.len() as f64, wall("store.scan")),
        "1/s",
    );
    m.push("datagen.generate_s", wall("datagen.generate"), "s");
    m.push(
        "datagen.entities_per_s",
        per_second(ds.len() as f64, wall("datagen.generate")),
        "1/s",
    );
    // Both on each span's fastest iteration: noise only ever adds time.
    let overhead = ratio(
        tracer.min_wall_s("er.try_run") + tracer.min_wall_s("er.basic"),
        tracer.min_wall_s("er.untraced"),
    );
    let staged_ratio = ratio(
        tracer.min_wall_s("er.staged"),
        tracer.min_wall_s("er.try_run"),
    );
    m.push("trace.overhead_ratio", overhead, "ratio");
    m.push("trace.staged_ratio", staged_ratio, "ratio");
    if overhead > 1.0 + TIMING_TOLERANCE {
        eprintln!("trace: warning: tracing slowed the whole call {overhead:.3} times");
    }
    if workload.is_pipeline() && (staged_ratio - 1.0).abs() > TIMING_TOLERANCE {
        eprintln!("trace: warning: the staged call took {staged_ratio:.3} times er.try_run");
    }

    let broken = m.non_finite();
    if !broken.is_empty() {
        return Err(format!("metrics are not finite: {}", broken.join(", ")));
    }

    // ---- Write the spans out, then the result ---------------------------------
    let spans_path = format!(
        "benchmark/out/spans-{}-seed{}.json",
        workload.name(),
        args.seed
    );
    let spans = map([
        ("workload", Value::Str(workload.name().into())),
        ("seed", Value::U64(args.seed)),
        ("nproc", Value::U64(nproc() as u64)),
        ("worker_threads", Value::U64(WORKER_THREADS as u64)),
        ("iterations", Value::U64(iterations as u64)),
        ("spans", tracer.to_value()),
    ]);
    let text = serde_json::to_string_pretty(&spans).map_err(|e| e.to_string())?;
    std::fs::write(&spans_path, text).map_err(|e| format!("{spans_path}: {e}"))?;
    eprintln!(
        "trace: {}: {} spans over {iterations} iterations written to {spans_path}",
        workload.name(),
        tracer.spans().len()
    );

    let failed = tally.failures.len() as u64;
    println!(
        "{}",
        result_line(
            failed == 0,
            tally.attempted,
            failed.min(tally.attempted),
            &m
        )
    );
    Ok(())
}

/// The pipeline staged from outside: job 1, schedule generation, job 2, each
/// in its own span, split further at the observer's phase barriers.
fn run_staged(tracer: &mut Tracer, exec: &Execution, ds: &Dataset) -> Result<Staged, String> {
    let er = &exec.er;
    let (job1, schedule, job2) = tracer.span("er.staged", |t| {
        let job1 = t.span("er.job1", |_| run_job1(ds, &er.config));
        let job1 = job1.map_err(|e| e.to_string())?;
        let schedule = t.span("schedule.generate", |_| {
            Arc::new(er.generate_schedule(ds, &job1.stats))
        });
        let job2 = t.span("er.job2", |_| {
            run_job2(ds, &er.config, Arc::clone(&schedule))
        });
        Ok::<_, String>((job1, schedule, job2.map_err(|e| e.to_string())?))
    })?;
    let marks = tracer.take_marks();
    let phases = |span: &str, job: &str| {
        tracer
            .last(span)
            .and_then(|s| JobPhases::of(s, job, &marks))
    };
    Ok(Staged {
        duplicates: job2.duplicates,
        total_vcost: job1.virtual_cost + job2.virtual_cost,
        job1: phases("er.job1", JOB1),
        job2: phases("er.job2", JOB2),
        job1_vcost: job1.virtual_cost,
        job2_vcost: job2.virtual_cost,
        blocks_scheduled: schedule.block_order.iter().map(|b| b.len() as u64).sum(),
    })
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

struct BlockingProbe {
    trees: usize,
    blocks: usize,
    /// Every root block's members in the order the mechanisms resolve them.
    sorted_roots: Vec<Vec<EntityId>>,
}

/// The local equivalent of job 1's reduce work: forests, then statistics.
fn probe_blocking(tracer: &mut Tracer, ds: &Dataset, config: &ErConfig) -> BlockingProbe {
    let families = &config.families;
    let forests = tracer.span("blocking.build_forests", |_| build_forests(ds, families));
    let stats = tracer.span("blocking.stats", |_| {
        DatasetStats::from_forests(ds, families, &forests)
    });
    let sorted_roots = forests
        .iter()
        .flat_map(|forest| {
            let family: &BlockingFamily = &families[forest.family];
            forest.trees.iter().map(move |tree| {
                sort_by_attrs(&tree.root().members, &[family.levels[0].attr, 0], ds)
            })
        })
        .collect();
    BlockingProbe {
        trees: stats.trees.len(),
        blocks: forests.iter().map(|f| f.num_blocks()).sum(),
        sorted_roots,
    }
}

struct KernelProbe {
    replay_pairs: u64,
    replay_matches: u64,
    /// Pairs of the replay set the batch kernel scored within its time budget.
    batch_pairs: u64,
    /// Of those, decisions that differ from the scalar kernel's (0 if correct).
    batch_mismatches: u64,
    /// Seconds inside `BlockScorer::matches_block`, candidate set-up excluded.
    batch_s: f64,
}

/// Replay the workload's comparison volume through the kernels alone, on one
/// thread: pairs at rank distance 1..window-1 of every sorted root block,
/// truncated to the number of pairs the pipeline compared. The batch kernel
/// scores the same pairs in the same order until `BATCH_BUDGET_S` is spent —
/// without the scalar path's threshold-aware early exit it needs a minute for
/// the publications' 350-character abstracts.
fn probe_kernels(
    tracer: &mut Tracer,
    ds: &Dataset,
    config: &ErConfig,
    sorted_roots: &[Vec<EntityId>],
    limit: u64,
) -> KernelProbe {
    const BATCH_BUDGET_S: f64 = 3.0;
    let rule = PreparedRule::new(config.rule.clone());
    let mut cache: PreparedCache<EntityId> = PreparedCache::new();
    tracer.span("simil.prepare", |_| {
        for e in &ds.entities {
            cache.ensure(&rule, e.id, &e.attrs);
        }
    });

    let mut scratch = SimScratch::new();
    let mut scalar: Vec<bool> = Vec::with_capacity(usize::try_from(limit).unwrap_or(0));
    tracer.span("simil.match", |_| {
        'blocks: for block in sorted_roots {
            let prepared: Vec<&PreparedEntity> = block.iter().map(|id| cache.get(id)).collect();
            for (i, a) in prepared.iter().enumerate() {
                for b in prepared.iter().skip(i + 1).take(BASIC_WINDOW - 1) {
                    if scalar.len() as u64 == limit {
                        break 'blocks;
                    }
                    scalar.push(rule.matches(a, b, &mut scratch));
                }
            }
        }
    });

    let mut scorer = BlockScorer::new();
    let mut decisions = Vec::new();
    let (mut done, mut batch_mismatches, mut batch_s) = (0usize, 0u64, 0.0f64);
    tracer.span("simil.batch", |_| {
        'blocks: for block in sorted_roots {
            let prepared: Vec<PreparedEntity> =
                block.iter().map(|id| cache.get(id).clone()).collect();
            for (i, probe) in prepared.iter().enumerate() {
                if done == scalar.len() || batch_s >= BATCH_BUDGET_S {
                    break 'blocks;
                }
                let end = (i + BASIC_WINDOW)
                    .min(prepared.len())
                    .min(i + 1 + (scalar.len() - done));
                let candidates = &prepared[i + 1..end];
                if candidates.is_empty() {
                    continue;
                }
                let start = Instant::now();
                scorer.matches_block(&rule, probe, candidates, &mut decisions);
                batch_s += start.elapsed().as_secs_f64();
                let expected = &scalar[done..done + decisions.len()];
                batch_mismatches += decisions
                    .iter()
                    .zip(expected)
                    .filter(|(d, e)| d != e)
                    .count() as u64;
                done += decisions.len();
            }
        }
    });
    KernelProbe {
        replay_pairs: scalar.len() as u64,
        replay_matches: scalar.iter().filter(|&&m| m).count() as u64,
        batch_pairs: done as u64,
        batch_mismatches,
        batch_s,
    }
}

/// Drain the workload's mechanism over every root block without matching:
/// what generating the pair order costs on its own.
fn probe_progressive(
    tracer: &mut Tracer,
    config: &ErConfig,
    sorted_roots: &[Vec<EntityId>],
) -> u64 {
    tracer.span("progressive.drain", |_| {
        let mut pairs = 0u64;
        for block in sorted_roots {
            let mut run = config.mechanism.start(block.clone(), BASIC_WINDOW);
            while let Some(pair) = run.next_pair() {
                std::hint::black_box(pair);
                run.feedback(false);
                pairs += 1;
            }
        }
        pairs
    })
}

/// Emits job-1-shaped records: one `((family, root key), entity)` per family.
struct ShapeMapper<'a, V> {
    families: &'a [BlockingFamily],
    wrap: fn(Entity) -> V,
}

impl<V: Send + Sync> Mapper for ShapeMapper<'_, V> {
    type Input = Entity;
    type Key = BlockKey;
    type Value = V;

    fn map(&self, entity: &Entity, _ctx: &mut TaskContext, out: &mut Emitter<BlockKey, V>) {
        for (f, family) in self.families.iter().enumerate() {
            out.emit(
                (f as u8, family.root_key(entity)),
                (self.wrap)(entity.clone()),
            );
        }
    }
}

/// Counts each group's values and does nothing else.
struct CountReducer<V>(PhantomData<V>);

impl<V: Send + Sync> Reducer for CountReducer<V> {
    type Key = BlockKey;
    type Value = V;
    type Output = u64;

    fn reduce(&self, _key: &BlockKey, values: &[V], _ctx: &mut TaskContext, out: &mut Vec<u64>) {
        out.push(values.len() as u64);
    }
}

fn probe_job_config(config: &ErConfig, threads: usize) -> JobConfig {
    let mut job = JobConfig::new("bench-shuffle", config.cluster());
    job.worker_threads = Some(threads);
    job.executor = config.executor;
    job
}

struct ShuffleProbe {
    phases: WallPhases,
    records: u64,
    wall_s: f64,
    two_threads_s: f64,
}

/// The MapReduce runtime alone: map, shuffle and reduce of job-1-shaped
/// records with no work in the reducer.
fn probe_mapreduce(
    tracer: &mut Tracer,
    ds: &Dataset,
    config: &ErConfig,
) -> Result<ShuffleProbe, String> {
    let mapper = ShapeMapper {
        families: &config.families,
        wrap: |e| e,
    };
    let reducer = GroupReducer::new(CountReducer(PhantomData));
    let mut job_at = |span: &'static str, threads: usize| {
        tracer
            .span(span, |_| {
                run_job(
                    &probe_job_config(config, threads),
                    &mapper,
                    &reducer,
                    &ds.entities,
                )
            })
            .map_err(|e| e.to_string())
    };
    let result = job_at("mapreduce.job", WORKER_THREADS)?;
    let parallel = job_at("mapreduce.job_two_threads", PARALLEL_THREADS)?;
    let grouped: u64 = result.outputs.iter().sum();
    if grouped != result.shuffle_records || parallel.outputs != result.outputs {
        return Err(format!(
            "shuffle probe lost records: {grouped} grouped of {} shuffled",
            result.shuffle_records
        ));
    }
    Ok(ShuffleProbe {
        phases: result.wall_phases,
        records: result.shuffle_records,
        wall_s: result.wall_clock.as_secs_f64(),
        two_threads_s: parallel.wall_clock.as_secs_f64(),
    })
}

#[derive(Default)]
struct SpillProbe {
    shuffle_s: f64,
    bytes: u64,
    runs: u64,
    io_retries: u64,
    task_retries: u64,
}

/// The same job through the spilling shuffle, with the workload's budget.
fn probe_spill(
    tracer: &mut Tracer,
    ds: &Dataset,
    config: &ErConfig,
    tmp: &TmpRoot,
) -> Result<SpillProbe, String> {
    let dir = tmp.fresh("spill-probe")?;
    std::fs::create_dir_all(dir.join("spill")).map_err(|e| e.to_string())?;
    let mapper = ShapeMapper {
        families: &config.families,
        wrap: SpillEntity,
    };
    let reducer = GroupReducer::new(CountReducer(PhantomData));
    let job = probe_job_config(config, WORKER_THREADS);
    let result = tracer
        .span("mapreduce.job_spilling", |_| {
            run_job_spilling(&job, &mapper, &reducer, &spill_config(&dir), &ds.entities)
        })
        .map_err(|e| e.to_string())?;
    Ok(SpillProbe {
        shuffle_s: result.wall_phases.shuffle.as_secs_f64(),
        bytes: result.counters.get("shuffle_spill_bytes"),
        runs: result.counters.get("shuffle_spill_runs"),
        io_retries: result.counters.get("shuffle_spill_io_retries"),
        task_retries: result.counters.get("task_retries"),
    })
}

struct StoreProbe {
    bytes: u64,
}

/// The columnar store alone: build it from the dataset, open it, read every
/// attribute back.
fn probe_store(tracer: &mut Tracer, ds: &Dataset, tmp: &TmpRoot) -> Result<StoreProbe, String> {
    let path = tmp.fresh("store-probe")?.join("entities.store");
    let summary = tracer
        .span("store.build", |_| {
            let mut builder = StoreBuilder::create(&path, ds.schema.len(), true)?;
            for e in &ds.entities {
                builder.push(&e.attrs, Some(ds.truth.cluster(e.id)))?;
            }
            builder.finish()
        })
        .map_err(|e| e.to_string())?;
    let store = tracer
        .span("store.open", |_| EntityStore::open(&path))
        .map_err(|e| e.to_string())?;
    let scanned = tracer.span("store.scan", |_| {
        let mut bytes = 0u64;
        for e in 0..store.len() {
            for a in 0..store.num_attrs() {
                bytes += std::hint::black_box(store.attr_bytes(e, a)).len() as u64;
            }
        }
        bytes
    });
    if store.len() != ds.len() as u64 || scanned != summary.arena_bytes {
        return Err(format!(
            "store probe read {scanned} bytes of {} rows back, wrote {} bytes of {} rows",
            store.len(),
            summary.arena_bytes,
            ds.len()
        ));
    }
    Ok(StoreProbe {
        bytes: summary.file_bytes,
    })
}
