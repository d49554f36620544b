//! The end-to-end pass of one workload: system allocator, no observer, no
//! spans, one worker thread. Set-up several times, one untimed reference
//! execution of every dataset, then timed executions in a closed loop, one at
//! a time, round-robin over the datasets, each verified, for `--seconds`.
//!
//! Every timed piece runs between two calibrations, and what is reported is
//! the median of the normalized times (see `Calibration`).
//!
//! Prints a detail line (samples and stamp, for the front-end's report) and,
//! last, the result line.

use std::process::ExitCode;
use std::time::Instant;

use pper_benchmark::measure::{
    map, median, nproc, numbers, peak_rss_mib, reset_peak_rss, result_line, timed, trim_heap, Args,
    Calibration, Metrics, CALIBRATION_NOMINAL_S,
};
use pper_benchmark::verify::{check_journal, oracle_rejections, Quality};
use pper_benchmark::workload::{TmpRoot, Workload, MACHINES, SHARDS, WORKER_THREADS};
use pper_datagen::Dataset;
use pper_er::ResultFingerprint;
use serde::Value;

/// Times the set-up (generation of every dataset and execution preparation)
/// is repeated before the first execution.
const SETUP_REPS: usize = 7;
/// Fewest timed executions of each dataset, however short `--seconds` is. The
/// benchmark's own run length gives four or more on the host it was sized on.
const MIN_ROUNDS: usize = 2;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("run: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let tmp = TmpRoot::create()?;
    let calibration = Calibration::new();
    let mut calibration_factors = Vec::new();

    // ---- Set-up, repeated -------------------------------------------------
    let mut setup_raw = Vec::new();
    let mut setup_samples = Vec::new();
    let mut datasets: Vec<Dataset> = Vec::new();
    for _ in 0..SETUP_REPS {
        datasets.clear(); // never two generations alive here
        let dir = tmp.fresh("set-up")?;
        let (seconds, factor) = calibration.around(|| -> Result<f64, String> {
            let start = Instant::now();
            datasets = workload.generate_all(args.seed);
            workload.prepare(WORKER_THREADS, &dir, None)?;
            Ok(start.elapsed().as_secs_f64())
        });
        let seconds = seconds?;
        setup_raw.push(seconds);
        setup_samples.push(seconds * factor);
        calibration_factors.push(factor);
    }

    // ---- Reference executions, untimed ------------------------------------
    // The warm-up, and for each dataset the result every timed execution of
    // it must reproduce (the traced pass checks one worker thread against
    // two). `books-durable` takes the plain pipeline as its reference: the
    // journaled, checkpointed run must reproduce it.
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut references = Vec::new();
    let mut qualities = Vec::new();
    for (shard, ds) in datasets.iter().enumerate() {
        let exec = workload.prepare(WORKER_THREADS, &tmp.fresh("reference")?, None)?;
        let reference = exec
            .run_unjournaled(ds)
            .map_err(|e| format!("reference execution of dataset {shard} failed: {e}"))?;
        let quality = Quality::of(workload, ds, &reference);
        let mut problems = quality.missed_targets();
        let rejected = oracle_rejections(&exec.er.config.rule, ds, &reference);
        if rejected > 0 {
            problems.push(format!(
                "string-path oracle rejects {rejected} of {} reported duplicates",
                reference.duplicates.len()
            ));
        }
        references.push((ResultFingerprint::of(&reference), problems));
        qualities.push(quality);
    }
    // The floors are the workload's: below them, every reference has failed.
    let quality = Quality::mean(&qualities);
    let below_floors = quality.below_floors(workload);
    let references: Vec<(ResultFingerprint, bool)> = references
        .into_iter()
        .enumerate()
        .map(|(shard, (print, mut problems))| {
            problems.extend(below_floors.iter().cloned());
            attempted += 1;
            if !problems.is_empty() {
                failures.push(format!(
                    "reference of dataset {shard}: {}",
                    problems.join("; ")
                ));
            }
            (print, problems.is_empty())
        })
        .collect();

    // ---- Timed executions, closed loop ------------------------------------
    let mut wall_raw = Vec::new();
    let mut wall_samples = Vec::new();
    let mut cpu_samples = Vec::new();
    let mut rss_samples = Vec::new();
    let started = Instant::now();
    for execution in 0.. {
        if execution >= MIN_ROUNDS * SHARDS && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let shard = execution % SHARDS;
        let (reference_print, reference_passed) = &references[shard];
        let dir = tmp.fresh("execution")?;
        let exec = workload.prepare(WORKER_THREADS, &dir, None)?;
        trim_heap();
        let per_execution_rss = reset_peak_rss();
        let ((result, time), factor) = calibration.around(|| timed(|| exec.run(&datasets[shard])));
        let rss = peak_rss_mib();
        attempted += 1;
        let problem = match &result {
            Err(e) => Some(format!("returned an error: {e}")),
            Ok(r) if ResultFingerprint::of(r) != *reference_print => {
                Some("fingerprint differs from the reference execution".to_string())
            }
            // A failed reference fails every execution that reproduces it.
            Ok(_) if !reference_passed => Some("reproduces a failed reference".to_string()),
            Ok(r) => match &exec.journal {
                Some(journal) => check_journal(journal, r).err(),
                None => None,
            },
        };
        match problem {
            Some(why) => failures.push(format!("execution {execution} of dataset {shard}: {why}")),
            None => {
                // Time on the processor is normalized; time spent blocked
                // (the journal's fsyncs) is not the host's speed.
                let blocked_s = (time.wall_s - time.cpu_s).max(0.0);
                wall_raw.push(time.wall_s);
                wall_samples.push(time.cpu_s * factor + blocked_s);
                cpu_samples.push(time.cpu_s * factor);
                calibration_factors.push(factor);
                if per_execution_rss {
                    rss_samples.push(rss);
                }
            }
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    for failure in &failures {
        eprintln!("run: {}: FAILED {failure}", workload.name());
    }
    let (false, Some(vcost_to_recall50)) = (wall_samples.is_empty(), quality.vcost_to_recall50)
    else {
        return Err("no result to report".into());
    };

    // ---- Report ------------------------------------------------------------
    let mut metrics = Metrics::new();
    metrics.push("setup_s", median(&setup_samples), "s");
    metrics.push("wall_s", median(&wall_samples), "s");
    metrics.push("cpu_s", median(&cpu_samples), "s");
    // The median of the per-execution peaks; where the kernel's mark cannot
    // be reset, the peak of the whole process.
    let peak_rss = if rss_samples.is_empty() {
        peak_rss_mib()
    } else {
        median(&rss_samples)
    };
    metrics.push("peak_rss_mib", peak_rss, "MiB");
    metrics.push("final_recall", quality.final_recall, "ratio");
    metrics.push("precision", quality.precision, "ratio");
    metrics.push("auc_recall", quality.auc_recall, "ratio");
    metrics.push("vcost_to_recall50", vcost_to_recall50, "vcost");

    let failed = failures.len() as u64;
    let detail = map([
        ("workload", Value::Str(workload.name().into())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("nproc", Value::U64(nproc() as u64)),
        ("worker_threads", Value::U64(WORKER_THREADS as u64)),
        ("machines", Value::U64(MACHINES as u64)),
        ("tmp_filesystem", Value::Str(tmp.filesystem())),
        ("datasets", Value::U64(SHARDS as u64)),
        ("entities", Value::U64(workload.entities() as u64)),
        ("calibration_nominal_s", Value::F64(CALIBRATION_NOMINAL_S)),
        (
            "samples",
            map([
                ("setup_s", numbers(&setup_samples)),
                ("wall_s", numbers(&wall_samples)),
                ("cpu_s", numbers(&cpu_samples)),
                ("peak_rss_mib", numbers(&rss_samples)),
                // As the clock read them, and the factors the times were
                // normalized with (the set-ups' first).
                ("setup_raw_s", numbers(&setup_raw)),
                ("wall_raw_s", numbers(&wall_raw)),
                ("calibration_factor", numbers(&calibration_factors)),
            ]),
        ),
        (
            "failures",
            Value::Seq(failures.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&map([("detail", detail)])).map_err(|e| e.to_string())?
    );
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}
