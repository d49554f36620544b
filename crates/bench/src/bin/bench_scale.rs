//! Paper-scale run of the two-job pipeline (§VI-A2's dataset families at
//! 1M entities each).
//!
//! A staged driver of the product's own entry points — generate, `run_job1`,
//! `ProgressiveEr::generate_schedule`, `run_job2` — on a books and a
//! publications dataset in turn, μ = 10 machines. Each dataset runs in a
//! process of its own (the binary runs itself with `--kind books`, then
//! `--kind pubs`, and gathers what each prints), so each stage's peak-RSS
//! reading is that dataset's alone. Each stage is timed and followed by
//! that reading; pair and duplicate counts come from the job counters,
//! recall from a `RecallCurve` over job 2's timeline, and the bytes of job
//! 1's side data from the statistics it hands the schedule.
//!
//! ```text
//! bench_scale                      # 1M books, then 1M publications
//! bench_scale --entities 200000
//! bench_scale --quick              # CI smoke (50k each)
//! bench_scale --kind books         # one dataset; prints its records and notes
//! ```
//!
//! Emits `BENCH_scale.json` under `--out` (default `target/experiments`).

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pper_bench::{BenchRecord, BenchReport, ExpOptions};
use pper_datagen::{BookGen, Dataset, PubGen};
use pper_er::job2::run_job2;
use pper_er::{run_job1, unpack_pair, ErConfig, ProgressiveEr, RecallCurve};

const MACHINES: usize = 10;

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`);
/// 0 where procfs is unavailable.
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    parse_vm_hwm(&status).unwrap_or(0)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run stage `name` of dataset `label`, record its wall time over `entities`
/// (so `ops/sec` reads entities per second) and note the process's peak RSS
/// once it is done.
fn timed<T>(
    report: &mut BenchReport,
    label: &str,
    name: &str,
    entities: usize,
    stage: impl FnOnce() -> T,
) -> T {
    let name = format!("{label}/{name}");
    let start = Instant::now();
    let out = stage();
    let elapsed = start.elapsed();
    report.note(format!(
        "{name}: {:.2} s, peak RSS {} MiB",
        elapsed.as_secs_f64(),
        peak_rss_kib() / 1024
    ));
    report.push(BenchRecord::from_total(name, entities as u64, elapsed));
    out
}

/// Generate one dataset and take it through job 1, schedule generation and
/// job 2, stage by stage.
fn run_pipeline(
    report: &mut BenchReport,
    label: &str,
    config: ErConfig,
    entities: usize,
    generate: impl FnOnce() -> Dataset,
) {
    report.note(format!(
        "{label}: peak RSS {} MiB before generate",
        peak_rss_kib() / 1024
    ));
    let er = ProgressiveEr::new(config);
    let ds = timed(report, label, "generate", entities, generate);
    let job1 = timed(report, label, "job1", entities, || {
        run_job1(&ds, &er.config).expect("job 1")
    });
    let side_data = job1.stats.placement.bytes();
    report.note(format!(
        "{label}: side data {:.1} MiB, {:.0} B per entity (a rank and a block id per family)",
        side_data as f64 / (1024.0 * 1024.0),
        side_data as f64 / entities.max(1) as f64
    ));
    let schedule = timed(report, label, "schedule", entities, || {
        Arc::new(er.generate_schedule(&ds, &job1.stats))
    });
    let job2 = timed(report, label, "job2", entities, || {
        run_job2(&ds, &er.config, schedule).expect("job 2")
    });

    let truth = &ds.truth;
    let curve =
        RecallCurve::from_timeline_where(&job2.timeline, truth.total_duplicate_pairs(), |v| {
            let (a, b) = unpack_pair(v);
            truth.is_duplicate(a, b)
        });
    // Job 2's clock starts where job 1's stopped.
    let vcost_to_recall50 = curve.time_to_recall(0.5).map(|c| job1.virtual_cost + c);
    let pairs_compared = job2.counters.get("pairs_compared");
    let duplicates_found = job2.counters.get("duplicates_found");
    report.note(format!(
        "{label}: pairs_compared {pairs_compared}, duplicates_found {duplicates_found} ({} distinct), \
         final_recall {:.3} of {} ground-truth pairs, vcost_to_recall50 {}, total vcost {:.0}",
        job2.duplicates.len(),
        curve.final_recall(),
        truth.total_duplicate_pairs(),
        vcost_to_recall50.map_or("unreached".into(), |c| format!("{c:.0}")),
        job1.virtual_cost + job2.virtual_cost,
    ));
    // Job 2's record is the last one pushed.
    let job2_ns = report
        .records
        .last()
        .map_or(0.0, |r| r.ns_per_op * r.iterations as f64);
    report.note(format!(
        "{label}: job 2 {:.0} ns per compared pair",
        job2_ns / pairs_compared.max(1) as f64
    ));
    // A pair two trees both report counts twice and is kept once.
    assert!(
        duplicates_found >= job2.duplicates.len() as u64,
        "{label}: {duplicates_found} duplicates counted, {} kept",
        job2.duplicates.len()
    );
    assert!(
        curve.final_recall() >= 0.75,
        "{label}: final recall {:.3} below 0.75",
        curve.final_recall()
    );
}

/// Run dataset `kind` in this process and print its records and notes, one
/// per tab-separated line, for [`gather`].
fn run_kind(kind: &str, entities: usize, seed: u64) {
    let mut report = BenchReport::new("scale", kind);
    match kind {
        "books" => run_pipeline(
            &mut report,
            "books",
            ErConfig::books(MACHINES),
            entities,
            || BookGen::new(entities, seed).generate(),
        ),
        "pubs" => run_pipeline(
            &mut report,
            "pubs",
            ErConfig::citeseer(MACHINES),
            entities,
            || PubGen::new(entities, seed).generate(),
        ),
        other => panic!("--kind takes books or pubs, not {other}"),
    }
    for r in &report.records {
        let nanos = (r.ns_per_op * r.iterations as f64).round();
        println!("record\t{}\t{}\t{nanos}", r.name, r.iterations);
    }
    for note in &report.notes {
        println!("note\t{note}");
    }
}

/// Run `bench_scale <args> --kind <kind>` as a child process and add what
/// it prints to `report`.
fn gather(report: &mut BenchReport, args: &[String], kind: &str) -> std::io::Result<()> {
    let out = Command::new(std::env::current_exe()?)
        .args(args)
        .args(["--kind", kind])
        .stderr(Stdio::inherit())
        .output()?;
    assert!(
        out.status.success(),
        "bench_scale --kind {kind} failed: {}",
        out.status
    );
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        match line.split('\t').collect::<Vec<_>>()[..] {
            ["note", note] => report.note(note),
            ["record", name, iterations, nanos] => {
                let (Ok(iterations), Ok(nanos)) = (iterations.parse(), nanos.parse::<f64>()) else {
                    panic!("bench_scale --kind {kind} printed a malformed record: {line}");
                };
                let elapsed = Duration::from_nanos(nanos as u64);
                report.push(BenchRecord::from_total(name, iterations, elapsed));
            }
            _ => panic!("bench_scale --kind {kind} printed an unexpected line: {line}"),
        }
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let kind = args.iter().position(|a| a == "--kind").map(|at| {
        let kind = args.get(at + 1).cloned().expect("--kind takes a value");
        args.drain(at..at + 2);
        kind
    });
    let opts = ExpOptions::parse(1_000_000, args.iter().cloned()).unwrap_or_else(|e| panic!("{e}"));
    let entities = if opts.quick { 50_000 } else { opts.entities };
    if let Some(kind) = kind {
        run_kind(&kind, entities, opts.seed);
        return Ok(());
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut report = BenchReport::new(
        "scale",
        format!(
            "two-job pipeline at scale: {entities} books, then {entities} publications, \
             each in a process of its own; μ = {MACHINES}, seed {}, available_parallelism {threads}",
            opts.seed
        ),
    );
    for kind in ["books", "pubs"] {
        gather(&mut report, &args, kind)?;
    }
    report.emit(&opts.out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tbench\nVmPeak:\t  100 kB\nVmHWM:\t  4321 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(4321));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }
}
