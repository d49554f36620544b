//! Paper-scale run of the two-job pipeline (§VI-A2's dataset families at
//! 1M entities each).
//!
//! A staged driver of the product's own entry points — generate, `run_job1`,
//! `ProgressiveEr::generate_schedule`, `run_job2` — on a books and a
//! publications dataset in turn, μ = 10 machines. Each stage is timed and
//! followed by a peak-RSS reading; pair and duplicate counts come from the
//! job counters, recall from a `RecallCurve` over job 2's timeline.
//!
//! ```text
//! bench_scale                      # 1M books, then 1M publications
//! bench_scale --entities 200000
//! bench_scale --quick              # CI smoke (50k each)
//! ```
//!
//! Emits `BENCH_scale.json` under `--out` (default `target/experiments`).

use std::sync::Arc;
use std::time::Instant;

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
    // Start this dataset's peak-RSS readings over (Linux: `5` resets VmHWM).
    std::fs::write("/proc/self/clear_refs", "5").ok();
    report.note(format!(
        "{label}: peak RSS {} MiB before generate",
        peak_rss_kib() / 1024
    ));
    let er = ProgressiveEr::new(config);
    let ds = timed(report, label, "generate", entities, generate);
    let job1 = timed(report, label, "job1", entities, || {
        run_job1(&ds, &er.config).expect("job 1")
    });
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

fn main() -> std::io::Result<()> {
    let opts = ExpOptions::from_args(1_000_000);
    let entities = if opts.quick { 50_000 } else { opts.entities };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut report = BenchReport::new(
        "scale",
        format!(
            "two-job pipeline at scale: {entities} books, then {entities} publications; \
             μ = {MACHINES}, seed {}, available_parallelism {threads}",
            opts.seed
        ),
    );
    run_pipeline(
        &mut report,
        "books",
        ErConfig::books(MACHINES),
        entities,
        || BookGen::new(entities, opts.seed).generate(),
    );
    run_pipeline(
        &mut report,
        "pubs",
        ErConfig::citeseer(MACHINES),
        entities,
        || PubGen::new(entities, opts.seed).generate(),
    );
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
