//! `pper` — command-line front end for the parallel progressive ER pipeline.
//!
//! The subcommands and their flags are in [`USAGE`] (`pper help`).
//!
//! `gen` writes a synthetic dataset (entities + exact ground truth) as
//! JSON-lines; `run` executes the paper's two-job pipeline and prints the
//! recall curve, with `--durable` journaling every job event so that
//! `resume` can continue a killed job in a fresh process, `dlq` can list or
//! reprocess tasks that exhausted their attempt budget and `jobs` can say how
//! far every journaled job got; `basic` runs the §II-C baseline for
//! comparison.

// D2: no wall clock (the root `clippy.toml`).
#![deny(clippy::disallowed_methods)]

use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

use pper::datagen::{BookGen, Dataset, PubGen};
use pper::er::{
    reprocess_dlq, resume_durable, run_durable, BasicApproach, BasicConfig, DurableOptions,
    ErConfig, ErRunResult, MechanismKind, ProgressiveEr, ResultFingerprint,
};
use pper::journal::{recover, FileStore, JournalState, JournalStore};
use pper::mapreduce::{ExecutorKind, FaultPlan};
use pper::schedule::TreeScheduler;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command.as_str() {
        "gen" => cmd_gen(&opts),
        "run" => cmd_run(&opts),
        "basic" => cmd_basic(&opts),
        "resume" => cmd_resume(&opts),
        "dlq" => cmd_dlq(&opts),
        "jobs" => cmd_jobs(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pper — parallel progressive entity resolution (Altowim & Mehrotra, ICDE 2017)

USAGE:
  pper gen    --kind pubs|books --entities N [--seed S] --out FILE
  pper run    --data FILE [--machines M] [--mechanism sn|psnm]
              [--scheduler ours|nosplit|lpt] [--result-out FILE]
              [--durable --journal DIR --job-id ID [--checkpoint-every COST]
               [--kill-after-events N] [--fail-reduce IDX:N]]
  pper resume --journal DIR --job-id ID [--data FILE] [--result-out FILE]
              [--kill-after-events N]
  pper dlq    --journal DIR --job-id ID [--reprocess] [--result-out FILE]
  pper jobs   --journal DIR
  pper basic  --data FILE [--machines M] [--window W] [--threshold T]
  pper help

Durable mode journals every job event under --journal DIR (fsync'd in
groups, and before anything is reported), and a job id names one run:
`run --durable` refuses an id whose journal already holds records.
`resume` continues a killed job bit-identically in a fresh process, `dlq`
lists or reprocesses tasks that exhausted their attempt budget, and `jobs`
lists every job with how far its checkpoints reach.";

#[derive(Default)]
struct Opts {
    kind: Option<String>,
    entities: Option<usize>,
    seed: Option<u64>,
    out: Option<String>,
    data: Option<String>,
    machines: Option<usize>,
    mechanism: Option<String>,
    scheduler: Option<String>,
    window: Option<usize>,
    threshold: Option<f64>,
    durable: bool,
    journal: Option<String>,
    job_id: Option<String>,
    checkpoint_every: Option<f64>,
    kill_after_events: Option<u64>,
    fail_reduce: Option<String>,
    result_out: Option<String>,
    reprocess: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut take = || {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--kind" => opts.kind = Some(take()?),
                "--entities" => opts.entities = Some(parse(&take()?)?),
                "--seed" => opts.seed = Some(parse(&take()?)?),
                "--out" => opts.out = Some(take()?),
                "--data" => opts.data = Some(take()?),
                "--machines" => opts.machines = Some(parse(&take()?)?),
                "--mechanism" => opts.mechanism = Some(take()?),
                "--scheduler" => opts.scheduler = Some(take()?),
                "--window" => opts.window = Some(parse(&take()?)?),
                "--threshold" => opts.threshold = Some(parse(&take()?)?),
                "--durable" => opts.durable = true,
                "--journal" => opts.journal = Some(take()?),
                "--job-id" => opts.job_id = Some(take()?),
                "--checkpoint-every" => opts.checkpoint_every = Some(parse(&take()?)?),
                "--kill-after-events" => opts.kill_after_events = Some(parse(&take()?)?),
                "--fail-reduce" => opts.fail_reduce = Some(take()?),
                // Retired: one dispatch backend is left, so the value is
                // checked and dropped (old scripts keep working).
                "--executor" => {
                    ExecutorKind::parse(&take()?)?;
                }
                "--result-out" => opts.result_out = Some(take()?),
                "--reprocess" => opts.reprocess = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(opts)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse value '{s}'"))
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let kind = opts.kind.as_deref().unwrap_or("pubs");
    let n = opts.entities.unwrap_or(10_000);
    let seed = opts.seed.unwrap_or(42);
    let out = opts.out.as_deref().ok_or("gen needs --out FILE")?;
    let ds = match kind {
        "pubs" => PubGen::new(n, seed).generate(),
        "books" => BookGen::new(n, seed).generate(),
        other => return Err(format!("unknown dataset kind '{other}' (pubs|books)")),
    };
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    ds.write_jsonl(std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} entities, {} true duplicate pairs) to {out}",
        ds.name,
        ds.len(),
        ds.truth.total_duplicate_pairs()
    );
    Ok(())
}

fn load(path: Option<&str>) -> Result<Dataset, String> {
    let path = path.ok_or("no dataset named; pass --data FILE")?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    Dataset::read_jsonl(BufReader::new(file)).map_err(|e| e.to_string())
}

/// Pick the preset matching the dataset's schema.
fn config_for(ds: &Dataset, machines: usize) -> Result<ErConfig, String> {
    match ds.schema.len() {
        5 => Ok(ErConfig::citeseer(machines)),
        8 => Ok(ErConfig::books(machines)),
        other => Err(format!(
            "unrecognized schema with {other} attributes; expected 5 (pubs) or 8 (books)"
        )),
    }
}

fn print_curve(result: &pper::er::ErRunResult) {
    println!("\n{:>14} {:>10}", "cost", "recall");
    for (cost, recall) in result.curve.sample(result.total_cost, 12) {
        println!("{cost:>14.0} {recall:>10.3}");
    }
    println!(
        "\nfinal recall {:.3}  precision {:.3}  total cost {:.0}  overhead {:.0}",
        result.curve.final_recall(),
        result.precision,
        result.total_cost,
        result.overhead_cost
    );
    println!(
        "comparisons {}  redundant skips {}  duplicates {}",
        result.counters.get("pairs_compared"),
        result.counters.get("pairs_skipped_redundant"),
        result.duplicates.len()
    );
}

/// Build the run configuration from CLI-shaped settings. `resume` and
/// `dlq` feed journaled `JobStarted` parameters through the same path, so
/// a fresh process reconstructs the exact configuration of the original
/// run.
fn build_run_config(
    ds: &Dataset,
    machines: usize,
    mechanism: Option<&str>,
    scheduler: Option<&str>,
    fail_reduce: Option<&str>,
) -> Result<ErConfig, String> {
    let mut config = config_for(ds, machines)?;
    if let Some(m) = mechanism {
        config.mechanism = match m {
            "sn" => MechanismKind::Sn,
            "psnm" => MechanismKind::Psnm,
            other => return Err(format!("unknown mechanism '{other}'")),
        };
    }
    if let Some(s) = scheduler {
        config.schedule.scheduler = match s {
            "ours" => TreeScheduler::Progressive,
            "nosplit" => TreeScheduler::NoSplit,
            "lpt" => TreeScheduler::Lpt,
            other => return Err(format!("unknown scheduler '{other}'")),
        };
    }
    if let Some(spec) = fail_reduce {
        let (idx, n) = spec
            .split_once(':')
            .ok_or_else(|| format!("--fail-reduce wants IDX:N, got '{spec}'"))?;
        config.faults = Some(FaultPlan::fail_reduce(parse(idx)?, parse(n)?));
    }
    Ok(config)
}

/// Write the bit-exact result fingerprint where `--result-out` points, for
/// cross-process byte-for-byte comparison.
fn write_result_out(opts: &Opts, result: &ErRunResult) -> Result<(), String> {
    if let Some(path) = opts.result_out.as_deref() {
        let json = ResultFingerprint::of(result)
            .to_json()
            .map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn open_journal(opts: &Opts) -> Result<(Arc<dyn JournalStore>, String), String> {
    let dir = opts.journal.as_deref().ok_or("need --journal DIR")?;
    let job_id = opts.job_id.as_deref().ok_or("need --job-id ID")?;
    let store = FileStore::shared(dir).map_err(|e| e.to_string())?;
    Ok((store, job_id.to_string()))
}

fn durable_options(opts: &Opts) -> DurableOptions {
    let default = DurableOptions::default();
    DurableOptions {
        checkpoint_every: opts.checkpoint_every.unwrap_or(default.checkpoint_every),
        kill_after_events: opts.kill_after_events,
    }
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let ds = load(opts.data.as_deref())?;
    let machines = opts.machines.unwrap_or(4);
    let config = build_run_config(
        &ds,
        machines,
        opts.mechanism.as_deref(),
        opts.scheduler.as_deref(),
        opts.fail_reduce.as_deref(),
    )?;
    println!(
        "dataset {} ({} entities, {} true pairs); μ = {machines}, mechanism {}, scheduler {:?}",
        ds.name,
        ds.len(),
        ds.truth.total_duplicate_pairs(),
        config.mechanism.name(),
        config.schedule.scheduler,
    );

    let result = if opts.durable {
        let (store, job_id) = open_journal(opts)?;
        // Record everything `pper resume` needs to rebuild this exact
        // configuration in a fresh process (`run_durable` adds the machine
        // count).
        let mut params: Vec<(String, String)> = Vec::new();
        if let Some(data) = opts.data.as_deref() {
            params.push(("data".into(), data.to_string()));
        }
        for (key, val) in [
            ("mechanism", opts.mechanism.as_deref()),
            ("scheduler", opts.scheduler.as_deref()),
            ("fail_reduce", opts.fail_reduce.as_deref()),
        ] {
            if let Some(v) = val {
                params.push((key.into(), v.to_string()));
            }
        }
        let dopts = durable_options(opts);
        let er = ProgressiveEr::new(config);
        run_durable(&er, &ds, &store, &job_id, &params, &dopts).map_err(|e| e.to_string())?
    } else {
        ProgressiveEr::new(config)
            .try_run(&ds)
            .map_err(|e| e.to_string())?
    };
    print_curve(&result);
    write_result_out(opts, &result)
}

/// Recover a job's journal (dropping any torn tail from a mid-append kill)
/// and fold the surviving events into the resume state.
fn recover_job(opts: &Opts) -> Result<(Arc<dyn JournalStore>, String, JournalState), String> {
    let (store, job_id) = open_journal(opts)?;
    let rec = recover(&store, &job_id).map_err(|e| e.to_string())?;
    if !rec.report.clean() {
        eprintln!(
            "journal recovery: dropped {} trailing byte(s){}",
            rec.report.dropped_bytes,
            if rec.report.torn_tail {
                " (torn record from a mid-append kill)"
            } else {
                " (corruption)"
            }
        );
    }
    Ok((store, job_id, JournalState::replay(&rec.events)))
}

/// Rebuild the dataset and pipeline a journaled job ran with, from its
/// `JobStarted` parameters (with `--data` as an override for relocated
/// dataset files).
fn rebuild_pipeline(opts: &Opts, state: &JournalState) -> Result<(Dataset, ProgressiveEr), String> {
    let ds = load(opts.data.as_deref().or_else(|| state.param("data")))?;
    let machines = parse(
        state
            .param("machines")
            .ok_or("journal has no 'machines' parameter")?,
    )?;
    // Journals written before the second dispatch backend was retired
    // carry its name; it selects nothing now but is still outside input.
    if let Some(e) = state.param("executor") {
        ExecutorKind::parse(e)?;
    }
    let config = build_run_config(
        &ds,
        machines,
        state.param("mechanism"),
        state.param("scheduler"),
        state.param("fail_reduce"),
    )?;
    Ok((ds, ProgressiveEr::new(config)))
}

fn cmd_resume(opts: &Opts) -> Result<(), String> {
    let (store, job_id, state) = recover_job(opts)?;
    let (ds, er) = rebuild_pipeline(opts, &state)?;
    println!(
        "resuming job '{job_id}': {} task event(s) journaled; {}",
        state.tasks_finished,
        state.progress()
    );
    let dopts = durable_options(opts);
    let result = resume_durable(&er, &ds, &store, &job_id, &dopts).map_err(|e| e.to_string())?;
    print_curve(&result);
    write_result_out(opts, &result)
}

fn cmd_dlq(opts: &Opts) -> Result<(), String> {
    let (store, job_id, state) = recover_job(opts)?;
    if !opts.reprocess {
        if state.dlq.is_empty() {
            println!("job '{job_id}': dead-letter queue is empty");
            return Ok(());
        }
        println!("job '{job_id}': {} dead-lettered task(s)", state.dlq.len());
        for entry in &state.dlq {
            println!(
                "  #{} {}-{} after {} attempt(s); last error: {}",
                entry.seq,
                entry.kind.name(),
                entry.index,
                entry.attempts,
                entry.failures.last().map_or("<none>", |f| f.error.as_str())
            );
            println!("     job: {}", entry.job);
        }
        return Ok(());
    }
    let (ds, er) = rebuild_pipeline(opts, &state)?;
    println!(
        "job '{job_id}': reprocessing {} dead-lettered task(s) with fault injection cleared",
        state.dlq.len()
    );
    let dopts = durable_options(opts);
    let result = reprocess_dlq(&er, &ds, &store, &job_id, &dopts).map_err(|e| e.to_string())?;
    print_curve(&result);
    write_result_out(opts, &result)
}

/// One line per job under `--journal DIR`: where it stands and how far its
/// checkpoint cuts reach. A log that cannot be read says why instead.
fn cmd_jobs(opts: &Opts) -> Result<(), String> {
    let dir = opts.journal.as_deref().ok_or("need --journal DIR")?;
    let store = FileStore::shared(dir).map_err(|e| e.to_string())?;
    for job in store.list_jobs().map_err(|e| e.to_string())? {
        match recover(&store, &job) {
            Err(e) => println!("{job}: {e}"),
            Ok(rec) => {
                let state = JournalState::replay(&rec.events);
                let status = match state.finished {
                    Some((duplicates, _)) => format!("finished with {duplicates} duplicates"),
                    None => format!("unfinished, {} task(s) dead-lettered", state.dlq.len()),
                };
                println!("{job}: {status}; {}", state.progress());
            }
        }
    }
    Ok(())
}

fn cmd_basic(opts: &Opts) -> Result<(), String> {
    if let Some(t) = opts.threshold.filter(|t| !(*t > 0.0 && *t <= 1.0)) {
        return Err(format!(
            "--threshold is a duplicate rate and must be in (0, 1], got {t}"
        ));
    }
    if opts.window == Some(0) {
        return Err("--window must be at least 1".into());
    }
    let ds = load(opts.data.as_deref())?;
    let machines = opts.machines.unwrap_or(4);
    let er = config_for(&ds, machines)?;
    let window = opts.window.unwrap_or(15);
    let basic = match opts.threshold {
        Some(t) => BasicConfig::popcorn(window, t),
        None => BasicConfig::full(window),
    };
    println!(
        "Basic baseline: window {window}, threshold {:?}, μ = {machines}",
        opts.threshold
    );
    let result = BasicApproach::new(er, basic)
        .run(&ds)
        .map_err(|e| e.to_string())?;
    print_curve(&result);
    Ok(())
}
