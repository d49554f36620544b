//! Fault-tolerance overhead: what do task re-execution and checkpointed
//! resume cost on the virtual clock?
//!
//! Runs the full progressive pipeline clean, under 1 and 3 injected
//! reduce/map failures (one of each death point: an attempt discarded at its
//! end, one killed at its start, one panicking mid-flight), under a reduce
//! task that loses three whole attempts, and finally through a kill +
//! checkpointed-resume cycle on a durable run's journal. The duplicate set is
//! asserted invariant in every scenario; the figure reports the
//! recall-vs-cost retardation and the wasted-cost accounting.
//!
//! Disk-fault recovery (retry, quarantine + re-run, ENOSPC degradation) is
//! asserted in `tests/conformance_smoke.rs`; what the spilling shuffle
//! costs on the wall clock is the harness's `books-durable` workload.
//!
//! ```sh
//! cargo run --release -p pper-bench --bin bench_faults -- --entities 12000
//! ```

use std::io::Write;

use pper_bench::ExpOptions;
use pper_datagen::PubGen;
use pper_er::{resume_durable, run_durable, DurableOptions, ErConfig, ErRunResult, ProgressiveEr};
use pper_journal::{recover, JournalEvent, JournalState, MemStore};
use pper_mapreduce::{FaultPlan, TaskKind};

#[derive(Debug, serde::Serialize)]
struct ScenarioReport {
    scenario: &'static str,
    total_cost: f64,
    cost_overhead_pct: f64,
    final_recall: f64,
    duplicates: usize,
    task_retries: u64,
    wasted_virtual_cost: u64,
    resume_replay_cost: u64,
    time_to_half_recall: Option<f64>,
}

#[derive(Debug, serde::Serialize)]
struct FaultsFigure {
    name: String,
    caption: String,
    entities: usize,
    seed: u64,
    machines: usize,
    /// The journal was cut back to its first this many events.
    killed_after_event: usize,
    scenarios: Vec<ScenarioReport>,
}

fn report(scenario: &'static str, run: &ErRunResult, clean_cost: f64) -> ScenarioReport {
    ScenarioReport {
        scenario,
        total_cost: run.total_cost,
        cost_overhead_pct: (run.total_cost / clean_cost - 1.0) * 100.0,
        final_recall: run.curve.final_recall(),
        duplicates: run.duplicates.len(),
        task_retries: run.counters.get("task_retries"),
        wasted_virtual_cost: run.counters.get("wasted_virtual_cost"),
        resume_replay_cost: run.counters.get("resume_replay_cost"),
        time_to_half_recall: run.curve.time_to_recall(0.5),
    }
}

fn fail1() -> FaultPlan {
    FaultPlan::fail_reduce(0, 1)
}

fn fail3() -> FaultPlan {
    FaultPlan::fail_reduce(0, 1)
        .with_crash(TaskKind::Reduce, 1, 1)
        .with_abort(TaskKind::Map, 0, 1, 50.0)
}

fn main() -> std::io::Result<()> {
    let opts = ExpOptions::from_args(12_000);
    let entities = if opts.quick { 1_200 } else { opts.entities };
    let machines = if opts.quick { 2 } else { 5 };

    eprintln!("generating {entities} entities (seed {})…", opts.seed);
    let ds = PubGen::new(entities, opts.seed).generate();
    let base = ErConfig::citeseer(machines);

    eprintln!("clean run…");
    let clean = ProgressiveEr::new(base.clone()).run(&ds);
    let clean_cost = clean.total_cost;

    let mut scenarios = vec![report("clean", &clean, clean_cost)];

    for (name, plan) in [
        ("fail-1", fail1()),
        ("fail-3", fail3()),
        // One reduce task loses its first three attempts at completion: a
        // 4x straggler.
        ("straggler-3x", FaultPlan::fail_reduce(0, 3)),
    ] {
        eprintln!("{name}…");
        let mut config = base.clone();
        config.faults = Some(plan);
        let run = ProgressiveEr::new(config).run(&ds);
        assert_eq!(
            run.duplicates, clean.duplicates,
            "{name}: injected failures must not change the duplicate set"
        );
        scenarios.push(report(name, &run, clean_cost));
    }

    // Kill the resolution mid-flight — the journal of a durable run cut
    // back to the record after its middle checkpoint cut — and resume it.
    eprintln!("crash + resume…");
    let er = ProgressiveEr::new(base.clone());
    let durable = DurableOptions::default();
    let store = MemStore::shared();
    run_durable(&er, &ds, &store, "faults", &[], &durable).expect("durable run");
    let events = recover(&store, "faults").expect("journal").events;
    let cuts: Vec<usize> = (0..events.len())
        .filter(|&i| matches!(events[i].1, JournalEvent::CheckpointCut { .. }))
        .collect();
    let killed_after_event = cuts[cuts.len() / 2] + 1;
    let killed = MemStore::shared();
    let log = store.read("faults").expect("journal");
    killed
        .append("faults", &log[..events[killed_after_event].0 as usize])
        .expect("journal prefix");
    let state = JournalState::replay(&events[..killed_after_event]);
    eprintln!(
        "  killed after event {killed_after_event}: {}",
        state.progress()
    );
    let resumed = resume_durable(&er, &ds, &killed, "faults", &durable).expect("resume run");
    assert_eq!(
        resumed.duplicates, clean.duplicates,
        "resume must reproduce the duplicate set exactly"
    );
    assert_eq!(
        resumed.total_cost.to_bits(),
        clean.total_cost.to_bits(),
        "resume must land on the identical virtual completion time"
    );
    scenarios.push(report("crash+resume", &resumed, clean_cost));

    println!(
        "{:<20} {:>12} {:>9} {:>7} {:>8} {:>10} {:>10}",
        "scenario", "total cost", "ovhd %", "recall", "retries", "wasted", "replay"
    );
    for s in &scenarios {
        println!(
            "{:<20} {:>12.0} {:>9.2} {:>7.3} {:>8} {:>10} {:>10}",
            s.scenario,
            s.total_cost,
            s.cost_overhead_pct,
            s.final_recall,
            s.task_retries,
            s.wasted_virtual_cost,
            s.resume_replay_cost
        );
    }

    let figure = FaultsFigure {
        name: "bench-faults".into(),
        caption: format!(
            "fault-tolerance overhead: retries and checkpointed resume, μ = {machines}"
        ),
        entities,
        seed: opts.seed,
        machines,
        killed_after_event,
        scenarios,
    };
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join("BENCH_faults.json");
    let mut f = std::fs::File::create(&path)?;
    serde_json::to_writer_pretty(&mut f, &figure).map_err(std::io::Error::other)?;
    writeln!(f)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
