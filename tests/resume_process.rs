//! Kill-point conformance suite: spawn real `pper` child processes, abort
//! them at *every* journal-event boundary (`--kill-after-events N` calls
//! `std::process::abort()` — a simulated `kill -9` — right after the N-th
//! event is durably appended; since the resolution job cuts its checkpoints
//! in-line, that N-th event can be a cut appended by a reduce task in
//! mid-run), resume each aborted job with `pper resume` in a fresh process,
//! and require the resumed result fingerprint to match the uninterrupted
//! golden run byte for byte.
//!
//! Also covers the process-level dead-letter round trip: a run whose
//! reduce task exhausts its attempt budget dead-letters it, `pper dlq`
//! lists the capture, and `pper dlq --reprocess` drains it to the
//! fault-free golden result.
//!
//! A journal of another format version is refused by every subcommand that
//! opens one, with the typed error's message, and a resume handed another
//! dataset than the journal was written against is refused too, as is one
//! whose parameters name a mechanism this build no longer has.
//!
//! And `pper run`'s own contract at the process boundary: the plain and the
//! durable run write the same fingerprint, `--cluster` and `--result-out`
//! apply to both, a bad `--budget` is an error message, not a panic, and the
//! retired `--executor` flag is still checked.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use pper::datagen::{Dataset, PubGen};
use pper::journal::{recover, FileStore, JobJournal, JournalEvent, JournalStore};

const MACHINES: &str = "1";
const CHECKPOINT_EVERY: &str = "2000";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_dataset(dir: &Path) -> PathBuf {
    write_jsonl(&dir.join("data.jsonl"), &PubGen::new(500, 23).generate())
}

fn write_jsonl(path: &Path, ds: &Dataset) -> PathBuf {
    let file = std::fs::File::create(path).unwrap();
    ds.write_jsonl(std::io::BufWriter::new(file)).unwrap();
    path.to_path_buf()
}

fn pper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pper"))
        .args(args)
        .output()
        .unwrap()
}

fn run_ok(args: &[&str]) -> Output {
    let out = pper(args);
    assert!(
        out.status.success(),
        "pper {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Golden fingerprint + per-boundary kill/resume over every journal event.
#[test]
fn kill_at_every_event_boundary_resumes_bit_identically() {
    let dir = tmp_dir("resume-sweep");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let journal = dir.join("journal");
    let journal = journal.to_str().unwrap();
    let golden_path = dir.join("golden.json");
    let golden_out = golden_path.to_str().unwrap();

    // Uninterrupted golden run in a child process.
    run_ok(&[
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal,
        "--job-id",
        "golden",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--result-out",
        golden_out,
    ]);
    let golden = std::fs::read(&golden_path).unwrap();
    assert!(!golden.is_empty());

    // How many events does the uninterrupted run journal?
    let store: Arc<dyn JournalStore> = FileStore::shared(journal).unwrap();
    let rec = recover(&store, "golden").unwrap();
    assert!(rec.report.clean());
    let total_events = rec.events.len();
    let cuts = rec
        .events
        .iter()
        .filter(|(_, e)| e.name() == "checkpoint-cut")
        .count();
    assert!(
        total_events >= 10 && cuts >= 3,
        "want a meaningful sweep, journaled only {total_events} events, {cuts} of them cuts"
    );

    for n in 1..=total_events {
        let job = format!("kill-{n}");
        let kill = pper(&[
            "run",
            "--data",
            data,
            "--machines",
            MACHINES,
            "--durable",
            "--journal",
            journal,
            "--job-id",
            &job,
            "--checkpoint-every",
            CHECKPOINT_EVERY,
            "--kill-after-events",
            &n.to_string(),
        ]);
        assert!(
            !kill.status.success(),
            "kill point {n}: child should have aborted"
        );
        // Exactly n events survived the abort (appends are fsync'd).
        let rec = recover(&store, &job).unwrap();
        assert!(rec.report.clean(), "kill point {n}: journal not clean");
        assert_eq!(rec.events.len(), n, "kill point {n}: durable event count");

        let out_path = dir.join(format!("resumed-{n}.json"));
        let out = out_path.to_str().unwrap();
        run_ok(&[
            "resume",
            "--journal",
            journal,
            "--job-id",
            &job,
            "--data",
            data,
            "--result-out",
            out,
        ]);
        let resumed = std::fs::read(&out_path).unwrap();
        assert_eq!(
            resumed, golden,
            "kill point {n}: resumed fingerprint diverged from golden"
        );
    }
}

/// Process-level dead-letter round trip: exhaust a reduce task's attempt
/// budget, list the capture, reprocess it to the fault-free result.
#[test]
fn dlq_process_round_trip() {
    let dir = tmp_dir("dlq-process");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let journal = dir.join("journal");
    let journal = journal.to_str().unwrap();

    // Fault-free golden.
    let golden_path = dir.join("golden.json");
    let golden_out = golden_path.to_str().unwrap();
    run_ok(&[
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal,
        "--job-id",
        "golden",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--result-out",
        golden_out,
    ]);
    let golden = std::fs::read(&golden_path).unwrap();

    // Reduce task 0 fails 4 attempts — the whole default budget.
    let failed = pper(&[
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal,
        "--job-id",
        "faulty",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--fail-reduce",
        "0:4",
    ]);
    assert!(!failed.status.success());
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(
        stderr.contains("dead-lettered"),
        "expected dead-letter notice, got: {stderr}"
    );

    // The queue lists the capture with its context.
    let list = run_ok(&["dlq", "--journal", journal, "--job-id", "faulty"]);
    let stdout = String::from_utf8_lossy(&list.stdout);
    assert!(stdout.contains("reduce-0"), "dlq listing: {stdout}");
    assert!(stdout.contains("attempt"), "dlq listing: {stdout}");
    assert!(stdout.contains("context"), "dlq listing: {stdout}");

    // Drain it (fault cleared) — bit-identical to the fault-free golden.
    let out_path = dir.join("reprocessed.json");
    let out = out_path.to_str().unwrap();
    run_ok(&[
        "dlq",
        "--journal",
        journal,
        "--job-id",
        "faulty",
        "--reprocess",
        "--data",
        data,
        "--result-out",
        out,
    ]);
    assert_eq!(std::fs::read(&out_path).unwrap(), golden);

    // Now empty.
    let list = run_ok(&["dlq", "--journal", journal, "--job-id", "faulty"]);
    assert!(String::from_utf8_lossy(&list.stdout).contains("empty"));
}

/// A version-1 journal (the old magic; what it held does not matter) gets
/// the typed unsupported-version error from every subcommand that opens a
/// journal, and is left untouched.
#[test]
fn version_1_journal_is_refused_by_every_subcommand() {
    let dir = tmp_dir("v1-journal");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let journal = dir.join("journal");
    std::fs::create_dir_all(&journal).unwrap();
    let store = FileStore::open(&journal).unwrap();
    let log = store.path_for("old");
    let v1 = b"PPERJNL\x01\x05\0\0\0not a v2 record".to_vec();
    std::fs::write(&log, &v1).unwrap();
    let journal = journal.to_str().unwrap();

    let at_old = ["--journal", journal, "--job-id", "old"];
    let with_data = |command: &'static str, extra: &[&'static str]| {
        let mut args = vec![command];
        args.extend(at_old);
        args.extend(["--data", data]);
        args.extend(extra);
        args
    };
    let mut jobs = vec!["jobs"];
    jobs.extend(&at_old[..2]);
    for args in [
        with_data("resume", &[]),
        with_data("dlq", &[]),
        with_data("dlq", &["--reprocess"]),
        with_data("run", &["--durable", "--machines", MACHINES]),
        jobs,
    ] {
        let out = pper(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            format!("{stderr}{stdout}").contains("journal format version 1 is not supported"),
            "pper {args:?}: {stderr}{stdout}"
        );
        assert!(
            !stderr.contains("magic mismatch"),
            "pper {args:?}: {stderr}"
        );
        assert_eq!(args[0] != "jobs", !out.status.success(), "pper {args:?}");
    }
    assert_eq!(std::fs::read(&log).unwrap(), v1);
}

/// `resume` handed a smaller dataset, or the journaled one with one
/// attribute edited, exits 1 naming the mismatch — no panic, no wrong
/// result — and leaves the journal as it was.
#[test]
fn resume_against_another_dataset_is_refused() {
    let dir = tmp_dir("other-dataset");
    let data = write_dataset(&dir);
    let journal = dir.join("journal");
    let killed = pper(&[
        "run",
        "--data",
        data.to_str().unwrap(),
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal.to_str().unwrap(),
        "--job-id",
        "pinned",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--kill-after-events",
        "5",
    ]);
    assert!(!killed.status.success());
    let log = FileStore::open(&journal).unwrap().path_for("pinned");
    let before = std::fs::read(&log).unwrap();

    let mut edited = PubGen::new(500, 23).generate();
    edited.entities[7].attrs[0].push('x');
    for other in [
        write_jsonl(&dir.join("smaller.jsonl"), &PubGen::new(300, 23).generate()),
        write_jsonl(&dir.join("edited.jsonl"), &edited),
    ] {
        let out = pper(&[
            "resume",
            "--journal",
            journal.to_str().unwrap(),
            "--job-id",
            "pinned",
            "--data",
            other.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{other:?}: {stderr}");
        assert!(
            stderr.contains("journaled against a dataset of 500 entities"),
            "{other:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{other:?}: {stderr}");
        assert_eq!(std::fs::read(&log).unwrap(), before, "{other:?}");
    }
}

/// A job journaled by a build that still had the hierarchy-hint mechanism
/// names it in its `JobStarted` parameters: `resume` exits 1 naming it — no
/// panic — and leaves the journal as it was.
#[test]
fn resume_of_a_deleted_mechanism_is_refused() {
    let dir = tmp_dir("deleted-mechanism");
    let data = write_dataset(&dir);
    let journal = dir.join("journal");
    let killed = pper(&[
        "run",
        "--data",
        data.to_str().unwrap(),
        "--machines",
        MACHINES,
        "--mechanism",
        "sn",
        "--durable",
        "--journal",
        journal.to_str().unwrap(),
        "--job-id",
        "sn",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--kill-after-events",
        "5",
    ]);
    assert!(!killed.status.success());

    // The killed run's records, re-journaled as the old build wrote them.
    let store: Arc<dyn JournalStore> = FileStore::shared(&journal).unwrap();
    let mut old = JobJournal::create(Arc::clone(&store), "hierarchy").unwrap();
    for (_, event) in recover(&store, "sn").unwrap().events {
        let event = match event {
            JournalEvent::JobStarted { job_id, mut params } => {
                for (key, value) in &mut params {
                    if key == "mechanism" {
                        *value = "hierarchy".into();
                    }
                }
                JournalEvent::JobStarted { job_id, params }
            }
            other => other,
        };
        old.append(&event).unwrap();
    }
    old.sync().unwrap();
    let log = FileStore::open(&journal).unwrap().path_for("hierarchy");
    let before = std::fs::read(&log).unwrap();

    let out = pper(&[
        "resume",
        "--journal",
        journal.to_str().unwrap(),
        "--job-id",
        "hierarchy",
        "--data",
        data.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown mechanism 'hierarchy'"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(std::fs::read(&log).unwrap(), before);
}

/// The durable golden the sweep above compares against is itself a durable
/// run; this pins it to the plain pipeline through the same CLI.
#[test]
fn plain_run_writes_the_durable_fingerprint() {
    let dir = tmp_dir("plain-vs-durable");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let journal = dir.join("journal");
    let durable_path = dir.join("durable.json");
    let plain_path = dir.join("plain.json");

    run_ok(&[
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal.to_str().unwrap(),
        "--job-id",
        "golden",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--result-out",
        durable_path.to_str().unwrap(),
    ]);
    run_ok(&[
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--result-out",
        plain_path.to_str().unwrap(),
    ]);
    let durable = std::fs::read(&durable_path).unwrap();
    assert!(!durable.is_empty());
    assert_eq!(std::fs::read(&plain_path).unwrap(), durable);
}

/// `--executor` is retired: a known (old) backend name is accepted and
/// changes nothing, an unknown one is a usage error.
#[test]
fn retired_executor_flag_is_checked_and_ignored() {
    let dir = tmp_dir("executor-flag");
    let data = write_dataset(&dir);
    let data = data.to_str().unwrap();
    let plain_path = dir.join("plain.json");
    let flagged_path = dir.join("flagged.json");
    let base = [
        "run",
        "--data",
        data,
        "--machines",
        MACHINES,
        "--result-out",
    ];

    run_ok(&[&base[..], &[plain_path.to_str().unwrap()]].concat());
    run_ok(
        &[
            &base[..],
            &[flagged_path.to_str().unwrap(), "--executor", "stealing"],
        ]
        .concat(),
    );
    let plain = std::fs::read(&plain_path).unwrap();
    assert!(!plain.is_empty());
    assert_eq!(std::fs::read(&flagged_path).unwrap(), plain);

    let out = pper(&["run", "--data", data, "--executor", "fancy"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown executor 'fancy'"), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
    assert!(
        !stderr.contains("--executor"),
        "USAGE still lists it: {stderr}"
    );
}

#[test]
fn durable_run_reports_clustering() {
    let dir = tmp_dir("durable-cluster");
    let data = write_dataset(&dir);
    let journal = dir.join("journal");
    let out = run_ok(&[
        "run",
        "--data",
        data.to_str().unwrap(),
        "--machines",
        MACHINES,
        "--durable",
        "--journal",
        journal.to_str().unwrap(),
        "--job-id",
        "clustered",
        "--checkpoint-every",
        CHECKPOINT_EVERY,
        "--cluster",
        "tc",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clustering (tc):"), "stdout: {stdout}");
}

#[test]
fn bad_budget_is_an_error_not_a_panic() {
    let dir = tmp_dir("bad-budget");
    let data = write_dataset(&dir);
    for budget in ["-5", "0", "nan", "inf"] {
        let out = pper(&[
            "run",
            "--data",
            data.to_str().unwrap(),
            "--machines",
            MACHINES,
            "--budget",
            budget,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--budget {budget}: {stderr}");
        assert!(stderr.contains("error:"), "--budget {budget}: {stderr}");
        assert!(!stderr.contains("panicked"), "--budget {budget}: {stderr}");
    }
}

#[test]
fn bad_basic_knobs_are_errors_not_mislabelled_runs() {
    let dir = tmp_dir("bad-basic");
    let data = write_dataset(&dir);
    for (flag, value) in [
        ("--threshold", "nan"),
        ("--threshold", "-1"),
        ("--threshold", "0"),
        ("--threshold", "1.5"),
        ("--threshold", "inf"),
        ("--window", "0"),
    ] {
        let out = pper(&[
            "basic",
            "--data",
            data.to_str().unwrap(),
            "--machines",
            MACHINES,
            flag,
            value,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains("error:"), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} ran the baseline");
    }
}
