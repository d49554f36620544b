//! The progressive-resume contract (ISSUE 3 acceptance criterion): a run of
//! the resolution job killed mid-resolution and resumed from its checkpoint
//! must yield the bit-identical final duplicate set and recall curve of an
//! uninterrupted run — at every kill point, including kills that land in
//! the middle of a block (rolled back to the last block boundary) and kills
//! before/after all resolution work.

use pper_datagen::PubGen;
use pper_er::checkpoint::Checkpoint;
use pper_er::{ErConfig, ErRunResult, ProgressiveEr};

/// The checkpoint of a fresh stage killed at `crash_at`.
fn run_to_crash(er: &ProgressiveEr, ds: &pper_datagen::Dataset, crash_at: f64) -> Checkpoint {
    er.run_stage(ds, None, Some(crash_at))
        .unwrap()
        .cut()
        .expect("a stage with a threshold is cut")
}

/// The result of the stage that resumes `cp` and runs to the end.
fn resume(er: &ProgressiveEr, ds: &pper_datagen::Dataset, cp: &Checkpoint) -> ErRunResult {
    er.run_stage(ds, Some(cp), None)
        .unwrap()
        .finished()
        .expect("a stage without a threshold finishes")
}

fn assert_same_run(resumed: &ErRunResult, clean: &ErRunResult, what: &str) {
    assert_eq!(
        resumed.duplicates, clean.duplicates,
        "{what}: duplicate sets must be identical"
    );
    assert_eq!(
        resumed.curve, clean.curve,
        "{what}: recall curves must be bit-identical"
    );
    assert_eq!(
        resumed.found_events.len(),
        clean.found_events.len(),
        "{what}: discovery timelines must have equal length"
    );
    for (r, c) in resumed.found_events.iter().zip(&clean.found_events) {
        assert_eq!(
            (r.0.to_bits(), r.1, r.2),
            (c.0.to_bits(), c.1, c.2),
            "{what}: discovery events must be identical"
        );
    }
    assert_eq!(
        resumed.total_cost.to_bits(),
        clean.total_cost.to_bits(),
        "{what}: total virtual cost must be bit-identical ({} vs {})",
        resumed.total_cost,
        clean.total_cost
    );
    assert_eq!(
        resumed.precision.to_bits(),
        clean.precision.to_bits(),
        "{what}: precision must be bit-identical"
    );
}

#[test]
fn crash_and_resume_is_bit_identical_at_every_kill_point() {
    let ds = PubGen::new(1_500, 733).generate();
    let er = ProgressiveEr::new(ErConfig::citeseer(2));
    let clean = er.run(&ds);
    assert!(
        !clean.duplicates.is_empty(),
        "clean run must find duplicates for the test to mean anything"
    );

    // Sweep kill thresholds across the task-local reduce clock. Odd
    // fractional values make mid-block kills (exercising the partial-block
    // rollback) overwhelmingly likely.
    let mut saw_mid_flight = false;
    for crash_at in [333.3, 777.7, 1_555.5, 3_111.1, 6_222.2, 12_444.4] {
        let cp = run_to_crash(&er, &ds, crash_at);
        if cp.blocks_done() > 0 && cp.blocks_remaining() > 0 {
            saw_mid_flight = true;
        }
        let resumed = resume(&er, &ds, &cp);
        assert_same_run(&resumed, &clean, &format!("crash_at={crash_at}"));
    }
    assert!(
        saw_mid_flight,
        "at least one kill point must land genuinely mid-resolution"
    );
}

#[test]
fn checkpoint_survives_json_persistence() {
    let ds = PubGen::new(1_200, 734).generate();
    let er = ProgressiveEr::new(ErConfig::citeseer(2));
    let clean = er.run(&ds);

    let cp = run_to_crash(&er, &ds, 2_000.0);
    let json = cp.to_json().unwrap();
    let restored = Checkpoint::from_json(&json).unwrap();
    assert_eq!(restored.tasks.len(), cp.tasks.len());
    assert_eq!(restored.duplicates_found(), cp.duplicates_found());
    assert_eq!(restored.job1_cost.to_bits(), cp.job1_cost.to_bits());

    let resumed = resume(&er, &ds, &restored);
    assert_same_run(&resumed, &clean, "resume from persisted JSON");
}

#[test]
fn resume_counters_account_for_replayed_work() {
    let ds = PubGen::new(1_200, 735).generate();
    let er = ProgressiveEr::new(ErConfig::citeseer(2));
    let clean = er.run(&ds);

    let cp = run_to_crash(&er, &ds, 2_500.0);
    let resumed = resume(&er, &ds, &cp);

    // Every checkpointed duplicate is replayed, and every checkpointed
    // block is skipped rather than re-resolved.
    assert_eq!(
        resumed.counters.get("resume_replayed_duplicates"),
        cp.duplicates_found() as u64
    );
    assert_eq!(
        resumed.counters.get("job2_blocks_skipped_resumed"),
        cp.blocks_done() as u64
    );
    // The duplicate-event invariant holds across replay + live discovery.
    assert_eq!(
        resumed.counters.get("duplicates_found"),
        clean.counters.get("duplicates_found")
    );
    // Resumed comparisons are only the remaining blocks' share.
    assert!(
        resumed.counters.get("pairs_compared") <= clean.counters.get("pairs_compared"),
        "resume must not compare more pairs than the uninterrupted run"
    );
}

#[test]
fn extreme_kill_points_still_round_trip() {
    let ds = PubGen::new(1_000, 736).generate();
    let er = ProgressiveEr::new(ErConfig::citeseer(2));
    let clean = er.run(&ds);

    // Killed before any block completed: the checkpoint is empty and
    // resume re-runs everything.
    let early = run_to_crash(&er, &ds, 0.0);
    assert_eq!(early.blocks_done(), 0);
    assert_eq!(early.duplicates_found(), 0);
    assert_same_run(&resume(&er, &ds, &early), &clean, "crash_at=0");

    // Killed after all blocks completed: the checkpoint holds the full
    // run and resume only replays it.
    let late = run_to_crash(&er, &ds, 1e15);
    assert_eq!(late.blocks_remaining(), 0);
    let resumed = resume(&er, &ds, &late);
    assert_same_run(&resumed, &clean, "crash_at=max");
    assert_eq!(
        resumed.counters.get("resume_replayed_duplicates"),
        late.duplicates_found() as u64
    );
}

#[test]
fn invalid_checkpoints_and_thresholds_are_rejected() {
    let ds = PubGen::new(800, 737).generate();
    let er = ProgressiveEr::new(ErConfig::citeseer(2));

    assert!(er.run_stage(&ds, None, Some(f64::NAN)).is_err());
    assert!(er.run_stage(&ds, None, Some(-1.0)).is_err());

    let cp = run_to_crash(&er, &ds, 1_000.0);

    // Machine-count mismatch: the wave layout would differ.
    let other = ProgressiveEr::new(ErConfig::citeseer(3));
    assert!(other.run_stage(&ds, Some(&cp), None).is_err());

    // Corrupted watermark.
    let mut bad = cp.clone();
    bad.tasks[0].blocks_done = usize::MAX;
    assert!(er.run_stage(&ds, Some(&bad), None).is_err());

    // Task entries out of order.
    let mut swapped = cp.clone();
    swapped.tasks.swap(0, 1);
    assert!(er.run_stage(&ds, Some(&swapped), None).is_err());

    // A staged threshold before the checkpoint's own, or not a number.
    assert!(er.run_stage(&ds, Some(&cp), Some(999.0)).is_err());
    assert!(er.run_stage(&ds, Some(&cp), Some(f64::INFINITY)).is_err());
}
