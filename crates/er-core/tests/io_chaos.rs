//! Storage-fault conformance sweep: the full progressive pipeline, run
//! with its shuffle spilling to disk through a fault-injecting VFS, must
//! either recover to a **bit-identical** [`ResultFingerprint`] or fail
//! with a clean typed [`MrError::Io`] — never panic, never silently
//! produce different results.
//!
//! One scenario per fault site of the degradation ladder:
//!
//! | fault                         | expected recovery                      |
//! |-------------------------------|----------------------------------------|
//! | transient spill write (EINTR) | in-place retry, identical fingerprint  |
//! | short write (partial flush)   | cleanup + retry, identical fingerprint |
//! | ENOSPC                        | typed disk-full error, no panic        |
//! | corrupted spill run (CRC)     | quarantine + stage re-run, identical   |
//!
//! Every recovery scenario also asserts the injected fault actually fired
//! (`FaultVfs::faults_fired`), so a silently-skipped fault site cannot
//! masquerade as a passing conformance run.

use std::path::PathBuf;
use std::sync::Arc;

use pper_datagen::{Dataset, PubGen};
use pper_er::prelude::*;
use pper_mapreduce::{FaultKind, FaultVfs, IoFaultPlan, IoOp, MrError, ShuffleSpillConfig, Vfs};

fn dataset() -> Dataset {
    PubGen::new(900, 63).generate()
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pper-io-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the pipeline with the given spill config (threshold low enough that
/// the big blocking-key partitions really spill).
fn run_with(spill: ShuffleSpillConfig) -> Result<ErRunResult, MrError> {
    let config = ErConfig::citeseer(2).with_shuffle_spill(spill);
    ProgressiveEr::new(config).try_run(&dataset())
}

/// Clean spilled baseline: the fingerprint every fault-recovery run must
/// reproduce bit-for-bit.
fn golden(tag: &str) -> ResultFingerprint {
    let result = run_with(ShuffleSpillConfig::new(40).with_dir(spill_dir(tag))).unwrap();
    assert!(
        result.counters.get("shuffle_spilled_partitions") > 0,
        "baseline must actually spill for the sweep to mean anything"
    );
    ResultFingerprint::of(&result)
}

/// A spill config writing through a `FaultVfs` armed with `plan`.
fn faulty_spill(tag: &str, plan: IoFaultPlan) -> (ShuffleSpillConfig, FaultVfs) {
    let fvfs = FaultVfs::new(plan).unwrap();
    let vfs: Arc<dyn Vfs> = Arc::new(fvfs.clone());
    let spill = ShuffleSpillConfig::new(40)
        .with_dir(spill_dir(tag))
        .with_vfs(vfs);
    (spill, fvfs)
}

#[test]
fn transient_spill_write_recovers_bit_identical() {
    let golden = golden("transient-base");
    let plan = IoFaultPlan::new().with_at(
        IoOp::Write,
        "pper-extsort",
        0,
        FaultKind::Transient { times: 2 },
    );
    let (spill, fvfs) = faulty_spill("transient", plan);
    let result = run_with(spill).unwrap();
    assert!(fvfs.faults_fired() >= 1, "injected fault never fired");
    assert!(
        result.counters.get("shuffle_spill_io_retries") > 0,
        "retry counter must record the recovery"
    );
    assert_eq!(ResultFingerprint::of(&result), golden);
}

#[test]
fn short_write_is_cleaned_up_and_recovers_bit_identical() {
    let golden = golden("short-base");
    let plan = IoFaultPlan::new().with_at(
        IoOp::Write,
        "pper-extsort",
        0,
        FaultKind::ShortWrite { keep: 7 },
    );
    let (spill, fvfs) = faulty_spill("short", plan);
    let result = run_with(spill).unwrap();
    assert!(fvfs.faults_fired() >= 1, "injected fault never fired");
    assert_eq!(ResultFingerprint::of(&result), golden);
}

#[test]
fn enospc_with_error_policy_is_a_typed_failure() {
    let plan = IoFaultPlan::new().with_at(IoOp::Write, "pper-extsort", 0, FaultKind::Enospc);
    let (spill, fvfs) = faulty_spill("enospc-err", plan);
    let err = run_with(spill).unwrap_err();
    assert!(fvfs.faults_fired() >= 1, "injected fault never fired");
    match err {
        MrError::Io(fault) => {
            assert!(fault.is_permanent(), "{fault}");
            assert!(fault.is_disk_full(), "{fault}");
        }
        other => panic!("expected typed storage fault, got {other}"),
    }
}

#[test]
fn corrupt_spill_run_is_quarantined_and_rerun_bit_identical() {
    let golden = golden("corrupt-base");
    let plan = IoFaultPlan::new().with_at(IoOp::Read, "pper-extsort", 0, FaultKind::CorruptRead);
    let (spill, fvfs) = faulty_spill("corrupt", plan);
    let result = run_with(spill).unwrap();
    assert!(fvfs.faults_fired() >= 1, "injected fault never fired");
    assert!(
        result.counters.get("shuffle_spill_reruns") > 0,
        "re-run counter must record the recovery"
    );
    assert_eq!(ResultFingerprint::of(&result), golden);
}
