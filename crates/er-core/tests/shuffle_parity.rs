//! Virtual-time parity regression for the shuffle layer.
//!
//! The shuffle is pure plumbing: however records are gathered, sorted or
//! grouped, the *virtual-time* results of a job — duplicates, recall curve,
//! counters, total cost — must be bit-identical. These tests pin the quick
//! CiteSeerX-shaped configuration to fingerprints captured from the
//! original driver-thread nested-`Vec` shuffle, across worker thread counts
//! and with fault plans enabled, so any shuffle rewrite that shifts a single
//! bit of virtual time fails here.

use pper_datagen::PubGen;
use pper_er::prelude::*;
use pper_mapreduce::prelude::*;

/// Order-sensitive FNV-1a over the duplicate pairs.
fn hash_pairs(pairs: &[(u32, u32)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &(a, b) in pairs {
        mix(a);
        mix(b);
    }
    h
}

/// Everything the parity contract covers, collapsed to exact integers.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    duplicates: usize,
    dup_hash: u64,
    total_cost_bits: u64,
    final_recall_bits: u64,
    curve_len: usize,
    pairs_compared: u64,
    duplicates_found: u64,
}

fn fingerprint(r: &ErRunResult) -> Fingerprint {
    Fingerprint {
        duplicates: r.duplicates.len(),
        dup_hash: hash_pairs(&r.duplicates),
        total_cost_bits: r.total_cost.to_bits(),
        final_recall_bits: r.curve.final_recall().to_bits(),
        curve_len: r.curve.len(),
        pairs_compared: r.counters.get("pairs_compared"),
        duplicates_found: r.counters.get("duplicates_found"),
    }
}

fn quick_dataset() -> pper_datagen::Dataset {
    PubGen::new(1_500, 4242).generate()
}

fn pipeline_run(threads: usize, faults: Option<FaultPlan>) -> ErRunResult {
    let mut config = ErConfig::citeseer(2);
    config.worker_threads = Some(threads);
    config.faults = faults;
    ProgressiveEr::new(config).run(&quick_dataset())
}

fn basic_run(threads: usize, faults: Option<FaultPlan>) -> ErRunResult {
    let mut config = ErConfig::citeseer(2);
    config.worker_threads = Some(threads);
    config.faults = faults;
    BasicApproach::new(config, BasicConfig::popcorn(15, 0.01))
        .run(&quick_dataset())
        .unwrap()
}

/// Golden fingerprints captured from the pre-rewrite shuffle (driver-thread
/// nested-Vec gather/sort/group) on the quick CiteSeerX config. The shuffle
/// implementation may change; these numbers may not.
const GOLDEN_PIPELINE: Fingerprint = Fingerprint {
    duplicates: 983,
    dup_hash: 3116250115301211597,
    total_cost_bits: 4670706234760973053,
    final_recall_bits: 4606656136084941545,
    curve_len: 983,
    pairs_compared: 50528,
    duplicates_found: 983,
};

const GOLDEN_BASIC: Fingerprint = Fingerprint {
    duplicates: 882,
    dup_hash: 8954180582413152973,
    total_cost_bits: 4663414531338078116,
    final_recall_bits: 4605784749950143806,
    curve_len: 882,
    pairs_compared: 17160,
    duplicates_found: 882,
};

#[test]
#[ignore = "golden capture helper: prints fingerprints to embed above"]
fn print_golden_fingerprints() {
    println!("pipeline t1: {:?}", fingerprint(&pipeline_run(1, None)));
    println!("basic t1:    {:?}", fingerprint(&basic_run(1, None)));
}

#[test]
fn pipeline_parity_across_worker_threads() {
    for threads in [1usize, 2, 8] {
        let fp = fingerprint(&pipeline_run(threads, None));
        assert_eq!(fp, GOLDEN_PIPELINE, "worker_threads={threads}");
    }
}

#[test]
fn pipeline_parity_with_fault_plan() {
    // A retried reduce task wastes virtual time on its own clock but must
    // not change what the job produces.
    let clean = pipeline_run(1, None);
    let faulty = pipeline_run(8, Some(FaultPlan::fail_reduce(0, 2)));
    assert_eq!(clean.duplicates, faulty.duplicates);
    assert_eq!(
        clean.counters.get("pairs_compared"),
        faulty.counters.get("pairs_compared")
    );
    assert!(faulty.counters.get("task_retries") >= 2);
}

#[test]
fn basic_parity_across_worker_threads() {
    for threads in [1usize, 2, 8] {
        let fp = fingerprint(&basic_run(threads, None));
        assert_eq!(fp, GOLDEN_BASIC, "worker_threads={threads}");
    }
}

#[test]
fn basic_parity_with_fault_plan() {
    let clean = basic_run(1, None);
    let faulty = basic_run(8, Some(FaultPlan::fail_reduce(0, 2)));
    assert_eq!(clean.duplicates, faulty.duplicates);
    assert_eq!(
        clean.counters.get("duplicates_found"),
        faulty.counters.get("duplicates_found")
    );
    assert!(faulty.counters.get("task_retries") >= 2);
}
