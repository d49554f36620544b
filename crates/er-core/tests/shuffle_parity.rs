//! Virtual-time parity regression for the shuffle layer.
//!
//! The shuffle is pure plumbing: however records are gathered, sorted or
//! grouped, the *virtual-time* results of a job — duplicates, recall curve,
//! counters, total cost — must be bit-identical. These tests pin the quick
//! CiteSeerX-shaped configuration (SN) to fingerprints captured from the
//! original driver-thread nested-`Vec` shuffle, across worker thread counts
//! and with fault plans enabled, so any shuffle rewrite that shifts a single
//! bit of virtual time fails here. The quick OL-Books-shaped configuration
//! (PSNM) is pinned the same way, to fingerprints captured before SN and
//! PSNM shared one pair stream, so a rewrite that moves one pair of either
//! order fails here too.

use pper_datagen::{BookGen, PubGen};
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

/// The two quick configurations: the paper's two datasets, one per mechanism.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// CiteSeerX-shaped publications under SN.
    Pubs,
    /// OL-Books-shaped books under PSNM.
    Books,
}

impl Shape {
    fn dataset(self) -> pper_datagen::Dataset {
        match self {
            Shape::Pubs => PubGen::new(1_500, 4242).generate(),
            Shape::Books => BookGen::new(1_500, 4242).generate(),
        }
    }

    fn config(self, threads: usize, faults: Option<FaultPlan>) -> ErConfig {
        let mut config = match self {
            Shape::Pubs => ErConfig::citeseer(2),
            Shape::Books => ErConfig::books(2),
        };
        config.worker_threads = Some(threads);
        config.faults = faults;
        config
    }
}

fn pipeline_run(shape: Shape, threads: usize, faults: Option<FaultPlan>) -> ErRunResult {
    ProgressiveEr::new(shape.config(threads, faults)).run(&shape.dataset())
}

fn basic_run(shape: Shape, threads: usize, faults: Option<FaultPlan>) -> ErRunResult {
    BasicApproach::new(
        shape.config(threads, faults),
        BasicConfig::popcorn(15, 0.01),
    )
    .run(&shape.dataset())
    .unwrap()
}

/// Golden fingerprints captured from the pre-rewrite shuffle (driver-thread
/// nested-Vec gather/sort/group) on the quick CiteSeerX config, re-blessed
/// (cost bits and pair count of the pipeline) when the presets took their
/// trained probability tables. The shuffle implementation may change; these
/// numbers may not.
const GOLDEN_PIPELINE: Fingerprint = Fingerprint {
    duplicates: 983,
    dup_hash: 3116250115301211597,
    total_cost_bits: 4670980222003668709,
    final_recall_bits: 4606656136084941545,
    curve_len: 983,
    pairs_compared: 50524,
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

/// Golden fingerprints captured on the quick OL-Books config before SN and
/// PSNM shared one pair stream: they pin PSNM's pair order.
const GOLDEN_BOOKS_PIPELINE: Fingerprint = Fingerprint {
    duplicates: 733,
    dup_hash: 11854955941331999993,
    total_cost_bits: 4669623348764285473,
    final_recall_bits: 4606783142692245317,
    curve_len: 733,
    pairs_compared: 47696,
    duplicates_found: 733,
};

const GOLDEN_BOOKS_BASIC: Fingerprint = Fingerprint {
    duplicates: 666,
    dup_hash: 3509815648511943034,
    total_cost_bits: 4663574298323443222,
    final_recall_bits: 4605996333891635609,
    curve_len: 666,
    pairs_compared: 18334,
    duplicates_found: 666,
};

/// Each quick configuration with its pipeline and Basic goldens.
const GOLDENS: [(Shape, Fingerprint, Fingerprint); 2] = [
    (Shape::Pubs, GOLDEN_PIPELINE, GOLDEN_BASIC),
    (Shape::Books, GOLDEN_BOOKS_PIPELINE, GOLDEN_BOOKS_BASIC),
];

#[test]
#[ignore = "golden capture helper: prints fingerprints to embed above"]
fn print_golden_fingerprints() {
    for (shape, _, _) in GOLDENS {
        println!(
            "{shape:?} pipeline t1: {:?}",
            fingerprint(&pipeline_run(shape, 1, None))
        );
        println!(
            "{shape:?} basic t1:    {:?}",
            fingerprint(&basic_run(shape, 1, None))
        );
    }
}

#[test]
fn pipeline_parity_across_worker_threads() {
    for (shape, golden, _) in GOLDENS {
        for threads in [1usize, 2, 8] {
            let fp = fingerprint(&pipeline_run(shape, threads, None));
            assert_eq!(fp, golden, "{shape:?} worker_threads={threads}");
        }
    }
}

#[test]
fn pipeline_parity_with_fault_plan() {
    // A retried reduce task wastes virtual time on its own clock but must
    // not change what the job produces.
    for (shape, _, _) in GOLDENS {
        let clean = pipeline_run(shape, 1, None);
        let faulty = pipeline_run(shape, 8, Some(FaultPlan::fail_reduce(0, 2)));
        assert_eq!(clean.duplicates, faulty.duplicates, "{shape:?}");
        assert_eq!(
            clean.counters.get("pairs_compared"),
            faulty.counters.get("pairs_compared")
        );
        assert!(faulty.counters.get("task_retries") >= 2);
    }
}

#[test]
fn basic_parity_across_worker_threads() {
    for (shape, _, golden) in GOLDENS {
        for threads in [1usize, 2, 8] {
            let fp = fingerprint(&basic_run(shape, threads, None));
            assert_eq!(fp, golden, "{shape:?} worker_threads={threads}");
        }
    }
}

#[test]
fn basic_parity_with_fault_plan() {
    for (shape, _, _) in GOLDENS {
        let clean = basic_run(shape, 1, None);
        let faulty = basic_run(shape, 8, Some(FaultPlan::fail_reduce(0, 2)));
        assert_eq!(clean.duplicates, faulty.duplicates, "{shape:?}");
        assert_eq!(
            clean.counters.get("duplicates_found"),
            faulty.counters.get("duplicates_found")
        );
        assert!(faulty.counters.get("task_retries") >= 2);
    }
}
