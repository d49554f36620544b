//! Loom models of the two lock-free claim protocols in `exec.rs`:
//!
//! 1. the atomic-cursor task pool (`CursorExecutor`, which
//!    `shuffle::shuffle_partitions` dispatches through too): worker threads loop
//!    on `cursor.fetch_add(chunk, Ordering::Relaxed)` and exit once the
//!    ticket is past the end;
//! 2. the work-stealing range deque (`WorkStealingExecutor`): one packed
//!    `(lo << 32) | hi` word per worker, owner CASes `lo` up in chunks,
//!    thieves CAS the top half off.
//!
//! The `lint:allow(relaxed)` annotations there claim that RMW/CAS atomicity
//! alone — with no ordering — guarantees each index is handed to exactly one
//! worker and none is skipped. These models check that claim under *every*
//! interleaving, plus seeded mutants (a load-then-store cursor and a
//! load-then-store steal) that must fail — so we know the checker can see
//! the bug class.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p pper-mapreduce --test loom_cursor --release
//! ```
//!
//! Without `--cfg loom` this file compiles to an empty test binary, so the
//! plain `cargo test` suite never pays the model-checking cost.
#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

const TASKS: usize = 3;
const WORKERS: usize = 2;

/// Claim counters shared by the workers; plain atomics (one per task index)
/// so the model state stays small.
fn claim_array() -> Arc<Vec<AtomicUsize>> {
    Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect())
}

/// The invariant the runtime relies on: with a relaxed `fetch_add` ticket
/// dispenser, every task index is claimed by exactly one worker, in every
/// possible interleaving.
#[test]
fn relaxed_cursor_claims_each_index_exactly_once() {
    loom::model(|| {
        let cursor = Arc::new(AtomicUsize::new(0));
        let claims = claim_array();
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let cursor = cursor.clone();
                let claims = claims.clone();
                thread::spawn(move || loop {
                    // Mirrors runtime.rs / shuffle.rs exactly, including the
                    // Relaxed ordering under test.
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= TASKS {
                        return;
                    }
                    claims[idx].fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker completes");
        }
        for (idx, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "task {idx} must be claimed exactly once"
            );
        }
    });
}

/// Sanity check on the checker itself: replace the RMW with a racy
/// load-then-store "increment" and the exactly-once guarantee must break in
/// some interleaving. If this test ever stops failing inside the model, the
/// model is no longer exploring the schedules that matter.
#[test]
fn load_store_cursor_double_claims_somewhere() {
    let failed = std::panic::catch_unwind(|| {
        loom::model(|| {
            let cursor = Arc::new(AtomicUsize::new(0));
            let claims = claim_array();
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let cursor = cursor.clone();
                    let claims = claims.clone();
                    thread::spawn(move || loop {
                        let idx = cursor.load(Ordering::Relaxed);
                        cursor.store(idx + 1, Ordering::Relaxed);
                        if idx >= TASKS {
                            return;
                        }
                        claims[idx].fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker completes");
            }
            for c in claims.iter() {
                assert_eq!(c.load(Ordering::Relaxed), 1);
            }
        });
    })
    .is_err();
    assert!(
        failed,
        "the load/store mutant must double-claim in some interleaving"
    );
}

// ---------------------------------------------------------------------------
// Work-stealing range deque (exec.rs::RangeDeque)
// ---------------------------------------------------------------------------

fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

fn unpack(bits: u64) -> (u32, u32) {
    ((bits >> 32) as u32, bits as u32)
}

/// Owner end of the deque, mirroring `RangeDeque::take` exactly (chunk = 1
/// to keep the model's state space small).
fn take(bits: &AtomicU64) -> Option<u32> {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            return None;
        }
        match bits.compare_exchange(cur, pack(lo + 1, hi), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(lo),
            Err(actual) => cur = actual,
        }
    }
}

/// Thief end, mirroring `RangeDeque::steal` exactly: split off the top half,
/// never the last remaining index.
fn steal(bits: &AtomicU64) -> Option<(u32, u32)> {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let (lo, hi) = unpack(cur);
        let stolen = (hi.saturating_sub(lo)) / 2;
        if stolen == 0 {
            return None;
        }
        let mid = hi - stolen;
        match bits.compare_exchange(cur, pack(lo, mid), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some((mid, hi)),
            Err(actual) => cur = actual,
        }
    }
}

/// The invariant `WorkStealingExecutor` relies on: with a relaxed-CAS
/// take/steal protocol over the packed range word, every index is claimed by
/// exactly one thread — the owner draining the bottom or the thief running
/// off with the top half — in every possible interleaving.
#[test]
fn relaxed_deque_take_and_steal_claim_exactly_once() {
    loom::model(|| {
        let deque = Arc::new(AtomicU64::new(pack(0, TASKS as u32)));
        let claims = claim_array();

        let owner = {
            let deque = deque.clone();
            let claims = claims.clone();
            thread::spawn(move || {
                while let Some(idx) = take(&deque) {
                    claims[idx as usize].fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let thief = {
            let deque = deque.clone();
            let claims = claims.clone();
            thread::spawn(move || {
                if let Some((lo, hi)) = steal(&deque) {
                    // The thief executes its loot privately, like a worker
                    // draining a stolen range.
                    for idx in lo..hi {
                        claims[idx as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        owner.join().expect("owner completes");
        thief.join().expect("thief completes");

        for (idx, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "index {idx} must be claimed exactly once"
            );
        }
    });
}

/// Seeded mutant: replace the steal CAS with a load-then-store split. An
/// owner take between the thief's load and store is then resurrected (the
/// store writes back the stale `lo`), so some index is claimed twice. The
/// model must catch this — if it ever stops failing, the model has stopped
/// exploring the schedules the real deque depends on.
#[test]
fn load_store_steal_mutant_double_claims_somewhere() {
    let failed = std::panic::catch_unwind(|| {
        loom::model(|| {
            let deque = Arc::new(AtomicU64::new(pack(0, TASKS as u32)));
            let claims = claim_array();

            let owner = {
                let deque = deque.clone();
                let claims = claims.clone();
                thread::spawn(move || {
                    while let Some(idx) = take(&deque) {
                        claims[idx as usize].fetch_add(1, Ordering::Relaxed);
                    }
                })
            };
            let thief = {
                let deque = deque.clone();
                let claims = claims.clone();
                thread::spawn(move || {
                    let (lo, hi) = unpack(deque.load(Ordering::Relaxed));
                    let stolen = (hi.saturating_sub(lo)) / 2;
                    if stolen > 0 {
                        let mid = hi - stolen;
                        // The bug: a store instead of a CAS clobbers any
                        // owner take that landed in between.
                        deque.store(pack(lo, mid), Ordering::Relaxed);
                        for idx in mid..hi {
                            claims[idx as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            };
            owner.join().expect("owner completes");
            thief.join().expect("thief completes");

            for c in claims.iter() {
                assert_eq!(c.load(Ordering::Relaxed), 1);
            }
        });
    })
    .is_err();
    assert!(
        failed,
        "the load/store steal mutant must double-claim in some interleaving"
    );
}
