//! Loom model of the lock-free claim protocol in `exec.rs`: the
//! atomic-cursor task pool (`run_cursor_pool`, which the runtime's task
//! phases and the shuffle's partition grouping both dispatch through).
//! Worker threads loop on `cursor.fetch_add(chunk, Ordering::Relaxed)` and
//! exit once the ticket is past the end.
//!
//! The `Relaxed (D3)` comment there claims that RMW atomicity
//! alone — with no ordering — guarantees each index is handed to exactly one
//! worker and none is skipped. The model checks that claim under *every*
//! interleaving, plus a seeded mutant (a load-then-store cursor) that must
//! fail — so we know the checker can see the bug class.
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

use loom::sync::atomic::{AtomicUsize, Ordering};
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
                    // Mirrors exec.rs exactly (chunk = 1), including the
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
