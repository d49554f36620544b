//! Task dispatch: "run N index-addressed simulated tasks on real threads",
//! the one contract shared by [`crate::runtime`]'s task phases and
//! [`crate::shuffle`]'s partition grouping pools.
//!
//! Every dispatch site has the same shape: `count` independent work items
//! addressed by index, a barrier at the end, and results published into
//! per-index slots owned by the caller. Determinism therefore never depends
//! on *which* thread runs *which* index or in what order — the caller
//! collects (and notifies observers) in index order after the barrier.
//!
//! `run_cursor_pool` is the only dispatcher: a shared atomic cursor,
//! claimed in small adaptive chunks (`fetch_add(chunk)`). Chunking is the
//! fix for the historical per-task `fetch_add(1)` contention: on
//! many-small-task map phases every worker hammered one cache line once
//! per task; claiming a few tasks per RMW amortizes that without giving
//! up dynamic balance. The cursor moves only *indices*; task outputs always
//! travel through the caller's per-index mutex slots. The claim loop is
//! model-checked in `tests/loom_cursor.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The dispatch backend recorded in [`crate::job::JobConfig`]. One value is
/// left; the type stays because `--executor` and the journaled `executor`
/// parameter are outside input that must keep parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Shared atomic cursor claimed in adaptive chunks.
    #[default]
    Cursor,
}

impl ExecutorKind {
    /// Parse the CLI / journal-parameter form accepted by `--executor`:
    /// `cursor`, or one of the retired backend names `stealing`,
    /// `work-stealing`, `chunked`, `chunked:<K>` — dispatch never reaches an
    /// observable, so a journal whose `JobStarted` recorded one still
    /// resumes to the same result.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cursor" | "stealing" | "work-stealing" | "chunked" => Ok(ExecutorKind::Cursor),
            other => match other.strip_prefix("chunked:") {
                Some(k) if k.parse::<usize>().is_ok() => Ok(ExecutorKind::Cursor),
                _ => Err(format!("unknown executor '{other}' (cursor)")),
            },
        }
    }
}

/// Clamp the requested thread count: at least one, never more than the
/// number of tasks.
fn effective_threads(count: usize, threads: usize) -> usize {
    threads.max(1).min(count.max(1))
}

/// Chunk size for the adaptive cursor claim: aim for a handful of claims
/// per worker so the shared cursor line is touched O(threads) times instead
/// of O(count), while leaving enough chunks in flight for dynamic balance
/// when task costs are uneven.
fn adaptive_chunk(count: usize, threads: usize) -> usize {
    (count / (threads * 4).max(1)).clamp(1, 64)
}

/// Run `count` index-addressed tasks on up to `threads` OS threads.
///
/// * `task(i)` is called **exactly once** for every `i` in `0..count`, from
///   some worker thread (or the calling thread when `threads <= 1`).
/// * Returns only after every call completed — it is a barrier.
/// * No ordering between indices is promised or required: callers publish
///   results into per-index slots and read them in index order after the
///   barrier, so dispatch order can never reach an observable quantity.
pub(crate) fn run_cursor_pool(count: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    let threads = effective_threads(count, threads);
    if threads == 1 {
        for i in 0..count {
            task(i);
        }
        return;
    }
    let chunk = adaptive_chunk(count, threads);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // lint:allow(relaxed) pure ticket dispenser: fetch_add's RMW
                // atomicity alone hands each disjoint chunk to exactly one
                // worker (model-checked in tests/loom_cursor.rs); task
                // results are published via the caller's per-index slots,
                // never through this counter.
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= count {
                    return;
                }
                let end = start.saturating_add(chunk).min(count);
                for i in start..end {
                    task(i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;

    /// Run `count` tasks and return the per-index claim counts.
    fn claims(count: usize, threads: usize) -> Vec<usize> {
        let counts: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
        run_cursor_pool(count, threads, &|i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        counts.into_iter().map(|c| c.into_inner()).collect()
    }

    #[test]
    fn each_index_runs_exactly_once() {
        for count in [0usize, 1, 2, 3, 17, 64, 257] {
            for threads in [1usize, 2, 3, 8, 16] {
                let c = claims(count, threads);
                assert!(
                    c.iter().all(|&n| n == 1),
                    "count={count} threads={threads}: claims {c:?}"
                );
            }
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        run_cursor_pool(0, 8, &|_| panic!("no task should run"));
    }

    #[test]
    fn threads_one_runs_inline_in_index_order() {
        let order = Mutex::new(Vec::new());
        run_cursor_pool(5, 1, &|i| order.lock().push(i));
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parse_accepts_cursor_and_every_retired_alias() {
        for accepted in [
            "cursor",
            "stealing",
            "work-stealing",
            "chunked",
            "chunked:1",
            "chunked:16",
        ] {
            assert_eq!(
                ExecutorKind::parse(accepted),
                Ok(ExecutorKind::Cursor),
                "{accepted}"
            );
        }
        assert!(ExecutorKind::parse("fancy").is_err());
        assert!(ExecutorKind::parse("chunked:x").is_err());
    }

    #[test]
    fn adaptive_chunk_is_bounded_and_scales() {
        assert_eq!(adaptive_chunk(1, 8), 1);
        assert_eq!(adaptive_chunk(64, 8), 2);
        assert!(adaptive_chunk(1_000_000, 2) <= 64);
        assert!(adaptive_chunk(8, 1) >= 1);
    }

    proptest! {
        // Exactly-once over randomized shapes: any count × thread
        // combination, each index claimed once.
        #[test]
        fn prop_exactly_once(count in 0usize..200, threads in 1usize..12) {
            let c = claims(count, threads);
            prop_assert!(c.iter().all(|&n| n == 1), "{c:?}");
        }
    }
}
