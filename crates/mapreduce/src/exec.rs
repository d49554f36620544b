//! Pluggable executor backends for the "run N index-addressed simulated
//! tasks on real threads" contract shared by [`crate::runtime`]'s task
//! phases and [`crate::shuffle`]'s partition grouping pools.
//!
//! Every dispatch site has the same shape: `count` independent work items
//! addressed by index, a barrier at the end, and results published into
//! per-index slots owned by the caller. Determinism therefore never depends
//! on *which* thread runs *which* index or in what order — the caller
//! collects (and notifies observers) in index order after the barrier. That
//! is exactly what makes the backend swappable: any scheduler that runs
//! every index in `0..count` **exactly once** and returns only after all of
//! them completed produces bit-identical job results.
//!
//! Two backends ship behind the [`Executor`] trait:
//!
//! * [`CursorExecutor`] — the reference backend: a shared atomic cursor,
//!   claimed in small adaptive chunks (`fetch_add(chunk)`). Chunking is the
//!   fix for the historical per-task `fetch_add(1)` contention: on
//!   many-small-task map phases every worker hammered one cache line once
//!   per task; claiming a few tasks per RMW amortizes that without giving
//!   up dynamic balance.
//! * [`WorkStealingExecutor`] — per-worker contiguous index ranges with
//!   Chase-Lev-style two-ended access: the owner takes small chunks from
//!   the bottom of its own range, idle workers steal the top half of a
//!   victim's remaining range. No shared cursor at all, so a skewed phase
//!   (one straggler range) redistributes instead of serializing behind a
//!   single contended line.
//!
//! The whole protocol moves only *indices*; task outputs always travel
//! through the caller's per-index mutex slots. The take/steal race on the
//! packed range word is model-checked in `tests/loom_cursor.rs` alongside
//! the original cursor model.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Backend selection knob carried by [`crate::job::JobConfig`] and threaded
/// from the CLI / `ErConfig`. Cheap to copy and to compare; renders to a
/// stable string (and parses back) so journaled job parameters can record
/// it for cross-process resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Shared atomic cursor claimed in adaptive chunks (the reference).
    #[default]
    Cursor,
    /// Per-worker ranges with Chase-Lev-style stealing.
    WorkStealing,
}

impl ExecutorKind {
    /// Stable identifier: `cursor` or `stealing`.
    pub fn name(&self) -> String {
        match self {
            ExecutorKind::Cursor => "cursor".to_string(),
            ExecutorKind::WorkStealing => "stealing".to_string(),
        }
    }

    /// Parse the CLI / journal-parameter form accepted by `--executor`:
    /// `cursor` or `stealing` (alias `work-stealing`). `chunked` and
    /// `chunked:<K>` name a retired fixed-chunk variant of the cursor pool
    /// and parse as [`ExecutorKind::Cursor`] — dispatch never reaches an
    /// observable, so a journal whose `JobStarted` recorded one still
    /// resumes to the same result.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cursor" | "chunked" => Ok(ExecutorKind::Cursor),
            "stealing" | "work-stealing" => Ok(ExecutorKind::WorkStealing),
            other => match other.strip_prefix("chunked:") {
                Some(k) if k.parse::<usize>().is_ok() => Ok(ExecutorKind::Cursor),
                _ => Err(format!("unknown executor '{other}' (cursor|stealing)")),
            },
        }
    }

    /// Dispatch `count` index-addressed tasks through this kind's backend.
    /// See [`Executor::run`] for the contract.
    pub fn run(&self, count: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
        match self {
            ExecutorKind::Cursor => CursorExecutor.run(count, threads, task),
            ExecutorKind::WorkStealing => WorkStealingExecutor.run(count, threads, task),
        }
    }
}

/// A strategy for running `count` index-addressed tasks on up to `threads`
/// OS threads.
///
/// ## Contract
///
/// * `task(i)` is called **exactly once** for every `i` in `0..count`, from
///   some worker thread (or the calling thread when `threads <= 1`).
/// * `run` returns only after every call completed — it is a barrier.
/// * No ordering between indices is promised or required: callers publish
///   results into per-index slots and read them in index order after the
///   barrier, so dispatch order can never reach an observable quantity.
///   This is the determinism argument that lets the whole bit-identity
///   suite run unchanged against every backend.
pub trait Executor: Send + Sync + std::fmt::Debug {
    /// Run the tasks. See the trait-level contract.
    fn run(&self, count: usize, threads: usize, task: &(dyn Fn(usize) + Sync));
}

/// Clamp the requested thread count exactly like the historical pools did:
/// at least one, never more than the number of tasks.
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

/// Shared-cursor dispatch loop.
fn run_cursor_pool(count: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
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

/// The reference backend: a shared atomic cursor claimed in adaptive
/// chunks (see `adaptive_chunk`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CursorExecutor;

impl Executor for CursorExecutor {
    fn run(&self, count: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
        run_cursor_pool(count, threads, task);
    }
}

// ---------------------------------------------------------------------------
// Work stealing
// ---------------------------------------------------------------------------

/// One worker's remaining index range `[lo, hi)`, packed `(lo << 32) | hi`
/// into a single atomic word so owner takes and thief steals are plain CAS
/// transitions on one value.
///
/// Chase-Lev shape without the array: because the queued items are a
/// *contiguous* index range, the whole deque state fits in the packed word
/// — the owner pops chunks from the bottom (`lo` up), thieves split off the
/// top half (`hi` down). Every successful CAS removes a sub-range exactly
/// once, and the packed word fully determines the transition, so the
/// classic ABA hazard is benign: a CAS that succeeds against the current
/// value always performs a valid split of the range that is actually there.
/// Model-checked (take/steal race + a load/store mutant the model must
/// catch) in `tests/loom_cursor.rs`.
struct RangeDeque {
    bits: AtomicU64,
}

/// Memory ordering for every access to the packed range word (D3 audit):
/// the word is the deque's *entire* shared state and no payload is
/// published through it — task results travel through the caller's
/// per-index mutex slots, which synchronize on their own — so CAS/RMW
/// atomicity alone carries the exactly-once claim guarantee and no
/// acquire/release edges are needed. Model-checked in
/// `tests/loom_cursor.rs`.
// lint:allow(relaxed) self-contained packed word; CAS atomicity suffices.
const RANGE_ORDER: Ordering = Ordering::Relaxed;

fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

fn unpack(bits: u64) -> (u32, u32) {
    ((bits >> 32) as u32, bits as u32)
}

impl RangeDeque {
    fn new(lo: u32, hi: u32) -> Self {
        Self {
            bits: AtomicU64::new(pack(lo, hi)),
        }
    }

    /// Owner end: claim up to `chunk` indices from the bottom of the range.
    /// Returns the claimed sub-range `[start, end)`.
    fn take(&self, chunk: u32) -> Option<(u32, u32)> {
        let mut cur = self.bits.load(RANGE_ORDER);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let end = hi.min(lo.saturating_add(chunk.max(1)));
            match self
                .bits
                .compare_exchange(cur, pack(end, hi), RANGE_ORDER, RANGE_ORDER)
            {
                Ok(_) => return Some((lo, end)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Thief end: split off the top half of the victim's remaining range.
    /// Leaves the last element to the owner (stealing a single remaining
    /// index buys nothing and churns the owner's cache line).
    fn steal(&self) -> Option<(u32, u32)> {
        let mut cur = self.bits.load(RANGE_ORDER);
        loop {
            let (lo, hi) = unpack(cur);
            let stolen = (hi.saturating_sub(lo)) / 2;
            if stolen == 0 {
                return None;
            }
            let mid = hi - stolen;
            match self
                .bits
                .compare_exchange(cur, pack(lo, mid), RANGE_ORDER, RANGE_ORDER)
            {
                Ok(_) => return Some((mid, hi)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Owner-only: refill the (empty) deque with a freshly stolen range so
    /// other thieves can re-steal from it. Only the owner ever stores to
    /// its deque, and only when the range is empty; concurrent thieves
    /// either observed the empty range (and did not CAS) or race their CAS
    /// against the new value, which is a valid split either way.
    fn refill(&self, lo: u32, hi: u32) {
        // Single-writer store (owner only, and only when its range is
        // empty); thieves re-read the word through their own CAS loops.
        self.bits.store(pack(lo, hi), RANGE_ORDER);
    }
}

/// Per-worker contiguous ranges with top-half stealing.
///
/// Indices `0..count` are pre-split into one contiguous range per worker
/// (good locality, zero shared-cursor traffic). Owners take adaptive
/// chunks from the bottom of their own range; a worker whose range is
/// empty scans the other deques round-robin and steals the top half of the
/// first non-empty one, parks the loot in its own deque (re-stealable),
/// and goes back to taking. A worker exits when its own deque is empty and
/// a full steal sweep found nothing — the enclosing scope join is the
/// barrier, so `run` returns only after every claimed range was fully
/// executed by whoever holds it.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkStealingExecutor;

impl Executor for WorkStealingExecutor {
    fn run(&self, count: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
        let threads = effective_threads(count, threads);
        if threads == 1 {
            for i in 0..count {
                task(i);
            }
            return;
        }
        if count >= u32::MAX as usize {
            // The packed-range deque addresses 32-bit indices; phases this
            // large (never reached by the simulated jobs) fall back to the
            // shared cursor, which has no such bound.
            run_cursor_pool(count, threads, task);
            return;
        }
        let chunk = adaptive_chunk(count, threads) as u32;
        // Balanced contiguous split: the first `count % threads` workers
        // get one extra index.
        let base = count / threads;
        let extra = count % threads;
        let mut next = 0u32;
        let deques: Vec<RangeDeque> = (0..threads)
            .map(|w| {
                let len = (base + usize::from(w < extra)) as u32;
                let d = RangeDeque::new(next, next + len);
                next += len;
                d
            })
            .collect();
        std::thread::scope(|scope| {
            for me in 0..threads {
                let deques = &deques;
                scope.spawn(move || loop {
                    if let Some((s, e)) = deques[me].take(chunk) {
                        for i in s..e {
                            task(i as usize);
                        }
                        continue;
                    }
                    // Own range drained: steal the top half of the first
                    // non-empty victim, round-robin from the right
                    // neighbour so thieves spread over victims.
                    let mut stolen = None;
                    for d in 1..threads {
                        if let Some(r) = deques[(me + d) % threads].steal() {
                            stolen = Some(r);
                            break;
                        }
                    }
                    match stolen {
                        Some((s, e)) => deques[me].refill(s, e),
                        None => return,
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;

    /// Run `kind` over `count` tasks and return the per-index claim counts
    /// plus the order in which indices were executed (globally observed).
    fn claims(kind: ExecutorKind, count: usize, threads: usize) -> Vec<usize> {
        let counts: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
        kind.run(count, threads, &|i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        counts.into_iter().map(|c| c.into_inner()).collect()
    }

    fn all_kinds() -> Vec<ExecutorKind> {
        vec![ExecutorKind::Cursor, ExecutorKind::WorkStealing]
    }

    #[test]
    fn every_backend_runs_each_index_exactly_once() {
        for kind in all_kinds() {
            for count in [0usize, 1, 2, 3, 17, 64, 257] {
                for threads in [1usize, 2, 3, 8, 16] {
                    let c = claims(kind, count, threads);
                    assert!(
                        c.iter().all(|&n| n == 1),
                        "{}: count={count} threads={threads}: claims {c:?}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        for kind in all_kinds() {
            kind.run(0, 8, &|_| panic!("no task should run"));
        }
    }

    #[test]
    fn threads_one_runs_inline_in_index_order() {
        for kind in all_kinds() {
            let order = Mutex::new(Vec::new());
            kind.run(5, 1, &|i| order.lock().push(i));
            assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4], "{}", kind.name());
        }
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in all_kinds() {
            assert_eq!(ExecutorKind::parse(&kind.name()).unwrap(), kind);
        }
        // The retired fixed-chunk spellings still parse, as the cursor pool.
        for retired in ["chunked", "chunked:1", "chunked:16"] {
            assert_eq!(ExecutorKind::parse(retired).unwrap(), ExecutorKind::Cursor);
        }
        assert_eq!(
            ExecutorKind::parse("work-stealing").unwrap(),
            ExecutorKind::WorkStealing
        );
        assert!(ExecutorKind::parse("fancy").is_err());
        assert!(ExecutorKind::parse("chunked:x").is_err());
    }

    #[test]
    fn default_kind_is_cursor() {
        assert_eq!(ExecutorKind::default(), ExecutorKind::Cursor);
    }

    #[test]
    fn adaptive_chunk_is_bounded_and_scales() {
        assert_eq!(adaptive_chunk(1, 8), 1);
        assert_eq!(adaptive_chunk(64, 8), 2);
        assert!(adaptive_chunk(1_000_000, 2) <= 64);
        assert!(adaptive_chunk(8, 1) >= 1);
    }

    #[test]
    fn range_deque_take_and_steal_partition_the_range() {
        let d = RangeDeque::new(0, 10);
        assert_eq!(d.take(3), Some((0, 3)));
        assert_eq!(d.steal(), Some((7, 10))); // top half of [3,10)
        assert_eq!(d.take(100), Some((3, 7)));
        assert_eq!(d.take(1), None);
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn range_deque_never_steals_the_last_index() {
        let d = RangeDeque::new(4, 5);
        assert_eq!(d.steal(), None);
        assert_eq!(d.take(1), Some((4, 5)));
    }

    proptest! {
        // Exactly-once over randomized shapes: every backend, any count ×
        // thread combination, each index claimed once.
        #[test]
        fn prop_exactly_once(count in 0usize..200, threads in 1usize..12) {
            for kind in all_kinds() {
                let c = claims(kind, count, threads);
                prop_assert!(c.iter().all(|&n| n == 1), "{}: {c:?}", kind.name());
            }
        }
    }
}
