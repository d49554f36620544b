//! Offline stand-in for [loom](https://docs.rs/loom): exhaustive model
//! checking of thread interleavings over the small API surface this
//! workspace actually uses — `loom::model`, `loom::thread::{spawn, yield_now}`,
//! `loom::sync::Arc`, and `loom::sync::atomic::{AtomicUsize, AtomicU64}`.
//!
//! ## How it explores interleavings
//!
//! Each `model()` execution runs the test body and every `thread::spawn`ed
//! closure on real OS threads, but under a cooperative token scheduler:
//! exactly one thread holds the token at a time, and every atomic operation
//! (plus `yield_now` and `join`) is a *schedule point* that hands the token
//! to a scheduler-chosen runnable thread. Because controlled threads only
//! interleave at schedule points, an execution is fully described by the
//! sequence of choices the scheduler made.
//!
//! The driver explores that choice tree depth-first: each execution records
//! its choice path as `(chosen, number_of_alternatives)` pairs; afterwards
//! the deepest choice with an unexplored alternative is bumped and the
//! prefix replayed. When no choice anywhere on the path has alternatives
//! left, the state space is exhausted. This is plain exhaustive DFS — no
//! partial-order reduction — which is fine for the handful-of-ops models in
//! this repo (the driver panics past [`MAX_EXECUTIONS`] rather than pass
//! vacuously).
//!
//! ## Fidelity caveats
//!
//! All shim atomics behave as `SeqCst` regardless of the `Ordering` the
//! model passes, so this checker finds interleaving bugs (lost updates,
//! double-claims, deadlocks) but not relaxed-memory reordering bugs. That
//! matches what the workspace models: single atomics whose RMW atomicity
//! alone must carry the invariant (D3 in DESIGN.md's determinism table).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Condvar, Mutex};

/// Hard cap on executions per model; exceeding it panics so an
/// accidentally huge state space fails loudly instead of running forever.
pub const MAX_EXECUTIONS: usize = 1_000_000;

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// Eligible for the token.
    Runnable,
    /// Waiting for thread `t` to finish (`JoinHandle::join`).
    BlockedOnJoin(usize),
    /// Exited; never runnable again.
    Finished,
}

/// One recorded scheduling decision: position `chosen` out of `alternatives`
/// runnable threads (the runnable set is enumerated in thread-id order, so a
/// position replays to the same thread).
#[derive(Clone, Copy)]
struct Choice {
    chosen: usize,
    alternatives: usize,
}

struct SchedState {
    /// Thread currently holding the token.
    current: usize,
    threads: Vec<ThreadState>,
    /// Choice path taken by this execution.
    path: Vec<Choice>,
    /// Forced prefix (positions) replayed from the previous execution.
    prefix: Vec<usize>,
    /// How much of `prefix` has been consumed.
    cursor: usize,
    /// Set when any controlled thread panics; everyone else bails out.
    poisoned: bool,
}

struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    fn new(prefix: Vec<usize>) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                current: 0,
                threads: vec![ThreadState::Runnable],
                path: Vec::new(),
                prefix,
                cursor: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Register a new controlled thread; returns its id. The new thread
    /// starts Runnable but does not receive the token until chosen.
    fn register(&self) -> usize {
        let mut s = self.state.lock().expect("scheduler lock");
        s.threads.push(ThreadState::Runnable);
        s.threads.len() - 1
    }

    /// Pick the next token holder among runnable threads, recording the
    /// decision. Caller must hold the lock. Panics on deadlock.
    fn transfer_locked(&self, s: &mut SchedState) {
        let runnable: Vec<usize> = (0..s.threads.len())
            .filter(|&t| s.threads[t] == ThreadState::Runnable)
            .collect();
        if runnable.is_empty() {
            if s.threads.iter().any(|&t| t != ThreadState::Finished) {
                s.poisoned = true;
                self.cv.notify_all();
                panic!("loom model deadlock: every live thread is blocked");
            }
            // All threads finished: nothing to schedule, execution is over.
            return;
        }
        let pos = if s.cursor < s.prefix.len() {
            s.prefix[s.cursor]
        } else {
            0
        };
        s.cursor += 1;
        debug_assert!(pos < runnable.len(), "replay prefix diverged");
        s.path.push(Choice {
            chosen: pos,
            alternatives: runnable.len(),
        });
        s.current = runnable[pos];
        self.cv.notify_all();
    }

    /// Wait until `me` holds the token (a freshly spawned thread reaches its
    /// first schedule point before any transfer has granted it the token).
    fn acquire_locked<'a>(
        &self,
        mut s: std::sync::MutexGuard<'a, SchedState>,
        me: usize,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        while s.current != me && !s.poisoned {
            s = self.cv.wait(s).expect("scheduler wait");
        }
        if s.poisoned {
            panic!("loom model poisoned by a failure in another thread");
        }
        s
    }

    /// Schedule point: hand the token to a scheduler-chosen thread and block
    /// until it comes back to `me`. Called before every visible operation.
    fn schedule(&self, me: usize) {
        let s = self.state.lock().expect("scheduler lock");
        let mut s = self.acquire_locked(s, me);
        self.transfer_locked(&mut s);
        drop(self.acquire_locked(s, me));
    }

    /// Block `me` until thread `target` finishes, releasing the token.
    fn join_wait(&self, me: usize, target: usize) {
        let s = self.state.lock().expect("scheduler lock");
        let mut s = self.acquire_locked(s, me);
        if s.threads[target] != ThreadState::Finished {
            s.threads[me] = ThreadState::BlockedOnJoin(target);
            self.transfer_locked(&mut s);
            drop(self.acquire_locked(s, me));
        }
    }

    /// Mark `me` finished, wake its joiners, and pass the token on.
    fn exit(&self, me: usize) {
        let mut s = self.state.lock().expect("scheduler lock");
        s.threads[me] = ThreadState::Finished;
        for t in 0..s.threads.len() {
            if s.threads[t] == ThreadState::BlockedOnJoin(me) {
                s.threads[t] = ThreadState::Runnable;
            }
        }
        self.transfer_locked(&mut s);
    }

    /// Poison the model because `me` panicked; wakes every waiter.
    fn poison(&self, me: usize) {
        let mut s = self.state.lock().expect("scheduler lock");
        s.threads[me] = ThreadState::Finished;
        s.poisoned = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Per-thread context
// ---------------------------------------------------------------------------

thread_local! {
    static CONTEXT: std::cell::RefCell<Option<(StdArc<Scheduler>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn with_context<R>(f: impl FnOnce(&StdArc<Scheduler>, usize) -> R) -> R {
    CONTEXT.with(|c| {
        let ctx = c.borrow();
        let (sched, id) = ctx
            .as_ref()
            .expect("loom primitives may only be used inside loom::model");
        f(sched, *id)
    })
}

/// Run `body` on a fresh OS thread registered as controlled thread `id`.
fn spawn_controlled<T: Send + 'static>(
    sched: StdArc<Scheduler>,
    id: usize,
    body: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<std::thread::Result<T>> {
    std::thread::spawn(move || {
        CONTEXT.with(|c| *c.borrow_mut() = Some((sched.clone(), id)));
        let result = catch_unwind(AssertUnwindSafe(body));
        CONTEXT.with(|c| *c.borrow_mut() = None);
        match &result {
            Ok(_) => sched.exit(id),
            Err(_) => sched.poison(id),
        }
        result
    })
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Exhaustively check `f` under every schedule of its controlled threads.
///
/// Panics (propagating the model's own panic) on the first failing
/// interleaving; the replay prefix that reached it is printed first so the
/// failure is reproducible by inspection.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = StdArc::new(f);
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    loop {
        executions += 1;
        assert!(
            executions <= MAX_EXECUTIONS,
            "loom model exceeded {MAX_EXECUTIONS} executions; shrink the model"
        );
        let sched = StdArc::new(Scheduler::new(prefix.clone()));
        let body = {
            let f = f.clone();
            let sched = sched.clone();
            spawn_controlled(sched, 0, move || f())
        };
        let result = body.join().expect("model body thread died");
        if let Err(payload) = result {
            eprintln!("loom: model failed on execution {executions} (schedule prefix {prefix:?})");
            resume_unwind(payload);
        }
        // Back up to the deepest choice with an untried alternative.
        let path = {
            let s = sched.state.lock().expect("scheduler lock");
            s.path.clone()
        };
        let Some(backtrack) = path.iter().rposition(|c| c.chosen + 1 < c.alternatives) else {
            return; // state space exhausted
        };
        prefix = path[..=backtrack].iter().map(|c| c.chosen).collect();
        prefix[backtrack] += 1;
    }
}

pub mod thread {
    use super::{spawn_controlled, with_context};

    /// Handle to a controlled thread; `join` is a schedule point.
    pub struct JoinHandle<T> {
        os: std::thread::JoinHandle<std::thread::Result<T>>,
        id: usize,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and return its result, exactly
        /// like [`std::thread::JoinHandle::join`].
        pub fn join(self) -> std::thread::Result<T> {
            with_context(|sched, me| sched.join_wait(me, self.id));
            self.os.join().expect("controlled thread died")
        }
    }

    /// Spawn a controlled thread inside a [`super::model`] body.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (sched, id) = with_context(|sched, _| {
            let id = sched.register();
            (sched.clone(), id)
        });
        JoinHandle {
            os: spawn_controlled(sched, id, f),
            id,
        }
    }

    /// A pure schedule point: lets any other runnable thread run.
    pub fn yield_now() {
        with_context(|sched, me| sched.schedule(me));
    }
}

pub mod sync {
    /// Plain [`std::sync::Arc`]: reference counting is not part of the
    /// modeled state space.
    pub use std::sync::Arc;

    pub mod atomic {
        use super::super::with_context;

        pub use std::sync::atomic::Ordering;

        /// Model-checked atomics: every operation is a schedule point, then
        /// executes `SeqCst` on a std atomic (one controlled thread runs at
        /// a time, so `SeqCst` realizes every interleaving the scheduler
        /// chooses regardless of the ordering asked for).
        macro_rules! modeled_atomic {
            ($name:ident, $std:path, $prim:ty) => {
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: $std,
                }

                impl $name {
                    pub fn new(v: $prim) -> Self {
                        $name {
                            inner: <$std>::new(v),
                        }
                    }

                    fn schedule_point() {
                        with_context(|sched, me| sched.schedule(me));
                    }

                    pub fn load(&self, _order: Ordering) -> $prim {
                        Self::schedule_point();
                        self.inner.load(Ordering::SeqCst)
                    }

                    pub fn store(&self, v: $prim, _order: Ordering) {
                        Self::schedule_point();
                        self.inner.store(v, Ordering::SeqCst);
                    }

                    pub fn fetch_add(&self, v: $prim, _order: Ordering) -> $prim {
                        Self::schedule_point();
                        self.inner.fetch_add(v, Ordering::SeqCst)
                    }

                    pub fn swap(&self, v: $prim, _order: Ordering) -> $prim {
                        Self::schedule_point();
                        self.inner.swap(v, Ordering::SeqCst)
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        _success: Ordering,
                        _failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        Self::schedule_point();
                        self.inner.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                    }
                }
            };
        }

        modeled_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        modeled_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::Arc;

    /// Two unsynchronized load-then-store increments must lose an update in
    /// at least one interleaving: the checker has to find it.
    #[test]
    fn finds_lost_update() {
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let counter = Arc::new(AtomicUsize::new(0));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let counter = counter.clone();
                        super::thread::spawn(move || {
                            let v = counter.load(Ordering::SeqCst);
                            counter.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("worker");
                }
                assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(result.is_err(), "model must expose the lost-update race");
    }

    /// The same increments done with fetch_add never lose updates in any
    /// interleaving: the checker must exhaust the space without failing.
    #[test]
    fn fetch_add_has_no_lost_update() {
        super::model(|| {
            let counter = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = counter.clone();
                    super::thread::spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker");
            }
            assert_eq!(counter.load(Ordering::Relaxed), 2);
        });
    }

    /// Explicit yields create schedule points but no shared-state effects;
    /// the model must terminate (exhaust) quickly.
    #[test]
    fn exhausts_yield_only_models() {
        super::model(|| {
            let h = super::thread::spawn(|| {
                super::thread::yield_now();
            });
            super::thread::yield_now();
            h.join().expect("worker");
        });
    }
}
