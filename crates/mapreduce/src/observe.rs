//! Task lifecycle observation: the hook the durable journal hangs off.
//!
//! The runtime's attempt loop ([`crate::runtime`]) buffers what happened to
//! each task — attempts consumed, failure history, final cost — and, after
//! a phase's worker threads have joined, notifies the registered
//! [`TaskObserver`] from the driver thread in task-index order. Notifying
//! post-barrier keeps the hot path lock-free and makes the notification
//! order (and therefore a journal built from it) deterministic regardless
//! of worker-thread interleaving.

use std::sync::Arc;

use crate::job::TaskId;

/// One failed attempt of a task, in the order it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 1-based attempt number (Hadoop-style).
    pub attempt: u32,
    /// Rendered panic message or injected-failure description.
    pub error: String,
    /// Virtual cost the dead attempt occupied the task's slot for.
    pub wasted_cost: f64,
}

/// A task-level lifecycle fact, delivered after the phase barrier.
#[derive(Debug)]
pub enum TaskEvent<'a> {
    /// The task committed (possibly after failed attempts).
    Finished {
        /// MR job name the task belongs to.
        job: &'a str,
        /// Task identity (kind + index).
        id: TaskId,
        /// Attempts consumed (1 = first attempt succeeded).
        attempts: u32,
        /// History of the dead attempts, empty on a clean first run.
        failures: &'a [AttemptRecord],
        /// Total virtual cost on the task's slot (clean + wasted).
        cost: f64,
        /// Portion of `cost` burned by dead attempts.
        wasted: f64,
    },
    /// The task exhausted its attempt budget and failed its job.
    Exhausted {
        /// MR job name the task belonged to.
        job: &'a str,
        /// Task identity (kind + index).
        id: TaskId,
        /// Attempts consumed (= the budget).
        attempts: u32,
        /// History of every dead attempt.
        failures: &'a [AttemptRecord],
    },
}

/// Shared callback invoked (from the driver thread, in task-index order)
/// for every task-level lifecycle event of a job.
#[derive(Clone)]
pub struct TaskObserver(Arc<dyn Fn(&TaskEvent<'_>) + Send + Sync>);

impl TaskObserver {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&TaskEvent<'_>) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Deliver one event.
    pub fn notify(&self, event: &TaskEvent<'_>) {
        (self.0)(event);
    }
}

impl std::fmt::Debug for TaskObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TaskObserver(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TaskKind;
    use parking_lot::Mutex;

    #[test]
    fn observer_delivers_and_clones_share_state() {
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let obs = TaskObserver::new(move |ev| {
            let line = match ev {
                TaskEvent::Finished { id, attempts, .. } => format!("fin {id} x{attempts}"),
                TaskEvent::Exhausted { id, attempts, .. } => format!("dead {id} x{attempts}"),
            };
            sink.lock().push(line);
        });
        let clone = obs.clone();
        clone.notify(&TaskEvent::Finished {
            job: "j",
            id: TaskId {
                kind: TaskKind::Map,
                index: 0,
            },
            attempts: 1,
            failures: &[],
            cost: 10.0,
            wasted: 0.0,
        });
        obs.notify(&TaskEvent::Exhausted {
            job: "j",
            id: TaskId {
                kind: TaskKind::Reduce,
                index: 3,
            },
            attempts: 4,
            failures: &[AttemptRecord {
                attempt: 1,
                error: "boom".into(),
                wasted_cost: 2.0,
            }],
        });
        assert_eq!(*seen.lock(), vec!["fin map-0 x1", "dead reduce-3 x4"]);
        assert_eq!(format!("{obs:?}"), "TaskObserver(..)");
    }
}
