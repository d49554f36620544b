//! Deterministic task-failure injection.
//!
//! Hadoop re-executes failed tasks (up to `mapreduce.map.maxattempts`,
//! default 4, here [`MAX_ATTEMPTS`]); a failure wastes the work of the dead
//! attempt and delays everything scheduled behind it. [`FaultPlan`] injects
//! exactly such failures into a job as a list of [`AttemptFault`]s keyed
//! by `(task, attempt)`, each naming one of three death points:
//!
//! * **at start** ([`FaultPlan::with_crash`]): the attempt's first charge
//!   kills it — "at clock 0";
//! * **at clock `c`** ([`FaultPlan::with_abort`]): the attempt panics the
//!   moment its virtual clock reaches `c` (the runtime catches the
//!   [`InjectedAbort`] panic); an attempt that finishes under `c` survives;
//! * **at end** ([`FaultPlan::with_discard`], [`FaultPlan::fail_map`],
//!   [`FaultPlan::fail_reduce`]): the attempt runs to completion and its
//!   output is discarded.
//!
//! One waste rule covers all three: a dead attempt wastes its own clock at
//! death, and the task is re-run as a fresh attempt. Plans are specified per
//! task index and attempt, so chaos tests are fully deterministic. Only
//! exhausting the attempt budget fails the job.

use crate::job::TaskKind;

/// Panic payload thrown by [`crate::job::TaskContext::charge`] when an
/// injected fault aborts the running attempt. The runtime downcasts to this
/// to distinguish injected aborts from genuine user-code panics.
#[derive(Debug, Clone, Copy)]
pub struct InjectedAbort {
    /// Task-local virtual time at which the attempt died.
    pub at: f64,
}

/// One injected attempt death, keyed by `(task, attempt)`.
#[derive(Debug, Clone, Copy)]
pub struct AttemptFault {
    /// Map or reduce side.
    pub kind: TaskKind,
    /// Task index within the phase (0-based).
    pub index: usize,
    /// Which attempt dies (1-based, like Hadoop attempt ids).
    pub attempt: u32,
    /// `Some(c)`: the attempt panics as soon as its virtual clock reaches
    /// `c` cost units (`0` = at its start); if it finishes under `c` it
    /// survives. `None`: the attempt is never aborted — it runs to
    /// completion and its output is discarded.
    pub abort_at: Option<f64>,
}

/// Attempts allowed per task, Hadoop's `mapreduce.*.maxattempts` default. A
/// task whose injected failures reach this bound fails the job.
pub const MAX_ATTEMPTS: u32 = 4;

/// Failure schedule for one job.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Attempt deaths, at most one per `(task, attempt)`.
    pub attempt_faults: Vec<AttemptFault>,
}

impl FaultPlan {
    /// A plan discarding one map task's first `attempts` attempts.
    pub fn fail_map(index: usize, attempts: u32) -> Self {
        Self::discarding(TaskKind::Map, index, attempts)
    }

    /// A plan discarding one reduce task's first `attempts` attempts.
    pub fn fail_reduce(index: usize, attempts: u32) -> Self {
        Self::discarding(TaskKind::Reduce, index, attempts)
    }

    /// Attempts past [`MAX_ATTEMPTS`] never run, so the plan stops there:
    /// any `attempts ≥ MAX_ATTEMPTS` exhausts the task.
    fn discarding(kind: TaskKind, index: usize, attempts: u32) -> Self {
        (1..=attempts.min(MAX_ATTEMPTS)).fold(Self::default(), |plan, attempt| {
            plan.with_discard(kind, index, attempt)
        })
    }

    fn with_fault(
        mut self,
        kind: TaskKind,
        index: usize,
        attempt: u32,
        abort_at: Option<f64>,
    ) -> Self {
        self.attempt_faults.push(AttemptFault {
            kind,
            index,
            attempt,
            abort_at,
        });
        self
    }

    /// Add an attempt that dies at its start: its first charge kills it.
    /// Chainable.
    pub fn with_crash(self, kind: TaskKind, index: usize, attempt: u32) -> Self {
        self.with_fault(kind, index, attempt, Some(0.0))
    }

    /// Add an attempt that panics once its virtual clock reaches `at` cost
    /// units. Chainable.
    pub fn with_abort(self, kind: TaskKind, index: usize, attempt: u32, at: f64) -> Self {
        self.with_fault(kind, index, attempt, Some(at))
    }

    /// Add an attempt that runs to completion and has its output discarded.
    /// Chainable.
    pub fn with_discard(self, kind: TaskKind, index: usize, attempt: u32) -> Self {
        self.with_fault(kind, index, attempt, None)
    }

    fn faults_of(&self, kind: TaskKind, index: usize) -> impl Iterator<Item = &AttemptFault> {
        self.attempt_faults
            .iter()
            .filter(move |f| f.kind == kind && f.index == index)
    }

    /// The injected death for `(task, attempt)`, if any.
    pub fn fault_for(&self, kind: TaskKind, index: usize, attempt: u32) -> Option<AttemptFault> {
        self.faults_of(kind, index)
            .find(|f| f.attempt == attempt)
            .copied()
    }

    /// Total injected deaths for a task. If this reaches [`MAX_ATTEMPTS`]
    /// the task — and hence the job — fails.
    pub fn deaths_for(&self, kind: TaskKind, index: usize) -> u32 {
        self.faults_of(kind, index).count() as u32
    }

    /// True if the injected failures exhaust the attempt budget.
    pub fn exhausts_attempts(&self, kind: TaskKind, index: usize) -> bool {
        self.deaths_for(kind, index) >= MAX_ATTEMPTS
    }

    /// Validate the plan against the job's task counts: every referenced
    /// task index must exist, attempts are 1-based, an abort clock must be
    /// finite and non-negative, and no two faults may share a
    /// `(task, attempt)` key. Returns a human-readable description of the
    /// first violation.
    pub fn validate(&self, num_map: usize, num_reduce: usize) -> Result<(), String> {
        for fault in &self.attempt_faults {
            let (side, bound) = match fault.kind {
                TaskKind::Map => ("map", num_map),
                TaskKind::Reduce => ("reduce", num_reduce),
            };
            if fault.index >= bound {
                return Err(format!(
                    "attempt fault references {side} task index {}, but the job has only {bound} such tasks",
                    fault.index
                ));
            }
            if fault.attempt == 0 {
                return Err(format!(
                    "attempt fault on task index {} uses attempt 0; attempts are 1-based",
                    fault.index
                ));
            }
            if fault.abort_at.is_some_and(|at| !at.is_finite() || at < 0.0) {
                return Err(format!(
                    "attempt fault on task index {} has a non-finite or negative abort_at ({:?})",
                    fault.index, fault.abort_at
                ));
            }
            // Only the first fault of a key would ever fire, while every one
            // of them counts towards exhaustion.
            let same_key = self
                .faults_of(fault.kind, fault.index)
                .filter(|f| f.attempt == fault.attempt);
            if same_key.count() > 1 {
                return Err(format!(
                    "two attempt faults are keyed to attempt {} of {side} task index {}",
                    fault.attempt, fault.index
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups() {
        let plan = FaultPlan::fail_map(2, 1)
            .with_discard(TaskKind::Map, 5, 1)
            .with_discard(TaskKind::Map, 5, 2)
            .with_discard(TaskKind::Map, 5, 3)
            .with_discard(TaskKind::Reduce, 0, 1)
            .with_discard(TaskKind::Reduce, 0, 2);
        assert_eq!(plan.deaths_for(TaskKind::Map, 2), 1);
        assert_eq!(plan.deaths_for(TaskKind::Map, 5), 3);
        assert_eq!(plan.deaths_for(TaskKind::Map, 0), 0);
        assert_eq!(plan.deaths_for(TaskKind::Reduce, 0), 2);
        assert!(!plan.exhausts_attempts(TaskKind::Map, 5));
    }

    #[test]
    fn attempt_exhaustion() {
        let plan = FaultPlan::fail_map(1, MAX_ATTEMPTS);
        assert!(plan.exhausts_attempts(TaskKind::Map, 1));
        assert!(!plan.exhausts_attempts(TaskKind::Map, 0));
        assert!(!FaultPlan::fail_map(1, MAX_ATTEMPTS - 1).exhausts_attempts(TaskKind::Map, 1));
    }

    #[test]
    fn discarding_plans_stop_at_the_attempt_budget() {
        let plan = FaultPlan::fail_reduce(0, 1_000_000);
        assert_eq!(plan.attempt_faults.len(), MAX_ATTEMPTS as usize);
        assert!(plan.exhausts_attempts(TaskKind::Reduce, 0));
        assert!(plan.fault_for(TaskKind::Reduce, 0, MAX_ATTEMPTS).is_some());
        let plan = FaultPlan::fail_map(2, u32::MAX);
        assert_eq!(plan.deaths_for(TaskKind::Map, 2), MAX_ATTEMPTS);
        assert!(plan.exhausts_attempts(TaskKind::Map, 2));
    }

    #[test]
    fn builders() {
        let m = FaultPlan::fail_map(3, 2);
        assert_eq!(m.deaths_for(TaskKind::Map, 3), 2);
        assert!(m.fault_for(TaskKind::Map, 3, 3).is_none());
        let r = FaultPlan::fail_reduce(1, 1);
        let fault = r.fault_for(TaskKind::Reduce, 1, 1).unwrap();
        assert_eq!(fault.abort_at, None, "discarded at its end, never aborted");
    }

    #[test]
    fn attempt_fault_lookup_is_keyed_by_task_and_attempt() {
        let plan = FaultPlan::default()
            .with_crash(TaskKind::Map, 1, 1)
            .with_abort(TaskKind::Reduce, 0, 2, 123.0);
        let f = plan.fault_for(TaskKind::Map, 1, 1).unwrap();
        assert_eq!(f.abort_at, Some(0.0));
        assert!(plan.fault_for(TaskKind::Map, 1, 2).is_none());
        assert!(plan.fault_for(TaskKind::Map, 0, 1).is_none());
        let g = plan.fault_for(TaskKind::Reduce, 0, 2).unwrap();
        assert_eq!(g.abort_at, Some(123.0));
        assert_eq!(plan.deaths_for(TaskKind::Map, 1), 1);
        assert_eq!(plan.deaths_for(TaskKind::Reduce, 0), 1);
    }

    #[test]
    fn keyed_faults_count_toward_exhaustion() {
        let plan = (1..=MAX_ATTEMPTS).fold(FaultPlan::default(), |plan, attempt| {
            plan.with_crash(TaskKind::Map, 0, attempt)
        });
        assert!(plan.exhausts_attempts(TaskKind::Map, 0));
    }

    #[test]
    fn validate_rejects_out_of_range_indices() {
        let plan = FaultPlan::fail_map(99, 2);
        let err = plan.validate(4, 4).unwrap_err();
        assert!(err.contains("99"), "{err}");
        assert!(plan.validate(100, 4).is_ok());

        let plan = FaultPlan::fail_reduce(4, 1);
        assert!(plan.validate(8, 4).is_err());
        assert!(plan.validate(8, 5).is_ok());

        let plan = FaultPlan::default().with_abort(TaskKind::Reduce, 7, 1, 10.0);
        assert!(plan.validate(8, 7).is_err());
        assert!(plan.validate(8, 8).is_ok());
    }

    #[test]
    fn validate_rejects_bad_scalars() {
        let plan = FaultPlan::default().with_abort(TaskKind::Map, 0, 1, f64::NAN);
        assert!(plan.validate(1, 1).is_err());
        let plan = FaultPlan::default().with_crash(TaskKind::Map, 0, 0);
        assert!(plan.validate(1, 1).is_err());
    }

    #[test]
    fn validate_rejects_two_faults_on_one_attempt() {
        // `fault_for` would apply the first and ignore the second while
        // `deaths_for` counted both: this plan reports exhaustion for a task
        // whose last attempt in fact survives.
        let plan = FaultPlan::fail_reduce(0, MAX_ATTEMPTS - 1).with_crash(TaskKind::Reduce, 0, 1);
        assert!(plan.exhausts_attempts(TaskKind::Reduce, 0));
        let err = plan.validate(1, 1).unwrap_err();
        assert!(err.contains("attempt 1 of reduce task index 0"), "{err}");
        // Same attempt number on another task or side is a different key.
        let plan = FaultPlan::fail_reduce(0, 1)
            .with_crash(TaskKind::Reduce, 1, 1)
            .with_crash(TaskKind::Map, 0, 1);
        assert!(plan.validate(2, 2).is_ok());
    }
}
