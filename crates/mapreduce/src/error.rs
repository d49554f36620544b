//! Error type for the MapReduce runtime.

use std::fmt;

use pper_vfs::IoFault;

/// Errors surfaced by [`crate::runtime::run_job`].
#[derive(Debug)]
pub enum MrError {
    /// A job was configured with zero machines or zero slots.
    InvalidCluster(String),
    /// A task panicked; carries the task description and panic payload text.
    TaskPanicked { task: String, message: String },
    /// Spill/serialization failure in the intermediate store.
    Spill(String),
    /// A typed storage fault from the out-of-core path (spill runs, store
    /// files, journals). The class drives recovery: transient faults were
    /// already retried in place, corrupt artifacts are quarantined and the
    /// producing stage re-run, permanent faults surface here.
    Io(IoFault),
    /// A [`crate::faults::FaultPlan`] referenced tasks the job does not have
    /// or used nonsensical parameters.
    InvalidFaultPlan(String),
    /// A task exhausted its attempt budget (injected failures or repeated
    /// panics, see [`crate::faults::FaultPlan`]).
    TaskFailed {
        /// Task description.
        task: String,
        /// Attempt budget that was exhausted.
        attempts: u32,
        /// Why the last attempt died.
        last_error: String,
    },
    /// A checkpoint could not be validated or applied during resume.
    Checkpoint(String),
    /// A pipeline configuration its jobs cannot run, refused before the
    /// first of them starts (e.g. more blocking families than a dominance
    /// list holds).
    InvalidConfig(String),
    /// A runtime bookkeeping invariant was violated (e.g. a task slot left
    /// empty with no recorded error, or a shuffle routing table missing a
    /// key it was built from). Always a bug in this crate, never in user
    /// mappers/reducers — but surfaced as an error instead of a panic so
    /// callers can fail the job cleanly.
    Internal(String),
    /// A mapper's [`crate::job::Mapper::partition`] returned a reduce-task
    /// index outside `0..num_reduce` — a placement bug, never clamped onto
    /// a task that exists (for the second job: a tree scheduled on a task
    /// past the schedule's).
    InvalidPartition {
        /// Job name.
        job: String,
        /// The out-of-range index the mapper returned.
        partition: usize,
        /// Number of reduce tasks the job actually has.
        num_reduce: usize,
    },
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::InvalidCluster(msg) => write!(f, "invalid cluster spec: {msg}"),
            MrError::TaskPanicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
            MrError::Spill(msg) => write!(f, "spill error: {msg}"),
            MrError::Io(fault) => write!(f, "storage fault: {fault}"),
            MrError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            MrError::TaskFailed {
                task,
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "task {task} failed after {attempts} attempts: {last_error}"
                )
            }
            MrError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            MrError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MrError::Internal(msg) => write!(f, "internal runtime invariant violated: {msg}"),
            MrError::InvalidPartition {
                job,
                partition,
                num_reduce,
            } => {
                write!(
                    f,
                    "job '{job}': the mapper routed a record to partition {partition} \
                     but the job has only {num_reduce} reduce tasks"
                )
            }
        }
    }
}

impl std::error::Error for MrError {}

impl From<IoFault> for MrError {
    fn from(fault: IoFault) -> Self {
        MrError::Io(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MrError::InvalidCluster("zero machines".into())
            .to_string()
            .contains("zero machines"));
        let e = MrError::TaskPanicked {
            task: "map-3".into(),
            message: "boom".into(),
        };
        assert!(e.to_string().contains("map-3"));
        assert!(e.to_string().contains("boom"));
        assert!(MrError::Spill("io".into()).to_string().contains("io"));
    }
}
