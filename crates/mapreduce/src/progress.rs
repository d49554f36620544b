//! Progress events.
//!
//! Progressive ER is evaluated by *when* duplicates are found, not just how
//! many. Tasks record [`ProgressEvent`]s against their virtual clock
//! ([`crate::job::TaskContext::log_event`]); after the job, the runtime
//! re-bases each reduce task's events onto the global timeline (accounting
//! for wave scheduling) so a single sorted event stream can be turned into a
//! recall-versus-cost curve: the results at any virtual time t are the events
//! stamped at or before t.

/// One timestamped progress event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressEvent {
    /// Virtual time of the event. Task-local while the task runs; re-based to
    /// the global timeline in [`crate::runtime::JobResult::timeline`].
    pub cost: f64,
    /// Job-defined payload (e.g. the pair of entities found to match).
    pub value: u64,
}
