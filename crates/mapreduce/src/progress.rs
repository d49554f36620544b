//! Progress events.
//!
//! Progressive ER is evaluated by *when* duplicates are found, not just how
//! many. Tasks record [`ProgressEvent`]s against their virtual clock; after
//! the job, the runtime re-bases each reduce task's events onto the global
//! timeline (accounting for wave scheduling) so a single sorted event stream
//! can be turned into a recall-versus-cost curve: the results at any virtual
//! time t are the events stamped at or before t.

use serde::{Deserialize, Serialize};

/// One timestamped progress event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// Virtual time of the event. Task-local while the task runs; re-based to
    /// the global timeline in [`crate::runtime::JobResult::timeline`].
    pub cost: f64,
    /// Job-defined event kind (e.g. "duplicate pair found").
    pub kind: u32,
    /// Job-defined payload (e.g. number of pairs).
    pub value: u64,
}

/// Append-only log of [`ProgressEvent`]s, naturally sorted because clocks are
/// monotone.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<ProgressEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event at virtual time `cost`.
    #[inline]
    pub fn push(&mut self, cost: f64, kind: u32, value: u64) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.cost <= cost),
            "event log must be appended in non-decreasing cost order"
        );
        self.events.push(ProgressEvent { cost, kind, value });
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate events in time order.
    pub fn iter(&self) -> impl Iterator<Item = &ProgressEvent> {
        self.events.iter()
    }

    /// Shift every event by `offset` (re-basing onto a global timeline).
    pub fn rebase(&mut self, offset: f64) {
        for e in &mut self.events {
            e.cost += offset;
        }
    }

    /// Consume the log, returning the raw events.
    pub fn into_events(self) -> Vec<ProgressEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventlog_orders_and_rebases() {
        let mut log = EventLog::new();
        log.push(1.0, 7, 1);
        log.push(2.0, 7, 2);
        log.rebase(10.0);
        let costs: Vec<f64> = log.iter().map(|e| e.cost).collect();
        assert_eq!(costs, vec![11.0, 12.0]);
    }
}
