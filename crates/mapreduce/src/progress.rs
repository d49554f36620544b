//! Progress events and incremental result segments.
//!
//! Progressive ER is evaluated by *when* duplicates are found, not just how
//! many. Tasks record [`ProgressEvent`]s against their virtual clock; after
//! the job, the runtime re-bases each reduce task's events onto the global
//! timeline (accounting for wave scheduling) so a single sorted event stream
//! can be turned into a recall-versus-cost curve.
//!
//! [`IncrementalWriter`] reproduces the paper's incremental output scheme:
//! "we implement the reduce function such that it outputs the results to a
//! different file every α units of cost" (§III-B). Results at any time t are
//! the union of all segments completed by t.

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

/// One completed output segment: records flushed together, stamped with the
/// virtual time at which the segment became readable.
#[derive(Debug, Clone)]
pub struct Segment<T> {
    /// Virtual completion time: results in this segment are visible from here.
    pub completed_at: f64,
    /// The records in the segment.
    pub records: Vec<T>,
}

/// Buffers records and cuts a [`Segment`] every `alpha` cost units,
/// reproducing the paper's per-α incremental result files.
#[derive(Debug)]
pub struct IncrementalWriter<T> {
    alpha: f64,
    next_cut: f64,
    buffer: Vec<T>,
    segments: Vec<Segment<T>>,
}

impl<T> IncrementalWriter<T> {
    /// Create a writer that cuts a segment every `alpha` cost units, starting
    /// the first window at virtual time `start`.
    ///
    /// # Panics
    /// Panics if `alpha` is not strictly positive.
    pub fn new(alpha: f64, start: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        Self {
            alpha,
            next_cut: start + alpha,
            buffer: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// Buffer a record produced at virtual time `now`, cutting any segment
    /// windows that have elapsed first.
    pub fn write(&mut self, now: f64, record: T) {
        self.advance(now);
        self.buffer.push(record);
    }

    /// Cut segment windows that ended at or before `now`. Empty windows do
    /// not produce segments (Hadoop would still create empty files; we skip
    /// them as they carry no results).
    pub fn advance(&mut self, now: f64) {
        while now >= self.next_cut {
            if !self.buffer.is_empty() {
                let records = std::mem::take(&mut self.buffer);
                self.segments.push(Segment {
                    completed_at: self.next_cut,
                    records,
                });
            }
            self.next_cut += self.alpha;
        }
    }

    /// Flush any remaining buffered records into a final segment completed at
    /// `now`, and return all segments in completion order.
    pub fn finish(mut self, now: f64) -> Vec<Segment<T>> {
        self.advance(now);
        if !self.buffer.is_empty() {
            self.segments.push(Segment {
                completed_at: now,
                records: std::mem::take(&mut self.buffer),
            });
        }
        self.segments
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

    #[test]
    fn writer_cuts_on_window_boundaries() {
        let mut w = IncrementalWriter::new(10.0, 0.0);
        w.write(1.0, "a");
        w.write(5.0, "b");
        w.write(12.0, "c"); // crosses the 10.0 boundary: segment {a,b}@10
        let segs = w.finish(15.0);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].completed_at, 10.0);
        assert_eq!(segs[0].records, vec!["a", "b"]);
        assert_eq!(segs[1].completed_at, 15.0);
        assert_eq!(segs[1].records, vec!["c"]);
    }

    #[test]
    fn writer_skips_empty_windows() {
        let mut w = IncrementalWriter::new(1.0, 0.0);
        w.write(0.5, 1u32);
        w.write(5.5, 2u32); // windows at 1,2,3,4,5 elapse; only the first has data
        let segs = w.finish(6.0);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].completed_at, 1.0);
        assert_eq!(segs[1].records, vec![2]);
    }

    #[test]
    fn writer_results_at_time_t_are_prefix() {
        let mut w = IncrementalWriter::new(2.0, 0.0);
        for i in 0..10u32 {
            w.write(i as f64, i);
        }
        let segs = w.finish(10.0);
        // Visible records by t=6.0: all records written before the cuts at 2,4,6.
        let visible: Vec<u32> = segs
            .iter()
            .filter(|s| s.completed_at <= 6.0)
            .flat_map(|s| s.records.iter().copied())
            .collect();
        assert_eq!(visible, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn writer_with_offset_start() {
        let mut w = IncrementalWriter::new(10.0, 100.0);
        w.write(105.0, "x");
        let segs = w.finish(111.0);
        assert_eq!(segs[0].completed_at, 110.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn writer_rejects_zero_alpha() {
        let _: IncrementalWriter<u32> = IncrementalWriter::new(0.0, 0.0);
    }
}
