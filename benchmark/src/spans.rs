//! Spans recorded by the traced pass, from outside the program.
//!
//! A span is recorded around each call into a layer: name, parent, wall start
//! and end, and process CPU seconds. Spans stay in memory and are written out
//! once, when the pass ends. Inside a MapReduce job the only view from outside
//! is the public `TaskObserver` seam: the runtime notifies it after a phase's
//! barrier, so the first map-task event of a job marks the end of its map
//! phase and the first reduce-task event the end of its reduce phase.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pper_mapreduce::{TaskEvent, TaskKind, TaskObserver};
use serde::Value;

use crate::measure::{cpu_seconds, map, median};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `er.job2`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Wall seconds since the tracer's epoch at entry.
    pub start_s: f64,
    /// Wall seconds since the tracer's epoch at exit.
    pub end_s: f64,
    /// Process CPU seconds (all threads) between entry and exit.
    pub cpu_s: f64,
}

impl Span {
    /// Wall duration.
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A completed task as the observer saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMark {
    /// Name of the job the task belongs to.
    pub job: String,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Wall seconds since the tracer's epoch when the event arrived.
    pub at_s: f64,
    /// The task's virtual cost.
    pub cost: f64,
}

/// Collects spans and observer marks.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    marks: Arc<Mutex<Vec<TaskMark>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            marks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Record a span around `f`. Spans opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            cpu_s: f64::NAN,
        });
        self.open.push(index);
        let cpu0 = cpu_seconds();
        let value = f(self);
        let cpu_s = cpu_seconds() - cpu0;
        self.open.pop();
        let span = &mut self.spans[index];
        span.end_s = self.epoch.elapsed().as_secs_f64();
        span.cpu_s = cpu_s;
        value
    }

    /// An observer that timestamps every finished task against this tracer's
    /// epoch. The marks accumulate until [`Tracer::take_marks`].
    pub fn observer(&self) -> TaskObserver {
        let epoch = self.epoch;
        let marks = Arc::clone(&self.marks);
        TaskObserver::new(move |event| {
            if let TaskEvent::Finished { job, id, cost, .. } = event {
                let mark = TaskMark {
                    job: (*job).to_string(),
                    kind: id.kind,
                    at_s: epoch.elapsed().as_secs_f64(),
                    cost: *cost,
                };
                // A poisoned lock means a task panicked mid-notification; the
                // run fails on its own account, so the mark is just dropped.
                if let Ok(mut marks) = marks.lock() {
                    marks.push(mark);
                }
            }
        })
    }

    /// Remove and return the marks collected so far.
    pub fn take_marks(&self) -> Vec<TaskMark> {
        self.marks
            .lock()
            .map(|mut m| std::mem::take(&mut *m))
            .unwrap_or_default()
    }

    /// Every recorded span, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The most recent span called `name`.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Median wall seconds over every span called `name`; 0 if there is none.
    pub fn wall_s(&self, name: &str) -> f64 {
        self.median_of(name, Span::wall_s)
    }

    /// Shortest wall seconds over every span called `name`; 0 if there is none.
    pub fn min_wall_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::wall_s)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Median CPU seconds over every span called `name`; 0 if there is none.
    pub fn cpu_s(&self, name: &str) -> f64 {
        self.median_of(name, |s| s.cpu_s)
    }

    fn median_of(&self, name: &str, f: impl Fn(&Span) -> f64) -> f64 {
        let values: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(f)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    }

    /// The spans as a JSON value, for the file written when the pass ends.
    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    map([
                        ("id", Value::U64(id as u64)),
                        ("name", Value::Str(s.name.into())),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("start_s", Value::F64(s.start_s)),
                        ("end_s", Value::F64(s.end_s)),
                        ("cpu_s", Value::F64(s.cpu_s)),
                    ])
                })
                .collect(),
        )
    }
}

/// Where the phase boundaries of one job fell inside the span that ran it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPhases {
    /// Span entry to the map barrier: job set-up and the map phase.
    pub map_s: f64,
    /// Map barrier to the reduce barrier: shuffle and the reduce phase.
    pub shuffle_reduce_s: f64,
    /// Max ÷ mean of the reduce tasks' virtual costs (1 = perfectly even).
    pub reduce_max_mean: f64,
}

impl JobPhases {
    /// Split `span` at the barriers of job `job`, read from `marks`. `None`
    /// if the job reported no map or no reduce task inside the span.
    pub fn of(span: &Span, job: &str, marks: &[TaskMark]) -> Option<Self> {
        let inside = |m: &&TaskMark| m.job == job && m.at_s >= span.start_s && m.at_s <= span.end_s;
        let first = |kind: TaskKind| {
            marks
                .iter()
                .filter(inside)
                .find(|m| m.kind == kind)
                .map(|m| m.at_s)
        };
        let map_end = first(TaskKind::Map)?;
        let reduce_end = first(TaskKind::Reduce)?;
        let costs: Vec<f64> = marks
            .iter()
            .filter(inside)
            .filter(|m| m.kind == TaskKind::Reduce)
            .map(|m| m.cost)
            .collect();
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let max = costs.iter().copied().fold(0.0, f64::max);
        Some(Self {
            map_s: map_end - span.start_s,
            shuffle_reduce_s: reduce_end - map_end,
            reduce_max_mean: if mean > 0.0 { max / mean } else { 1.0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        assert!(t.spans().iter().all(|s| s.end_s >= s.start_s));
        assert!(t.wall_s("outer") >= t.wall_s("inner"));
        assert_eq!(t.wall_s("absent"), 0.0);
    }

    #[test]
    fn job_phases_split_at_the_first_event_of_each_kind() {
        let span = Span {
            name: "er.job1",
            parent: None,
            start_s: 10.0,
            end_s: 20.0,
            cpu_s: 0.0,
        };
        let mark = |job: &str, kind, at_s, cost| TaskMark {
            job: job.into(),
            kind,
            at_s,
            cost,
        };
        let marks = [
            mark("j", TaskKind::Map, 5.0, 1.0), // an earlier execution
            mark("j", TaskKind::Map, 12.0, 1.0),
            mark("j", TaskKind::Map, 12.1, 1.0),
            mark("other", TaskKind::Reduce, 13.0, 9.0),
            mark("j", TaskKind::Reduce, 19.0, 1.0),
            mark("j", TaskKind::Reduce, 19.1, 3.0),
        ];
        let p = JobPhases::of(&span, "j", &marks).unwrap();
        assert!((p.map_s - 2.0).abs() < 1e-12);
        assert!((p.shuffle_reduce_s - 7.0).abs() < 1e-12);
        assert!((p.reduce_max_mean - 1.5).abs() < 1e-12);
        assert_eq!(JobPhases::of(&span, "absent", &marks), None);
    }
}
