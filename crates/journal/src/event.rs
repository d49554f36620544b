//! The journal event schema and its binary codec.
//!
//! One [`JournalEvent`] is one fact about a job's lifecycle. Events are
//! encoded with a small hand-rolled little-endian codec (tag byte, then the
//! variant's fields): strings as `u32` length + UTF-8, sequences as `u32`
//! count + elements, and virtual costs as `f64::to_bits` — so a decoded
//! event is *bit-identical* to what was appended, which is what lets a
//! resumed process reproduce a killed run's results exactly.
//!
//! Decoding is total: any malformed buffer yields
//! [`crate::JournalError::BadEvent`], never a panic, so a checksum-valid
//! but schema-incompatible record degrades into a recoverable error.

use crate::JournalError;

/// Map-side or reduce-side task, journal-local mirror of the runtime's
/// `TaskKind` (the journal crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskClass {
    /// Map-side task.
    Map,
    /// Reduce-side task.
    Reduce,
}

impl TaskClass {
    fn code(self) -> u8 {
        match self {
            TaskClass::Map => 0,
            TaskClass::Reduce => 1,
        }
    }

    fn from_code(c: u8) -> Result<Self, JournalError> {
        match c {
            0 => Ok(TaskClass::Map),
            1 => Ok(TaskClass::Reduce),
            other => Err(JournalError::BadEvent(format!("task class {other}"))),
        }
    }

    /// `map` / `reduce`, matching the runtime's task-id rendering.
    pub fn name(self) -> &'static str {
        match self {
            TaskClass::Map => "map",
            TaskClass::Reduce => "reduce",
        }
    }
}

/// One failed attempt of a task: which attempt, the virtual cost it burned
/// before dying, and the rendered failure.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptFailure {
    /// 1-based attempt number, Hadoop-style.
    pub attempt: u32,
    /// Virtual cost the dead attempt occupied its slot for.
    pub wasted_cost: f64,
    /// Rendered panic message or injected-failure description.
    pub error: String,
}

/// One durable fact about a job's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// The job was submitted. `params` carries everything a fresh process
    /// needs to reconstruct the run configuration (dataset path, machine
    /// count, mechanism, checkpoint cadence, fault plan, ...), as ordered
    /// key/value pairs.
    JobStarted {
        /// Job identifier (also the store key).
        job_id: String,
        /// Ordered configuration key/value pairs.
        params: Vec<(String, String)>,
    },
    /// The statistics job (job 1) completed at this virtual cost.
    Job1Finished {
        /// Virtual completion time of the first job.
        virtual_cost: f64,
    },
    /// The progressive schedule was generated from the job-1 statistics.
    /// It is journaled here, once: the checkpoint cuts that follow only
    /// index into it.
    ScheduleGenerated {
        /// Scheduled blocks per reduce task, by task index.
        task_blocks: Vec<u64>,
        /// Serialized `pper_schedule::Schedule` (opaque to this crate).
        schedule_json: String,
    },
    /// A task committed (possibly after failed attempts).
    TaskFinished {
        /// Name of the MR job the task belongs to.
        job: String,
        /// Map or reduce side.
        kind: TaskClass,
        /// Task index within its phase.
        index: u32,
        /// Attempts consumed (1 = first attempt succeeded).
        attempts: u32,
        /// Total virtual cost the task occupied its slot for.
        cost: f64,
        /// Portion of `cost` burned by dead attempts.
        wasted: f64,
        /// History of the dead attempts, in order.
        failures: Vec<AttemptFailure>,
    },
    /// A task exhausted its attempt budget and failed its job.
    TaskExhausted {
        /// Name of the MR job the task belongs to.
        job: String,
        /// Map or reduce side.
        kind: TaskClass,
        /// Task index within its phase.
        index: u32,
        /// Attempts consumed (= the budget).
        attempts: u32,
        /// History of every dead attempt, in order.
        failures: Vec<AttemptFailure>,
    },
    /// One reduce task of the resolution job cut a checkpoint at a block
    /// boundary: a *delta* against the task's previous cut. A task's
    /// records carry `seq` 0, 1, 2, … and are appended in that order;
    /// [`crate::JournalState`] folds them per task, so how the worker
    /// threads interleaved their appends never shows.
    CheckpointCut {
        /// Reduce task index.
        task: u32,
        /// Position of this record among the task's cuts.
        seq: u32,
        /// Watermark: the task's first `blocks_done` scheduled blocks are
        /// fully resolved.
        blocks_done: u64,
        /// The task's virtual clock at that block boundary.
        clock: f64,
        /// Per tree (ascending tree id): the pairs compared since the last
        /// cut, in comparison order, as `(smaller id, larger id)`.
        resolved: Vec<(u32, Vec<(u32, u32)>)>,
        /// Duplicates found since the last cut as `(task-local cost, a, b)`,
        /// in discovery order.
        duplicates: Vec<(f64, u32, u32)>,
    },
    /// Counters snapshot (sorted key order) at a stable point.
    CountersSnapshot {
        /// `(counter name, value)` pairs in sorted name order.
        entries: Vec<(String, u64)>,
    },
    /// A task that exhausted its budget was captured into the dead-letter
    /// queue with its full input context and failure history.
    DeadLettered {
        /// Dead-letter sequence number (0-based per job).
        seq: u32,
        /// Name of the MR job the task belonged to.
        job: String,
        /// Map or reduce side.
        kind: TaskClass,
        /// Task index within its phase.
        index: u32,
        /// Attempts consumed.
        attempts: u32,
        /// History of every dead attempt.
        failures: Vec<AttemptFailure>,
        /// JSON context for reprocessing: pipeline stage, dataset, fault
        /// plan, last checkpoint offset.
        context_json: String,
    },
    /// Dead-letter entry `seq` was drained back into the attempt loop.
    DlqDrained {
        /// Sequence number of the drained entry.
        seq: u32,
    },
    /// The run completed; final headline numbers for quick inspection.
    JobFinished {
        /// Total duplicate pairs emitted.
        duplicates: u64,
        /// Total virtual cost of the run.
        total_cost: f64,
    },
}

const TAG_JOB_STARTED: u8 = 1;
const TAG_JOB1_FINISHED: u8 = 2;
const TAG_SCHEDULE: u8 = 3;
const TAG_TASK_FINISHED: u8 = 4;
const TAG_TASK_EXHAUSTED: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_COUNTERS: u8 = 7;
const TAG_DEAD_LETTERED: u8 = 8;
const TAG_DLQ_DRAINED: u8 = 9;
const TAG_JOB_FINISHED: u8 = 10;

impl JournalEvent {
    /// Short name of the variant, for listings and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            JournalEvent::JobStarted { .. } => "job-started",
            JournalEvent::Job1Finished { .. } => "job1-finished",
            JournalEvent::ScheduleGenerated { .. } => "schedule-generated",
            JournalEvent::TaskFinished { .. } => "task-finished",
            JournalEvent::TaskExhausted { .. } => "task-exhausted",
            JournalEvent::CheckpointCut { .. } => "checkpoint-cut",
            JournalEvent::CountersSnapshot { .. } => "counters-snapshot",
            JournalEvent::DeadLettered { .. } => "dead-lettered",
            JournalEvent::DlqDrained { .. } => "dlq-drained",
            JournalEvent::JobFinished { .. } => "job-finished",
        }
    }

    /// Encode to the binary payload format (framed by [`crate::frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            JournalEvent::JobStarted { job_id, params } => {
                out.push(TAG_JOB_STARTED);
                put_str(&mut out, job_id);
                put_u32(&mut out, crate::frame::len_u32(params.len()));
                for (k, v) in params {
                    put_str(&mut out, k);
                    put_str(&mut out, v);
                }
            }
            JournalEvent::Job1Finished { virtual_cost } => {
                out.push(TAG_JOB1_FINISHED);
                put_f64(&mut out, *virtual_cost);
            }
            JournalEvent::ScheduleGenerated {
                task_blocks,
                schedule_json,
            } => {
                out.push(TAG_SCHEDULE);
                put_u32(&mut out, crate::frame::len_u32(task_blocks.len()));
                for blocks in task_blocks {
                    put_u64(&mut out, *blocks);
                }
                put_str(&mut out, schedule_json);
            }
            JournalEvent::TaskFinished {
                job,
                kind,
                index,
                attempts,
                cost,
                wasted,
                failures,
            } => {
                out.push(TAG_TASK_FINISHED);
                put_str(&mut out, job);
                out.push(kind.code());
                put_u32(&mut out, *index);
                put_u32(&mut out, *attempts);
                put_f64(&mut out, *cost);
                put_f64(&mut out, *wasted);
                put_failures(&mut out, failures);
            }
            JournalEvent::TaskExhausted {
                job,
                kind,
                index,
                attempts,
                failures,
            } => {
                out.push(TAG_TASK_EXHAUSTED);
                put_str(&mut out, job);
                out.push(kind.code());
                put_u32(&mut out, *index);
                put_u32(&mut out, *attempts);
                put_failures(&mut out, failures);
            }
            JournalEvent::CheckpointCut {
                task,
                seq,
                blocks_done,
                clock,
                resolved,
                duplicates,
            } => {
                let pairs: usize = resolved.iter().map(|(_, pairs)| pairs.len()).sum();
                out.reserve(8 * pairs + 8 * resolved.len() + 16 * duplicates.len() + 32);
                out.push(TAG_CHECKPOINT);
                put_u32(&mut out, *task);
                put_u32(&mut out, *seq);
                put_u64(&mut out, *blocks_done);
                put_f64(&mut out, *clock);
                put_u32(&mut out, crate::frame::len_u32(resolved.len()));
                for (tree, pairs) in resolved {
                    put_u32(&mut out, *tree);
                    put_u32(&mut out, crate::frame::len_u32(pairs.len()));
                    for &(a, b) in pairs {
                        put_u32(&mut out, a);
                        put_u32(&mut out, b);
                    }
                }
                put_u32(&mut out, crate::frame::len_u32(duplicates.len()));
                for &(cost, a, b) in duplicates {
                    put_f64(&mut out, cost);
                    put_u32(&mut out, a);
                    put_u32(&mut out, b);
                }
            }
            JournalEvent::CountersSnapshot { entries } => {
                out.push(TAG_COUNTERS);
                put_u32(&mut out, crate::frame::len_u32(entries.len()));
                for (k, v) in entries {
                    put_str(&mut out, k);
                    put_u64(&mut out, *v);
                }
            }
            JournalEvent::DeadLettered {
                seq,
                job,
                kind,
                index,
                attempts,
                failures,
                context_json,
            } => {
                out.push(TAG_DEAD_LETTERED);
                put_u32(&mut out, *seq);
                put_str(&mut out, job);
                out.push(kind.code());
                put_u32(&mut out, *index);
                put_u32(&mut out, *attempts);
                put_failures(&mut out, failures);
                put_str(&mut out, context_json);
            }
            JournalEvent::DlqDrained { seq } => {
                out.push(TAG_DLQ_DRAINED);
                put_u32(&mut out, *seq);
            }
            JournalEvent::JobFinished {
                duplicates,
                total_cost,
            } => {
                out.push(TAG_JOB_FINISHED);
                put_u64(&mut out, *duplicates);
                put_f64(&mut out, *total_cost);
            }
        }
        out
    }

    /// Decode a payload produced by [`JournalEvent::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut r = Reader { bytes, pos: 0 };
        let tag = r.u8()?;
        let ev = match tag {
            TAG_JOB_STARTED => JournalEvent::JobStarted {
                job_id: r.str()?,
                params: r.seq(|r| Ok((r.str()?, r.str()?)))?,
            },
            TAG_JOB1_FINISHED => JournalEvent::Job1Finished {
                virtual_cost: r.f64()?,
            },
            TAG_SCHEDULE => JournalEvent::ScheduleGenerated {
                task_blocks: r.seq(Reader::u64)?,
                schedule_json: r.str()?,
            },
            TAG_TASK_FINISHED => JournalEvent::TaskFinished {
                job: r.str()?,
                kind: TaskClass::from_code(r.u8()?)?,
                index: r.u32()?,
                attempts: r.u32()?,
                cost: r.f64()?,
                wasted: r.f64()?,
                failures: r.failures()?,
            },
            TAG_TASK_EXHAUSTED => JournalEvent::TaskExhausted {
                job: r.str()?,
                kind: TaskClass::from_code(r.u8()?)?,
                index: r.u32()?,
                attempts: r.u32()?,
                failures: r.failures()?,
            },
            TAG_CHECKPOINT => JournalEvent::CheckpointCut {
                task: r.u32()?,
                seq: r.u32()?,
                blocks_done: r.u64()?,
                clock: r.f64()?,
                resolved: r.seq(|r| Ok((r.u32()?, r.seq(|r| Ok((r.u32()?, r.u32()?)))?)))?,
                duplicates: r.seq(|r| Ok((r.f64()?, r.u32()?, r.u32()?)))?,
            },
            TAG_COUNTERS => JournalEvent::CountersSnapshot {
                entries: r.seq(|r| Ok((r.str()?, r.u64()?)))?,
            },
            TAG_DEAD_LETTERED => JournalEvent::DeadLettered {
                seq: r.u32()?,
                job: r.str()?,
                kind: TaskClass::from_code(r.u8()?)?,
                index: r.u32()?,
                attempts: r.u32()?,
                failures: r.failures()?,
                context_json: r.str()?,
            },
            TAG_DLQ_DRAINED => JournalEvent::DlqDrained { seq: r.u32()? },
            TAG_JOB_FINISHED => JournalEvent::JobFinished {
                duplicates: r.u64()?,
                total_cost: r.f64()?,
            },
            other => {
                return Err(JournalError::BadEvent(format!("unknown event tag {other}")));
            }
        };
        if r.pos != bytes.len() {
            return Err(JournalError::BadEvent(format!(
                "{} trailing bytes after {} event",
                bytes.len() - r.pos,
                ev.name()
            )));
        }
        Ok(ev)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, crate::frame::len_u32(s.len()));
    out.extend_from_slice(s.as_bytes());
}

fn put_failures(out: &mut Vec<u8>, failures: &[AttemptFailure]) {
    put_u32(out, crate::frame::len_u32(failures.len()));
    for f in failures {
        put_u32(out, f.attempt);
        put_f64(out, f.wasted_cost);
        put_str(out, &f.error);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], JournalError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| JournalError::BadEvent("length overflow".into()))?;
        let Some(slice) = self.bytes.get(self.pos..end) else {
            return Err(JournalError::BadEvent(format!(
                "event truncated: wanted {n} bytes at {}, have {}",
                self.pos,
                self.bytes.len()
            )));
        };
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    /// A `u32` length field widened to `usize` for indexing; errors (rather
    /// than truncating) on the 16-bit targets where it cannot fit.
    fn ulen(&mut self) -> Result<usize, JournalError> {
        let n = self.u32()?;
        usize::try_from(n).map_err(|_| JournalError::BadEvent(format!("length {n} out of range")))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, JournalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, JournalError> {
        let n = self.ulen()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| JournalError::BadEvent(format!("non-UTF-8 string: {e}")))
    }

    /// A `u32` count, then that many elements. The count is outside input:
    /// it bounds the loop, and the allocation only as far as the payload
    /// could hold (no element takes fewer than 8 bytes on the wire).
    fn seq<T>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<T, JournalError>,
    ) -> Result<Vec<T>, JournalError> {
        let n = self.ulen()?;
        let mut out = Vec::with_capacity(n.min((self.bytes.len() - self.pos) / 8));
        for _ in 0..n {
            out.push(element(self)?);
        }
        Ok(out)
    }

    fn failures(&mut self) -> Result<Vec<AttemptFailure>, JournalError> {
        self.seq(|r| {
            Ok(AttemptFailure {
                attempt: r.u32()?,
                wasted_cost: r.f64()?,
                error: r.str()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalEvent> {
        vec![
            JournalEvent::JobStarted {
                job_id: "job-7".into(),
                params: vec![("dataset".into(), "/tmp/ds.jsonl".into())],
            },
            JournalEvent::Job1Finished {
                virtual_cost: 1234.567,
            },
            JournalEvent::ScheduleGenerated {
                task_blocks: vec![60, 0, 39],
                schedule_json: "{\"num_tasks\":3}".into(),
            },
            JournalEvent::CheckpointCut {
                task: 2,
                seq: 5,
                blocks_done: 17,
                clock: 0.1 + 0.2,
                resolved: vec![(3, vec![(1, 9), (1, 4)]), (8, vec![])],
                duplicates: vec![(1499.75, 1, 4)],
            },
            JournalEvent::TaskFinished {
                job: "pper-job2-resolution".into(),
                kind: TaskClass::Reduce,
                index: 1,
                attempts: 3,
                cost: 500.25,
                wasted: 100.0,
                failures: vec![AttemptFailure {
                    attempt: 1,
                    wasted_cost: 50.0,
                    error: "injected crash".into(),
                }],
            },
            JournalEvent::DeadLettered {
                seq: 0,
                job: "j".into(),
                kind: TaskClass::Map,
                index: 0,
                attempts: 4,
                failures: vec![],
                context_json: "{}".into(),
            },
            JournalEvent::JobFinished {
                duplicates: 42,
                total_cost: f64::MAX,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for ev in samples() {
            let bytes = ev.encode();
            let back = JournalEvent::decode(&bytes).unwrap();
            assert_eq!(back, ev, "round trip of {}", ev.name());
        }
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for cost in [0.0, -0.0, 0.1 + 0.2, f64::INFINITY, 1e-308] {
            let ev = JournalEvent::Job1Finished { virtual_cost: cost };
            let JournalEvent::Job1Finished { virtual_cost } =
                JournalEvent::decode(&ev.encode()).unwrap()
            else {
                panic!("wrong variant");
            };
            assert_eq!(virtual_cost.to_bits(), cost.to_bits());
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_error() {
        for ev in samples() {
            let bytes = ev.encode();
            for cut in 0..bytes.len() {
                assert!(
                    JournalEvent::decode(&bytes[..cut]).is_err(),
                    "{} cut at {cut} must not decode",
                    ev.name()
                );
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert!(JournalEvent::decode(&extended).is_err());
        }
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(matches!(
            JournalEvent::decode(&[200]),
            Err(JournalError::BadEvent(_))
        ));
        assert!(JournalEvent::decode(&[]).is_err());
    }
}
