//! Checkpointed progressive resume for the resolution job.
//!
//! Progressive ER's defining promise is that results survive early
//! termination: duplicates emitted before a crash are not lost, and a
//! resumed run must pick up exactly where the killed one stopped. A
//! [`Checkpoint`] captures everything the second job needs to do that:
//!
//! * the generated [`Schedule`] (so resume never re-runs the first job or
//!   schedule generation — only the first job's virtual cost is kept, to
//!   splice timelines);
//! * per reduce task, a [`TaskCheckpoint`] with the *resolved-block
//!   watermark* (`blocks_done` into `Schedule::block_order`), the task's
//!   virtual clock at that watermark, the per-tree resolved-pair sets
//!   (parents must still skip work their checkpointed children already
//!   did), and the duplicates found so far with their task-local costs.
//!
//! Checkpoints sit on block boundaries, and each task has its own: nothing
//! ties one task's watermark to another's. A checkpoint comes into being one
//! way: folded from the journal's in-line cuts (see [`crate::job2`],
//! "Durable execution"). A running task hands over a *delta* each time its
//! clock crosses the checkpoint grid: a [`TaskCheckpoint`] whose `resolved`
//! and `duplicates` hold only what was added since the task's previous cut.
//! That grid, `checkpoint_every` cost units on each task's own clock, is the
//! paper's α (§III-B: a reduce task outputs its results "to a different file
//! every α units of cost"), and a cut's duplicates are that file.
//! The journal stores the deltas (binary, one record each, the schedule
//! once) and folds them per task; [`crate::durable::journaled_checkpoint`]
//! rebuilds the [`Checkpoint`], and [`crate::durable::resume_durable`] hands
//! it to the resolution job.
//!
//! Execution being deterministic, the resumed run lands on exactly the
//! virtual times the uninterrupted run would have produced: crash + resume
//! yields a bit-identical duplicate set and recall curve
//! (`tests/durable.rs`, and `tests/resume_process.rs` across processes).

use pper_mapreduce::MrError;
use pper_schedule::Schedule;

/// Resume state of one reduce task of the resolution job — or, handed to a
/// cut sink, the delta between two of them (`resolved` and `duplicates`
/// holding only what the task added since its previous cut).
#[derive(Debug, Clone)]
pub struct TaskCheckpoint {
    /// Reduce task index.
    pub task: usize,
    /// Watermark: blocks `0..blocks_done` of
    /// `Schedule::block_order[task]` are fully resolved.
    pub blocks_done: usize,
    /// The task's virtual clock right after the last completed block
    /// (includes startup, shuffle, and all per-block charges up to the
    /// watermark). Resume continues the clock from exactly this value.
    pub clock: f64,
    /// Per tree (by tree id): pairs already compared in this task,
    /// normalized `a < b` and sorted. Parent blocks resolved after resume
    /// must still skip them.
    pub resolved: Vec<(usize, Vec<(u32, u32)>)>,
    /// Duplicates found before the crash as `(task-local cost, a, b)`,
    /// in discovery order. Replayed verbatim on resume so the global
    /// timeline and the job's output come out identical.
    pub duplicates: Vec<(f64, u32, u32)>,
}

/// Everything needed to resume a killed resolution job.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The generated progressive schedule the killed run was executing.
    pub schedule: Schedule,
    /// Virtual completion time of the first job (statistics gathering);
    /// the resumed job-2 timeline is offset by this, exactly like an
    /// uninterrupted pipeline run.
    pub job1_cost: f64,
    /// Machine count μ of the killed run (resume must match it — the wave
    /// layout determines the global timeline).
    pub machines: usize,
    /// One entry per reduce task, indexed by task id.
    pub tasks: Vec<TaskCheckpoint>,
}

impl Checkpoint {
    /// Validate internal consistency and compatibility with the
    /// configuration about to resume it.
    pub fn validate(&self, machines: usize) -> Result<(), MrError> {
        let err = |msg: String| Err(MrError::Checkpoint(msg));
        if self.machines != machines {
            return err(format!(
                "checkpoint was cut on {} machines but resume is configured for {machines}",
                self.machines
            ));
        }
        if self.tasks.len() != self.schedule.num_tasks {
            return err(format!(
                "checkpoint has {} task entries but the schedule expects {}",
                self.tasks.len(),
                self.schedule.num_tasks
            ));
        }
        for (idx, t) in self.tasks.iter().enumerate() {
            if t.task != idx {
                return err(format!(
                    "task entry {idx} records task id {} (entries must be in task order)",
                    t.task
                ));
            }
            let blocks = self.schedule.block_order[idx].len();
            if t.blocks_done > blocks {
                return err(format!(
                    "task {idx} claims {} resolved blocks but its schedule has only {blocks}",
                    t.blocks_done
                ));
            }
            if !t.clock.is_finite() || t.clock < 0.0 {
                return err(format!(
                    "task {idx} has a non-finite or negative clock ({})",
                    t.clock
                ));
            }
            for tree in t.resolved.iter().map(|(tree, _)| *tree) {
                if tree >= self.schedule.trees.len() {
                    return err(format!(
                        "task {idx} references tree {tree}, but the schedule has only {}",
                        self.schedule.trees.len()
                    ));
                }
            }
            for w in t.duplicates.windows(2) {
                if w[1].0 < w[0].0 {
                    return err(format!(
                        "task {idx} duplicates are not in cost order ({} after {})",
                        w[1].0, w[0].0
                    ));
                }
            }
            if let Some(&(cost, _, _)) = t.duplicates.last() {
                if cost > t.clock {
                    return err(format!(
                        "task {idx} records a duplicate at cost {cost} past its clock {}",
                        t.clock
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint() -> Checkpoint {
        // A structurally minimal schedule: validation only looks at
        // `num_tasks`, `block_order`, and `trees` lengths.
        let schedule = Schedule {
            trees: Vec::new(),
            task_of_tree: Vec::new(),
            block_order: vec![Vec::new(), Vec::new()],
            tree_sq: Vec::new(),
            dom: Vec::new(),
            num_tasks: 2,
        };
        Checkpoint {
            schedule,
            job1_cost: 1234.5,
            machines: 1,
            tasks: vec![
                TaskCheckpoint {
                    task: 0,
                    blocks_done: 0,
                    clock: 60.0,
                    resolved: Vec::new(),
                    duplicates: vec![(55.0, 1, 2)],
                },
                TaskCheckpoint {
                    task: 1,
                    blocks_done: 0,
                    clock: 50.0,
                    resolved: Vec::new(),
                    duplicates: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn validate_rejects_mismatches() {
        let cp = tiny_checkpoint();
        assert!(cp.validate(1).is_ok());
        assert!(matches!(cp.validate(3), Err(MrError::Checkpoint(_))));

        let mut wrong_tasks = tiny_checkpoint();
        wrong_tasks.tasks.pop();
        assert!(wrong_tasks.validate(1).is_err());

        let mut swapped = tiny_checkpoint();
        swapped.tasks.swap(0, 1);
        assert!(swapped.validate(1).is_err());

        let mut bad_watermark = tiny_checkpoint();
        bad_watermark.tasks[0].blocks_done = 7;
        assert!(bad_watermark.validate(1).is_err());

        let mut bad_clock = tiny_checkpoint();
        bad_clock.tasks[1].clock = f64::NAN;
        assert!(bad_clock.validate(1).is_err());

        let mut late_dup = tiny_checkpoint();
        late_dup.tasks[0].duplicates.push((100.0, 3, 4));
        assert!(late_dup.validate(1).is_err());
    }
}
