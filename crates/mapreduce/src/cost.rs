//! Virtual-time cost accounting.
//!
//! The paper evaluates progressiveness as *duplicate recall versus execution
//! time* on a fixed cluster. To make the reproduction deterministic and
//! hardware-independent, every simulated task owns a [`CostClock`] and all
//! work is charged in abstract **cost units**. The calibration is this
//! module's constants. The unit is one pair resolution ([`RESOLVE_PAIR`]),
//! the dominant cost in the paper (§IV-B: "the cost of applying the
//! resolve/match function on the entity pairs"), and every other constant
//! is expressed relative to it, so the generated curves match the paper's
//! *shape* without claiming its absolute seconds. The values were calibrated
//! so that, on the synthetic publications workload, sorting/hint overhead is
//! a visible but minor fraction of block resolution cost, as the paper
//! reports for the SN hint; recalibrating is an edit to them.
//!
//! [`virtual_makespan`] converts a set of per-task costs into the virtual
//! completion time of a phase on a cluster with a bounded number of slots,
//! using the same list-scheduling ("wave") semantics Hadoop exhibits when
//! there are more tasks than slots.

/// A monotone virtual clock owned by one simulated task.
///
/// Costs are `f64` so fractional charges (e.g. per-byte read costs) compose;
/// the clock is strictly monotone under non-negative charges.
#[derive(Debug, Clone, Default)]
pub struct CostClock {
    now: f64,
}

impl CostClock {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        Self { now: 0.0 }
    }

    /// A clock starting at the given offset (used to model work that happened
    /// before the task started, e.g. a preceding MR job).
    pub fn with_offset(offset: f64) -> Self {
        debug_assert!(offset >= 0.0);
        Self { now: offset }
    }

    /// Charge `units` of work. Negative charges are a logic error and panic
    /// in debug builds; in release they are clamped to zero.
    #[inline]
    pub fn charge(&mut self, units: f64) {
        debug_assert!(units >= 0.0, "negative cost charge: {units}");
        self.now += units.max(0.0);
    }

    /// Current virtual time of this task.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }
}

/// Cost of one resolve/match invocation: the unit, so a pair count is its
/// cost.
pub const RESOLVE_PAIR: f64 = 1.0;
/// Per-entity cost of one comparison key extraction + insertion while
/// sorting a block (multiplied by `n·log2(n)` in [`sort_cost`]).
pub const SORT_PER_ENTITY: f64 = 0.05;
/// Per-entity cost of reading/deserializing an entity inside a task.
pub const READ_PER_ENTITY: f64 = 0.02;
/// Per-entity cost of extracting one blocking key in a mapper: a char scan,
/// a quarter of an entity read.
pub const KEY_PER_ENTITY: f64 = READ_PER_ENTITY * 0.25;
/// Sorts of the scheduled block list each map task of the resolution job
/// charges to generate the schedule from the gathered statistics (§III-B;
/// sorting dominates), in units of [`sort_cost`].
pub const SCHEDULE_SORTS: f64 = 2.0;
/// Per-record cost of emitting a key-value pair from a mapper (serialization
/// plus shuffle buffering).
pub const EMIT_PER_RECORD: f64 = 0.02;
/// Per-record cost of the shuffle merge on the reduce side.
pub const SHUFFLE_PER_RECORD: f64 = 0.02;
/// Fixed per-task startup overhead (JVM-style task launch in Hadoop).
pub const TASK_STARTUP: f64 = 50.0;
/// Fixed per-job overhead (job submission, scheduling).
pub const JOB_STARTUP: f64 = 500.0;
/// Per-block cost of generating a hint *besides* sorting (allocation of the
/// rank index etc.), multiplied by block size.
pub const HINT_PER_ENTITY: f64 = 0.05;

/// Cost of sorting `n` entities (comparison sort): `SORT_PER_ENTITY · n · log2(n)`.
pub fn sort_cost(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    SORT_PER_ENTITY * (n as f64) * (n as f64).log2()
}

/// Additional (non-pair) cost of preparing a block of `n` entities for a
/// sorted-neighbourhood style mechanism: read + sort + hint index.
pub fn block_additional_cost(n: usize) -> f64 {
    READ_PER_ENTITY * n as f64 + sort_cost(n) + HINT_PER_ENTITY * n as f64
}

/// Virtual completion time of a phase whose tasks have the given costs, run
/// on `slots` parallel slots with greedy list scheduling in task order.
///
/// This mirrors Hadoop's behaviour: tasks are dispatched in order to the
/// first free slot, so with `t` tasks and `s` slots the phase runs in
/// ⌈t/s⌉ "waves" when costs are uniform, and in general finishes at the
/// maximum accumulated slot load.
///
/// Returns 0.0 for an empty task list. `slots` is clamped to at least 1.
pub fn virtual_makespan(task_costs: &[f64], slots: usize) -> f64 {
    makespan(&list_schedule_starts(task_costs, slots), task_costs)
}

/// Completion time of a phase whose tasks start at `starts` (as
/// [`list_schedule_starts`] places them): the latest start + cost. Each sum
/// is the slot load the dispatch loop computes, and under non-negative
/// costs a slot's last one is its largest, so this is the maximum slot load.
pub(crate) fn makespan(starts: &[f64], task_costs: &[f64]) -> f64 {
    starts
        .iter()
        .zip(task_costs)
        .map(|(start, cost)| start + cost)
        .fold(0.0, f64::max)
}

/// Per-slot start offsets for tasks dispatched with list scheduling.
///
/// Returns, for each task (in input order), the virtual time at which it
/// begins executing. Used to place reduce-task event streams on the global
/// timeline when there are more simulated reduce tasks than slots.
pub fn list_schedule_starts(task_costs: &[f64], slots: usize) -> Vec<f64> {
    let slots = slots.max(1);
    let mut loads = vec![0.0f64; slots.min(task_costs.len().max(1))];
    let mut starts = Vec::with_capacity(task_costs.len());
    for &c in task_costs {
        // The least-loaded slot, first on ties: the one that frees up first
        // under in-order dispatch.
        let by_load = |a: &usize, b: &usize| loads[*a].total_cmp(&loads[*b]);
        let idx = (0..loads.len()).min_by(by_load).unwrap_or(0);
        starts.push(loads[idx]);
        loads[idx] += c;
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_monotone() {
        let mut c = CostClock::new();
        assert_eq!(c.now(), 0.0);
        c.charge(2.5);
        c.charge(0.0);
        assert_eq!(c.now(), 2.5);
    }

    #[test]
    fn clock_offset() {
        let mut c = CostClock::with_offset(10.0);
        c.charge(1.0);
        assert_eq!(c.now(), 11.0);
    }

    #[test]
    fn sort_cost_zero_for_tiny_blocks() {
        assert_eq!(sort_cost(0), 0.0);
        assert_eq!(sort_cost(1), 0.0);
        assert!(sort_cost(2) > 0.0);
    }

    #[test]
    fn sort_cost_superlinear() {
        assert!(sort_cost(2000) > 2.0 * sort_cost(1000));
    }

    #[test]
    fn makespan_single_slot_is_sum() {
        let costs = [3.0, 1.0, 2.0];
        assert_eq!(virtual_makespan(&costs, 1), 6.0);
    }

    #[test]
    fn makespan_many_slots_is_max() {
        let costs = [3.0, 1.0, 2.0];
        assert_eq!(virtual_makespan(&costs, 3), 3.0);
        assert_eq!(virtual_makespan(&costs, 10), 3.0);
    }

    #[test]
    fn makespan_waves() {
        // 4 uniform tasks on 2 slots: two waves.
        let costs = [1.0; 4];
        assert_eq!(virtual_makespan(&costs, 2), 2.0);
    }

    #[test]
    fn makespan_empty() {
        assert_eq!(virtual_makespan(&[], 4), 0.0);
    }

    #[test]
    fn starts_respect_slot_availability() {
        let costs = [2.0, 2.0, 1.0];
        let starts = list_schedule_starts(&costs, 2);
        assert_eq!(starts, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn starts_single_slot_serializes() {
        let costs = [1.0, 2.0, 3.0];
        let starts = list_schedule_starts(&costs, 1);
        assert_eq!(starts, vec![0.0, 1.0, 3.0]);
    }

    #[test]
    fn block_additional_cost_components() {
        let c = block_additional_cost(100);
        assert!(c > sort_cost(100));
        assert!(c < sort_cost(100) + 100.0); // per-entity constants are < 1
    }
}
