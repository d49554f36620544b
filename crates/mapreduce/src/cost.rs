//! Virtual-time cost accounting.
//!
//! The paper evaluates progressiveness as *duplicate recall versus execution
//! time* on a fixed cluster. To make the reproduction deterministic and
//! hardware-independent, every simulated task owns a [`CostClock`] and all
//! work is charged in abstract **cost units**. The calibration (what a unit
//! means) lives in [`CostModel`]; the ER pipeline uses one unit per pair
//! resolution, which is the dominant cost in the paper (§IV-B: "the cost of
//! applying the resolve/match function on the entity pairs").
//!
//! [`virtual_makespan`] converts a set of per-task costs into the virtual
//! completion time of a phase on a cluster with a bounded number of slots,
//! using the same list-scheduling ("wave") semantics Hadoop exhibits when
//! there are more tasks than slots.

use serde::{Deserialize, Serialize};

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

/// Calibration constants translating pipeline operations into cost units.
///
/// The unit is **one pair resolution** (one invocation of the resolve/match
/// function). Every other constant is expressed relative to that, so the
/// generated curves match the paper's *shape* without claiming its absolute
/// seconds. The defaults were calibrated so that, on the synthetic
/// publications workload, sorting/hint overhead is a visible but minor
/// fraction of block resolution cost, as the paper reports for the SN hint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of one resolve/match invocation. By definition 1.0; kept
    /// configurable for sensitivity experiments.
    pub resolve_pair: f64,
    /// Per-entity cost of one comparison key extraction + insertion while
    /// sorting a block (multiplied by `n·log2(n)` in [`CostModel::sort_cost`]).
    pub sort_per_entity: f64,
    /// Per-entity cost of reading/deserializing an entity inside a task.
    pub read_per_entity: f64,
    /// Per-record cost of emitting a key-value pair from a mapper (serialization
    /// plus shuffle buffering).
    pub emit_per_record: f64,
    /// Per-record cost of the shuffle merge on the reduce side.
    pub shuffle_per_record: f64,
    /// Fixed per-task startup overhead (JVM-style task launch in Hadoop).
    pub task_startup: f64,
    /// Fixed per-job overhead (job submission, scheduling).
    pub job_startup: f64,
    /// Per-block cost of generating a hint *besides* sorting (allocation of
    /// the rank index etc.), multiplied by block size.
    pub hint_per_entity: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            resolve_pair: 1.0,
            sort_per_entity: 0.05,
            read_per_entity: 0.02,
            emit_per_record: 0.02,
            shuffle_per_record: 0.02,
            task_startup: 50.0,
            job_startup: 500.0,
            hint_per_entity: 0.05,
        }
    }
}

impl CostModel {
    /// Cost of sorting `n` entities (comparison sort): `sort_per_entity · n · log2(n)`.
    pub fn sort_cost(&self, n: usize) -> f64 {
        if n < 2 {
            return 0.0;
        }
        self.sort_per_entity * (n as f64) * (n as f64).log2()
    }

    /// Additional (non-pair) cost of preparing a block of `n` entities for a
    /// sorted-neighbourhood style mechanism: read + sort + hint index.
    pub fn block_additional_cost(&self, n: usize) -> f64 {
        self.read_per_entity * n as f64 + self.sort_cost(n) + self.hint_per_entity * n as f64
    }
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
    let slots = slots.max(1);
    if task_costs.is_empty() {
        return 0.0;
    }
    let mut loads = vec![0.0f64; slots.min(task_costs.len())];
    for &c in task_costs {
        // Dispatch to the least-loaded slot: equivalent to "first slot to
        // free up", which is what a work-conserving scheduler does.
        let idx = least_loaded(&loads);
        loads[idx] += c;
    }
    loads.iter().cloned().fold(0.0, f64::max)
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
        let idx = least_loaded(&loads);
        starts.push(loads[idx]);
        loads[idx] += c;
    }
    starts
}

/// Index of the smallest load, first on ties (the slot that frees up first
/// under in-order dispatch). Returns 0 for an empty slice.
fn least_loaded(loads: &[f64]) -> usize {
    let mut idx = 0;
    for i in 1..loads.len() {
        if loads[i].total_cmp(&loads[idx]).is_lt() {
            idx = i;
        }
    }
    idx
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
        let m = CostModel::default();
        assert_eq!(m.sort_cost(0), 0.0);
        assert_eq!(m.sort_cost(1), 0.0);
        assert!(m.sort_cost(2) > 0.0);
    }

    #[test]
    fn sort_cost_superlinear() {
        let m = CostModel::default();
        assert!(m.sort_cost(2000) > 2.0 * m.sort_cost(1000));
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
        let m = CostModel::default();
        let c = m.block_additional_cost(100);
        assert!(c > m.sort_cost(100));
        assert!(c < m.sort_cost(100) + 100.0); // per-entity constants are < 1
    }
}
