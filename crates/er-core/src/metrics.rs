//! Quality metrics: duplicate recall curves, the `Qty` measure (Eq. 1), and
//! recall speedup (§VI-B4).

use pper_mapreduce::ProgressEvent;

/// Cumulative duplicate recall as a function of (virtual) resolution cost.
///
/// `PartialEq` compares breakpoints exactly (bitwise on costs) — used by the
/// checkpoint/resume tests to prove a resumed run reproduces the
/// uninterrupted curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallCurve {
    /// `(cost, cumulative correct duplicates)` breakpoints, ascending cost.
    points: Vec<(f64, u64)>,
    /// Ground-truth duplicate pair count `N` (Eq. 1's normalizer).
    total_truth: u64,
}

impl RecallCurve {
    /// Build from a job timeline, each event one duplicate found, counting
    /// only the events whose packed pair payload satisfies `keep` — used to
    /// count *correct* duplicates against ground truth (see
    /// [`crate::pack_pair`]).
    pub fn from_timeline_where(
        timeline: &[ProgressEvent],
        total_truth: u64,
        keep: impl Fn(u64) -> bool,
    ) -> Self {
        let mut points = Vec::new();
        let mut cum = 0u64;
        for e in timeline {
            if keep(e.value) {
                cum += 1;
                points.push((e.cost, cum));
            }
        }
        Self {
            points,
            total_truth,
        }
    }

    /// Build directly from `(cost, found)` increments (already ascending).
    pub fn from_increments(increments: &[(f64, u64)], total_truth: u64) -> Self {
        let mut points = Vec::new();
        let mut cum = 0;
        for &(cost, n) in increments {
            cum += n;
            points.push((cost, cum));
        }
        Self {
            points,
            total_truth,
        }
    }

    /// Ground-truth duplicate pair count.
    pub fn total_truth(&self) -> u64 {
        self.total_truth
    }

    /// Number of breakpoints.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no duplicates were ever found.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Correct duplicates found by `cost`.
    pub fn found_at(&self, cost: f64) -> u64 {
        match self.points.binary_search_by(|p| p.0.total_cmp(&cost)) {
            Ok(mut i) => {
                // Step to the last point with the same cost.
                while i + 1 < self.points.len() && self.points[i + 1].0 <= cost {
                    i += 1;
                }
                self.points[i].1
            }
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Recall at `cost`.
    pub fn recall_at(&self, cost: f64) -> f64 {
        if self.total_truth == 0 {
            return 0.0;
        }
        self.found_at(cost) as f64 / self.total_truth as f64
    }

    /// Final recall (at infinite cost).
    pub fn final_recall(&self) -> f64 {
        if self.total_truth == 0 {
            return 0.0;
        }
        self.points.last().map_or(0, |p| p.1) as f64 / self.total_truth as f64
    }

    /// Earliest cost at which `recall` is reached, if ever.
    pub fn time_to_recall(&self, recall: f64) -> Option<f64> {
        if self.total_truth == 0 {
            return None;
        }
        let needed = (recall * self.total_truth as f64).ceil() as u64;
        self.points
            .iter()
            .find(|&&(_, cum)| cum >= needed)
            .map(|&(cost, _)| cost)
    }

    /// Cost of the last breakpoint (time of the final duplicate).
    pub fn last_cost(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.0)
    }

    /// Sample the recall at evenly spaced costs up to `max_cost` — the
    /// series the paper's figures plot.
    pub fn sample(&self, max_cost: f64, steps: usize) -> Vec<(f64, f64)> {
        (1..=steps)
            .map(|i| {
                let c = max_cost * i as f64 / steps as f64;
                (c, self.recall_at(c))
            })
            .collect()
    }
}

/// The `Qty` quality measure (Eq. 1): weighted, normalized count of correct
/// duplicates found per sampled cost interval.
///
/// `cost_vector` is `C = {c₁ < c₂ < …}`; `weights[i]` is `W(c_{i+1})` and
/// must be non-increasing in `[0, 1]`.
///
/// # Panics
/// Panics if the vectors differ in length, are empty, are not sorted, or
/// weights increase.
pub fn quality(curve: &RecallCurve, cost_vector: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(cost_vector.len(), weights.len(), "|C| must match |W|");
    assert!(!cost_vector.is_empty(), "need at least one sampled cost");
    assert!(
        cost_vector.windows(2).all(|w| w[0] < w[1]),
        "cost vector must be ascending"
    );
    assert!(
        weights.windows(2).all(|w| w[0] >= w[1]),
        "weights must be non-increasing"
    );
    assert!(
        weights.iter().all(|&w| (0.0..=1.0).contains(&w)),
        "weights must lie in [0,1]"
    );
    if curve.total_truth == 0 {
        return 0.0;
    }
    let mut q = 0.0;
    let mut prev_cost = 0.0;
    for (&c, &w) in cost_vector.iter().zip(weights) {
        let found_in_interval = curve.found_at(c) - curve.found_at(prev_cost);
        q += w * found_in_interval as f64;
        prev_cost = c;
    }
    q / curve.total_truth as f64
}

/// Recall speedup of `fast` relative to `base` at a recall level (§VI-B4):
/// `time_base(recall) / time_fast(recall)`. `None` if either curve never
/// reaches the recall.
pub fn speedup_at(base: &RecallCurve, fast: &RecallCurve, recall: f64) -> Option<f64> {
    let tb = base.time_to_recall(recall)?;
    let tf = fast.time_to_recall(recall)?;
    (tf > 0.0).then(|| tb / tf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> RecallCurve {
        // 10 true pairs; found at costs 1,2,3 (2 each), then 4 more at 10.
        RecallCurve::from_increments(&[(1.0, 2), (2.0, 2), (3.0, 2), (10.0, 4)], 10)
    }

    #[test]
    fn found_and_recall_lookup() {
        let c = curve();
        assert_eq!(c.found_at(0.5), 0);
        assert_eq!(c.found_at(1.0), 2);
        assert_eq!(c.found_at(2.5), 4);
        assert_eq!(c.found_at(100.0), 10);
        assert!((c.recall_at(3.0) - 0.6).abs() < 1e-12);
        assert_eq!(c.final_recall(), 1.0);
    }

    #[test]
    fn time_to_recall_finds_breakpoints() {
        let c = curve();
        assert_eq!(c.time_to_recall(0.2), Some(1.0));
        assert_eq!(c.time_to_recall(0.6), Some(3.0));
        assert_eq!(c.time_to_recall(1.0), Some(10.0));
        let partial = RecallCurve::from_increments(&[(1.0, 1)], 10);
        assert_eq!(partial.time_to_recall(0.5), None);
    }

    #[test]
    fn duplicate_costs_collapse_to_last() {
        let c = RecallCurve::from_increments(&[(1.0, 1), (1.0, 2), (2.0, 1)], 4);
        assert_eq!(c.found_at(1.0), 3);
    }

    #[test]
    fn quality_weights_early_intervals() {
        let c = curve();
        // Everything found late scores poorly under decaying weights.
        let early_heavy = quality(&c, &[2.0, 5.0, 20.0], &[1.0, 0.5, 0.1]);
        // 4 pairs by c=2 (w 1.0), 2 in (2,5] (w .5), 4 in (5,20] (w .1):
        // (4·1 + 2·.5 + 4·.1)/10 = 0.54.
        assert!((early_heavy - 0.54).abs() < 1e-12);
        let uniform = quality(&c, &[2.0, 5.0, 20.0], &[1.0, 1.0, 1.0]);
        assert!((uniform - 1.0).abs() < 1e-12);
        assert!(early_heavy < uniform);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn quality_rejects_increasing_weights() {
        let _ = quality(&curve(), &[1.0, 2.0], &[0.5, 1.0]);
    }

    #[test]
    fn speedup_basic() {
        let slow = RecallCurve::from_increments(&[(10.0, 5), (20.0, 5)], 10);
        let fast = RecallCurve::from_increments(&[(2.0, 5), (4.0, 5)], 10);
        assert_eq!(speedup_at(&slow, &fast, 0.5), Some(5.0));
        assert_eq!(speedup_at(&slow, &fast, 1.0), Some(5.0));
        let never = RecallCurve::from_increments(&[(1.0, 1)], 10);
        assert_eq!(speedup_at(&slow, &never, 0.5), None);
    }

    #[test]
    fn sample_is_monotone() {
        let c = curve();
        let s = c.sample(12.0, 6);
        assert_eq!(s.len(), 6);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(s.last().unwrap().1, 1.0);
    }

    #[test]
    fn empty_truth_is_zero_not_nan() {
        let c = RecallCurve::from_increments(&[], 0);
        assert_eq!(c.recall_at(10.0), 0.0);
        assert_eq!(c.final_recall(), 0.0);
        assert_eq!(c.time_to_recall(0.5), None);
    }

    #[test]
    fn from_timeline_counts_the_events_the_predicate_keeps() {
        use pper_mapreduce::ProgressEvent;
        let timeline = vec![
            ProgressEvent {
                cost: 1.0,
                value: 7,
            },
            ProgressEvent {
                cost: 2.0,
                value: 99,
            },
            ProgressEvent {
                cost: 3.0,
                value: 8,
            },
        ];
        let c = RecallCurve::from_timeline_where(&timeline, 3, |_| true);
        assert_eq!(c.found_at(10.0), 3);
        assert_eq!(c.len(), 3);
        let even_only = RecallCurve::from_timeline_where(&timeline, 3, |v| v % 2 == 0);
        assert_eq!(even_only.found_at(2.5), 0);
        assert_eq!(even_only.found_at(10.0), 1);
    }
}
