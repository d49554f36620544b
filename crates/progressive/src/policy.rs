//! Stopping rules and per-level resolution policies.
//!
//! §III-A: non-root blocks are resolved "until the number of identified
//! non-duplicate/distinct pairs exceeds a termination threshold Th(X)";
//! root blocks are resolved fully. §VI-A5 sets the window `w` per level
//! (15 root / 10 mid / 5 leaf) and `Th(X) = |X|`. The Basic baseline instead
//! uses the Popcorn scheme of ref. \[5\]: stop when the rate of newly found
//! duplicates over recent comparisons drops below a threshold.

/// When to stop resolving the block at hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Never stop early: resolve every pair the mechanism yields (root
    /// blocks; also "Basic F").
    Exhaust,
    /// Stop once this many *distinct* (non-duplicate) pairs have been
    /// resolved — `Th(X)` (§III-A).
    DistinctBudget(u64),
    /// Popcorn scheme: stop when `duplicates found in the last `window`
    /// comparisons / window` falls below `threshold`. Never triggers before
    /// one full window has elapsed.
    Popcorn {
        /// Minimum acceptable duplicate rate.
        threshold: f64,
        /// Number of recent comparisons over which the rate is measured.
        window: u64,
    },
}

/// Running state for a [`StopRule`] over one block resolution.
#[derive(Debug, Clone)]
pub struct StopState {
    rule: StopRule,
    distinct: u64,
    popcorn: PopcornState,
}

/// Sliding duplicate-rate tracker for the Popcorn scheme.
#[derive(Debug, Clone, Default)]
struct PopcornState {
    dups_in_window: u64,
    /// Ring buffer of the last `window` outcomes (true = duplicate).
    ring: Vec<bool>,
    head: usize,
}

impl PopcornState {
    fn observe(&mut self, window: u64, is_duplicate: bool) {
        let w = window.max(1) as usize;
        if self.ring.len() < w {
            self.ring.push(is_duplicate);
            self.dups_in_window += u64::from(is_duplicate);
        } else {
            let old = std::mem::replace(&mut self.ring[self.head], is_duplicate);
            self.dups_in_window += u64::from(is_duplicate);
            self.dups_in_window -= u64::from(old);
            self.head = (self.head + 1) % w;
        }
    }

    /// Duplicate rate over the current window contents.
    fn rate(&self) -> f64 {
        if self.ring.is_empty() {
            return 1.0;
        }
        self.dups_in_window as f64 / self.ring.len() as f64
    }
}

impl StopState {
    /// Fresh state for one block resolution under `rule`.
    pub fn new(rule: StopRule) -> Self {
        Self {
            rule,
            distinct: 0,
            popcorn: PopcornState::default(),
        }
    }

    /// Record one resolved pair and return `true` if resolution of the
    /// current block should stop *after* this pair.
    pub fn observe(&mut self, is_duplicate: bool) -> bool {
        match self.rule {
            StopRule::Exhaust => false,
            StopRule::DistinctBudget(budget) => {
                self.distinct += u64::from(!is_duplicate);
                self.distinct > budget
            }
            StopRule::Popcorn { threshold, window } => {
                self.popcorn.observe(window, is_duplicate);
                self.popcorn.ring.len() as u64 >= window && self.popcorn.rate() < threshold
            }
        }
    }
}

/// Window for intermediate blocks (§VI-A5: 10).
pub const WINDOW_MID: usize = 10;

/// Window for leaf blocks (§VI-A5: 5).
pub const WINDOW_LEAF: usize = 5;

/// Per-level resolution policy (§VI-A5): the root window, `Frac(X)` values,
/// and the `Th(X) = |X|` termination rule. Non-root blocks use
/// [`WINDOW_MID`] and [`WINDOW_LEAF`].
#[derive(Debug, Clone)]
pub struct LevelPolicy {
    /// Window for root blocks (paper: 15, "the smallest value that allows
    /// us to identify more than 99% of the duplicate pairs").
    pub window_root: usize,
    /// `Frac(X)` for leaf blocks (paper: 0.8 CiteSeerX / 0.85 OL-Books).
    pub frac_leaf: f64,
    /// `Frac(X)` for non-leaf non-root blocks (paper: 0.9 / 0.95).
    pub frac_mid: f64,
}

impl LevelPolicy {
    /// The paper's CiteSeerX settings.
    pub fn citeseer() -> Self {
        Self {
            window_root: 15,
            frac_leaf: 0.8,
            frac_mid: 0.9,
        }
    }

    /// The paper's OL-Books settings.
    pub fn books() -> Self {
        Self {
            frac_leaf: 0.85,
            frac_mid: 0.95,
            ..Self::citeseer()
        }
    }

    /// Window for a block given its position in the tree.
    pub fn window(&self, is_root: bool, is_leaf: bool) -> usize {
        if is_root {
            self.window_root
        } else if is_leaf {
            WINDOW_LEAF
        } else {
            WINDOW_MID
        }
    }

    /// `Frac(X)`: expected fraction of the block's duplicates found when it
    /// is resolved with its level's aggressiveness. Roots resolve fully.
    pub fn frac(&self, is_root: bool, is_leaf: bool) -> f64 {
        if is_root {
            1.0
        } else if is_leaf {
            self.frac_leaf
        } else {
            self.frac_mid
        }
    }

    /// `Th(X) = |X|` (§VI-A5): distinct-pair budget for a non-root block of
    /// size `size`. Guaranteed smaller than the parent's because
    /// `|X| < |parent|` (and §III-A requires exactly that monotonicity).
    pub fn termination(&self, size: usize) -> u64 {
        size as u64
    }

    /// Stop rule for a block.
    pub fn stop_rule(&self, is_root: bool, size: usize) -> StopRule {
        if is_root {
            StopRule::Exhaust
        } else {
            StopRule::DistinctBudget(self.termination(size))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaust_never_stops() {
        let mut s = StopState::new(StopRule::Exhaust);
        for _ in 0..10_000 {
            assert!(!s.observe(false));
        }
    }

    #[test]
    fn distinct_budget_counts_only_distinct() {
        let mut s = StopState::new(StopRule::DistinctBudget(3));
        assert!(!s.observe(true));
        assert!(!s.observe(false)); // 1
        assert!(!s.observe(false)); // 2
        assert!(!s.observe(true));
        assert!(!s.observe(false)); // 3 == budget, not yet exceeded
        assert!(s.observe(false)); // 4 > budget
    }

    #[test]
    fn popcorn_waits_for_full_window() {
        let mut s = StopState::new(StopRule::Popcorn {
            threshold: 0.5,
            window: 4,
        });
        // Three misses: window not yet full, never stop.
        assert!(!s.observe(false));
        assert!(!s.observe(false));
        assert!(!s.observe(false));
        // Fourth miss fills the window: rate 0 < 0.5 → stop.
        assert!(s.observe(false));
    }

    #[test]
    fn popcorn_keeps_going_while_rate_high() {
        let mut s = StopState::new(StopRule::Popcorn {
            threshold: 0.25,
            window: 4,
        });
        // Alternate hits/misses: rate 0.5 ≥ 0.25, never stops.
        for i in 0..100 {
            assert!(!s.observe(i % 2 == 0), "stopped at {i}");
        }
        // Then a dry spell: stops once the window decays below 25%.
        let mut stopped = false;
        for _ in 0..4 {
            if s.observe(false) {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
    }

    #[test]
    fn popcorn_rate_tracks_ring() {
        let mut p = PopcornState::default();
        assert_eq!(p.rate(), 1.0); // optimistic before any data
        p.observe(2, true);
        assert_eq!(p.rate(), 1.0);
        p.observe(2, false);
        assert_eq!(p.rate(), 0.5);
        p.observe(2, false); // evicts the first (true)
        assert_eq!(p.rate(), 0.0);
    }

    #[test]
    fn level_policy_paper_values() {
        let p = LevelPolicy::citeseer();
        assert_eq!(p.window(true, false), 15);
        assert_eq!(p.window(false, false), 10);
        assert_eq!(p.window(false, true), 5);
        assert_eq!(p.frac(true, false), 1.0);
        assert_eq!(p.frac(false, true), 0.8);
        assert_eq!(p.frac(false, false), 0.9);
        assert_eq!(p.termination(120), 120);
        let b = LevelPolicy::books();
        assert_eq!(b.frac(false, true), 0.85);
        assert_eq!(b.frac(false, false), 0.95);
    }

    #[test]
    fn stop_rule_shape_per_level() {
        let p = LevelPolicy::citeseer();
        assert_eq!(p.stop_rule(true, 50), StopRule::Exhaust);
        assert_eq!(p.stop_rule(false, 50), StopRule::DistinctBudget(50));
    }

    #[test]
    fn termination_monotone_in_size() {
        // Child blocks are smaller than parents, so Th(child) < Th(parent):
        // the "different levels of aggressiveness" guarantee of §III-A.
        let p = LevelPolicy::citeseer();
        assert!(p.termination(10) < p.termination(25));
    }
}
