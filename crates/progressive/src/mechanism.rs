//! The mechanism abstraction: feedback-driven pair orderings.

use pper_blocking::forest::EntityLookup;
use pper_datagen::EntityId;

/// A prioritized, resumable stream of entity pairs for one block.
///
/// The consumer alternates [`PairSource::next_pair`] and
/// [`PairSource::feedback`]: mechanisms like PSNM use the feedback (was the
/// last pair a duplicate?) to re-prioritize, and stopping rules live outside
/// the source so a block can be suspended and resumed (incremental
/// resolution, §III-A).
pub trait PairSource {
    /// The next pair to resolve, or `None` when the ordering is exhausted.
    fn next_pair(&mut self) -> Option<(EntityId, EntityId)>;

    /// Report whether the most recently yielded pair was a duplicate.
    /// Calling it without a pending pair is a no-op.
    fn feedback(&mut self, is_duplicate: bool);

    /// Lower bound on the number of pairs this source may still yield
    /// (used for cost bookkeeping; exactness not required).
    fn remaining_hint(&self) -> u64 {
        0
    }
}

/// A progressive mechanism `M`: given a block's entities *already sorted by
/// the blocking attribute* (the paper sorts "using the values of the
/// attribute on which the blocking was performed", §VI-A3) and a window,
/// produce a [`PairSource`].
pub trait Mechanism: Sync {
    /// The pair stream type.
    type Run: PairSource;

    /// Start resolving a block. `sorted` is the block's member list in sort
    /// order; `window` is the maximum rank distance to consider.
    fn start(&self, sorted: Vec<EntityId>, window: usize) -> Self::Run;

    /// Mechanism name for reports.
    fn name(&self) -> &'static str;

    /// Number of pairs the mechanism would resolve if run to exhaustion on a
    /// block of `n` entities with window `w`: `Σ_{d=1..w} (n−d)` — the cost
    /// model's `CostF` ingredient (§IV-B).
    fn full_pairs(&self, n: usize, window: usize) -> u64 {
        let n = n as u64;
        let w = (window as u64).min(n.saturating_sub(1));
        // sum_{d=1..w} (n - d) = n*w - w(w+1)/2
        n * w - w * (w + 1) / 2
    }
}

/// Sort a block's members by attribute `attr` (the hint-generation step;
/// the caller charges the sort cost against its clock). Ties break by
/// entity id for determinism.
pub fn sort_by_attr(
    members: &[EntityId],
    attr: usize,
    lookup: &impl EntityLookup,
) -> Vec<EntityId> {
    sort_by_attrs(members, &[attr], lookup)
}

/// Sort by a compound attribute key: compare `attrs[0]` first, break ties
/// with `attrs[1]`, and so on; final tie-break by entity id.
///
/// Sorted-neighbourhood methods need *discriminative* sort keys: a block
/// built on a low-cardinality attribute (e.g. venue) is full of ties, and a
/// windowed scan over an arbitrarily-ordered tie run finds nothing. Real
/// multi-pass SNM deployments therefore sort by the blocking attribute
/// *extended with* a discriminative attribute; the pipeline passes
/// `[blocking attr, title]`.
///
/// Each member's values are read once, up front, rather than looked up
/// again in every comparison. Members are distinct ids, so the id
/// tie-break makes the order total and the unstable sort returns exactly
/// what a stable one would.
pub fn sort_by_attrs(
    members: &[EntityId],
    attrs: &[usize],
    lookup: &impl EntityLookup,
) -> Vec<EntityId> {
    let width = attrs.len();
    let values: Vec<&str> = members
        .iter()
        .flat_map(|&m| {
            let entity = lookup.entity(m);
            attrs.iter().map(move |&attr| entity.attr(attr))
        })
        .collect();
    let row = |i: usize| &values[i * width..(i + 1) * width];
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)).then(members[a].cmp(&members[b])));
    order.into_iter().map(|i| members[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_datagen::Entity;

    struct NoopSource;
    impl PairSource for NoopSource {
        fn next_pair(&mut self) -> Option<(EntityId, EntityId)> {
            None
        }
        fn feedback(&mut self, _is_duplicate: bool) {}
    }

    #[test]
    fn default_remaining_hint_is_zero() {
        assert_eq!(NoopSource.remaining_hint(), 0);
    }

    #[test]
    fn sort_by_attr_orders_and_breaks_ties_by_id() {
        let entities = [
            Entity::new(0, vec!["b".into()]),
            Entity::new(1, vec!["a".into()]),
            Entity::new(2, vec!["a".into()]),
        ];
        let lookup: Vec<&Entity> = entities.iter().collect();
        let sorted = sort_by_attr(&[0, 1, 2], 0, &lookup);
        assert_eq!(sorted, vec![1, 2, 0]);
    }

    /// The definition `sort_by_attrs` must reproduce: a stable sort that
    /// looks both entities up in every comparison.
    fn reference_sort(
        members: &[EntityId],
        attrs: &[usize],
        lookup: &Vec<&Entity>,
    ) -> Vec<EntityId> {
        let mut sorted = members.to_vec();
        sorted.sort_by(|&a, &b| {
            let (ea, eb) = (lookup.entity(a), lookup.entity(b));
            attrs
                .iter()
                .map(|&attr| ea.attr(attr).cmp(eb.attr(attr)))
                .find(|ord| ord.is_ne())
                .unwrap_or_else(|| a.cmp(&b))
        });
        sorted
    }

    proptest::proptest! {
        #[test]
        fn prop_sort_by_attrs_matches_the_stable_comparator_sort(
            // Two-symbol alphabets with empty values: runs of ties on the
            // first attribute, broken (or not) by the second, and
            // non-ASCII bytes that sort after every ASCII one.
            values in proptest::collection::vec(("[aé]{0,2}", "[bΣ]{0,1}"), 0..40),
            shuffle in 0u32..1_000,
        ) {
            let entities: Vec<Entity> = values
                .iter()
                .enumerate()
                .map(|(i, (a, b))| Entity::new(i as EntityId, vec![a.clone(), b.clone()]))
                .collect();
            let lookup: Vec<&Entity> = entities.iter().collect();
            // Members in a scrambled order, as a block arrives.
            let n = entities.len() as u32;
            let mut members: Vec<EntityId> = (0..n).collect();
            members.sort_by_key(|&m| (m * 7 + shuffle) % n.max(1));
            for attrs in [&[0, 1][..], &[1][..], &[1, 0, 2][..]] {
                proptest::prop_assert_eq!(
                    sort_by_attrs(&members, attrs, &lookup),
                    reference_sort(&members, attrs, &lookup)
                );
            }
        }
    }

    struct Dummy;
    impl Mechanism for Dummy {
        type Run = NoopSource;
        fn start(&self, _sorted: Vec<EntityId>, _window: usize) -> NoopSource {
            NoopSource
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
    }

    #[test]
    fn full_pairs_formula() {
        let m = Dummy;
        // n=4, w=3: distances 1,2,3 → 3+2+1 = 6 = all pairs.
        assert_eq!(m.full_pairs(4, 3), 6);
        // n=4, w=1: 3 adjacent pairs.
        assert_eq!(m.full_pairs(4, 1), 3);
        // window larger than block clamps.
        assert_eq!(m.full_pairs(4, 100), 6);
        // degenerate blocks.
        assert_eq!(m.full_pairs(1, 5), 0);
        assert_eq!(m.full_pairs(0, 5), 0);
    }
}
