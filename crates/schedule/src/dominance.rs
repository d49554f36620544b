//! Redundancy-free resolution support (§V): dominance values, the
//! `List(e, X)` construction, and the `SHOULD-RESOLVE` check (Fig. 7).
//!
//! Every tree carries a unique dominance value `Dom(T)`, derived from its
//! index in the schedule. The map phase of the second job attaches to each
//! emitted entity a *dominance list*:
//!
//! * position `j < n` holds `Dom` of the family-`j` tree relevant to the
//!   entity — the tree being emitted to when `j` is the tree's own family,
//!   otherwise the family-`j` *root* tree containing the entity;
//! * an optional position `n` (the paper's `(n+1)`-st, 1-based) holds `Dom`
//!   of the highest split-off sub-tree below the current tree that still
//!   contains the entity.
//!
//! [`TreeLocator::route`] builds every list of an entity in one pass, from
//! integers alone: job 1's side data names the deepest block holding the
//! entity in each family ([`pper_blocking::Placement`]), a table maps that
//! block to the schedule tree holding it, and each split-off tree names the
//! block it hangs under — so the trees holding the entity are that tree and
//! the trees above it, and every list follows from them. The same tables
//! give the reduce side each member's rank and deepest node in its tree
//! ([`TreeLocator::seat`]). A [`DomList`] is a fixed array, not a vector:
//! it travels inside the routed record, and a configuration with more than
//! [`MAX_FAMILIES`] families is refused before any job runs
//! ([`DomList::check_capacity`]).
//!
//! At the reduce side, `SHOULD-RESOLVE` compares two entities' lists: a pair
//! is skipped when a more dominating family's tree owns it (loop over
//! positions `0..family`), or when both entities fall into the same split
//! sub-tree (which resolves the pair fully itself).

use std::sync::Arc;

use pper_blocking::{FamilyIndex, Placement};
use pper_datagen::{Entity, EntityId};
use pper_mapreduce::MrError;

use crate::plan::Schedule;

/// The most main blocking functions (families) a [`DomList`] holds: the
/// paper's three, which every preset uses. The pipeline refuses a
/// configuration with more before its first job
/// ([`DomList::check_capacity`]); a list is never truncated.
pub const MAX_FAMILIES: usize = 3;

/// Dominance list attached to one (entity, tree) emission. Length is the
/// number of main blocking functions `n`, or `n + 1` when a split sub-tree
/// below the tree contains the entity.
///
/// The positions live in the list itself — a fixed array of
/// [`MAX_FAMILIES`]` + 1` values, zero past the length — so routing an
/// entity allocates nothing and `SHOULD-RESOLVE` reads the shuffled record
/// it was shipped in. The capacity is what keeps that record small: each
/// family more would add 8 bytes to every routed record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomList {
    doms: [u64; MAX_FAMILIES + 1],
    len: u8,
}

impl DomList {
    /// Refuse a configuration of `families` main blocking functions when a
    /// list cannot hold a position for each of them plus the split slot.
    pub fn check_capacity(families: usize) -> Result<(), MrError> {
        if families <= MAX_FAMILIES {
            Ok(())
        } else {
            Err(MrError::InvalidConfig(format!(
                "{families} blocking families; a dominance list holds at most {MAX_FAMILIES}"
            )))
        }
    }

    /// Append a position. Routing never pushes past `n + 1` for a
    /// configuration [`check_capacity`](Self::check_capacity) accepted.
    fn push(&mut self, dom: u64) {
        self.doms[usize::from(self.len)] = dom;
        self.len += 1;
    }
}

/// High bit marking the sentinel value `SENTINEL_BIT | id` that entity `id`
/// holds at a family whose root block of it formed no tree. Job 1 drops
/// only blocks of fewer than 2 members, so such a block is a singleton: no
/// other entity shares it, and the entity's own id keeps the sentinel
/// unique. `SHOULD-RESOLVE` compares position by position, so the family
/// need not be in the value.
const SENTINEL_BIT: u64 = 1 << 63;

/// `Dom(T)` of the schedule's tree `tree`. Any distinct assignment works;
/// index + 1 keeps zero free, and no schedule holds the 2⁶³ trees it would
/// take to reach the sentinel namespace.
fn dom(tree: usize) -> u64 {
    tree as u64 + 1
}

/// Locates the trees of a [`Schedule`] that hold an entity, from job 1's
/// side data.
#[derive(Debug, Clone)]
pub struct TreeLocator {
    /// Job 1's side data, shared with the schedule.
    placement: Arc<Placement>,
    /// By job 1's block id: the schedule tree holding the block and the
    /// block's node index there.
    at: Vec<(u32, u32)>,
    /// By schedule tree: for a split-off sub-tree, the tree and node its
    /// root hangs under.
    hang: Vec<Option<(u32, u32)>>,
}

impl TreeLocator {
    /// Index where every block of `schedule` went, splits included.
    pub fn new(schedule: &Schedule) -> Self {
        let blocks = schedule.trees.iter().map(|tree| tree.nodes.len()).sum();
        let mut at = vec![(0, 0); blocks];
        for (t, tree) in (0..).zip(&schedule.trees) {
            for (n, node) in (0..).zip(&tree.nodes) {
                at[node.origin as usize] = (t, n);
            }
        }
        let hang = schedule
            .trees
            .iter()
            .map(|tree| tree.split_from.map(|block| at[block as usize]))
            .collect();
        Self {
            placement: Arc::clone(&schedule.placement),
            at,
            hang,
        }
    }

    /// Route `entity` (§V): call `emit(tree, List(entity, tree))` for every
    /// tree whose root block holds the entity — per family its root tree,
    /// if one exists, then every split sub-tree below it that still holds
    /// the entity — in `(family, level)` order.
    ///
    /// The tree holding the entity's deepest block is found by one table
    /// lookup; the others hang above it, each where the one below was split
    /// off. The lists:
    ///
    /// * position `f` is `Dom` of the family-`f` root tree holding the
    ///   entity (a sentinel when its root block formed no tree), except
    ///   that the emitted tree's own family holds `Dom` of that tree;
    /// * position `n` holds `Dom` of the next tree of the same family below
    ///   the emitted one — the highest split sub-tree still holding the
    ///   entity — when there is one.
    ///
    /// # Panics
    /// Panics if the schedule's families outnumber [`MAX_FAMILIES`], which
    /// [`DomList::check_capacity`] refuses before any job runs, or if
    /// `entity` is not one of the dataset the schedule was made for.
    pub fn route(&self, entity: &Entity, mut emit: impl FnMut(usize, DomList)) {
        // `Dom` of each family's root tree, or the entity's sentinel, and
        // the tree holding the entity's deepest block where there is one.
        let mut roots = DomList::default();
        let mut deepest = [None; MAX_FAMILIES];
        for (f, deepest) in deepest
            .iter_mut()
            .enumerate()
            .take(self.placement.families())
        {
            let place = self.placement.get(entity.id, f);
            *deepest = place.map(|place| self.at[place.node as usize].0);
            roots.push(match *deepest {
                Some(tree) => dom(self.root_of(tree)),
                None => SENTINEL_BIT | u64::from(entity.id),
            });
        }
        for (f, deepest) in deepest.into_iter().enumerate() {
            if let Some(tree) = deepest {
                self.emit_down_to(f, tree, None, &roots, &mut emit);
            }
        }
    }

    /// Emit the trees from the family's root tree down to `tree`, whose
    /// split slot is `below`.
    fn emit_down_to(
        &self,
        f: FamilyIndex,
        tree: u32,
        below: Option<u32>,
        roots: &DomList,
        emit: &mut impl FnMut(usize, DomList),
    ) {
        if let Some((above, _)) = self.hang[tree as usize] {
            self.emit_down_to(f, above, Some(tree), roots, emit);
        }
        let mut list = *roots;
        list.doms[f] = dom(tree as usize);
        if let Some(below) = below {
            list.push(dom(below as usize));
        }
        emit(tree as usize, list);
    }

    /// The root tree above `tree` (itself if it was never split off).
    fn root_of(&self, mut tree: u32) -> usize {
        while let Some((above, _)) = self.hang[tree as usize] {
            tree = above;
        }
        tree as usize
    }

    /// Where `entity`, routed to `tree` of blocking family `family`, sits
    /// in it: its rank in its root block's order, and the tree's deepest
    /// node holding it — the block job 1 placed it in, or, where that block
    /// was split off the tree, the nearest block above it that the tree
    /// still holds. `None` when the tree does not hold the entity.
    pub fn seat(&self, entity: EntityId, family: FamilyIndex, tree: usize) -> Option<(u32, usize)> {
        let place = self.placement.get(entity, family)?;
        let (mut at, mut node) = self.at[place.node as usize];
        while at as usize != tree {
            (at, node) = self.hang[at as usize]?;
        }
        Some((place.rank, node as usize))
    }
}

/// `SHOULD-RESOLVE` (Fig. 7): is the tree of blocking family `family`
/// responsible for resolving the pair `(a, b)`?
///
/// * positions `0..family` — if the entities share a more-dominating
///   family's tree, that tree resolves the pair: skip;
/// * position `n_families` (present only when a split descendant exists) —
///   if both entities fall into the same split sub-tree, it resolves the
///   pair fully itself: skip.
pub fn should_resolve(a: &DomList, b: &DomList, family: FamilyIndex, n_families: usize) -> bool {
    if (0..family).any(|m| a.doms[m] == b.doms[m]) {
        return false;
    }
    let split = usize::from(a.len) > n_families && usize::from(b.len) > n_families;
    !(split && a.doms[n_families] == b.doms[n_families])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimationContext;
    use crate::generate::{generate_schedule, ScheduleConfig};
    use crate::probmodel::TrainedProb;
    use pper_blocking::{build_forests, presets, BlockingFamily, DatasetStats};
    use pper_datagen::{toy_people, BookGen, PubGen};
    use pper_progressive::LevelPolicy;

    /// Every `(tree, List(entity, tree))` that `route` emits, in order.
    fn routed(locator: &TreeLocator, entity: &Entity) -> Vec<(usize, DomList)> {
        let mut out = Vec::new();
        locator.route(entity, |tree, list| out.push((tree, list)));
        out
    }

    /// The trees `entity` is routed to.
    fn trees_of(locator: &TreeLocator, entity: &Entity) -> Vec<usize> {
        let routes = routed(locator, entity);
        routes.into_iter().map(|(tree, _)| tree).collect()
    }

    /// `List(entity, tree)` as routing builds it; `tree` must hold `entity`.
    fn list_for(locator: &TreeLocator, entity: &Entity, tree: usize) -> DomList {
        let routes = routed(locator, entity);
        let found = routes.into_iter().find(|(t, _)| *t == tree);
        found
            .map(|(_, list)| list)
            .expect("the tree holds the entity")
    }

    /// The list of `positions`, as the brute-force test writes its
    /// expectations.
    #[expect(
        non_snake_case,
        reason = "named like the constructor the expected lists are spelled with"
    )]
    fn DomList(positions: Vec<u64>) -> DomList {
        let mut list = DomList::default();
        for dom in positions {
            list.push(dom);
        }
        list
    }

    fn toy_schedule() -> (Schedule, Vec<BlockingFamily>, pper_datagen::Dataset) {
        let ds = toy_people();
        let families = presets::toy_families();
        let forests = build_forests(&ds, &families);
        let stats = DatasetStats::from_forests(&ds, &families, &forests);
        let policy = LevelPolicy::citeseer();
        let prob = TrainedProb::citeseer();
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &policy,
            prob: &prob,
        };
        let schedule = generate_schedule(&stats, &ctx, &ScheduleConfig::default(), 2);
        (schedule, families, ds)
    }

    #[test]
    fn locator_finds_root_trees() {
        let (schedule, _, ds) = toy_schedule();
        let locator = TreeLocator::new(&schedule);
        // e1 (id 0, "John Lopez", HI): in X-tree "jo" and Y-tree "hi".
        let trees = trees_of(&locator, ds.entity(0));
        let keys: Vec<(usize, &str)> = trees
            .iter()
            .map(|&t| (schedule.trees[t].family, schedule.trees[t].root_key()))
            .collect();
        assert!(keys.contains(&(0, "jo")));
        assert!(keys.contains(&(1, "hi")));
    }

    #[test]
    fn shared_pair_resolved_only_in_dominating_family() {
        // e1, e2 share the X-tree "jo" AND the Y-tree "hi". X dominates Y, so
        // the pair must be resolved in "jo" and skipped in "hi".
        let (schedule, families, ds) = toy_schedule();
        let locator = TreeLocator::new(&schedule);
        let n = families.len();

        let x_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].family == 0 && schedule.trees[t].root_key() == "jo")
            .unwrap();
        let y_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].family == 1 && schedule.trees[t].root_key() == "hi")
            .unwrap();

        let lx0 = list_for(&locator, ds.entity(0), x_tree);
        let lx1 = list_for(&locator, ds.entity(1), x_tree);
        assert!(should_resolve(&lx0, &lx1, 0, n), "X must resolve the pair");

        let ly0 = list_for(&locator, ds.entity(0), y_tree);
        let ly1 = list_for(&locator, ds.entity(1), y_tree);
        assert!(!should_resolve(&ly0, &ly1, 1, n), "Y must skip the pair");
    }

    #[test]
    fn pair_not_shared_is_resolved_by_lower_family() {
        // e4 ("Charles", LA) and e5 ("Gharles", LA): different X root blocks,
        // same Y-tree "la" — Y must resolve it.
        let (schedule, families, ds) = toy_schedule();
        let locator = TreeLocator::new(&schedule);
        let n = families.len();
        let y_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].family == 1 && schedule.trees[t].root_key() == "la")
            .unwrap();
        let l4 = list_for(&locator, ds.entity(3), y_tree);
        let l5 = list_for(&locator, ds.entity(4), y_tree);
        assert!(should_resolve(&l4, &l5, 1, n));
    }

    #[test]
    fn every_co_blocked_pair_has_exactly_one_responsible_tree() {
        // Global invariant on a real dataset: for every pair sharing at least
        // one root block, exactly one of the trees containing the pair passes
        // SHOULD-RESOLVE at the root level (splits aside, which the er-core
        // integration tests cover end to end).
        let ds = PubGen::new(800, 51).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let stats = DatasetStats::from_forests(&ds, &families, &forests);
        let policy = LevelPolicy::citeseer();
        let prob = TrainedProb::citeseer();
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &policy,
            prob: &prob,
        };
        // NoSplit: a root-level check.
        let cfg = ScheduleConfig {
            scheduler: crate::generate::TreeScheduler::NoSplit,
            ..ScheduleConfig::default()
        };
        let schedule = generate_schedule(&stats, &ctx, &cfg, 4);
        let locator = TreeLocator::new(&schedule);
        let n = families.len();

        let mut checked = 0;
        for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let ea = ds.entity(a);
                let eb = ds.entity(b);
                let ta = trees_of(&locator, ea);
                let tb = trees_of(&locator, eb);
                let shared: Vec<usize> = ta.iter().copied().filter(|t| tb.contains(t)).collect();
                if shared.is_empty() {
                    continue;
                }
                let responsible = shared
                    .iter()
                    .filter(|&&t| {
                        let f = schedule.trees[t].family;
                        let la = list_for(&locator, ea, t);
                        let lb = list_for(&locator, eb, t);
                        should_resolve(&la, &lb, f, n)
                    })
                    .count();
                assert_eq!(
                    responsible, 1,
                    "pair ({a},{b}) shared by {shared:?} has {responsible} responsible trees"
                );
                checked += 1;
            }
        }
        assert!(
            checked > 50,
            "expected many co-blocked pairs, got {checked}"
        );
    }

    #[test]
    fn split_subtree_takes_over_its_pairs() {
        // Force splits on a skewed dataset and verify: when both entities of
        // a pair fall inside a split sub-tree, the parent tree skips the
        // pair and the split tree resolves it.
        let ds = PubGen::new(6_000, 52).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let stats = DatasetStats::from_forests(&ds, &families, &forests);
        let policy = LevelPolicy::citeseer();
        let prob = TrainedProb::citeseer();
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &policy,
            prob: &prob,
        };
        let schedule = generate_schedule(&stats, &ctx, &ScheduleConfig::default(), 8);
        let split_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].root_level > 0)
            .expect("expected at least one split on skewed data");
        let tree = &schedule.trees[split_tree];
        let family = tree.family;
        let fam = &families[family];
        let n = families.len();
        let locator = TreeLocator::new(&schedule);

        // Two entities inside the split tree's root block whose pair is not
        // already owned by a more dominating family: SHOULD-RESOLVE (Fig. 7)
        // hands a pair shared by an earlier family's root tree to *that*
        // tree, so such pairs are legitimately skipped by both the parent
        // and the split tree. The split-ownership claim under test applies
        // to the remaining pairs.
        let level = tree.root_level;
        let key = tree.root_key();
        let inside: Vec<u32> = ds
            .entities
            .iter()
            .filter(|e| fam.key_at(e, level) == key)
            .map(|e| e.id)
            .collect();
        assert!(inside.len() >= 2, "split root should have >= 2 members");

        // The parent tree: the family's root tree of the split tree's
        // members.
        let origin = fam.root_key(ds.entity(inside[0]));
        let parent_tree = (0..schedule.trees.len())
            .find(|&t| {
                schedule.trees[t].family == family
                    && schedule.trees[t].root_level == 0
                    && schedule.trees[t].root_key() == origin
            })
            .expect("parent tree exists");
        let (a, b) = inside
            .iter()
            .enumerate()
            .find_map(|(i, &a)| {
                inside[i + 1..]
                    .iter()
                    .find(|&&b| {
                        (0..family).all(|m| {
                            families[m].root_key(ds.entity(a)) != families[m].root_key(ds.entity(b))
                        })
                    })
                    .map(|&b| (a, b))
            })
            .expect("a pair not co-blocked in any more dominating family");

        let pa = list_for(&locator, ds.entity(a), parent_tree);
        let pb = list_for(&locator, ds.entity(b), parent_tree);
        assert!(
            !should_resolve(&pa, &pb, family, n),
            "parent tree must skip pairs owned by its split sub-tree"
        );

        let sa = list_for(&locator, ds.entity(a), split_tree);
        let sb = list_for(&locator, ds.entity(b), split_tree);
        // The split tree resolves it unless an even deeper split owns it.
        let (la, lb) = (usize::from(sa.len), usize::from(sb.len));
        let deeper_owns = la > n && lb > n && sa.doms[n] == sb.doms[n];
        assert!(
            should_resolve(&sa, &sb, family, n) || deeper_owns,
            "split tree (or a deeper split) must own the pair"
        );
    }

    #[test]
    fn route_matches_the_definition_by_brute_force() {
        // Split schedules on both datasets, so routing meets split trees at
        // several levels and lists of length n + 1.
        let cases = [
            (
                PubGen::new(6_000, 52).generate(),
                presets::citeseer_families(),
                LevelPolicy::citeseer(),
                TrainedProb::citeseer(),
            ),
            (
                BookGen::new(6_000, 52).generate(),
                presets::books_families(),
                LevelPolicy::books(),
                TrainedProb::books(),
            ),
        ];
        for (ds, families, policy, prob) in &cases {
            let forests = build_forests(ds, families);
            let stats = DatasetStats::from_forests(ds, families, &forests);
            let ctx = EstimationContext {
                dataset_size: ds.len(),
                policy,
                prob,
            };
            let schedule = generate_schedule(&stats, &ctx, &ScheduleConfig::default(), 8);
            let locator = TreeLocator::new(&schedule);
            let trees = &schedule.trees;
            let n = families.len();
            assert!(
                trees.iter().any(|t| t.root_level > 0),
                "{}: no split",
                ds.name
            );

            let mut split_lists = 0;
            for e in &ds.entities {
                // The trees whose root block holds the entity, in
                // (family, level) order.
                let mut holding: Vec<usize> = (0..trees.len())
                    .filter(|&t| {
                        families[trees[t].family].key_at(e, trees[t].root_level)
                            == trees[t].root_key()
                    })
                    .collect();
                holding.sort_by_key(|&t| (trees[t].family, trees[t].root_level));
                let routes = routed(&locator, e);
                let emitted: Vec<usize> = routes.iter().map(|(t, _)| *t).collect();
                assert_eq!(emitted, holding, "{}: entity {}", ds.name, e.id);

                for (t, list) in routes {
                    let own = &trees[t];
                    // §V: position f is Dom of the emitted tree for its own
                    // family, else Dom of the family-f root tree holding the
                    // entity (the entity's sentinel when that block formed
                    // no tree) …
                    let mut expected: Vec<u64> = (0..n)
                        .map(|f| {
                            if f == own.family {
                                return dom(t);
                            }
                            let root = holding
                                .iter()
                                .find(|&&r| trees[r].family == f && trees[r].root_level == 0);
                            root.map_or(SENTINEL_BIT | u64::from(e.id), |&r| dom(r))
                        })
                        .collect();
                    // … and position n is Dom of the highest split sub-tree
                    // below it that still holds the entity.
                    let below = holding
                        .iter()
                        .filter(|&&r| {
                            trees[r].family == own.family && trees[r].root_level > own.root_level
                        })
                        .min_by_key(|&&r| trees[r].root_level);
                    if let Some(&r) = below {
                        expected.push(dom(r));
                        split_lists += 1;
                    }
                    assert_eq!(
                        list,
                        DomList(expected),
                        "{}: entity {} tree {t}",
                        ds.name,
                        e.id
                    );
                }
            }
            assert!(split_lists > 0, "{}: no list reached position n", ds.name);
        }
    }

    #[test]
    fn paper_list_example_shape() {
        // §V example: T(X²₁) split from T(X¹₁), T(X³₁) split from T(X²₁);
        // List(e1, X²₁) = [Dom(T(X²₁)), Dom(T(Y¹₁)), Dom(T(X³₁))].
        // Shape check: own-family slot first (family order), then the split
        // descendant appended at position n.
        let (schedule, families, ds) = toy_schedule();
        let locator = TreeLocator::new(&schedule);
        let tree = trees_of(&locator, ds.entity(0))[0];
        let list = list_for(&locator, ds.entity(0), tree);
        let len = usize::from(list.len);
        assert!(len == families.len() || len == families.len() + 1);
    }

    #[test]
    fn the_presets_fit_and_one_family_more_is_refused() {
        // The presets are at capacity: the brute-force test above routes
        // their lists of n + 1 positions whole.
        for families in [presets::citeseer_families(), presets::books_families()] {
            assert_eq!(families.len(), MAX_FAMILIES);
            assert!(DomList::check_capacity(families.len()).is_ok());
        }
        let refused = DomList::check_capacity(MAX_FAMILIES + 1);
        assert!(
            matches!(refused, Err(MrError::InvalidConfig(_))),
            "{refused:?}"
        );
    }
}
