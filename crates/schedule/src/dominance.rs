//! Redundancy-free resolution support (§V): dominance values, the
//! `List(e, X)` construction, and the `SHOULD-RESOLVE` check (Fig. 7).
//!
//! Every tree carries a unique dominance value `Dom(T)`. The map phase of
//! the second job attaches to each emitted entity a *dominance list*:
//!
//! * position `j < n` holds `Dom` of the family-`j` tree relevant to the
//!   entity — the tree being emitted to when `j` is the tree's own family,
//!   otherwise the family-`j` *root* tree containing the entity;
//! * an optional position `n` (the paper's `(n+1)`-st, 1-based) holds `Dom`
//!   of the highest split-off sub-tree below the current tree that still
//!   contains the entity.
//!
//! [`TreeLocator::route`] builds every list of an entity in one pass: it
//! extracts the entity's key at each `(family, level)` where trees are
//! rooted once, looks it up once, and derives both the trees the entity is
//! routed to and all their lists from those lookups.
//!
//! At the reduce side, `SHOULD-RESOLVE` compares two entities' lists: a pair
//! is skipped when a more dominating family's tree owns it (loop over
//! positions `0..family`), or when both entities fall into the same split
//! sub-tree (which resolves the pair fully itself).

use pper_blocking::{BlockingFamily, FamilyIndex};
use pper_datagen::Entity;
use pper_mapreduce::fxhash::{hash_one, FxHashMap};
use serde::{Deserialize, Serialize};

use crate::plan::Schedule;

/// Dominance list attached to one (entity, tree) emission. Length is the
/// number of main blocking functions `n`, or `n + 1` when a split sub-tree
/// below the tree contains the entity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomList(pub Vec<u64>);

/// High bit marking sentinel values for entities whose root block of some
/// family was eliminated (singleton blocks form no tree). Two entities can
/// only share a sentinel if they share the eliminated key — impossible,
/// since a shared key means ≥ 2 members and hence a real tree — modulo a
/// 2⁻⁶⁴ hash collision between different keys, which we accept.
const SENTINEL_BIT: u64 = 1 << 63;

fn sentinel(family: FamilyIndex, key: &str) -> u64 {
    hash_one(&(family as u64, key)) | SENTINEL_BIT
}

/// Locates the trees of a [`Schedule`] from entity blocking keys.
#[derive(Debug, Clone)]
pub struct TreeLocator {
    /// Per family, ascending by level: every level at which tree roots
    /// exist, with its `root key → tree index` map. Keyed per level so a
    /// lookup probes with the borrowed `&str`.
    roots: Vec<Vec<(usize, FxHashMap<String, usize>)>>,
}

impl TreeLocator {
    /// Index all tree roots of `schedule` for `num_families` families.
    pub fn new(schedule: &Schedule, num_families: usize) -> Self {
        let mut roots: Vec<Vec<(usize, FxHashMap<String, usize>)>> = vec![Vec::new(); num_families];
        for (t, tree) in schedule.trees.iter().enumerate() {
            let levels = &mut roots[tree.family];
            let at = match levels.binary_search_by_key(&tree.root_level, |(level, _)| *level) {
                Ok(at) => at,
                Err(at) => {
                    levels.insert(at, (tree.root_level, FxHashMap::default()));
                    at
                }
            };
            levels[at].1.insert(tree.root_key().to_string(), t);
        }
        Self { roots }
    }

    /// Route `entity` (§V): call `emit(tree, List(entity, tree))` for every
    /// tree whose root block holds the entity — per family its root tree,
    /// if one exists, then every split sub-tree rooted at a deeper level —
    /// in `(family, level)` order.
    ///
    /// Each `(family, level)` key is extracted once, into one reused
    /// buffer, and looked up once; the lists are built from those lookups:
    ///
    /// * position `f` is `Dom` of the family-`f` root tree holding the
    ///   entity (a sentinel when its root block formed no tree), except
    ///   that the emitted tree's own family holds `Dom` of that tree;
    /// * position `n` holds `Dom` of the next tree of the same family at a
    ///   deeper level — the highest split sub-tree below the emitted one —
    ///   when there is one.
    pub fn route(
        &self,
        schedule: &Schedule,
        families: &[BlockingFamily],
        entity: &Entity,
        mut emit: impl FnMut(usize, DomList),
    ) {
        let mut key = String::new();
        // `Dom` of each family's root tree, or the sentinel of its key.
        let mut roots = Vec::with_capacity(families.len());
        // `(family, tree)` of every tree holding the entity, in order.
        let mut hits: Vec<(FamilyIndex, usize)> = Vec::new();
        for (f, (family, levels)) in families.iter().zip(&self.roots).enumerate() {
            key.clear();
            family.levels[0].key_into(entity, &mut key);
            let root = levels
                .first()
                .filter(|(level, _)| *level == 0)
                .and_then(|(_, by_key)| by_key.get(key.as_str()).copied());
            roots.push(root.map_or_else(|| sentinel(f, &key), |t| schedule.dom[t]));
            hits.extend(root.map(|t| (f, t)));
            for (level, by_key) in levels {
                if *level == 0 || *level >= family.depth() {
                    continue;
                }
                key.clear();
                family.levels[*level].key_into(entity, &mut key);
                hits.extend(by_key.get(key.as_str()).map(|&t| (f, t)));
            }
        }
        for (at, &(f, tree)) in hits.iter().enumerate() {
            let mut list = Vec::with_capacity(roots.len() + 1);
            list.extend_from_slice(&roots);
            list[f] = schedule.dom[tree];
            if let Some(&(_, below)) = hits.get(at + 1).filter(|(g, _)| *g == f) {
                list.push(schedule.dom[below]);
            }
            emit(tree, DomList(list));
        }
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
    for m in 0..family {
        if a.0[m] == b.0[m] {
            return false;
        }
    }
    if a.0.len() > n_families && b.0.len() > n_families && a.0[n_families] == b.0[n_families] {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimationContext;
    use crate::generate::{generate_schedule, ScheduleConfig};
    use crate::probmodel::HeuristicProb;
    use pper_blocking::{build_forests, presets, DatasetStats};
    use pper_datagen::{toy_people, BookGen, PubGen};
    use pper_mapreduce::CostModel;
    use pper_progressive::LevelPolicy;

    /// Every `(tree, List(entity, tree))` that `route` emits, in order.
    fn routed(
        locator: &TreeLocator,
        schedule: &Schedule,
        families: &[BlockingFamily],
        entity: &Entity,
    ) -> Vec<(usize, DomList)> {
        let mut out = Vec::new();
        locator.route(schedule, families, entity, |tree, list| {
            out.push((tree, list))
        });
        out
    }

    /// The trees `entity` is routed to.
    fn trees_of(
        locator: &TreeLocator,
        schedule: &Schedule,
        families: &[BlockingFamily],
        entity: &Entity,
    ) -> Vec<usize> {
        let routes = routed(locator, schedule, families, entity);
        routes.into_iter().map(|(tree, _)| tree).collect()
    }

    /// `List(entity, tree)` as routing builds it; `tree` must hold `entity`.
    fn list_for(
        locator: &TreeLocator,
        schedule: &Schedule,
        families: &[BlockingFamily],
        entity: &Entity,
        tree: usize,
    ) -> DomList {
        let routes = routed(locator, schedule, families, entity);
        let found = routes.into_iter().find(|(t, _)| *t == tree);
        found
            .map(|(_, list)| list)
            .expect("the tree holds the entity")
    }

    fn toy_schedule() -> (Schedule, Vec<BlockingFamily>, pper_datagen::Dataset) {
        let ds = toy_people();
        let families = presets::toy_families();
        let forests = build_forests(&ds, &families);
        let stats = DatasetStats::from_forests(&ds, &families, &forests);
        let policy = LevelPolicy::citeseer();
        let cm = CostModel::default();
        let prob = HeuristicProb::default();
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &policy,
            cost_model: &cm,
            prob: &prob,
        };
        let schedule = generate_schedule(&stats, &ctx, &ScheduleConfig::new(2));
        (schedule, families, ds)
    }

    #[test]
    fn locator_finds_root_trees() {
        let (schedule, families, ds) = toy_schedule();
        let locator = TreeLocator::new(&schedule, families.len());
        // e1 (id 0, "John Lopez", HI): in X-tree "jo" and Y-tree "hi".
        let trees = trees_of(&locator, &schedule, &families, ds.entity(0));
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
        let locator = TreeLocator::new(&schedule, families.len());
        let n = families.len();

        let x_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].family == 0 && schedule.trees[t].root_key() == "jo")
            .unwrap();
        let y_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].family == 1 && schedule.trees[t].root_key() == "hi")
            .unwrap();

        let lx0 = list_for(&locator, &schedule, &families, ds.entity(0), x_tree);
        let lx1 = list_for(&locator, &schedule, &families, ds.entity(1), x_tree);
        assert!(should_resolve(&lx0, &lx1, 0, n), "X must resolve the pair");

        let ly0 = list_for(&locator, &schedule, &families, ds.entity(0), y_tree);
        let ly1 = list_for(&locator, &schedule, &families, ds.entity(1), y_tree);
        assert!(!should_resolve(&ly0, &ly1, 1, n), "Y must skip the pair");
    }

    #[test]
    fn pair_not_shared_is_resolved_by_lower_family() {
        // e4 ("Charles", LA) and e5 ("Gharles", LA): different X root blocks,
        // same Y-tree "la" — Y must resolve it.
        let (schedule, families, ds) = toy_schedule();
        let locator = TreeLocator::new(&schedule, families.len());
        let n = families.len();
        let y_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].family == 1 && schedule.trees[t].root_key() == "la")
            .unwrap();
        let l4 = list_for(&locator, &schedule, &families, ds.entity(3), y_tree);
        let l5 = list_for(&locator, &schedule, &families, ds.entity(4), y_tree);
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
        let cm = CostModel::default();
        let prob = HeuristicProb::default();
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &policy,
            cost_model: &cm,
            prob: &prob,
        };
        let mut cfg = ScheduleConfig::new(4);
        cfg.scheduler = crate::generate::TreeScheduler::NoSplit; // root-level check
        let schedule = generate_schedule(&stats, &ctx, &cfg);
        let locator = TreeLocator::new(&schedule, families.len());
        let n = families.len();

        let mut checked = 0;
        for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let ea = ds.entity(a);
                let eb = ds.entity(b);
                let ta = trees_of(&locator, &schedule, &families, ea);
                let tb = trees_of(&locator, &schedule, &families, eb);
                let shared: Vec<usize> = ta.iter().copied().filter(|t| tb.contains(t)).collect();
                if shared.is_empty() {
                    continue;
                }
                let responsible = shared
                    .iter()
                    .filter(|&&t| {
                        let f = schedule.trees[t].family;
                        let la = list_for(&locator, &schedule, &families, ea, t);
                        let lb = list_for(&locator, &schedule, &families, eb, t);
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
        let cm = CostModel::default();
        let prob = HeuristicProb::default();
        let ctx = EstimationContext {
            dataset_size: ds.len(),
            policy: &policy,
            cost_model: &cm,
            prob: &prob,
        };
        let schedule = generate_schedule(&stats, &ctx, &ScheduleConfig::new(8));
        let split_tree = (0..schedule.trees.len())
            .find(|&t| schedule.trees[t].root_level > 0)
            .expect("expected at least one split on skewed data");
        let tree = &schedule.trees[split_tree];
        let family = tree.family;
        let fam = &families[family];
        let n = families.len();
        let locator = TreeLocator::new(&schedule, families.len());

        // Find the parent tree (root tree with the same origin key).
        let parent_tree = (0..schedule.trees.len())
            .find(|&t| {
                schedule.trees[t].family == family
                    && schedule.trees[t].root_level == 0
                    && schedule.trees[t].origin_root_key == tree.origin_root_key
            })
            .expect("parent tree exists");

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

        let pa = list_for(&locator, &schedule, &families, ds.entity(a), parent_tree);
        let pb = list_for(&locator, &schedule, &families, ds.entity(b), parent_tree);
        assert!(
            !should_resolve(&pa, &pb, family, n),
            "parent tree must skip pairs owned by its split sub-tree"
        );

        let sa = list_for(&locator, &schedule, &families, ds.entity(a), split_tree);
        let sb = list_for(&locator, &schedule, &families, ds.entity(b), split_tree);
        // The split tree resolves it unless an even deeper split owns it.
        let deeper_owns = sa.0.len() > n && sb.0.len() > n && sa.0[n] == sb.0[n];
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
            ),
            (
                BookGen::new(6_000, 52).generate(),
                presets::books_families(),
                LevelPolicy::books(),
            ),
        ];
        for (ds, families, policy) in &cases {
            let forests = build_forests(ds, families);
            let stats = DatasetStats::from_forests(ds, families, &forests);
            let cm = CostModel::default();
            let prob = HeuristicProb::default();
            let ctx = EstimationContext {
                dataset_size: ds.len(),
                policy,
                cost_model: &cm,
                prob: &prob,
            };
            let schedule = generate_schedule(&stats, &ctx, &ScheduleConfig::new(8));
            let locator = TreeLocator::new(&schedule, families.len());
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
                let routes = routed(&locator, &schedule, families, e);
                let emitted: Vec<usize> = routes.iter().map(|(t, _)| *t).collect();
                assert_eq!(emitted, holding, "{}: entity {}", ds.name, e.id);

                for (t, list) in routes {
                    let own = &trees[t];
                    // §V: position f is Dom of the emitted tree for its own
                    // family, else Dom of the family-f root tree holding the
                    // entity (a sentinel of its root key when that block
                    // formed no tree) …
                    let mut expected: Vec<u64> = (0..n)
                        .map(|f| {
                            if f == own.family {
                                return schedule.dom[t];
                            }
                            let root = holding
                                .iter()
                                .find(|&&r| trees[r].family == f && trees[r].root_level == 0);
                            root.map_or_else(
                                || sentinel(f, &families[f].root_key(e)),
                                |&r| schedule.dom[r],
                            )
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
                        expected.push(schedule.dom[r]);
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
    fn sentinels_do_not_collide_for_distinct_keys() {
        assert_ne!(sentinel(0, "ab"), sentinel(0, "cd"));
        assert_ne!(sentinel(0, "ab"), sentinel(1, "ab"));
        assert!(sentinel(0, "ab") & SENTINEL_BIT != 0);
    }

    #[test]
    fn paper_list_example_shape() {
        // §V example: T(X²₁) split from T(X¹₁), T(X³₁) split from T(X²₁);
        // List(e1, X²₁) = [Dom(T(X²₁)), Dom(T(Y¹₁)), Dom(T(X³₁))].
        // Shape check: own-family slot first (family order), then the split
        // descendant appended at position n.
        let (schedule, families, ds) = toy_schedule();
        let locator = TreeLocator::new(&schedule, families.len());
        let tree = trees_of(&locator, &schedule, &families, ds.entity(0))[0];
        let list = list_for(&locator, &schedule, &families, ds.entity(0), tree);
        assert!(list.0.len() == families.len() || list.0.len() == families.len() + 1);
    }
}
