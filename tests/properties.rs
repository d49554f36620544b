//! Property-based integration tests over randomized datasets: invariants
//! that must hold for *any* generator configuration.

use pper::blocking::{build_forests, pairs, presets, DatasetStats, Signatures};
use pper::datagen::PubGen;
use pper::er::{ErConfig, ProgressiveEr};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs a full (small) pipeline
        .. ProptestConfig::default()
    })]

    #[test]
    fn pipeline_invariants_hold_for_random_datasets(
        seed in 0u64..1_000,
        n in 300usize..900,
        dup_prob in 0.1f64..0.6,
    ) {
        let mut generator = PubGen::new(n, seed);
        generator.dup_cluster_prob = dup_prob;
        let ds = generator.generate();
        let result = ProgressiveEr::new(ErConfig::citeseer(2)).run(&ds);

        // Output sanity.
        prop_assert!(result.duplicates.windows(2).all(|w| w[0] < w[1]));
        prop_assert!((0.0..=1.0).contains(&result.precision));
        prop_assert!((0.0..=1.0).contains(&result.curve.final_recall()));
        prop_assert!(result.total_cost > 0.0);
        prop_assert!(result.overhead_cost <= result.total_cost);

        // Duplicate events and counters agree.
        let found = result.counters.get("duplicates_found");
        prop_assert!(found >= result.duplicates.len() as u64);

        // Comparisons are bounded by the total co-blocked pairs.
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let all_block_pairs: u64 = forests
            .iter()
            .flat_map(|f| f.trees.iter())
            .map(|t| pairs(t.root().size()))
            .sum();
        prop_assert!(result.counters.get("pairs_compared") <= all_block_pairs);
    }

    #[test]
    fn stats_invariants_for_random_datasets(seed in 0u64..1_000, n in 200usize..1_200) {
        let ds = PubGen::new(n, seed).generate();
        let families = presets::citeseer_families();
        let forests = build_forests(&ds, &families);
        let stats = DatasetStats::from_forests(&ds, &families, &forests);
        let sigs = Signatures::intern(&families, &ds.entities);
        prop_assert_eq!(sigs.len(), ds.len());

        for tree in &stats.trees {
            for (i, node) in tree.nodes.iter().enumerate() {
                // Covered + uncovered = all pairs.
                prop_assert!(node.uncovered_pairs <= pairs(node.size));
                // The most dominating family has no uncovered pairs.
                if tree.family == 0 {
                    prop_assert_eq!(node.uncovered_pairs, 0);
                }
                // Children nest.
                for &c in &node.children {
                    prop_assert!(tree.nodes[c].size <= node.size);
                    prop_assert_eq!(tree.nodes[c].parent, Some(i));
                }
            }
        }
    }
}
