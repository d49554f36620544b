//! The paper's running example (Table I / Fig. 2 / Fig. 4) end to end.

use pper::blocking::{build_forests, presets};
use pper::datagen::toy_people;
use pper::er::{ErConfig, ProgressiveEr};
use pper::simil::{AttributeSim, MatchRule, WeightedAttr};

fn toy_config() -> ErConfig {
    let mut config = ErConfig::citeseer(1);
    config.families = presets::toy_families();
    config.rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.9, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(1, 0.1, AttributeSim::Exact),
        ],
        0.85,
    );
    config
}

#[test]
fn resolves_all_table_one_duplicates() {
    let ds = toy_people();
    let result = ProgressiveEr::new(toy_config()).run(&ds);
    // Ground truth: {e1,e2,e3} and {e4,e5} → 4 duplicate pairs (0-based ids).
    let expected = vec![(0, 1), (0, 2), (1, 2), (3, 4)];
    assert_eq!(result.duplicates, expected);
    assert_eq!(result.curve.final_recall(), 1.0);
    assert_eq!(result.precision, 1.0);
}

#[test]
fn charles_gharles_pair_needs_the_state_family() {
    // ⟨e4, e5⟩ is split by the name-prefix family ("ch" vs "gh") and only
    // co-blocked by state "LA" — the paper's motivating example for multiple
    // blocking functions. Removing the Y family must lose exactly that pair.
    let ds = toy_people();
    let mut config = toy_config();
    config.families.truncate(1); // X only
    let result = ProgressiveEr::new(config).run(&ds);
    assert!(!result.duplicates.contains(&(3, 4)));
    assert!(result.duplicates.contains(&(0, 1)));
    assert!(result.curve.final_recall() < 1.0);
}

#[test]
fn forest_shapes_match_figure_four_semantics() {
    // Fig. 4's structure: each main block is the root of a tree of child
    // blocks, children strictly smaller, every block ≥ 2 members.
    let ds = toy_people();
    let forests = build_forests(&ds, &presets::toy_families());
    for forest in &forests {
        for tree in &forest.trees {
            assert!(tree.root().size() >= 2);
            for block in &tree.blocks {
                assert!(block.size() >= 2);
                if let Some(p) = block.parent {
                    assert!(block.size() <= tree.blocks[p].size());
                }
            }
        }
    }
}

#[test]
fn shared_pair_counted_once_in_output() {
    // ⟨e1,e2⟩ lives in the X "jo" tree AND the Y "hi" tree; the output must
    // contain it exactly once (redundancy-free resolution, §V).
    let ds = toy_people();
    let result = ProgressiveEr::new(toy_config()).run(&ds);
    let count = result.duplicates.iter().filter(|&&p| p == (0, 1)).count();
    assert_eq!(count, 1);
}
