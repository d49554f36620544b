//! Quickstart: resolve the paper's Table I toy people dataset end to end.
//!
//! Run with:
//! ```sh
//! cargo run --example quickstart
//! ```

use pper::blocking::{build_forests, presets};
use pper::datagen::toy_people;
use pper::er::{ErConfig, ProgressiveEr};
use pper::simil::{AttributeSim, MatchRule, WeightedAttr};

fn main() {
    // Table I: nine people records, six real-world people.
    let ds = toy_people();
    println!(
        "dataset: {} entities, {} real-world objects, {} duplicate pairs",
        ds.len(),
        ds.truth.num_clusters(),
        ds.truth.total_duplicate_pairs()
    );

    // Blocking per the paper: X¹ = 2-char name prefix (with 3- and 5-char
    // sub-blocking), Y¹ = state.
    let families = presets::toy_families();
    let forests = build_forests(&ds, &families);
    for forest in &forests {
        println!("\nforest of {}:", families[forest.family].name);
        for tree in &forest.trees {
            for block in &tree.blocks {
                println!(
                    "  {}{:?} level {} members {:?}",
                    "  ".repeat(block.level),
                    block.key,
                    block.level,
                    block.members.iter().map(|&m| m + 1).collect::<Vec<_>>(), // 1-based like the paper
                );
            }
        }
    }

    // A name-dominated match rule: edit distance tolerates the
    // Charles/Gharles typo, and the same person may move between states
    // (e1–e3 in Table I), so the state carries little weight.
    let rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.9, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(1, 0.1, AttributeSim::Exact),
        ],
        0.85,
    );

    let mut config = ErConfig::citeseer(1); // 1 simulated machine
    config.families = families;
    config.rule = rule;

    let result = ProgressiveEr::new(config).run(&ds);
    println!("\nfound {} duplicate pairs:", result.duplicates.len());
    for &(a, b) in &result.duplicates {
        let ea = ds.entity(a);
        let eb = ds.entity(b);
        let correct = if ds.truth.is_duplicate(a, b) {
            "✓"
        } else {
            "✗"
        };
        println!(
            "  {correct} ⟨e{}, e{}⟩  {:?} / {:?}",
            a + 1,
            b + 1,
            ea.attr(0),
            eb.attr(0)
        );
    }
    println!(
        "\nrecall {:.2}, precision {:.2}, total virtual cost {:.0}",
        result.curve.final_recall(),
        result.precision,
        result.total_cost
    );
}
