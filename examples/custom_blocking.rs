//! Bring-your-own configuration: define custom blocking families, compare
//! the SN and PSNM mechanisms on the same data, and inspect how the
//! Popcorn stopping scheme trades recall for cost on the Basic baseline.
//!
//! Run with:
//! ```sh
//! cargo run --release --example custom_blocking
//! ```

use pper::blocking::{BlockingFamily, PrefixFunction};
use pper::datagen::PubGen;
use pper::er::{BasicApproach, BasicConfig, ErConfig, MechanismKind, ProgressiveEr};
use pper::schedule::TrainedProb;

fn main() {
    let ds = PubGen::new(8_000, 21).generate();
    println!(
        "{} entities, {} true duplicate pairs",
        ds.len(),
        ds.truth.total_duplicate_pairs()
    );

    // Custom blocking: drop the abstract family, block harder on titles and
    // venues instead. Dominance order = declaration order.
    let families = vec![
        BlockingFamily::new(
            "T",
            vec![
                PrefixFunction::new(0, 2),
                PrefixFunction::new(0, 5),
                PrefixFunction::new(0, 9),
            ],
        ),
        BlockingFamily::new(
            "V",
            vec![PrefixFunction::new(2, 3), PrefixFunction::new(2, 5)],
        ),
    ];

    // The preset's duplicate-probability table is learned per blocking
    // function of its own families; these need a table of their own, so
    // learn one from a labeled sample (§VI-A4).
    let train = PubGen::new(2_000, 22).generate();
    let mut base = ErConfig::citeseer(2);
    base.prob = TrainedProb::train(&train, &families);
    base.families = families;

    // SN vs PSNM on identical blocking and budget.
    for mechanism in [MechanismKind::Sn, MechanismKind::Psnm] {
        let mut config = base.clone();
        config.mechanism = mechanism;
        let r = ProgressiveEr::new(config).run(&ds);
        let t50 = r.curve.time_to_recall(0.5);
        println!(
            "{:<8} final recall {:.3}  cost-to-50% {:>12}  total {:>12.0}",
            mechanism.name(),
            r.curve.final_recall(),
            t50.map_or("-".into(), |c| format!("{c:.0}")),
            r.total_cost
        );
    }

    // Popcorn threshold sweep on the Basic baseline (Table III in miniature).
    println!("\nBasic baseline, window 15, Popcorn sweep:");
    println!(
        "{:>12} {:>14} {:>16}",
        "threshold", "final recall", "total cost"
    );
    for threshold in [0.1, 0.01, 0.001] {
        let r = BasicApproach::new(base.clone(), BasicConfig::popcorn(15, threshold))
            .run(&ds)
            .expect("basic run");
        println!(
            "{:>12} {:>14.3} {:>16.0}",
            threshold,
            r.curve.final_recall(),
            r.total_cost
        );
    }
    let full = BasicApproach::new(base, BasicConfig::full(15))
        .run(&ds)
        .expect("basic run");
    println!(
        "{:>12} {:>14.3} {:>16.0}",
        "F",
        full.curve.final_recall(),
        full.total_cost
    );
}
