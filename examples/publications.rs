//! Progressive resolution of a CiteSeerX-like publication corpus, comparing
//! the paper's approach against the Basic baseline — a miniature of the
//! paper's Fig. 8 experiment.
//!
//! Run with (size is a free knob):
//! ```sh
//! cargo run --release --example publications
//! ```

use pper::datagen::PubGen;
use pper::er::{BasicApproach, BasicConfig, ErConfig, ProgressiveEr};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let machines = 4;

    println!("generating {n} publication entities…");
    let ds = PubGen::new(n, 42).generate();
    let truth_pairs = ds.truth.total_duplicate_pairs();
    println!(
        "{} entities, {} true duplicate pairs",
        ds.len(),
        truth_pairs
    );

    let er = ErConfig::citeseer(machines);

    println!("\nrunning our progressive approach (μ = {machines})…");
    let ours = ProgressiveEr::new(er.clone()).run(&ds);

    println!("running Basic F (w = 15)…");
    let basic_full = BasicApproach::new(er.clone(), BasicConfig::full(15))
        .run(&ds)
        .expect("basic run");

    println!("running Basic with Popcorn threshold 0.01…");
    let basic_popcorn = BasicApproach::new(er, BasicConfig::popcorn(15, 0.01))
        .run(&ds)
        .expect("basic run");

    // Shared x-axis: sample all curves to the slowest run's completion.
    let max_cost = [&ours, &basic_full, &basic_popcorn]
        .iter()
        .map(|r| r.total_cost)
        .fold(0.0, f64::max);

    println!(
        "\n{:>12} {:>14} {:>14} {:>14}",
        "cost", "ours", "basic-F", "basic-0.01"
    );
    for i in 1..=12 {
        let c = max_cost * i as f64 / 12.0;
        println!(
            "{:>12.0} {:>14.3} {:>14.3} {:>14.3}",
            c,
            ours.curve.recall_at(c),
            basic_full.curve.recall_at(c),
            basic_popcorn.curve.recall_at(c)
        );
    }

    println!("\nsummary:");
    for r in [&ours, &basic_full, &basic_popcorn] {
        println!(
            "  {:<28} final recall {:.3}  precision {:.3}  total cost {:>12.0}  comparisons {}",
            r.label,
            r.curve.final_recall(),
            r.precision,
            r.total_cost,
            r.counters.get("pairs_compared"),
        );
    }
    for recall in [0.5, 0.8, 0.9] {
        let ours_t = ours.curve.time_to_recall(recall);
        let basic_t = basic_full.curve.time_to_recall(recall);
        if let (Some(a), Some(b)) = (ours_t, basic_t) {
            println!(
                "  recall {recall:.1}: ours at cost {a:>12.0}, Basic F at {b:>12.0} ({:.1}× later)",
                b / a
            );
        }
    }
}
