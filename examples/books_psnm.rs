//! Resolve an OL-Books-like catalogue with the PSNM mechanism and the
//! preset's probability model, trained on a labeled sample — the paper's
//! OL-Books configuration (§VI-A3/§VI-A4), including a look inside the
//! generated progressive schedule.
//!
//! Run with:
//! ```sh
//! cargo run --release --example books_psnm
//! ```

use pper::datagen::BookGen;
use pper::er::job1::run_job1;
use pper::er::{ErConfig, ProgressiveEr};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(15_000);

    println!("generating {n} book entities…");
    let ds = BookGen::new(n, 8).generate();

    // §VI-A4: the preset's Prob(|X|) is learned per size-fraction sub-range
    // from a labeled 20k-book sample.
    let config = ErConfig::books(4);

    // Peek at the schedule the pipeline will generate.
    let pipeline = ProgressiveEr::new(config.clone());
    let job1 = run_job1(&ds, &config).expect("job 1");
    let schedule = pipeline.generate_schedule(&ds, &job1.stats);
    let original_trees = job1.stats.trees.len();
    let split_trees = schedule.trees.iter().filter(|t| t.root_level > 0).count();
    println!(
        "schedule: {} trees ({} created by splitting), {} reduce tasks",
        schedule.trees.len(),
        split_trees,
        schedule.num_tasks()
    );
    println!("  (job 1 produced {original_trees} root trees)");

    // The five most useful blocks overall — what gets resolved first.
    let mut blocks: Vec<(f64, String)> = schedule
        .trees
        .iter()
        .flat_map(|t| {
            t.nodes.iter().map(move |nd| {
                (
                    nd.util,
                    format!(
                        "family {} key {:?} size {} est-dup {:.1} est-cost {:.0}",
                        t.family, nd.key, nd.size, nd.dup, nd.cost
                    ),
                )
            })
        })
        .collect();
    blocks.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    println!("\nhighest-utility blocks:");
    for (util, desc) in blocks.iter().take(5) {
        println!("  util {util:.4}  {desc}");
    }

    println!("\nresolving with PSNM…");
    let result = pipeline.run(&ds);
    println!(
        "final recall {:.3}, precision {:.3}, total cost {:.0}",
        result.curve.final_recall(),
        result.precision,
        result.total_cost
    );
    println!("recall milestones:");
    for recall in [0.25, 0.5, 0.75, 0.9] {
        match result.curve.time_to_recall(recall) {
            Some(cost) => println!(
                "  {recall:.2} reached at cost {cost:>12.0} ({:.0}% of total)",
                100.0 * cost / result.total_cost
            ),
            None => println!("  {recall:.2} never reached"),
        }
    }
    println!(
        "comparisons {}  redundant skips {}  already-resolved skips {}",
        result.counters.get("pairs_compared"),
        result.counters.get("pairs_skipped_redundant"),
        result.counters.get("pairs_skipped_already_resolved"),
    );
}
