//! Fig. 10: entities-per-machine sweep on the books dataset (§VI-B3).
//!
//! The paper fixes the dataset (30M books) and varies the number of
//! machines μ ∈ {20, 10, 5}, so θ = |D|/μ grows across the sub-figures;
//! ours is compared against Basic with Popcorn thresholds
//! {0.05, 0.005, 0.0005} under the PSNM mechanism. The paper's observation:
//! Basic can lead very early (our preprocessing job + schedule generation
//! cost is up-front), but ours wins overall, and the gap widens with θ.
//!
//! ```sh
//! cargo run --release -p pper-bench --bin fig10_scaleup -- --entities 30000
//! ```

use pper_bench::{common_max_cost, ExpOptions, Figure, Series};
use pper_datagen::BookGen;
use pper_er::{BasicApproach, BasicConfig, ErConfig, ProgressiveEr};

fn main() -> std::io::Result<()> {
    let opts = ExpOptions::from_args(30_000);
    eprintln!("generating {} book entities…", opts.entities);
    let ds = BookGen::new(opts.entities, opts.seed).generate();

    let machine_counts: &[usize] = if opts.quick { &[4] } else { &[20, 10, 5] };
    let thresholds: &[f64] = if opts.quick {
        &[0.005]
    } else {
        &[0.05, 0.005, 0.0005]
    };

    for &machines in machine_counts {
        let theta = opts.entities / machines;
        let er = ErConfig::books(machines);
        eprintln!("μ={machines} (θ={theta}): running our approach…");
        let ours = ProgressiveEr::new(er.clone()).run(&ds);

        let mut basics = Vec::new();
        for &t in thresholds {
            eprintln!("μ={machines}: running Basic {t}…");
            let r = BasicApproach::new(er.clone(), BasicConfig::popcorn(15, t))
                .run(&ds)
                .expect("basic run");
            basics.push((t, r));
        }

        let mut costs = vec![ours.total_cost];
        costs.extend(basics.iter().map(|(_, r)| r.total_cost));
        let max_cost = common_max_cost(&costs) * 0.7;

        let mut fig = Figure::new(
            format!("fig10-theta{theta}"),
            format!("duplicate recall vs cost, θ = {theta} entities/machine (μ = {machines})"),
        );
        fig.push(Series::from_curve(
            "Our Approach",
            &ours.curve,
            max_cost,
            14,
        ));
        for (t, r) in &basics {
            fig.push(Series::from_curve(
                format!("Basic {t}"),
                &r.curve,
                max_cost,
                14,
            ));
        }
        fig.emit(&opts.out_dir)?;

        println!(
            "μ={machines} θ={theta}: ours overhead ends at cost {:.0}; recall there: ours {:.3} vs best basic {:.3}",
            ours.overhead_cost,
            ours.curve.recall_at(ours.overhead_cost * 1.2),
            basics
                .iter()
                .map(|(_, r)| r.curve.recall_at(ours.overhead_cost * 1.2))
                .fold(0.0, f64::max),
        );
        println!();
    }
    Ok(())
}
