//! Ablations over the design choices DESIGN.md calls out: the weighting
//! function, the split batch size `b`, the cost-vector resolution `|C|`,
//! the duplicate-probability model, the progressive mechanism `M`, and the
//! root window.
//!
//! Each table reports time-to-recall milestones, `Qty` (Eq. 1, linear
//! weights), and final recall on the publications dataset.
//!
//! ```sh
//! cargo run --release -p pper-bench --bin ablations -- --entities 12000
//! ```

use pper_bench::ExpOptions;
use pper_datagen::PubGen;
use pper_er::{metrics::quality, ErConfig, ErRunResult, MechanismKind, ProgressiveEr};
use pper_schedule::{TrainedProb, Weighting};

fn qty(result: &ErRunResult) -> f64 {
    let max = result.total_cost;
    let costs: Vec<f64> = (1..=10).map(|i| max * i as f64 / 10.0).collect();
    let weights: Vec<f64> = (1..=10).map(|i| 1.0 - (i - 1) as f64 / 10.0).collect();
    quality(&result.curve, &costs, &weights)
}

fn row(label: &str, result: &ErRunResult) {
    let t = |r: f64| {
        result
            .curve
            .time_to_recall(r)
            .map_or("-".to_string(), |c| format!("{c:.0}"))
    };
    println!(
        "{label:<34} {:>10} {:>10} {:>8.3} {:>8.3} {:>12.0}",
        t(0.5),
        t(0.8),
        qty(result),
        result.curve.final_recall(),
        result.total_cost,
    );
}

fn header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:<34} {:>10} {:>10} {:>8} {:>8} {:>12}",
        "variant", "t(0.5)", "t(0.8)", "Qty", "final", "total"
    );
}

fn main() {
    let opts = ExpOptions::from_args(12_000);
    eprintln!("generating {} publication entities…", opts.entities);
    let ds = PubGen::new(opts.entities, opts.seed).generate();
    let train = PubGen::new(opts.entities / 6, opts.seed + 1).generate();
    let machines = 4;
    let base = || ErConfig::citeseer(machines);

    header("A1: weighting function W(·)");
    for (label, weighting) in [
        ("uniform", Weighting::Uniform),
        ("linear (default)", Weighting::Linear),
        ("exponential 0.5", Weighting::Exponential { decay: 0.5 }),
    ] {
        let r = ProgressiveEr::new(base().with_weighting(weighting)).run(&ds);
        row(label, &r);
    }

    header("A2: split batch size b");
    for b in [1usize, 4, 16] {
        let mut config = base();
        config.schedule.split_batch = b;
        let r = ProgressiveEr::new(config).run(&ds);
        row(&format!("b = {b}"), &r);
    }

    header("A3: cost-vector buckets |C|");
    for c in [4usize, 10, 20] {
        let mut config = base();
        config.schedule.num_buckets = c;
        let r = ProgressiveEr::new(config).run(&ds);
        row(&format!("|C| = {c}"), &r);
    }

    header("A4: duplicate-probability model");
    let r = ProgressiveEr::new(base()).run(&ds);
    row("committed table (default)", &r);
    let mut config = base();
    config.prob = TrainedProb::train(&train, &config.families);
    let r = ProgressiveEr::new(config).run(&ds);
    row("trained on this run's 1/6 sample", &r);

    header("A5: progressive mechanism M");
    for mechanism in [MechanismKind::Sn, MechanismKind::Psnm] {
        let mut config = base();
        config.mechanism = mechanism;
        let r = ProgressiveEr::new(config).run(&ds);
        row(mechanism.name(), &r);
    }

    header("A6: root window w");
    for w in [10usize, 15, 20] {
        let mut config = base();
        config.policy.window_root = w;
        let r = ProgressiveEr::new(config).run(&ds);
        row(&format!("w_root = {w}"), &r);
    }
}
