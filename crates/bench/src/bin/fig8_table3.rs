//! Fig. 8 + Table III: our approach vs the Basic baseline on the
//! publications dataset.
//!
//! The paper's setup (§VI-B1): 10 machines, CiteSeerX, SN mechanism; Basic
//! is run with windows w ∈ {5, 15} and a sweep of Popcorn thresholds plus
//! "Basic F" (no stopping). Three sub-figures plot duplicate recall versus
//! execution cost; Table III reports every Basic configuration's final
//! recall and total execution cost.
//!
//! ```sh
//! cargo run --release -p pper-bench --bin fig8_table3 -- --entities 20000
//! ```

use pper_bench::{common_max_cost, ExpOptions, Figure, Series};
use pper_datagen::PubGen;
use pper_er::{BasicApproach, BasicConfig, ErConfig, ErRunResult, ProgressiveEr};

fn main() -> std::io::Result<()> {
    let opts = ExpOptions::from_args(20_000);
    let machines = 10;
    eprintln!("generating {} publication entities…", opts.entities);
    let ds = PubGen::new(opts.entities, opts.seed).generate();
    let er = ErConfig::citeseer(machines);

    eprintln!("running our approach…");
    let ours = ProgressiveEr::new(er.clone()).run(&ds);

    let thresholds_w15_a = [0.1, 0.07, 0.04, 0.01];
    let thresholds_w15_b = [0.007, 0.004, 0.001, 0.00001];
    let thresholds_w5 = [0.07, 0.01, 0.007, 0.004];
    let all_w15: Vec<f64> = thresholds_w15_a
        .iter()
        .chain(&thresholds_w15_b)
        .copied()
        .collect();

    let run_basic = |window: usize, threshold: Option<f64>| -> ErRunResult {
        let cfg = match threshold {
            Some(t) => BasicConfig::popcorn(window, t),
            None => BasicConfig::full(window),
        };
        eprintln!(
            "running Basic w={} threshold={:?}…",
            window,
            threshold.map_or("F".into(), |t| t.to_string())
        );
        BasicApproach::new(er.clone(), cfg)
            .run(&ds)
            .expect("basic run")
    };

    let basic_f_15 = run_basic(15, None);
    let basic_f_5 = run_basic(5, None);
    let sweep = |window: usize, thresholds: &[f64]| {
        thresholds
            .iter()
            .map(|&t| (t, run_basic(window, Some(t))))
            .collect::<Vec<(f64, ErRunResult)>>()
    };
    let runs_w15 = if opts.quick {
        sweep(15, &[0.01])
    } else {
        sweep(15, &all_w15)
    };
    let runs_w5 = if opts.quick {
        sweep(5, &[0.01])
    } else {
        sweep(5, &thresholds_w5)
    };

    // ---- Fig. 8: three sub-figures, recall vs cost ----------------------
    let steps = 14;
    let subfigs: [(&str, Vec<f64>, usize); 3] = [
        ("fig8-left", thresholds_w15_a.to_vec(), 15),
        ("fig8-middle", thresholds_w15_b.to_vec(), 15),
        ("fig8-right", thresholds_w5.to_vec(), 5),
    ];
    for (name, thresholds, window) in subfigs {
        let runs: &Vec<(f64, ErRunResult)> = if window == 15 { &runs_w15 } else { &runs_w5 };
        let basic_f = if window == 15 {
            &basic_f_15
        } else {
            &basic_f_5
        };
        let mut costs: Vec<f64> = vec![ours.total_cost, basic_f.total_cost];
        costs.extend(runs.iter().map(|(_, r)| r.total_cost));
        // The paper plots only the first x seconds; show up to the earliest
        // point where both families have finished climbing.
        let max_cost = common_max_cost(&costs) * 0.6;

        let mut fig = Figure::new(
            name,
            format!("duplicate recall vs cost, Basic w={window} (μ={machines})"),
        );
        fig.push(Series::from_curve(
            "Basic F",
            &basic_f.curve,
            max_cost,
            steps,
        ));
        for (t, r) in runs.iter().filter(|(t, _)| thresholds.contains(t)) {
            fig.push(Series::from_curve(
                format!("Basic {t}"),
                &r.curve,
                max_cost,
                steps,
            ));
        }
        fig.push(Series::from_curve(
            "Our Approach",
            &ours.curve,
            max_cost,
            steps,
        ));
        fig.emit(&opts.out_dir)?;
    }

    // ---- Table III: final recall + total execution cost -----------------
    println!("== table3 — Basic final recall / total cost ==");
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>14}",
        "threshold", "recall w=5", "recall w=15", "cost w=5", "cost w=15"
    );
    let lookup = |runs: &Vec<(f64, ErRunResult)>, t: f64| -> Option<(f64, f64)> {
        runs.iter()
            .find(|(x, _)| (*x - t).abs() < 1e-12)
            .map(|(_, r)| (r.curve.final_recall(), r.total_cost))
    };
    for &t in &all_w15 {
        let w5 = lookup(&runs_w5, t);
        let w15 = lookup(&runs_w15, t);
        println!(
            "{:>12} {:>12} {:>12} {:>14} {:>14}",
            t,
            w5.map_or("-".into(), |v| format!("{:.2}", v.0)),
            w15.map_or("-".into(), |v| format!("{:.2}", v.0)),
            w5.map_or("-".into(), |v| format!("{:.0}", v.1)),
            w15.map_or("-".into(), |v| format!("{:.0}", v.1)),
        );
    }
    println!(
        "{:>12} {:>12.2} {:>12.2} {:>14.0} {:>14.0}",
        "F",
        basic_f_5.curve.final_recall(),
        basic_f_15.curve.final_recall(),
        basic_f_5.total_cost,
        basic_f_15.total_cost
    );
    println!(
        "{:>12} {:>12} {:>12.2} {:>14} {:>14.0}   <- ours",
        "ours",
        "-",
        ours.curve.final_recall(),
        "-",
        ours.total_cost
    );
    Ok(())
}
