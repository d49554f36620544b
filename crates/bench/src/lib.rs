//! # pper-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI). Performance is measured and gated by the end-to-end
//! harness under `benchmark/`, not here.
//!
//! One binary per paper artifact (see `src/bin/`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig8_table3` | Fig. 8 + Table III — ours vs Basic (w ∈ {5,15}, Popcorn sweep) |
//! | `fig9_schedulers` | Fig. 9 — ours vs NoSplit vs LPT at μ ∈ {10,15,20} |
//! | `fig10_scaleup` | Fig. 10 — entities-per-machine sweep on the books dataset |
//! | `fig11_speedup` | Fig. 11 — recall speedup vs machine count |
//! | `claims` | Fig. 8's headline at 200k: ours reaches recall 0.5 and 0.8 before Basic F |
//!
//! Each binary prints a small table of series points (cost, recall) to
//! stdout and writes machine-readable JSON next to it under `target/experiments/`.
//! Budget knobs are exposed as CLI args: pass `--entities N` to scale the
//! synthetic dataset and `--quick` for a fast smoke run.

use std::io::Write;
use std::path::PathBuf;

use pper_er::metrics::RecallCurve;

/// Parsed common CLI options for experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Synthetic dataset size.
    pub entities: usize,
    /// RNG seed for dataset generation.
    pub seed: u64,
    /// Quick smoke-test mode (tiny dataset, fewer configurations).
    pub quick: bool,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
}

impl ExpOptions {
    /// Parse from `std::env::args`, with the given default entity count.
    /// A malformed command line panics with the offending flag's name.
    pub fn from_args(default_entities: usize) -> Self {
        Self::parse(default_entities, std::env::args().skip(1)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parse `args` (the command line after the program name), with the
    /// given default entity count.
    pub fn parse(
        default_entities: usize,
        mut args: impl Iterator<Item = String>,
    ) -> Result<Self, String> {
        let mut opts = Self {
            entities: default_entities,
            seed: 42,
            quick: false,
            out_dir: PathBuf::from("target/experiments"),
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} takes a value"));
            match flag.as_str() {
                "--entities" => {
                    opts.entities = value()?.parse().map_err(|_| "--entities takes a number")?;
                }
                "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
                "--quick" => opts.quick = true,
                "--out" => opts.out_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if opts.quick {
            opts.entities = opts.entities.min(2_000);
        }
        Ok(opts)
    }
}

/// One labelled recall-versus-cost series for a figure.
#[derive(Debug, serde::Serialize)]
pub struct Series {
    /// Legend label (e.g. "Basic 0.01" or "Our Approach").
    pub label: String,
    /// `(cost, recall)` samples.
    pub points: Vec<(f64, f64)>,
    /// Final recall of the run.
    pub final_recall: f64,
    /// Total virtual cost of the run.
    pub total_cost: f64,
}

impl Series {
    /// Sample a curve at `steps` points up to `max_cost`.
    pub fn from_curve(
        label: impl Into<String>,
        curve: &RecallCurve,
        max_cost: f64,
        steps: usize,
    ) -> Self {
        Self {
            label: label.into(),
            points: curve.sample(max_cost, steps),
            final_recall: curve.final_recall(),
            total_cost: curve.last_cost(),
        }
    }
}

/// A figure: named collection of series, printed as aligned text and saved
/// as JSON.
#[derive(Debug, serde::Serialize)]
pub struct Figure {
    /// Figure identifier, e.g. "fig8-left".
    pub name: String,
    /// Axis/caption note.
    pub caption: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(name: impl Into<String>, caption: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            caption: caption.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Render as an aligned text table: one row per sampled cost, one column
    /// per series.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.name, self.caption));
        if self.series.is_empty() {
            out.push_str("(no series)\n");
            return out;
        }
        out.push_str(&format!("{:>12}", "cost"));
        for s in &self.series {
            out.push_str(&format!("  {:>18}", truncate_label(&s.label, 18)));
        }
        out.push('\n');
        let rows = self.series[0].points.len();
        for r in 0..rows {
            out.push_str(&format!("{:>12.0}", self.series[0].points[r].0));
            for s in &self.series {
                match s.points.get(r) {
                    Some(&(_, recall)) => out.push_str(&format!("  {recall:>18.3}")),
                    None => out.push_str(&format!("  {:>18}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:>12}", "final"));
        for s in &self.series {
            out.push_str(&format!("  {:>18.3}", s.final_recall));
        }
        out.push('\n');
        out
    }

    /// Print to stdout and persist JSON under `out_dir`. An unwritable
    /// output directory surfaces as the error (a long sweep's results
    /// still printed above; the caller decides whether that's fatal).
    pub fn emit(&self, out_dir: &std::path::Path) -> std::io::Result<()> {
        println!("{}", self.render_text());
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        serde_json::to_writer_pretty(&mut f, self).map_err(std::io::Error::other)?;
        writeln!(f)?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

/// One timed measurement inside a [`BenchReport`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchRecord {
    /// Measurement identifier, e.g. `"pairs/string"` or `"levenshtein/prepared"`.
    pub name: String,
    /// Number of operations timed.
    pub iterations: u64,
    /// Mean wall-clock nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second (`1e9 / ns_per_op`); for pair loops this is
    /// pairs/sec.
    pub ops_per_sec: f64,
}

impl BenchRecord {
    /// Build a record from a total elapsed duration over `iterations` ops.
    pub fn from_total(
        name: impl Into<String>,
        iterations: u64,
        elapsed: std::time::Duration,
    ) -> Self {
        let iters = iterations.max(1);
        let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
        Self {
            name: name.into(),
            iterations: iters,
            ns_per_op,
            ops_per_sec: if ns_per_op > 0.0 {
                1e9 / ns_per_op
            } else {
                0.0
            },
        }
    }
}

/// A machine-readable measurement report, persisted as `BENCH_<name>.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchReport {
    /// Report identifier, e.g. "kernels".
    pub name: String,
    /// What was measured and how.
    pub caption: String,
    /// The measurements.
    pub records: Vec<BenchRecord>,
    /// Free-form derived observations, e.g. "prepared speedup: 4.1x".
    pub notes: Vec<String>,
}

impl BenchReport {
    /// Create an empty report.
    pub fn new(name: impl Into<String>, caption: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            caption: caption.into(),
            records: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a measurement.
    pub fn push(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// Add a derived observation.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.name, self.caption));
        out.push_str(&format!(
            "{:<32} {:>14} {:>16} {:>12}\n",
            "name", "ns/op", "ops/sec", "iters"
        ));
        for r in &self.records {
            out.push_str(&format!(
                "{:<32} {:>14.1} {:>16.0} {:>12}\n",
                r.name, r.ns_per_op, r.ops_per_sec, r.iterations
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("-- {n}\n"));
        }
        out
    }

    /// Print to stdout and persist as `BENCH_<name>.json` under `out_dir`.
    /// An unwritable output directory surfaces as the error instead of
    /// aborting the process mid-report.
    pub fn emit(&self, out_dir: &std::path::Path) -> std::io::Result<()> {
        println!("{}", self.render_text());
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        serde_json::to_writer_pretty(&mut f, self).map_err(std::io::Error::other)?;
        writeln!(f)?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

fn truncate_label(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

/// Uniform sampling maximum: the largest total cost across series, so all
/// curves share an x-axis.
pub fn common_max_cost(costs: &[f64]) -> f64 {
    costs.iter().cloned().fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(500_000, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn quick_clamps_entities_in_either_order_and_missing_values_are_named() {
        assert_eq!(
            parse(&["--quick", "--entities", "500000"])
                .unwrap()
                .entities,
            2_000
        );
        assert_eq!(
            parse(&["--entities", "500000", "--quick"])
                .unwrap()
                .entities,
            2_000
        );
        assert_eq!(parse(&["--entities", "700"]).unwrap().entities, 700);
        for flag in ["--entities", "--seed", "--out"] {
            let err = parse(&["--quick", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} takes a value"));
        }
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument: --bogus"
        );
    }

    #[test]
    fn figure_renders_aligned_rows() {
        let curve = RecallCurve::from_increments(&[(10.0, 5), (20.0, 5)], 10);
        let mut fig = Figure::new("t", "test");
        fig.push(Series::from_curve("a", &curve, 20.0, 4));
        fig.push(Series::from_curve("b", &curve, 20.0, 4));
        let text = fig.render_text();
        assert!(text.contains("== t — test =="));
        assert_eq!(text.lines().count(), 2 + 4 + 1); // header rows + samples + final
    }

    #[test]
    fn series_from_curve_final_values() {
        let curve = RecallCurve::from_increments(&[(5.0, 2), (9.0, 2)], 4);
        let s = Series::from_curve("x", &curve, 10.0, 5);
        assert_eq!(s.final_recall, 1.0);
        assert_eq!(s.total_cost, 9.0);
        assert_eq!(s.points.len(), 5);
    }

    #[test]
    fn max_cost_handles_empty() {
        assert_eq!(common_max_cost(&[]), 1.0);
        assert_eq!(common_max_cost(&[3.0, 7.0, 2.0]), 7.0);
    }

    #[test]
    fn bench_record_math() {
        let r = BenchRecord::from_total("x", 4, std::time::Duration::from_nanos(400));
        assert_eq!(r.ns_per_op, 100.0);
        assert_eq!(r.ops_per_sec, 1e7);
        // Zero iterations must not divide by zero.
        let z = BenchRecord::from_total("z", 0, std::time::Duration::from_nanos(10));
        assert_eq!(z.iterations, 1);
    }

    #[test]
    fn bench_report_renders_and_emits() {
        let mut rep = BenchReport::new("probe", "unit-test report");
        rep.push(BenchRecord::from_total(
            "a",
            10,
            std::time::Duration::from_micros(1),
        ));
        rep.note("speedup 2.0x");
        let text = rep.render_text();
        assert!(text.contains("== probe — unit-test report =="));
        assert!(text.contains("-- speedup 2.0x"));
        let dir = std::env::temp_dir().join("pper-bench-report-test");
        rep.emit(&dir).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_probe.json")).unwrap();
        serde_json::parse_value_str(&json).expect("emitted JSON must parse");
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("speedup 2.0x"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
