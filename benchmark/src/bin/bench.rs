//! The benchmark's front-end.
//!
//! * `bench --workload W --seed N --seconds S --trace 0|1` — one pass of one
//!   workload in a child process; prints the child's result line.
//! * `bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]` — every
//!   selected workload and pass, each in a child process of its own; prints
//!   every metric by name with its unit and writes a stamped report.
//! * `bench compare A.json B.json` — two reports against each metric's own
//!   bound and direction, one row per workload × metric.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use pper_benchmark::measure::{map, nproc, quartiles, Args};
use pper_benchmark::workload::{Workload, MACHINES, SHARDS, WORKER_THREADS};
use serde::Value;

const MANIFEST: &str = "BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => Err("usage: bench compare A.json B.json".into()),
        },
        _ => Args::parse(args).and_then(|args| measure(&args)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Measuring
// ---------------------------------------------------------------------------

/// What one child process printed.
struct PassOutput {
    /// The result line, verbatim.
    line: String,
    /// The result line, parsed.
    result: Value,
    /// The detail line the end-to-end pass prints before it.
    detail: Option<Value>,
}

/// Run one pass of one workload in a child process of its own, so that its
/// peak RSS is that workload's and nothing carries over between workloads.
fn run_pass(workload: Workload, args: &Args, traced: bool) -> Result<PassOutput, String> {
    let binary = sibling(if traced { "trace" } else { "run" })?;
    let output = Command::new(&binary)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} on {} ended with {}",
            binary.display(),
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let mut lines = stdout.lines().rev();
    let line = lines.next().ok_or("the pass printed nothing")?.to_string();
    let result = serde_json::parse_value_str(&line).map_err(|e| e.to_string())?;
    let detail = lines
        .next()
        .and_then(|l| serde_json::parse_value_str(l).ok())
        .and_then(|v| get(&v, "detail").cloned());
    Ok(PassOutput {
        line,
        result,
        detail,
    })
}

/// A binary built next to this one.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build the whole package, as benchmark/bench.sh does",
            path.display()
        ))
    }
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let workloads: Vec<Workload> = match &args.workload {
        Some(name) => {
            vec![Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?]
        }
        None => Workload::ALL.to_vec(),
    };

    // One workload, one pass: the contract's invocation. The child's result
    // line is this program's last line.
    if let (Some(traced), [workload]) = (args.trace, workloads.as_slice()) {
        let pass = run_pass(*workload, args, traced)?;
        println!("{}", pass.line);
        return Ok(ExitCode::SUCCESS);
    }

    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in workloads {
        let mut entry = vec![("name".to_string(), Value::Str(workload.name().into()))];
        for traced in [false, true] {
            if args.trace.is_some_and(|only| only != traced) {
                continue;
            }
            let pass = run_pass(workload, args, traced)?;
            all_correct &= get(&pass.result, "correct") == Some(&Value::Bool(true));
            print_pass(workload, traced, &pass);
            entry.push((
                if traced { "trace" } else { "run" }.to_string(),
                pass.result,
            ));
            if let Some(detail) = pass.detail {
                entry.push(("detail".to_string(), detail));
            }
        }
        entries.push(Value::Map(entry));
    }

    let report = map([("stamp", stamp(args)), ("workloads", Value::Seq(entries))]);
    let path = format!("benchmark/out/report-seed{}.json", args.seed);
    std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("report written to {path}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: some executions failed verification");
        ExitCode::FAILURE
    })
}

fn print_pass(workload: Workload, traced: bool, pass: &PassOutput) {
    let field = |key: &str| get(&pass.result, key).and_then(number).unwrap_or(f64::NAN);
    println!(
        "== {} · {} pass · correct {} · {} executions attempted, {} failed",
        workload.name(),
        if traced { "traced" } else { "end-to-end" },
        get(&pass.result, "correct") == Some(&Value::Bool(true)),
        field("attempted"),
        field("failed"),
    );
    let samples = pass.detail.as_ref().and_then(|d| get(d, "samples"));
    for (name, metric) in entries(get(&pass.result, "metrics")) {
        let value = get(metric, "value").and_then(number).unwrap_or(f64::NAN);
        let unit = get(metric, "unit").and_then(text).unwrap_or("?");
        let spread = samples
            .and_then(|s| get(s, name))
            .map(numbers)
            .filter(|s| !s.is_empty())
            .map(|s| {
                let [q1, _, q3] = quartiles(&s);
                format!("  [q1 {q1:.6}, q3 {q3:.6}, n {}]", s.len())
            })
            .unwrap_or_default();
        println!("{name:<32} {value:>18.6} {unit}{spread}");
    }
}

/// What a report is stamped with: enough to tell whether two reports may be
/// compared at all.
fn stamp(args: &Args) -> Value {
    let first_line = |program: &str, arguments: &[&str]| {
        Command::new(program)
            .args(arguments)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    map([
        ("nproc", Value::U64(nproc() as u64)),
        ("worker_threads", Value::U64(WORKER_THREADS as u64)),
        ("machines", Value::U64(MACHINES as u64)),
        ("datasets", Value::U64(SHARDS as u64)),
        ("rustc", Value::Str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
    ])
}

// ---------------------------------------------------------------------------
// Comparing
// ---------------------------------------------------------------------------

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    bound: Option<f64>,
}

fn declared(manifest: &Value, section: &str) -> Result<Vec<Declared>, String> {
    let Some(Value::Seq(items)) = get(manifest, section) else {
        return Err(format!("{MANIFEST} has no '{section}' list"));
    };
    items
        .iter()
        .map(|item| {
            let name = get(item, "name").and_then(text);
            let better = get(item, "better").and_then(text);
            match (name, better) {
                (Some(name), Some(better @ ("lower" | "higher"))) => Ok(Declared {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound: get(item, "bound").and_then(number),
                }),
                _ => Err(format!("{MANIFEST}: malformed entry in '{section}'")),
            }
        })
        .collect()
}

/// One side of a comparison: a metric's value and, where the pass took
/// several samples, their spread.
struct Side {
    value: f64,
    samples: Vec<f64>,
}

impl Side {
    fn of(workload: &Value, pass: &str, metric: &str) -> Option<Self> {
        let metrics = get(get(workload, pass)?, "metrics")?;
        let value = get(get(metrics, metric)?, "value").and_then(number)?;
        let samples = get(workload, "detail")
            .and_then(|d| get(d, "samples"))
            .and_then(|s| get(s, metric))
            .map(numbers)
            .unwrap_or_default();
        Some(Self { value, samples })
    }

    /// Distance between the quartiles as a share of the median; 0 for a
    /// metric with a single sample (the deterministic ones, and peak RSS).
    fn spread(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let [q1, median, q3] = quartiles(&self.samples);
        (q3 - q1) / median
    }
}

fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|t| serde_json::parse_value_str(&t).map_err(|e| e.to_string()))
    };
    let manifest = load(Path::new(MANIFEST))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, report) in [("A", &a), ("B", &b)] {
        let stamp = get(report, "stamp").map(|s| serde_json::to_string(s).unwrap_or_default());
        println!("{label}: {}", stamp.unwrap_or_else(|| "no stamp".into()));
    }
    println!(
        "{:<14} {:<28} {:>16} {:>16} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );

    let mut regressed = 0;
    let workloads_of = |report: &Value| match get(report, "workloads") {
        Some(Value::Seq(w)) => w.clone(),
        _ => Vec::new(),
    };
    let b_workloads = workloads_of(&b);
    for wa in workloads_of(&a) {
        let name = get(&wa, "name").and_then(text).unwrap_or("?").to_string();
        let Some(wb) = b_workloads
            .iter()
            .find(|w| get(w, "name").and_then(text) == Some(&name))
        else {
            println!("{name:<14} only in A");
            continue;
        };
        for (pass, section) in [("run", "end_to_end"), ("trace", "per_layer")] {
            for metric in declared(&manifest, section)? {
                let (Some(sa), Some(sb)) = (
                    Side::of(&wa, pass, &metric.name),
                    Side::of(wb, pass, &metric.name),
                ) else {
                    continue;
                };
                let verdict = verdict(&metric, &sa, &sb);
                regressed += usize::from(verdict == "REGRESSED");
                println!(
                    "{name:<14} {:<28} {:>16.6} {:>16.6} {:>+8.2}% {:>6.2}% {:>7}  {verdict}",
                    metric.name,
                    sa.value,
                    sb.value,
                    100.0 * (sb.value - sa.value) / sa.value.abs().max(f64::MIN_POSITIVE),
                    100.0 * sa.spread().max(sb.spread()),
                    metric
                        .bound
                        .map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                );
            }
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: {regressed} metric(s) regressed beyond their bound");
        ExitCode::FAILURE
    })
}

/// B against A for one metric. A metric whose run-to-run spread is wider
/// than its bound is *unresolved*, not unchanged — unless every sample of B
/// is better than every sample of A.
fn verdict(metric: &Declared, a: &Side, b: &Side) -> &'static str {
    let Some(bound) = metric.bound else {
        return "no bound";
    };
    // Share of A by which B is worse (negative: better).
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (b.value - a.value) / a.value.abs().max(f64::MIN_POSITIVE);
    if a.spread().max(b.spread()) > bound {
        let oriented = |s: &Side| s.samples.iter().map(|v| sign * v).collect::<Vec<_>>();
        let best_of_a = oriented(a).into_iter().fold(f64::INFINITY, f64::min);
        let worst_of_b = oriented(b).into_iter().fold(f64::NEG_INFINITY, f64::max);
        return if worst_of_b < best_of_a {
            "better"
        } else {
            "unresolved"
        };
    }
    if worse > bound {
        "REGRESSED"
    } else if worse < -bound {
        "better"
    } else {
        "unchanged"
    }
}

// ---------------------------------------------------------------------------
// Reading values
// ---------------------------------------------------------------------------

fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn entries(value: Option<&Value>) -> impl Iterator<Item = (&str, &Value)> {
    let entries: &[(String, Value)] = match value {
        Some(Value::Map(entries)) => entries,
        _ => &[],
    };
    entries.iter().map(|(k, v)| (k.as_str(), v))
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn numbers(value: &Value) -> Vec<f64> {
    match value {
        Value::Seq(items) => items.iter().filter_map(number).collect(),
        _ => Vec::new(),
    }
}

fn text(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_apply_bound_direction_and_spread() {
        let lower = Declared {
            name: "wall_s".into(),
            lower_is_better: true,
            bound: Some(0.10),
        };
        let steady = |v: f64| side(v, &[v * 0.99, v, v * 1.01]);
        assert_eq!(verdict(&lower, &steady(2.0), &steady(2.1)), "unchanged");
        assert_eq!(verdict(&lower, &steady(2.0), &steady(2.3)), "REGRESSED");
        assert_eq!(verdict(&lower, &steady(2.0), &steady(1.7)), "better");
        // Spread wider than the bound: unresolved, unless fully separated.
        let noisy = side(2.0, &[1.6, 2.0, 2.4]);
        assert_eq!(verdict(&lower, &noisy, &steady(2.1)), "unresolved");
        assert_eq!(verdict(&lower, &noisy, &steady(1.0)), "better");

        let higher = Declared {
            name: "final_recall".into(),
            lower_is_better: false,
            bound: Some(0.02),
        };
        assert_eq!(
            verdict(&higher, &side(0.90, &[]), &side(0.87, &[])),
            "REGRESSED"
        );
        assert_eq!(
            verdict(&higher, &side(0.90, &[]), &side(0.90, &[])),
            "unchanged"
        );
        let unbounded = Declared {
            name: "er.job2_s".into(),
            lower_is_better: true,
            bound: None,
        };
        assert_eq!(
            verdict(&unbounded, &side(1.0, &[]), &side(9.0, &[])),
            "no bound"
        );
    }
}
