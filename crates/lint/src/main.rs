//! CLI for the workspace invariant linter.
//!
//! ```text
//! pper-lint [--format text|json] [--quiet] [--check-allows] <path>...
//! ```
//!
//! Exits 0 when every path is clean, 1 on any diagnostic, 2 on usage
//! errors. `--format json` prints a machine-readable array.

use std::path::PathBuf;
use std::process::ExitCode;

use pper_lint::{analyze_tree, to_json};

const USAGE: &str = "usage: pper-lint [--format text|json] [--quiet] [--check-allows] <path>...";

fn main() -> ExitCode {
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut quiet = false;
    let mut check_allows = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!("--format expects `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--check-allows" => check_allows = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("rules: {}", pper_lint::RULE_IDS.join(", "));
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}; try --help");
                return ExitCode::from(2);
            }
            path => roots.push(PathBuf::from(path)),
        }
    }
    if roots.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let diags = analyze_tree(&roots, check_allows);

    if json {
        println!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        if !quiet {
            eprintln!(
                "pper-lint: {} diagnostic{} across {} path{}",
                diags.len(),
                if diags.len() == 1 { "" } else { "s" },
                roots.len(),
                if roots.len() == 1 { "" } else { "s" },
            );
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
