//! `pper-lint`: determinism & concurrency invariants as named, allowlistable
//! static-analysis rules.
//!
//! The repo's headline guarantee — bit-identical results across thread
//! counts, fault plans, and resume points — rests on invariants that unit
//! tests only probe indirectly: no hash-order iteration feeding an emit, no
//! wall-clock reads on virtual-time paths, justified relaxed atomics,
//! `MrError`-routed failures in the runtime hot paths, VFS-routed file I/O,
//! audited `unsafe`, and truncation-free codec arithmetic. See [`rules`]
//! for the rule table and the `lint:allow` annotation grammar.
//!
//! The check is two layers of scoping over the same sinks:
//!
//! - [`lint_source`]: the single-file scoping — each rule fires in its
//!   designated crates/files.
//! - [`analyze`] / [`analyze_tree`]: the whole-workspace analysis — on top
//!   of the file scoping it parses every file into functions and calls
//!   ([`parser`]), builds a cross-crate call graph ([`taint`]), and
//!   promotes any sink *reachable* from a deterministic entry point
//!   (map/reduce task bodies, `Executor::run`, the shuffle builders,
//!   journal replay), reporting the full call chain in the diagnostic.
//!   [`Options::reachability`] turns the second layer off so the fixtures
//!   can pin each layer on its own; the CLI always runs both.
//!
//! Run it as `cargo run -p pper-lint -- crates/ src/` (add `--format json`
//! or `--format sarif` for CI, `--check-allows` to flag stale
//! suppressions). The binary exits nonzero on any unsuppressed diagnostic.

pub mod analysis;
mod casts;
pub mod lexer;
pub mod parser;
pub mod rules;
mod safety;
pub mod sarif;
pub mod taint;

use std::path::{Path, PathBuf};

pub use analysis::{analyze, Options, SourceFile};
pub use rules::{lint_source, Diagnostic, RULE_IDS};
pub use sarif::to_sarif;

/// Recursively collect the `.rs` files under `root` (or `root` itself for a
/// file), skipping build output, VCS metadata, and lint test fixtures.
/// Results are sorted so diagnostics are emitted in a stable order.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir.is_file() {
            if dir.extension().is_some_and(|e| e == "rs") {
                files.push(dir);
            }
            continue;
        }
        let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
            // Root paths like `.` or `/` have no final component; descend.
            for entry in std::fs::read_dir(&dir)? {
                stack.push(entry?.path());
            }
            continue;
        };
        if name == "target" || name == ".git" || name == "fixtures" {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            stack.push(entry?.path());
        }
    }
    files.sort();
    Ok(files)
}

/// Read every `.rs` file under the given roots into [`SourceFile`]s.
/// I/O failures surface as `io` pseudo-diagnostics rather than aborting.
pub fn read_sources(roots: &[PathBuf]) -> (Vec<SourceFile>, Vec<Diagnostic>) {
    let mut sources = Vec::new();
    let mut io_diags = Vec::new();
    for root in roots {
        let files = match collect_rs_files(root) {
            Ok(files) => files,
            Err(err) => {
                io_diags.push(Diagnostic {
                    file: root.display().to_string(),
                    line: 0,
                    rule: "io".into(),
                    message: format!("cannot walk: {err}"),
                });
                continue;
            }
        };
        for file in files {
            let path = file.display().to_string();
            match std::fs::read_to_string(&file) {
                Ok(src) => sources.push(SourceFile { path, src }),
                Err(err) => io_diags.push(Diagnostic {
                    file: path,
                    line: 0,
                    rule: "io".into(),
                    message: format!("cannot read: {err}"),
                }),
            }
        }
    }
    (sources, io_diags)
}

/// Run the whole-workspace analysis over every `.rs` file under the given
/// roots. This is what the CLI and CI use.
pub fn analyze_tree(roots: &[PathBuf], opts: &Options) -> Vec<Diagnostic> {
    let (sources, mut diags) = read_sources(roots);
    diags.extend(analyze(&sources, opts));
    diags.sort();
    diags
}

/// Render diagnostics as a JSON array (stable field order, no trailing
/// newline) for `--format json` consumers.
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                escape(&d.file),
                d.line,
                escape(&d.rule),
                escape(&d.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let diags = vec![Diagnostic {
            file: "a\"b.rs".into(),
            line: 7,
            rule: "relaxed".into(),
            message: "line1\nline2".into(),
        }];
        let json = to_json(&diags);
        assert_eq!(
            json,
            "[{\"file\":\"a\\\"b.rs\",\"line\":7,\"rule\":\"relaxed\",\"message\":\"line1\\nline2\"}]"
        );
    }

    #[test]
    fn empty_diags_render_as_empty_array() {
        assert_eq!(to_json(&[]), "[]");
    }
}
