//! `pper-lint`: determinism & concurrency invariants as named, allowlistable
//! static-analysis rules.
//!
//! The repo's headline guarantee — bit-identical results across thread
//! counts, fault plans, and resume points — rests on invariants that unit
//! tests only probe indirectly: no hash-order iteration feeding an emit, no
//! wall-clock reads on virtual-time paths, justified relaxed atomics,
//! typed-error-routed failures in the pipeline crates, VFS-routed file I/O,
//! audited `unsafe`, and truncation-free codec arithmetic. See [`rules`]
//! for the rule table and the `lint:allow` annotation grammar.
//!
//! [`lint_source`] checks one file: each rule fires in its designated
//! crates/files, decided from the path alone. [`analyze_tree`] walks source
//! roots and checks every `.rs` file under them; it is what the CLI and CI
//! run.
//!
//! Run it as `cargo run -p pper-lint -- crates/ src/` (add `--format json`
//! for CI, `--check-allows` to flag stale suppressions). The binary exits
//! nonzero on any unsuppressed diagnostic.

mod casts;
pub mod lexer;
pub mod rules;
mod safety;

use std::path::{Path, PathBuf};

pub use rules::{lint_source, Diagnostic, RULE_IDS};

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

/// Lint every `.rs` file under the given roots; `check_allows` also
/// reports stale `lint:allow` annotations. I/O failures surface as `io`
/// pseudo-diagnostics rather than aborting.
pub fn analyze_tree(roots: &[PathBuf], check_allows: bool) -> Vec<Diagnostic> {
    let io_diag = |file: String, message: String| Diagnostic {
        file,
        line: 0,
        rule: "io".into(),
        message,
    };
    let mut diags = Vec::new();
    for root in roots {
        let files = match collect_rs_files(root) {
            Ok(files) => files,
            Err(err) => {
                diags.push(io_diag(
                    root.display().to_string(),
                    format!("cannot walk: {err}"),
                ));
                continue;
            }
        };
        for file in files {
            let path = file.display().to_string();
            match std::fs::read_to_string(&file) {
                Ok(src) => diags.extend(lint_source(&path, &src, check_allows)),
                Err(err) => diags.push(io_diag(path, format!("cannot read: {err}"))),
            }
        }
    }
    diags.sort();
    diags.dedup();
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
