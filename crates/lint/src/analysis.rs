//! Whole-workspace analysis: legacy file/crate scoping plus call-graph
//! reachability promotion.
//!
//! [`analyze`] is the one entry point the CLI and the conformance tests
//! use. Per file it runs every rule's sink detector
//! (`crate::rules::collect_sinks`); across files it builds the workspace
//! call graph ([`crate::taint::CallGraph`]) and promotes any
//! reach-eligible sink whose enclosing function is reachable from a
//! deterministic entry point — wherever the file sits. A sink that fires
//! both ways is reported once, with the call chain appended, because the
//! chain is the actionable part: it names the entry point whose output the
//! sink can perturb.

use crate::lexer::{lex, LexedFile};
use crate::parser::{parse_file, ParsedFile};
use crate::rules::{apply_allows, cfg_test_mask, classify, collect_sinks, Diagnostic, Sink};
use crate::taint::{owner_of_line, CallGraph};

/// One file handed to [`analyze`]. `path` is used for scoping and appears
/// verbatim in diagnostics.
pub struct SourceFile {
    pub path: String,
    pub src: String,
}

/// Analysis options.
pub struct Options {
    /// Promote sinks in functions reachable from deterministic entry
    /// points (the call-graph layer). Off = legacy file scoping only,
    /// byte-for-byte equivalent to running [`crate::lint_source`] per file.
    pub reachability: bool,
    /// Report `lint:allow` annotations that suppress nothing
    /// (`dead_allow`).
    pub check_allows: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            reachability: true,
            check_allows: false,
        }
    }
}

struct FileCtx {
    path: String,
    lexed: LexedFile,
    sinks: Vec<Sink>,
}

/// Analyze a set of files together. Exempt files (tests, examples,
/// benches, fixtures, shims, the linter itself) contribute neither sinks
/// nor call-graph nodes.
pub fn analyze(files: &[SourceFile], opts: &Options) -> Vec<Diagnostic> {
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut meta: Vec<(String, String)> = Vec::new();
    let mut paths: Vec<String> = Vec::new();

    for f in files {
        let scope = classify(&f.path);
        if scope.exempt {
            continue;
        }
        let lexed = lex(&f.src);
        let mask = cfg_test_mask(&lexed.tokens);
        let sinks = collect_sinks(&f.path, &lexed, &mask, &scope);
        parsed.push(parse_file(&lexed.tokens, &mask));
        let stem = scope
            .file_name
            .strip_suffix(".rs")
            .unwrap_or(&scope.file_name)
            .to_string();
        meta.push((scope.crate_dir.clone(), stem));
        paths.push(f.path.clone());
        ctxs.push(FileCtx {
            path: f.path.clone(),
            lexed,
            sinks,
        });
    }

    let graph = opts.reachability.then(|| CallGraph::build(&parsed, &meta));

    let mut out: Vec<Diagnostic> = Vec::new();
    for (fi, ctx) in ctxs.into_iter().enumerate() {
        let mut raw: Vec<Diagnostic> = Vec::new();
        for sink in ctx.sinks {
            let chain = graph.as_ref().and_then(|g| {
                if !sink.reach {
                    return None;
                }
                let owner = owner_of_line(g, fi, sink.diag.line)?;
                g.is_reachable(owner).then(|| g.chain_to(owner, &paths))
            });
            match chain {
                Some(chain) => {
                    let mut diag = sink.diag;
                    diag.message
                        .push_str(&format!("; reachable from deterministic entry via {chain}"));
                    raw.push(diag);
                }
                None if sink.legacy => raw.push(sink.diag),
                None => {}
            }
        }
        out.extend(apply_allows(&ctx.path, &ctx.lexed, raw, opts.check_allows));
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<SourceFile> {
        list.iter()
            .map(|(p, s)| SourceFile {
                path: p.to_string(),
                src: s.to_string(),
            })
            .collect()
    }

    #[test]
    fn reachability_promotes_sinks_outside_legacy_scope() {
        // `simil` is not a D1 crate, so the legacy scoping never flags
        // hash iteration there — but the iteration is two calls below a
        // Reducer impl, so its order leaks into reducer output.
        let fs = files(&[
            (
                "crates/er-core/src/job.rs",
                "use pper_simil::score_all; \
                 impl Reducer for Dedup { fn reduce(&self) { score_all(); } }",
            ),
            (
                "crates/simil/src/batch.rs",
                "pub fn score_all() { tally(); }\n\
                 fn tally() {\n\
                 \x20   let m = HashMap::new();\n\
                 \x20   for k in m.keys() { emit(k); }\n\
                 }\n",
            ),
        ]);
        let legacy = analyze(
            &fs,
            &Options {
                reachability: false,
                ..Options::default()
            },
        );
        assert!(
            legacy.iter().all(|d| d.rule != "hash_iter"),
            "legacy scoping must miss the simil sink: {legacy:?}"
        );
        let full = analyze(&fs, &Options::default());
        let hit = full
            .iter()
            .find(|d| d.rule == "hash_iter")
            .expect("reachability must flag the simil sink");
        assert_eq!(hit.file, "crates/simil/src/batch.rs");
        assert!(
            hit.message.contains("`Reducer::reduce`") && hit.message.contains("`tally`"),
            "chain must run entry → sink: {}",
            hit.message
        );
    }

    #[test]
    fn legacy_sinks_gain_the_chain_when_reachable() {
        let fs = files(&[(
            "crates/mapreduce/src/runtime.rs",
            "impl Executor for Pool { fn run(&self) { let t = Instant::now(); } }",
        )]);
        let full = analyze(&fs, &Options::default());
        assert_eq!(full.len(), 1);
        assert!(
            full[0]
                .message
                .contains("reachable from deterministic entry"),
            "{}",
            full[0].message
        );
    }

    #[test]
    fn unreachable_sinks_outside_legacy_scope_stay_silent() {
        let fs = files(&[(
            "crates/simil/src/util.rs",
            "fn orphan() { let m = HashMap::new(); for k in m.keys() { emit(k); } }",
        )]);
        assert!(analyze(&fs, &Options::default()).is_empty());
    }

    #[test]
    fn allows_suppress_promoted_sinks_and_dead_allows_are_reported() {
        let fs = files(&[(
            "crates/er-core/src/x.rs",
            "impl Reducer for D { fn reduce(&self) {\n\
             // lint:allow(wall_clock) coarse progress stamp, not in compare path\n\
             let t = Instant::now(); } }\n\
             // lint:allow(hash_iter) nothing here iterates\n\
             fn unrelated() {}\n",
        )]);
        let quiet = analyze(&fs, &Options::default());
        assert!(quiet.is_empty(), "{quiet:?}");
        let checked = analyze(
            &fs,
            &Options {
                check_allows: true,
                ..Options::default()
            },
        );
        assert_eq!(checked.len(), 1, "{checked:?}");
        assert_eq!(checked[0].rule, "dead_allow");
        assert!(checked[0].message.contains("hash_iter"));
    }

    #[test]
    fn exempt_files_contribute_nothing() {
        let fs = files(&[
            (
                "crates/er-core/tests/it.rs",
                "impl Reducer for T { fn reduce(&self) { helper(); } }",
            ),
            (
                "crates/simil/src/h.rs",
                "pub fn helper() { let m = HashMap::new(); for k in m.keys() { emit(k); } }",
            ),
        ]);
        // The only path to `helper` starts in a tests/ file, which is out
        // of scope — no entry, no reach, and `simil` is outside the D1
        // legacy scope, so no diagnostics at all.
        assert!(analyze(&fs, &Options::default()).is_empty());
    }
}
