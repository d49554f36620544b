//! Fuzz properties for the linter: whatever bytes the lexer and the rules
//! are fed — arbitrary garbage or mutated copies of real workspace
//! sources — they must return diagnostics, never panic. A panic here would
//! turn a malformed source file into a broken CI gate instead of a report.

use pper_lint::lint_source;
use proptest::collection::vec;
use proptest::prelude::*;

/// Paths that exercise every scoping branch: pipeline crates, exempt
/// files, the VFS seam, and codec/framing files.
const SCOPES: [&str; 6] = [
    "crates/mapreduce/src/runtime.rs",
    "crates/journal/src/frame.rs",
    "crates/store/src/lib.rs",
    "crates/vfs/src/file.rs",
    "crates/bench/src/lib.rs",
    "crates/er-core/tests/it.rs",
];

/// Lint `src` as if it lived at `path`, with and without the dead-allow
/// check.
fn exercise(path: &str, src: &str) {
    lint_source(path, src, false);
    lint_source(path, src, true);
}

/// Real workspace material to mutate: the linter's own sources and the
/// resolution job, which between them use every construct the rules look
/// for.
fn corpus() -> Vec<&'static str> {
    vec![
        include_str!("../src/rules.rs"),
        include_str!("../src/lexer.rs"),
        include_str!("../src/safety.rs"),
        include_str!("../../er-core/src/job2.rs"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in vec(0u8..=255, 0..768),
        scope in 0usize..6,
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        exercise(SCOPES[scope], &src);
    }

    #[test]
    fn mutated_workspace_sources_never_panic(
        pick in 0usize..4,
        cut in 0usize..60_000,
        splice in vec(0u8..=255, 0..64),
        at in 0usize..60_000,
    ) {
        let base = corpus()[pick];
        // Truncate at an arbitrary char boundary, then splice raw bytes in
        // (lossily re-decoded): torn files and junk edits, the two ways a
        // source tree goes bad mid-write.
        let cut = base
            .char_indices()
            .map(|(i, _)| i)
            .take_while(|&i| i <= cut)
            .last()
            .unwrap_or(0);
        let mut bytes = base.as_bytes()[..cut].to_vec();
        let at = at.min(bytes.len());
        bytes.splice(at..at, splice);
        let src = String::from_utf8_lossy(&bytes).into_owned();
        exercise("crates/mapreduce/src/exec.rs", &src);
        exercise("crates/journal/src/mutated.rs", &src);
    }
}
