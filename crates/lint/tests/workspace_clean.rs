//! The linter's strongest test is the workspace itself: `cargo test` fails
//! the moment anyone introduces an unsuppressed hash-order iteration,
//! wall-clock read, bare `Ordering::Relaxed`, pipeline-crate panic, bypassed VFS
//! seam, unjustified `unsafe`, or truncating codec cast. Dead `lint:allow`
//! annotations fail too, so suppressions cannot outlive the code they
//! excused. No CI wiring required.

use std::path::{Path, PathBuf};

use pper_lint::analyze_tree;

#[test]
fn workspace_has_no_unsuppressed_diagnostics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let roots: Vec<PathBuf> = ["crates", "src"]
        .iter()
        .map(|d| root.join(d))
        .filter(|p| p.is_dir())
        .collect();
    assert!(
        !roots.is_empty(),
        "no source roots under {}",
        root.display()
    );
    let diags = analyze_tree(&roots, true);
    assert!(
        diags.is_empty(),
        "pper-lint found {} unsuppressed diagnostic(s) in the workspace \
         (fix the site or add a justified `// lint:allow(<rule>) <reason>`):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
