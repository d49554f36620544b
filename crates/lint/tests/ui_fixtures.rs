//! Golden-file tests for the linter: every fixture under `tests/fixtures/`
//! is linted as if it lived at the path named by its `//@ path:` header, and
//! the rendered diagnostics must match the sibling `.expected` file exactly
//! (empty `.expected` = the fixture must be clean).
//!
//! Regenerate the goldens after an intentional rule change with:
//!
//! ```text
//! UPDATE_EXPECT=1 cargo test -p pper-lint --test ui_fixtures
//! ```

use std::path::{Path, PathBuf};

use pper_lint::lint_source;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// The `//@ path:` header names the synthetic workspace path the fixture is
/// linted under — that path, not the fixture's real location, decides which
/// rules are in scope.
fn synthetic_path(fixture: &Path, src: &str) -> String {
    let header = src.lines().next().unwrap_or_default();
    let path = header
        .strip_prefix("//@ path:")
        .unwrap_or_else(|| panic!("{} must start with `//@ path: <path>`", fixture.display()));
    path.trim().to_string()
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let dir = fixture_dir();
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        !fixtures.is_empty(),
        "no fixtures found in {}",
        dir.display()
    );

    let update = std::env::var_os("UPDATE_EXPECT").is_some();
    let mut failures = Vec::new();
    for fixture in &fixtures {
        let src = std::fs::read_to_string(fixture).expect("read fixture");
        let path = synthetic_path(fixture, &src);
        let rendered: String = lint_source(&path, &src, false)
            .iter()
            .map(|d| format!("{}\n", d.render()))
            .collect();
        let expected_path = fixture.with_extension("expected");
        if update {
            std::fs::write(&expected_path, &rendered).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {} (run with UPDATE_EXPECT=1 to create it)",
                expected_path.display()
            )
        });
        if rendered != expected {
            failures.push(format!(
                "== {} ==\n-- expected --\n{expected}-- got --\n{rendered}",
                fixture.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "fixture diagnostics diverged from goldens \
         (UPDATE_EXPECT=1 re-blesses):\n{}",
        failures.join("\n")
    );
}

/// Each of the four rules must have at least one positive fixture (golden
/// contains its id) and one negative fixture (an `*_allowed.rs` whose golden
/// is empty), so a rule can't silently stop firing.
#[test]
fn every_rule_has_positive_and_negative_coverage() {
    let dir = fixture_dir();
    for rule in pper_lint::RULE_IDS {
        let positive = dir.join(format!("{rule}_positive.expected"));
        let golden = std::fs::read_to_string(&positive)
            .unwrap_or_else(|_| panic!("missing positive golden {}", positive.display()));
        assert!(
            golden.contains(&format!("[{rule}]")),
            "{} does not actually report {rule}",
            positive.display()
        );
        let negative = dir.join(format!("{rule}_allowed.expected"));
        let golden = std::fs::read_to_string(&negative)
            .unwrap_or_else(|_| panic!("missing negative golden {}", negative.display()));
        assert_eq!(
            golden,
            "",
            "{} must be clean: the allow grammar failed to suppress",
            negative.display()
        );
    }
}
