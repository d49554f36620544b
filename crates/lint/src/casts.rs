//! Rule C1 (`lossy_cast`): no bare `as` integer casts in codec/framing
//! code.
//!
//! The journal frame format, the columnar store header, and the external
//! sorter's run framing all serialize lengths and offsets as fixed-width
//! integers. A bare `expr as u32` silently truncates when the value
//! outgrows the target — exactly the kind of corruption the CRC layer can
//! no longer distinguish from disk damage, because the truncated value was
//! *written* wrong. C1 bans `as` casts to integer types in those crates:
//! use `From`/`try_from` for provably-lossless conversions, route real
//! failures through the crate's error type, or call an explicit truncation
//! helper whose contract documents why the value fits (the helper carries
//! the one audited `lint:allow(lossy_cast)`).

use crate::lexer::{is_ident, Token, TokenKind};
use crate::rules::Diagnostic;

/// Integer target types C1 flags.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

pub(crate) fn rule_lossy_cast(
    path: &str,
    tokens: &[Token],
    mask: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for i in 0..tokens.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !is_ident(&tokens[i], "as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident || !INT_TYPES.contains(&target.text.as_str()) {
            continue;
        }
        // `use path as name` binds idents, never primitive type names, so
        // every `as <int>` here is a cast. Associated consts like
        // `u32::MAX as usize` are casts too and still flagged: spell them
        // with `try_from`/`From` or a helper.
        diags.push(Diagnostic {
            file: path.to_string(),
            line: target.line,
            rule: "lossy_cast".into(),
            message: format!(
                "bare `as {}` cast in codec/framing code can silently truncate; \
                 use `{}::try_from`/`From`, or an explicit documented truncation \
                 helper, or justify with `// lint:allow(lossy_cast) <reason>`",
                target.text, target.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::lint_source;

    fn rules_of(path: &str, src: &str) -> Vec<String> {
        lint_source(path, src, false)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn int_casts_fire_only_in_codec_crates() {
        let src = "fn f(x: usize) -> u32 { x as u32 }";
        assert_eq!(
            rules_of("crates/journal/src/frame.rs", src),
            vec!["lossy_cast"]
        );
        assert_eq!(rules_of("crates/store/src/lib.rs", src), vec!["lossy_cast"]);
        assert_eq!(
            rules_of("crates/mapreduce/src/extsort.rs", src),
            vec!["lossy_cast"]
        );
        // Elsewhere `as` stays legal (exec.rs packs ranges with `as` under
        // its own loom-checked invariants).
        assert!(rules_of("crates/mapreduce/src/exec.rs", src).is_empty());
        assert!(rules_of("crates/er-core/src/basic.rs", src).is_empty());
    }

    #[test]
    fn non_integer_casts_are_ignored() {
        let src = "fn f(x: u32) { let a = x as f64; let p = &x as *const u32; }";
        assert!(rules_of("crates/journal/src/frame.rs", src).is_empty());
    }

    #[test]
    fn allow_and_cfg_test_suppress() {
        let src = "fn f(x: usize) -> u32 {\n\
                   // lint:allow(lossy_cast) helper contract: caller checked x <= u32::MAX\n\
                   x as u32 }\n\
                   #[cfg(test)] mod t { fn g(x: usize) -> u32 { x as u32 } }";
        assert!(rules_of("crates/journal/src/frame.rs", src).is_empty());
    }

    #[test]
    fn each_cast_reports_its_own_line() {
        let src = "fn f(x: u64) {\n    let a = x as u32;\n    let b = x as u16;\n}";
        let diags = lint_source("crates/store/src/lib.rs", src, false);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
        assert!(diags[0].message.contains("as u32"));
        assert!(diags[1].message.contains("as u16"));
    }
}
