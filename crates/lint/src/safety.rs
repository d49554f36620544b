//! Rule U1 (`safety_comment`): every `unsafe` block, fn, or impl must
//! carry a `// SAFETY:` justification.
//!
//! The workspace holds its unsafety to a handful of audited sites (the
//! mmap view in `pper-vfs`, counting allocators in the benches); U1 keeps
//! that audit honest by requiring the safety argument to live next to the
//! code — on the same line or in the contiguous comment block directly
//! above (attribute lines like `#[cfg(…)]` between the comment and the
//! `unsafe` keyword are tolerated).

use crate::lexer::{is_ident, is_punct, LexedFile, Token};
use crate::rules::Diagnostic;

/// What the `unsafe` keyword introduces, for the diagnostic text.
fn unsafe_kind(tokens: &[Token], i: usize) -> &'static str {
    match tokens.get(i + 1) {
        Some(t) if is_ident(t, "fn") => "`unsafe fn`",
        Some(t) if is_ident(t, "impl") => "`unsafe impl`",
        Some(t) if is_ident(t, "trait") => "`unsafe trait`",
        Some(t) if is_punct(t, '{') => "`unsafe` block",
        _ => "`unsafe`",
    }
}

/// Walk back from token `i` over any `#[…]` attribute groups, returning
/// the line the SAFETY comment must cover (the first attribute's line, or
/// the `unsafe` token's own line when no attributes precede it).
fn anchor_line(tokens: &[Token], i: usize) -> usize {
    let mut k = i;
    while let Some(prev) = k.checked_sub(1) {
        if !is_punct(&tokens[prev], ']') {
            break;
        }
        // Find the matching `[`, then require a `#` before it.
        let mut depth = 0i32;
        let mut j = prev;
        loop {
            if is_punct(&tokens[j], ']') {
                depth += 1;
            } else if is_punct(&tokens[j], '[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            let Some(next) = j.checked_sub(1) else {
                return tokens[k].line;
            };
            j = next;
        }
        let Some(hash) = j.checked_sub(1) else {
            break;
        };
        if !is_punct(&tokens[hash], '#') {
            break;
        }
        k = hash;
    }
    tokens.get(k).map_or(0, |t| t.line)
}

pub(crate) fn rule_safety_comment(
    path: &str,
    tokens: &[Token],
    mask: &[bool],
    lexed: &LexedFile,
    diags: &mut Vec<Diagnostic>,
) {
    for i in 0..tokens.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !is_ident(&tokens[i], "unsafe") {
            continue;
        }
        // `unsafe` inside a fn-pointer type (`unsafe fn(…)` with no name)
        // declares no new unsafety of its own; still cheap to require the
        // comment only for real items/blocks.
        let kind = unsafe_kind(tokens, i);
        if kind == "`unsafe`" {
            continue;
        }
        if kind == "`unsafe fn`" {
            // Distinguish `unsafe fn name(` (item — audit it) from the
            // `unsafe fn(…)` pointer type (no name — skip).
            let named = tokens
                .get(i + 2)
                .is_some_and(|t| t.kind == crate::lexer::TokenKind::Ident);
            if !named {
                continue;
            }
        }
        let anchor = anchor_line(tokens, i);
        if lexed.safety_covering(anchor) || lexed.safety_covering(tokens[i].line) {
            continue;
        }
        diags.push(Diagnostic {
            file: path.to_string(),
            line: tokens[i].line,
            rule: "safety_comment".into(),
            message: format!(
                "{kind} without a `// SAFETY:` justification; state the invariant \
                 that makes this sound in a SAFETY comment directly above, or \
                 justify with `// lint:allow(safety_comment) <reason>`"
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

    const P: &str = "crates/vfs/src/x.rs";

    #[test]
    fn unannotated_unsafe_block_fn_and_impl_fire() {
        let src = "fn f() { let x = unsafe { *p }; }\n\
                   unsafe fn g() {}\n\
                   unsafe impl Send for M {}\n";
        assert_eq!(
            rules_of(P, src),
            vec!["safety_comment", "safety_comment", "safety_comment"]
        );
    }

    #[test]
    fn safety_comment_above_or_trailing_satisfies() {
        let src = "// SAFETY: p is valid for the lifetime of f\n\
                   fn f() { let x = unsafe { *p }; }\n\
                   unsafe fn g() {} // SAFETY: caller upholds the aliasing rules\n";
        assert!(rules_of(P, src).is_empty());
    }

    #[test]
    fn attributes_between_comment_and_unsafe_are_tolerated() {
        let src = "// SAFETY: immutable mapping, never aliased mutably\n\
                   #[cfg(target_os = \"linux\")]\n\
                   unsafe impl Send for Mmap {}\n";
        assert!(rules_of(P, src).is_empty());
        // …but a code line in between still breaks coverage.
        let src = "// SAFETY: immutable mapping\n\
                   unsafe impl Send for Mmap {}\n\
                   unsafe impl Sync for Mmap {}\n";
        assert_eq!(rules_of(P, src), vec!["safety_comment"]);
    }

    #[test]
    fn fn_pointer_types_are_not_audited() {
        let src = "type F = unsafe fn(u32) -> u32;\nfn take(f: unsafe fn()) {}\n";
        assert!(rules_of(P, src).is_empty());
    }

    #[test]
    fn allow_suppresses_with_reason() {
        let src = "// lint:allow(safety_comment) vendored allocator shim, audited upstream\n\
                   unsafe fn alloc_shim() {}\n";
        assert!(rules_of(P, src).is_empty());
    }

    #[test]
    fn applies_in_every_crate_including_bench() {
        let src = "unsafe impl GlobalAlloc for CountingAlloc {}";
        assert_eq!(
            rules_of("crates/bench/src/bin/bench_scale.rs", src),
            vec!["safety_comment"]
        );
    }
}
