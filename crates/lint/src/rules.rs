//! The project-invariant rules (D1–D5, U1, C1) over the lexed token
//! stream.
//!
//! | id          | invariant                                                        |
//! |-------------|------------------------------------------------------------------|
//! | `hash_iter` | D1: no `HashMap`/`HashSet` iteration in the pipeline crates      |
//! |             | unless the use is provably order-insensitive                     |
//! | `wall_clock`| D2: no `Instant::now`/`SystemTime::now`/`thread_rng` outside the |
//! |             | approved wall-clock modules (`cost.rs`, `bench`, `datagen`)      |
//! | `relaxed`   | D3: every non-`SeqCst` ordering (`Relaxed`/`Acquire`/`Release`/  |
//! |             | `AcqRel`) carries a written justification                        |
//! | `panic_path`| D4: no `unwrap`/`expect`/`panic!` in the pipeline crates         |
//! | `direct_fs` | D5: no direct `std::fs` / `File::` / `OpenOptions::` access in   |
//! |             | the pipeline crates — file I/O must route through the            |
//! |             | fault-injectable `pper_vfs::Vfs` seam                            |
//! |`safety_comment`| U1: every `unsafe` block/fn/impl carries a `// SAFETY:`       |
//! |             | justification (see `crate::safety`)                              |
//! | `lossy_cast`| C1: no bare `as` integer casts in codec/framing code             |
//! |             | (`journal`, `store`, `extsort.rs` — see `crate::casts`)          |
//!
//! Scope is decided per file from its path alone. D1, D4 and D5 share one
//! list, [`PIPELINE_CRATES`]: every non-test line of the crates a job's
//! result passes through, rather than a per-rule list of the files a
//! violation was once expected in.
//!
//! Any diagnostic can be suppressed with a `// lint:allow(<rule>) <reason>`
//! comment on the same line or in the comment block directly above it; the
//! reason is mandatory (`allow_reason`) and the rule id must exist
//! (`allow_unknown`). Code under `#[cfg(test)]` and files under `tests/`,
//! `examples/`, or `benches/` are exempt — the invariants protect the
//! production execution paths.

use crate::lexer::{is_ident, is_punct, lex, LexedFile, Token, TokenKind};

/// The crates a job's result passes through, as directory names under
/// `crates/`. Their production code must be iteration-order deterministic
/// (D1), route failures through typed errors instead of panicking (D4), and
/// do file I/O only through the fault-injectable `pper_vfs::Vfs` seam (D5).
/// The `vfs` crate itself — the one place allowed to touch `std::fs` — is
/// outside the list by construction.
pub const PIPELINE_CRATES: &[&str] = &[
    "mapreduce",
    "er-core",
    "blocking",
    "schedule",
    "progressive",
    "simil",
    "journal",
    "store",
];

/// Hash container type names whose bindings D1 tracks.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that iterate a hash container in nondeterministic order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Order-insensitive chain terminators: if the iteration's own statement
/// funnels into one of these, element order cannot reach the result.
const ORDER_INSENSITIVE_SINKS: &[&str] = &[
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "contains",
    "len",
    "is_empty",
];

/// `collect::<T>` targets that re-establish a canonical order (or stay
/// unordered), making the iteration order immaterial.
const ORDER_INSENSITIVE_COLLECTS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
];

/// Type names whose `X::…` associated calls D5 flags as direct
/// filesystem access.
const D5_FS_TYPES: &[&str] = &["File", "OpenOptions"];

/// All valid rule ids, for `lint:allow` validation.
pub const RULE_IDS: &[&str] = &[
    "hash_iter",
    "wall_clock",
    "relaxed",
    "panic_path",
    "direct_fs",
    "safety_comment",
    "lossy_cast",
];

/// One finding, ready to render as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: String,
    pub message: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Where a file sits in the workspace, as far as rule scoping cares.
struct FileScope {
    /// Directory name under `crates/` (or the top-level directory).
    crate_dir: String,
    /// Final file name.
    file_name: String,
    /// True for `tests/`, `examples/`, `benches/`, and fixture trees.
    exempt: bool,
}

fn classify(path: &str) -> FileScope {
    let norm = path.replace('\\', "/");
    let components: Vec<&str> = norm.split('/').filter(|c| !c.is_empty()).collect();
    let crate_dir = components
        .iter()
        .position(|&c| c == "crates")
        .and_then(|i| components.get(i + 1))
        .or_else(|| components.first())
        .unwrap_or(&"")
        .to_string();
    let file_name = components.last().unwrap_or(&"").to_string();
    // The linter's own sources quote rule names and annotation grammar in
    // doc comments, so it never analyses itself; shims vendor external API
    // surfaces (e.g. `rand::thread_rng`) that the rules target by name.
    let exempt = components.iter().any(|&c| {
        c == "tests" || c == "examples" || c == "benches" || c == "fixtures" || c == "target"
    }) || components.contains(&"shims")
        || crate_dir == "lint";
    FileScope {
        crate_dir,
        file_name,
        exempt,
    }
}

/// Run every rule that is in scope for this file.
fn run_rules(path: &str, lexed: &LexedFile, mask: &[bool], scope: &FileScope) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mut raw = Vec::new();

    // D1, D4, D5: a hash-order iteration can reorder a job's output, a
    // panic turns a recoverable fault into a lost job, and a file access
    // that bypasses the Vfs seam is invisible to the chaos suites.
    if PIPELINE_CRATES.contains(&scope.crate_dir.as_str()) {
        rule_hash_iter(path, tokens, mask, &mut raw);
        rule_panic_path(path, tokens, mask, &mut raw);
        rule_direct_fs(path, tokens, mask, &mut raw);
    }

    // The bench/datagen crates measure and generate — wall-clock use is
    // their purpose — and `cost.rs` is the approved wall-clock module.
    if scope.crate_dir != "bench" && scope.crate_dir != "datagen" && scope.file_name != "cost.rs" {
        rule_wall_clock(path, tokens, mask, &mut raw);
    }

    rule_relaxed(path, tokens, mask, &mut raw);

    // U1 applies everywhere: unsafety is audited wherever it lives.
    crate::safety::rule_safety_comment(path, tokens, mask, lexed, &mut raw);

    // C1 is a codec-locality rule: the danger is the serialized artifact,
    // so only the framing/codec code is in scope.
    if scope.crate_dir == "journal"
        || scope.crate_dir == "store"
        || (scope.crate_dir == "mapreduce" && scope.file_name == "extsort.rs")
    {
        crate::casts::rule_lossy_cast(path, tokens, mask, &mut raw);
    }

    raw
}

/// Apply the `lint:allow` layer to raw diagnostics: drop suppressed ones,
/// validate the annotations themselves (`allow_unknown`/`allow_reason`),
/// and — when `check_dead` — report valid annotations that suppressed
/// nothing as `dead_allow`.
fn apply_allows(
    path: &str,
    lexed: &LexedFile,
    raw: Vec<Diagnostic>,
    check_dead: bool,
) -> Vec<Diagnostic> {
    // Allows are identified by (line, rule): two annotations for the same
    // rule on the same line are indistinguishable and equally used.
    let mut used: Vec<(usize, &str)> = Vec::new();
    let mut out: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for a in lexed.allows_covering(d.line) {
            if a.rule == d.rule {
                suppressed = true;
                used.push((a.line, a.rule.as_str()));
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for a in &lexed.allows {
        if !RULE_IDS.contains(&a.rule.as_str()) {
            out.push(Diagnostic {
                file: path.to_string(),
                line: a.line,
                rule: "allow_unknown".into(),
                message: format!(
                    "unknown rule `{}` in lint:allow; valid rules: {}",
                    a.rule,
                    RULE_IDS.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            out.push(Diagnostic {
                file: path.to_string(),
                line: a.line,
                rule: "allow_reason".into(),
                message: format!(
                    "lint:allow({}) requires a written reason after the closing paren",
                    a.rule
                ),
            });
        } else if check_dead && !used.contains(&(a.line, a.rule.as_str())) {
            out.push(Diagnostic {
                file: path.to_string(),
                line: a.line,
                rule: "dead_allow".into(),
                message: format!(
                    "lint:allow({}) suppresses nothing on the code it covers; \
                     remove the stale annotation",
                    a.rule
                ),
            });
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Lint one file's source. `path` is used both for scoping decisions and
/// verbatim in the emitted diagnostics; `check_allows` additionally reports
/// `lint:allow` annotations that suppress nothing (`dead_allow`).
pub fn lint_source(path: &str, src: &str, check_allows: bool) -> Vec<Diagnostic> {
    let scope = classify(path);
    if scope.exempt {
        return Vec::new();
    }
    let lexed = lex(src);
    let mask = cfg_test_mask(&lexed.tokens);
    let raw = run_rules(path, &lexed, &mask, &scope);
    apply_allows(path, &lexed, raw, check_allows)
}

// ---------------------------------------------------------------------------
// token helpers

fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    i + 1 < tokens.len() && is_punct(&tokens[i], ':') && is_punct(&tokens[i + 1], ':')
}

fn depth_delta(t: &Token) -> i32 {
    if t.kind != TokenKind::Punct {
        return 0;
    }
    match t.text.as_bytes().first() {
        Some(b'(' | b'[' | b'{') => 1,
        Some(b')' | b']' | b'}') => -1,
        _ => 0,
    }
}

/// Index one past the end of the statement starting at `from`: the next
/// `;` at relative depth 0, a `{` opening a block at depth 0, or the point
/// where the enclosing delimiter closes.
fn statement_end(tokens: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        let d = depth_delta(t);
        if d < 0 && depth == 0 {
            return j;
        }
        if depth == 0 && (is_punct(t, ';') || is_punct(t, '{')) {
            return j;
        }
        depth += d;
    }
    tokens.len()
}

/// Mark every token inside a `#[cfg(test)]`-gated item (attributes
/// included) so the rules skip test code.
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let hit = is_punct(&tokens[i], '#')
            && is_punct(&tokens[i + 1], '[')
            && is_ident(&tokens[i + 2], "cfg")
            && is_punct(&tokens[i + 3], '(')
            && is_ident(&tokens[i + 4], "test")
            && is_punct(&tokens[i + 5], ')')
            && is_punct(&tokens[i + 6], ']');
        if !hit {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while j + 1 < tokens.len() && is_punct(&tokens[j], '#') && is_punct(&tokens[j + 1], '[') {
            let mut depth = 0i32;
            j += 1;
            while j < tokens.len() {
                depth += depth_delta(&tokens[j]);
                j += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        // The gated item runs to a `;` before any block, or to the
        // matching `}` of its first block.
        let mut depth = 0i32;
        let mut saw_block = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if depth == 0 && !saw_block && is_punct(t, ';') {
                j += 1;
                break;
            }
            if is_punct(t, '{') {
                saw_block = true;
            }
            depth += depth_delta(t);
            j += 1;
            if saw_block && depth == 0 {
                break;
            }
        }
        for m in mask.iter_mut().take(j).skip(start) {
            *m = true;
        }
        i = j;
    }
    mask
}

// ---------------------------------------------------------------------------
// D1: hash_iter

/// Names bound to hash containers in this file: `let` bindings, `fn`
/// parameters, and struct fields (matched through `.field` accesses).
#[derive(Default)]
struct HashBindings {
    names: Vec<String>,
    fields: Vec<String>,
}

fn mentions_hash_type(tokens: &[Token], from: usize, to: usize) -> bool {
    tokens[from..to.min(tokens.len())]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && HASH_TYPES.contains(&t.text.as_str()))
}

fn collect_hash_bindings(tokens: &[Token], mask: &[bool]) -> HashBindings {
    let mut b = HashBindings::default();
    let mut i = 0usize;
    while i < tokens.len() {
        if mask[i] {
            // Bindings inside #[cfg(test)] code must not poison the
            // production name set.
            i += 1;
            continue;
        }
        if is_ident(&tokens[i], "let") {
            let mut j = i + 1;
            if j < tokens.len() && is_ident(&tokens[j], "mut") {
                j += 1;
            }
            if j < tokens.len() && tokens[j].kind == TokenKind::Ident {
                let end = statement_end(tokens, j + 1);
                if mentions_hash_type(tokens, j + 1, end) {
                    b.names.push(tokens[j].text.clone());
                }
                i = end;
                continue;
            }
        } else if is_ident(&tokens[i], "fn") {
            // Parameters: each `name: ...Hash...` segment inside the
            // signature's parens binds `name`.
            let mut j = i + 1;
            while j < tokens.len() && !is_punct(&tokens[j], '(') && !is_punct(&tokens[j], '{') {
                j += 1;
            }
            if j < tokens.len() && is_punct(&tokens[j], '(') {
                let mut depth = 0i32;
                let open = j;
                let mut close = j;
                while close < tokens.len() {
                    depth += depth_delta(&tokens[close]);
                    if depth == 0 {
                        break;
                    }
                    close += 1;
                }
                let mut k = open + 1;
                while k < close {
                    if tokens[k].kind == TokenKind::Ident
                        && k + 1 < close
                        && is_punct(&tokens[k + 1], ':')
                        && !is_path_sep(tokens, k + 1)
                    {
                        // Scan this parameter's type up to its `,` at
                        // paren depth 1.
                        let mut depth = 0i32;
                        let mut end = k + 2;
                        while end < close {
                            if depth == 0 && is_punct(&tokens[end], ',') {
                                break;
                            }
                            depth += depth_delta(&tokens[end]);
                            end += 1;
                        }
                        if mentions_hash_type(tokens, k + 2, end) {
                            b.names.push(tokens[k].text.clone());
                        }
                        k = end + 1;
                    } else {
                        k += 1;
                    }
                }
                i = close;
                continue;
            }
        } else if is_ident(&tokens[i], "struct") {
            let mut j = i + 1;
            while j < tokens.len()
                && !is_punct(&tokens[j], '{')
                && !is_punct(&tokens[j], '(')
                && !is_punct(&tokens[j], ';')
            {
                j += 1;
            }
            if j < tokens.len() && is_punct(&tokens[j], '{') {
                let open = j;
                let mut depth = 0i32;
                let mut close = j;
                while close < tokens.len() {
                    depth += depth_delta(&tokens[close]);
                    if depth == 0 {
                        break;
                    }
                    close += 1;
                }
                let mut k = open + 1;
                while k < close {
                    if tokens[k].kind == TokenKind::Ident
                        && k + 1 < close
                        && is_punct(&tokens[k + 1], ':')
                        && !is_path_sep(tokens, k + 1)
                    {
                        let mut depth = 0i32;
                        let mut end = k + 2;
                        while end < close {
                            if depth == 0 && is_punct(&tokens[end], ',') {
                                break;
                            }
                            depth += depth_delta(&tokens[end]);
                            end += 1;
                        }
                        if mentions_hash_type(tokens, k + 2, end) {
                            b.fields.push(tokens[k].text.clone());
                        }
                        k = end + 1;
                    } else {
                        k += 1;
                    }
                }
                i = close;
                continue;
            }
        }
        i += 1;
    }
    b.names.sort();
    b.names.dedup();
    b.fields.sort();
    b.fields.dedup();
    b
}

/// True when the statement containing the iteration at `at` funnels into an
/// order-insensitive sink.
fn has_order_insensitive_sink(tokens: &[Token], at: usize) -> bool {
    let end = statement_end(tokens, at);
    let mut j = at;
    while j < end {
        let t = &tokens[j];
        if t.kind == TokenKind::Ident {
            if ORDER_INSENSITIVE_SINKS.contains(&t.text.as_str()) {
                return true;
            }
            if t.text == "collect" {
                // `collect::<BTreeMap<_, _>>()` and friends.
                let scan_to = statement_end(tokens, j + 1).min(j + 12);
                if tokens[j + 1..scan_to].iter().any(|t| {
                    t.kind == TokenKind::Ident
                        && ORDER_INSENSITIVE_COLLECTS.contains(&t.text.as_str())
                }) {
                    return true;
                }
            }
        }
        j += 1;
    }
    // `let ordered: BTreeMap<_, _> = map.iter()….collect();` — the collect
    // target annotated on the binding instead of a turbofish. Requires both
    // a `collect` in the statement and an ordered/unordered re-collection
    // type ahead of the iteration site.
    let start = statement_start(tokens, at);
    tokens[at..end]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "collect")
        && tokens[start..at].iter().any(|t| {
            t.kind == TokenKind::Ident && ORDER_INSENSITIVE_COLLECTS.contains(&t.text.as_str())
        })
}

/// Walk back from `at` to the token just after the previous `;`/`{`/`}` —
/// the (heuristic) start of the enclosing statement.
fn statement_start(tokens: &[Token], at: usize) -> usize {
    let mut i = at.min(tokens.len());
    while i > 0 {
        let t = &tokens[i - 1];
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        i -= 1;
    }
    i
}

fn push(diags: &mut Vec<Diagnostic>, path: &str, line: usize, rule: &str, message: String) {
    diags.push(Diagnostic {
        file: path.to_string(),
        line,
        rule: rule.to_string(),
        message,
    });
}

fn rule_hash_iter(path: &str, tokens: &[Token], mask: &[bool], diags: &mut Vec<Diagnostic>) {
    let bindings = collect_hash_bindings(tokens, mask);
    let bound =
        |t: &Token| t.kind == TokenKind::Ident && bindings.names.binary_search(&t.text).is_ok();
    let field =
        |t: &Token| t.kind == TokenKind::Ident && bindings.fields.binary_search(&t.text).is_ok();
    let mut i = 0usize;
    while i < tokens.len() {
        if mask[i] {
            i += 1;
            continue;
        }
        // `name.iter()` / `x.field.iter()` forms.
        if i + 2 < tokens.len()
            && is_punct(&tokens[i + 1], '.')
            && tokens[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&tokens[i + 2].text.as_str())
            && i + 3 < tokens.len()
            && is_punct(&tokens[i + 3], '(')
            // A bare name must match a local/param binding; a `.field`
            // access must match a hash-typed struct field — a field that
            // merely shares a local's name is not hash-bound.
            && (if is_punct_prev_dot(tokens, i) {
                field(&tokens[i])
            } else {
                bound(&tokens[i])
            })
        {
            if !has_order_insensitive_sink(tokens, i + 2) {
                push(
                    diags,
                    path,
                    tokens[i + 2].line,
                    "hash_iter",
                    format!(
                        "iteration over hash container `{}` has nondeterministic order; \
                         sort first, collect into a BTreeMap/BTreeSet, or justify with \
                         `// lint:allow(hash_iter) <reason>`",
                        tokens[i].text
                    ),
                );
            }
            i += 3;
            continue;
        }
        // `for pat in [&mut] name {` / `for pat in &self.field {` forms.
        if is_ident(&tokens[i], "for") {
            if let Some((expr_start, block)) = for_loop_expr(tokens, i) {
                let expr = strip_refs(tokens, expr_start, block);
                let hit = match block.saturating_sub(expr) {
                    1 if bound(&tokens[expr]) => Some(tokens[expr].text.clone()),
                    3 if tokens[expr].kind == TokenKind::Ident
                        && is_punct(&tokens[expr + 1], '.')
                        && field(&tokens[expr + 2]) =>
                    {
                        Some(tokens[expr + 2].text.clone())
                    }
                    _ => None,
                };
                if let Some(name) = hit {
                    if !mask[i] {
                        push(
                            diags,
                            path,
                            tokens[i].line,
                            "hash_iter",
                            format!(
                                "for-loop over hash container `{name}` has nondeterministic \
                                 order; sort first, collect into a BTreeMap/BTreeSet, or \
                                 justify with `// lint:allow(hash_iter) <reason>`"
                            ),
                        );
                    }
                }
            }
        }
        i += 1;
    }
}

/// True when token `i` is preceded by a `.` (it is a field access, not a
/// free variable).
fn is_punct_prev_dot(tokens: &[Token], i: usize) -> bool {
    i > 0 && is_punct(&tokens[i - 1], '.')
}

/// For a `for` keyword at `i`, return (iterated-expression start, index of
/// the body `{`), or None if the loop shape is unexpected.
fn for_loop_expr(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = i + 1;
    // Find `in` at pattern depth 0.
    loop {
        let t = tokens.get(j)?;
        if depth == 0 && is_ident(t, "in") {
            break;
        }
        depth += depth_delta(t);
        j += 1;
    }
    let expr_start = j + 1;
    let mut depth = 0i32;
    let mut k = expr_start;
    loop {
        let t = tokens.get(k)?;
        if depth == 0 && is_punct(t, '{') {
            return Some((expr_start, k));
        }
        depth += depth_delta(t);
        k += 1;
    }
}

/// Skip leading `&`, `mut` in an iterated expression.
fn strip_refs(tokens: &[Token], mut i: usize, end: usize) -> usize {
    while i < end && (is_punct(&tokens[i], '&') || is_ident(&tokens[i], "mut")) {
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// D2: wall_clock

fn rule_wall_clock(path: &str, tokens: &[Token], mask: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `Instant::now` / `SystemTime::now`.
        if (t.text == "Instant" || t.text == "SystemTime")
            && is_path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|n| is_ident(n, "now"))
        {
            push(
                diags,
                path,
                t.line,
                "wall_clock",
                format!(
                    "`{}::now` reads the wall clock outside the approved modules \
                     (cost.rs, bench, datagen); virtual-time paths must stay \
                     deterministic — derive the value from job state or justify with \
                     `// lint:allow(wall_clock) <reason>`",
                    t.text
                ),
            );
        }
        if t.text == "thread_rng" && tokens.get(i + 1).is_some_and(|n| is_punct(n, '(')) {
            push(
                diags,
                path,
                t.line,
                "wall_clock",
                "`thread_rng` is OS-seeded and nondeterministic; use the seeded \
                 datagen RNG or justify with `// lint:allow(wall_clock) <reason>`"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// D3: relaxed

/// Non-`SeqCst` orderings D3 flags: each use must argue why the weaker
/// ordering is still correct (`Relaxed`: why no ordering at all is needed;
/// `Acquire`/`Release`/`AcqRel`: which store/load pair it synchronizes with).
const D3_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

fn rule_relaxed(path: &str, tokens: &[Token], mask: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        if is_ident(&tokens[i], "Ordering") && is_path_sep(tokens, i + 1) {
            let Some(variant) = tokens.get(i + 3) else {
                continue;
            };
            for ord in D3_ORDERINGS {
                if is_ident(variant, ord) {
                    push(
                        diags,
                        path,
                        variant.line,
                        "relaxed",
                        format!(
                            "`Ordering::{ord}` on a cross-task atomic needs a written safety \
                             argument: add `// lint:allow(relaxed) <why this ordering suffices>`"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// D4: panic_path

fn rule_panic_path(path: &str, tokens: &[Token], mask: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let method_call = |name: &str| {
            is_ident(t, name)
                && i > 0
                && is_punct(&tokens[i - 1], '.')
                && tokens.get(i + 1).is_some_and(|n| is_punct(n, '('))
        };
        if method_call("unwrap") || method_call("expect") {
            push(
                diags,
                path,
                t.line,
                "panic_path",
                format!(
                    "`.{}()` in a pipeline crate aborts the whole job on an internal \
                     bug; route the failure through the crate's error type or justify with \
                     `// lint:allow(panic_path) <reason>`",
                    t.text
                ),
            );
        }
        if is_ident(t, "panic") && tokens.get(i + 1).is_some_and(|n| is_punct(n, '!')) {
            push(
                diags,
                path,
                t.line,
                "panic_path",
                "`panic!` in a pipeline crate aborts the whole job; route the \
                 failure through the crate's error type or justify with \
                 `// lint:allow(panic_path) <reason>`"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// D5: direct_fs

fn rule_direct_fs(path: &str, tokens: &[Token], mask: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `std::fs` (including `use std::fs::…`).
        let std_fs = t.text == "std"
            && is_path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|n| is_ident(n, "fs"));
        // Bare `fs::…` via `use std::fs;` — skip when preceded by `::`
        // (that occurrence is already flagged as part of `std::fs`).
        let bare_fs =
            t.text == "fs" && is_path_sep(tokens, i + 1) && !(i >= 2 && is_path_sep(tokens, i - 2));
        if std_fs || bare_fs {
            push(
                diags,
                path,
                t.line,
                "direct_fs",
                "`std::fs` bypasses the fault-injectable VFS seam, so chaos suites \
                 cannot cover this I/O; route it through `pper_vfs::Vfs` or justify \
                 with `// lint:allow(direct_fs) <reason>`"
                    .to_string(),
            );
            continue;
        }
        // `File::open(…)`, `OpenOptions::new(…)` associated calls.
        if D5_FS_TYPES.contains(&t.text.as_str()) && is_path_sep(tokens, i + 1) {
            push(
                diags,
                path,
                t.line,
                "direct_fs",
                format!(
                    "direct `{}::` file access bypasses the fault-injectable VFS seam; \
                     route it through `pper_vfs::Vfs` or justify with \
                     `// lint:allow(direct_fs) <reason>`",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D1_PATH: &str = "crates/mapreduce/src/example.rs";

    fn rules_of(path: &str, src: &str) -> Vec<String> {
        lint_source(path, src, false)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn hash_iter_flags_let_binding_iteration() {
        let src = "fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); \
                   for (k, v) in m.iter() { emit(k, v); } }";
        assert_eq!(rules_of(D1_PATH, src), vec!["hash_iter"]);
    }

    #[test]
    fn hash_iter_flags_for_loop_over_ref() {
        let src = "fn f() { let m = HashSet::new(); for k in &m { emit(k); } }";
        assert_eq!(rules_of(D1_PATH, src), vec!["hash_iter"]);
    }

    #[test]
    fn hash_iter_exempts_order_insensitive_sinks() {
        let src = "fn f() { let m: HashMap<u32, u64> = HashMap::new(); \
                   let total: u64 = m.values().sum(); \
                   let sorted: BTreeMap<u32, u64> = m.into_iter().collect::<BTreeMap<_, _>>(); }";
        assert!(rules_of(D1_PATH, src).is_empty());
    }

    #[test]
    fn hash_iter_exempts_let_annotated_ordered_collect() {
        // The collect target named on the binding, not as a turbofish.
        let src = "fn f(m: HashMap<String, u64>) { \
                   let ordered: BTreeMap<String, u64> = \
                   m.iter().map(|(k, v)| (k.clone(), *v)).collect(); }";
        assert!(rules_of(D1_PATH, src).is_empty());
        // A Vec annotation must NOT launder the order.
        let src = "fn f(m: HashMap<String, u64>) { \
                   let v: Vec<u64> = m.values().copied().collect(); }";
        assert_eq!(rules_of(D1_PATH, src), vec!["hash_iter"]);
    }

    #[test]
    fn hash_iter_respects_allow_with_reason() {
        let src = "fn f() { let m = FxHashMap::default();\n\
                   // lint:allow(hash_iter) counts are folded into a commutative sum\n\
                   for k in m.keys() { bump(k); } }";
        assert!(rules_of(D1_PATH, src).is_empty());
    }

    #[test]
    fn hash_iter_only_applies_to_pipeline_crates() {
        let src = "fn f() { let m = HashMap::new(); for k in m.keys() { emit(k); } }";
        assert!(rules_of("crates/datagen/src/x.rs", src).is_empty());
        assert!(rules_of("crates/bench/src/x.rs", src).is_empty());
        for krate in PIPELINE_CRATES {
            let path = format!("crates/{krate}/src/x.rs");
            assert_eq!(rules_of(&path, src), vec!["hash_iter"], "{path}");
        }
    }

    #[test]
    fn hash_iter_sees_struct_fields() {
        let src = "struct S { cache: HashMap<u32, u32> } \
                   impl S { fn f(&self) { for k in self.cache.keys() { emit(k); } } }";
        assert_eq!(rules_of(D1_PATH, src), vec!["hash_iter"]);
    }

    #[test]
    fn wall_clock_flags_and_scopes() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); \
                   let r = thread_rng(); }";
        assert_eq!(
            rules_of("crates/er-core/src/x.rs", src),
            vec!["wall_clock", "wall_clock", "wall_clock"]
        );
        assert!(rules_of("crates/bench/src/x.rs", src).is_empty());
        assert!(rules_of("crates/datagen/src/x.rs", src).is_empty());
        assert!(rules_of("crates/mapreduce/src/cost.rs", src).is_empty());
    }

    #[test]
    fn relaxed_requires_justification() {
        let src = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(rules_of("crates/simil/src/x.rs", src), vec!["relaxed"]);
        let ok = "fn f(c: &AtomicUsize) {\n\
                  // lint:allow(relaxed) pure ticket counter, no data published\n\
                  c.fetch_add(1, Ordering::Relaxed); }";
        assert!(rules_of("crates/simil/src/x.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_covers_acquire_release_acqrel() {
        for ord in ["Acquire", "Release", "AcqRel"] {
            let src = format!("fn f(c: &AtomicU64) {{ c.load(Ordering::{ord}); }}");
            assert_eq!(
                rules_of("crates/mapreduce/src/exec.rs", &src),
                vec!["relaxed"],
                "Ordering::{ord} must need a justification"
            );
            let ok = format!(
                "fn f(c: &AtomicU64) {{\n\
                 // lint:allow(relaxed) pairs with the release store in take()\n\
                 c.load(Ordering::{ord}); }}"
            );
            assert!(rules_of("crates/mapreduce/src/exec.rs", &ok).is_empty());
        }
        // SeqCst is the default-safe ordering and stays unflagged.
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::SeqCst); }";
        assert!(rules_of("crates/mapreduce/src/exec.rs", src).is_empty());
    }

    #[test]
    fn panic_path_covers_every_pipeline_crate_file() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for path in [
            "crates/mapreduce/src/runtime.rs",
            "crates/mapreduce/src/job.rs",
            "crates/er-core/src/job2.rs",
            "crates/schedule/src/plan.rs",
            "crates/simil/src/prepared.rs",
        ] {
            assert_eq!(rules_of(path, src), vec!["panic_path"], "{path}");
        }
        let src = "fn f() { panic!(\"boom\"); }";
        assert_eq!(
            rules_of("crates/mapreduce/src/shuffle.rs", src),
            vec!["panic_path"]
        );
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"claimed\") }";
        assert_eq!(
            rules_of("crates/mapreduce/src/exec.rs", src),
            vec!["panic_path"]
        );
        // Outside the pipeline a panic costs a tool run, not a job.
        assert!(rules_of("crates/bench/src/lib.rs", src).is_empty());
        assert!(rules_of("crates/datagen/src/books.rs", src).is_empty());
        assert!(rules_of("src/bin/pper.rs", src).is_empty());
    }

    #[test]
    fn journal_is_covered_by_every_scoped_rule() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(
            rules_of("crates/journal/src/frame.rs", src),
            vec!["panic_path"]
        );
        assert_eq!(
            rules_of("crates/journal/src/store.rs", src),
            vec!["panic_path"]
        );
        let src = "fn f() { let m = HashMap::new(); for k in m.keys() { emit(k); } \
                   let t = Instant::now(); }";
        assert_eq!(
            rules_of("crates/journal/src/journal.rs", src),
            vec!["hash_iter", "wall_clock"]
        );
    }

    #[test]
    fn direct_fs_scopes_to_pipeline_crates() {
        let src = "fn f() { let bytes = std::fs::read(\"x\").ok(); }";
        for path in [
            "crates/store/src/lib.rs",
            "crates/journal/src/store.rs",
            "crates/mapreduce/src/extsort.rs",
            "crates/mapreduce/src/runtime.rs",
            "crates/er-core/src/durable.rs",
        ] {
            assert_eq!(rules_of(path, src), vec!["direct_fs"], "{path}");
        }
        // Elsewhere (and in the vfs crate itself) direct fs access is fine.
        assert!(rules_of("crates/vfs/src/lib.rs", src).is_empty());
        assert!(rules_of("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn direct_fs_flags_type_entry_points_and_bare_fs() {
        let src = "use std::fs;\n\
                   fn f() {\n\
                   let _ = fs::remove_file(\"x\");\n\
                   let f = File::open(\"x\");\n\
                   let o = OpenOptions::new();\n\
                   }";
        let rules = rules_of("crates/store/src/lib.rs", src);
        // One for the use, one for bare `fs::`, one each for File/OpenOptions.
        assert_eq!(rules, vec!["direct_fs"; 4], "{rules:?}");
    }

    #[test]
    fn direct_fs_respects_allow_and_cfg_test() {
        let src = "fn f() {\n\
                   // lint:allow(direct_fs) mmap setup probes the real fs once at open\n\
                   let m = std::fs::metadata(\"x\"); }\n\
                   #[cfg(test)] mod tests { fn t() { std::fs::write(\"x\", b\"y\"); } }";
        assert!(rules_of("crates/store/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn ok() {} #[cfg(test)] mod tests { use super::*; \
                   fn f(x: Option<u32>) -> u32 { let t = Instant::now(); x.unwrap() } }";
        assert!(rules_of("crates/mapreduce/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn tests_dirs_are_exempt() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(rules_of("crates/mapreduce/tests/integration.rs", src).is_empty());
    }

    #[test]
    fn allow_annotations_are_validated() {
        let src = "// lint:allow(hash_iter)\nfn f() {}\n// lint:allow(bogus) reason\n";
        let rules = rules_of("crates/simil/src/x.rs", src);
        assert!(rules.contains(&"allow_reason".to_string()), "{rules:?}");
        assert!(rules.contains(&"allow_unknown".to_string()), "{rules:?}");
    }

    #[test]
    fn dead_allows_are_reported_only_on_request() {
        let src = "fn f() {\n\
                   // lint:allow(wall_clock) coarse progress stamp, not in compare path\n\
                   let t = Instant::now(); }\n\
                   // lint:allow(hash_iter) nothing here iterates\n\
                   fn unrelated() {}\n";
        assert!(lint_source("crates/er-core/src/x.rs", src, false).is_empty());
        let checked = lint_source("crates/er-core/src/x.rs", src, true);
        assert_eq!(checked.len(), 1, "{checked:?}");
        assert_eq!(checked[0].rule, "dead_allow");
        assert!(checked[0].message.contains("hash_iter"));
    }

    #[test]
    fn diagnostics_carry_file_and_line() {
        let src = "fn a() {}\nfn f() {\n    let t = Instant::now();\n}\n";
        let diags = lint_source("crates/er-core/src/basic.rs", src, false);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[0].file, "crates/er-core/src/basic.rs");
        assert!(diags[0]
            .render()
            .starts_with("crates/er-core/src/basic.rs:3: [wall_clock]"));
    }
}
