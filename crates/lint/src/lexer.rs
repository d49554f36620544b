//! A minimal Rust lexer sufficient for token-level invariant checks.
//!
//! The workspace builds fully offline, so a real parser (`syn`) is not
//! available; the rules in [`crate::rules`] only need an honest token
//! stream — identifiers, punctuation, and literals with line numbers,
//! with comments and string contents stripped so `"Instant::now"` inside
//! a string can never trigger a rule. Comments are not discarded
//! entirely: `lint:allow(...)` annotations are harvested from them, and
//! comment-only lines are recorded so an allow above a statement can be
//! attached to it.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Token text; punctuation carries the single character, literals an
    /// empty string (their content is irrelevant to every rule).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    Ident,
    Lifetime,
    Number,
    /// String, raw-string, byte-string, or char literal.
    Literal,
    Punct,
}

pub(crate) fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

pub(crate) fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.as_bytes() == [c as u8]
}

/// A `lint:allow(rule) reason` annotation harvested from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowAnnotation {
    pub rule: String,
    /// Free-text justification following the closing paren (trimmed).
    pub reason: String,
    /// 1-based line the annotation sits on.
    pub line: usize,
}

/// Lexer output: the token stream plus comment-derived side tables.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowAnnotation>,
    /// Lines that contain only comments and/or whitespace (1-based). Used
    /// to let an allow annotation above a statement cover it.
    pub comment_only_lines: Vec<usize>,
    /// Lines whose comment text contains a `SAFETY:` marker (1-based),
    /// consumed by rule U1 (`safety_comment`).
    pub safety_lines: Vec<usize>,
}

impl LexedFile {
    /// All allow annotations covering `line`: annotations on the line
    /// itself plus any in the contiguous run of comment-only lines
    /// directly above it.
    pub fn allows_covering(&self, line: usize) -> impl Iterator<Item = &AllowAnnotation> {
        let mut first = line;
        while first > 1 && self.comment_only_lines.binary_search(&(first - 1)).is_ok() {
            first -= 1;
        }
        self.allows
            .iter()
            .filter(move |a| a.line >= first && a.line <= line)
    }

    /// True when a `SAFETY:` comment covers `line`: on the line itself or
    /// in the contiguous run of comment-only lines directly above it.
    pub fn safety_covering(&self, line: usize) -> bool {
        let mut first = line;
        while first > 1 && self.comment_only_lines.binary_search(&(first - 1)).is_ok() {
            first -= 1;
        }
        self.safety_lines.iter().any(|&l| l >= first && l <= line)
    }
}

/// Lex one file. Unterminated literals/comments are tolerated (the rest of
/// the file is swallowed) — the linter must never panic on source it reads.
pub fn lex(src: &str) -> LexedFile {
    let bytes = src.as_bytes();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line = 1usize;
    // Per-line flags for comment-only detection.
    let mut line_has_code = false;
    let mut line_has_comment = false;
    let mut line_flags: Vec<(usize, bool, bool)> = Vec::new();

    macro_rules! newline {
        () => {
            line_flags.push((line, line_has_code, line_has_comment));
            line_has_code = false;
            line_has_comment = false;
            line += 1;
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                newline!();
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                line_has_comment = true;
                harvest_allow(&src[start..i], line, &mut out.allows);
                harvest_safety(&src[start..i], line, &mut out.safety_lines);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                line_has_comment = true;
                let start_line = line;
                let start = i;
                i += 2;
                let mut depth = 1usize;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        newline!();
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                line_has_comment = true;
                harvest_allow(&src[start..i], start_line, &mut out.allows);
                harvest_safety(&src[start..i], start_line, &mut out.safety_lines);
            }
            b'"' => {
                line_has_code = true;
                i = skip_string(bytes, i + 1, &mut line, &mut line_flags);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                line_has_code = true;
                let tok_line = line;
                i = skip_raw_or_byte_string(bytes, i, &mut line, &mut line_flags);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
            }
            b'\'' => {
                line_has_code = true;
                // Distinguish lifetimes ('a, 'static) from char literals
                // ('a', '\n', '字'): a lifetime is a quote + ident with no
                // closing quote right after the ident.
                let (tok, next) = lex_quote(src, i, line);
                out.tokens.push(tok);
                i = next;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                line_has_code = true;
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                line_has_code = true;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    // Stop a float at a `..` range or a method call on a literal.
                    if bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|&n| !n.is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: String::new(),
                    line,
                });
            }
            _ => {
                line_has_code = true;
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    line_flags.push((line, line_has_code, line_has_comment));
    out.comment_only_lines = line_flags
        .iter()
        .filter(|&&(_, code, comment)| comment && !code)
        .map(|&(l, _, _)| l)
        .collect();
    out
}

/// Multi-byte UTF-8 continuation bytes never collide with the ASCII
/// delimiters we scan for, so byte-wise scanning is sound.
fn skip_string(
    bytes: &[u8],
    mut i: usize,
    line: &mut usize,
    line_flags: &mut Vec<(usize, bool, bool)>,
) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                line_flags.push((*line, true, false));
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  b"..."  br#"..."#  rb... (not real Rust, ignored)
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        return bytes.get(j) == Some(&b'"');
    }
    bytes[i] == b'b' && bytes.get(j) == Some(&b'"')
}

fn skip_raw_or_byte_string(
    bytes: &[u8],
    mut i: usize,
    line: &mut usize,
    line_flags: &mut Vec<(usize, bool, bool)>,
) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if !raw => i += 2,
            b'\n' => {
                line_flags.push((*line, true, false));
                *line += 1;
                i += 1;
            }
            b'"' => {
                let mut j = i + 1;
                let mut seen = 0usize;
                while seen < hashes && bytes.get(j) == Some(&b'#') {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn lex_quote(src: &str, i: usize, line: usize) -> (Token, usize) {
    let bytes = src.as_bytes();
    let rest = &bytes[i + 1..];
    // Lifetime: 'ident not followed by a closing quote.
    if rest
        .first()
        .is_some_and(|&c| c == b'_' || c.is_ascii_alphabetic())
    {
        let mut j = 1;
        while rest
            .get(j)
            .is_some_and(|&c| c == b'_' || c.is_ascii_alphanumeric())
        {
            j += 1;
        }
        if rest.get(j) != Some(&b'\'') {
            return (
                Token {
                    kind: TokenKind::Lifetime,
                    text: String::new(),
                    line,
                },
                i + 1 + j,
            );
        }
    }
    // Char literal: skip escape or one (possibly multi-byte) char, then
    // scan to the closing quote.
    let mut j = i + 1;
    if bytes.get(j) == Some(&b'\\') {
        j += 2;
    } else {
        j += 1;
        while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
            j += 1;
        }
    }
    while j < bytes.len() && bytes[j] != b'\'' {
        j += 1;
    }
    (
        Token {
            kind: TokenKind::Literal,
            text: String::new(),
            line,
        },
        (j + 1).min(bytes.len()),
    )
}

/// Pull every `lint:allow(rule) reason` out of one comment's text. The
/// reason runs to the end of the comment line (block comments: to the end
/// of the physical line the annotation starts on).
fn harvest_allow(comment: &str, first_line: usize, out: &mut Vec<AllowAnnotation>) {
    for (offset, text) in comment.lines().enumerate() {
        let mut rest = text;
        while let Some(pos) = rest.find("lint:allow(") {
            let after = &rest[pos + "lint:allow(".len()..];
            let Some(close) = after.find(')') else {
                break;
            };
            let rule = after[..close].trim().to_string();
            let reason = after[close + 1..]
                .trim()
                .trim_end_matches("*/")
                .trim()
                .to_string();
            out.push(AllowAnnotation {
                rule,
                reason,
                line: first_line + offset,
            });
            rest = &after[close + 1..];
        }
    }
}

/// Record the line of every `SAFETY:` marker in one comment's text, for
/// rule U1.
fn harvest_safety(comment: &str, first_line: usize, out: &mut Vec<usize>) {
    for (offset, text) in comment.lines().enumerate() {
        if text.contains("SAFETY:") {
            out.push(first_line + offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_idents() {
        let src = r##"
            // Instant::now in a comment
            /* HashMap.iter() in a block /* nested */ comment */
            let s = "Instant::now()";
            let r = r#"SystemTime::now()"#;
            let c = 'x';
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'y'; let nl = '\\n';";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        // After the char literals the lexer resynchronises on real idents.
        assert!(lexed.tokens.iter().any(|t| t.text == "nl"));
    }

    #[test]
    fn allow_annotations_are_harvested_with_reasons() {
        let src = "\n// lint:allow(relaxed) cursor is a pure ticket dispenser\nlet x = 1;\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        let a = &lexed.allows[0];
        assert_eq!(a.rule, "relaxed");
        assert_eq!(a.line, 2);
        assert!(a.reason.contains("ticket dispenser"));
        // Line 2 is comment-only, so the allow covers line 3.
        assert!(lexed.allows_covering(3).any(|a| a.rule == "relaxed"));
        assert!(lexed.allows_covering(1).next().is_none());
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src = "let x = m.iter(); // lint:allow(hash_iter) folded commutatively below\n";
        let lexed = lex(src);
        assert!(lexed.allows_covering(1).any(|a| a.rule == "hash_iter"));
    }

    #[test]
    fn safety_comments_are_harvested_and_cover_code_below() {
        let src = "\n// SAFETY: the mapping is immutable for its lifetime\n\
                   // and never handed out mutably.\nunsafe impl Send for M {}\n\
                   \nunsafe impl Sync for M {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.safety_lines, vec![2]);
        assert!(lexed.safety_covering(4), "contiguous comment block above");
        assert!(!lexed.safety_covering(6), "blank+code break coverage");
        // Same-line marker also covers.
        let lexed = lex("let p = unsafe { deref(q) }; // SAFETY: q is live\n");
        assert!(lexed.safety_covering(1));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"line\nline\nline\";\nlet target = 1;\n";
        let lexed = lex(src);
        let t = lexed.tokens.iter().find(|t| t.text == "target").unwrap();
        assert_eq!(t.line, 4);
    }
}
