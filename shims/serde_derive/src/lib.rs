//! Offline stand-in for `serde_derive`.
//!
//! Parses `struct` definitions directly from the token stream (no
//! `syn`/`quote` — those aren't available offline) and emits
//! implementations of the shim `serde`'s `Serialize`/`Deserialize`
//! traits, which route through the owned `serde::Value` data model.
//!
//! Supported shape — the one this workspace derives (the dataset's
//! entities, ground truth and JSONL headers, the result fingerprint and
//! the bench reports): structs with named fields, with lifetime/type
//! generics on the container. Any other item (tuple or unit struct,
//! enum, union) panics naming the type. Serde attributes
//! (`#[serde(...)]`) are not supported and will simply be ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Input {
    name: String,
    /// Full generic parameter list incl. bounds, e.g. `<'a, T: Clone>`.
    generics_decl: String,
    /// Generic arguments for the use site, e.g. `<'a, T>`.
    generics_use: String,
    /// Field names in declaration order.
    fields: Vec<String>,
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);

    let item_kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected an item keyword, found `{other}`"),
    };
    i += 1;

    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected item name, found `{other}`"),
    };
    i += 1;

    let (generics_decl, generics_use) = parse_generics(&tokens, &mut i);

    // Skip a `where` clause if present (none in this workspace, but cheap
    // to tolerate): everything up to the braced body.
    while i < tokens.len()
        && !matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Brace)
    {
        i += 1;
    }
    let fields = match tokens.get(i) {
        Some(TokenTree::Group(g)) if item_kind == "struct" => parse_named_fields(g.stream()),
        _ => panic!(
            "derive(Serialize/Deserialize) supports only structs with named fields; `{name}` is not one"
        ),
    };

    Input {
        name,
        generics_decl,
        generics_use,
        fields,
    }
}

/// Skip attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1; // the [...] group
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(
                    tokens.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Parse `<...>` generics at position `i` (if any) into the declaration
/// string (with bounds) and the use-site argument string (without).
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> (String, String) {
    if !matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return (String::new(), String::new());
    }
    *i += 1; // '<'
    let mut depth = 1usize;
    let mut inner: Vec<TokenTree> = Vec::new();
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                inner.push(tokens[*i].clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    break;
                }
                inner.push(tokens[*i].clone());
            }
            t => inner.push(t.clone()),
        }
        *i += 1;
    }

    let decl = format!("<{}>", tokens_to_string(&inner));

    // Use-site arguments: for each comma-separated param take the
    // lifetime (`'a`) or the first identifier (skipping `const`).
    let mut args: Vec<String> = Vec::new();
    for param in split_top_level(&inner) {
        let mut j = 0;
        while j < param.len() {
            match &param[j] {
                TokenTree::Punct(p) if p.as_char() == '\'' => {
                    if let Some(TokenTree::Ident(id)) = param.get(j + 1) {
                        args.push(format!("'{id}"));
                    }
                    break;
                }
                TokenTree::Ident(id) if id.to_string() == "const" => {
                    j += 1;
                }
                TokenTree::Ident(id) => {
                    args.push(id.to_string());
                    break;
                }
                _ => j += 1,
            }
        }
    }
    let use_site = if args.is_empty() {
        String::new()
    } else {
        format!("<{}>", args.join(", "))
    };
    (decl, use_site)
}

fn tokens_to_string(tokens: &[TokenTree]) -> String {
    let stream: TokenStream = tokens.iter().cloned().collect();
    stream.to_string()
}

/// Split a token list on commas at angle-bracket depth zero. Nested
/// `()`/`[]`/`{}` arrive as single `Group` tokens, so only `<`/`>` need
/// explicit depth tracking; `->` is skipped so return types never
/// unbalance it.
fn split_top_level(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut depth = 0usize;
    let mut k = 0;
    while k < tokens.len() {
        match &tokens[k] {
            TokenTree::Punct(p) if p.as_char() == '-' => {
                // A possible `->`: copy both tokens without counting the '>'.
                cur.push(tokens[k].clone());
                if matches!(tokens.get(k + 1), Some(TokenTree::Punct(q)) if q.as_char() == '>') {
                    cur.push(tokens[k + 1].clone());
                    k += 1;
                }
            }
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                cur.push(tokens[k].clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth = depth.saturating_sub(1);
                cur.push(tokens[k].clone());
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                k += 1;
                continue;
            }
            t => cur.push(t.clone()),
        }
        k += 1;
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Field names of a named-fields body, in order.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    for field in split_top_level(&tokens) {
        let mut j = 0;
        skip_attrs_and_vis(&field, &mut j);
        if let Some(TokenTree::Ident(id)) = field.get(j) {
            names.push(id.to_string());
        }
    }
    names
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn impl_header(input: &Input, trait_name: &str) -> String {
    format!(
        "#[automatically_derived]\nimpl{} ::serde::{} for {}{} {{\n",
        input.generics_decl, trait_name, input.name, input.generics_use
    )
}

fn gen_serialize(input: &Input) -> String {
    let mut out = impl_header(input, "Serialize");
    out.push_str("fn to_value(&self) -> ::serde::Value {\n");
    out.push_str(
        "let mut __m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n",
    );
    for n in &input.fields {
        out.push_str(&format!(
            "__m.push((::std::string::String::from(\"{n}\"), ::serde::Serialize::to_value(&self.{n})));\n"
        ));
    }
    out.push_str("::serde::Value::Map(__m)\n}\n}\n");
    out
}

fn gen_deserialize(input: &Input) -> String {
    let mut out = impl_header(input, "Deserialize");
    let ty = &input.name;
    out.push_str(&format!(
        "fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
         let __m = ::serde::expect_map(__v, \"{ty}\")?;\n::std::result::Result::Ok({ty} {{\n"
    ));
    for n in &input.fields {
        out.push_str(&format!("{n}: ::serde::field(__m, \"{n}\")?,\n"));
    }
    out.push_str("})\n}\n}\n");
    out
}
