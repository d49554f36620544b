//! Cross-file call-graph taint propagation.
//!
//! The determinism invariants (rules D1–D5) protect whatever is *reachable*
//! from the deterministic entry points — map/reduce task bodies,
//! `Executor::run` dispatch, the shuffle builders, and journal replay — not
//! just whatever happens to live in a hot-path file. This module builds a
//! whole-workspace call graph from the [`crate::parser`] output, marks the
//! entry points, computes the reachable function set, and reports every
//! sink (wall-clock read, hash iteration, non-SeqCst atomic, hot-path
//! panic, direct `std::fs`) found inside it — with the full call chain from
//! the entry point in the diagnostic, so "a `HashMap::iter` two helpers
//! away from `reduce_partition`" is as visible as one in `runtime.rs`.
//!
//! Resolution is name-based and deliberately over-approximate (no type
//! inference): a method call `.score(…)` links to every workspace method
//! named `score`; qualified calls `T::f(…)` link to matching impl types,
//! module files, or imported crates. Over-approximation can only add
//! edges, so a sink the analysis reports as reachable should be treated as
//! reachable until a human argues otherwise in a `lint:allow`.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{CallSite, FnDef, ParsedFile};

/// Trait-dispatch entry points: an impl of `Trait::method` is a
/// deterministic task body or dispatch site.
const ENTRY_TRAIT_METHODS: &[(&str, &str)] = &[
    ("Mapper", "map"),
    ("Reducer", "reduce"),
    ("PartitionReducer", "reduce_partition"),
    ("Executor", "run"),
];

/// Inherent-method entry points, `(type, method)`: the shuffle builders and
/// journal replay.
const ENTRY_TYPE_METHODS: &[(&str, &str)] = &[
    ("GroupedPartition", "from_buckets"),
    ("GroupedPartition", "from_pairs"),
    ("GroupedPartition", "from_sorted_pairs"),
    ("GroupedPartition", "from_buckets_spilling"),
    ("JournalState", "replay"),
];

/// Free-function entry points, `(crate_dir, fn_name)`.
const ENTRY_FREE_FNS: &[(&str, &str)] = &[
    ("mapreduce", "shuffle_partitions"),
    ("mapreduce", "shuffle_partitions_spilling"),
    ("journal", "recover"),
];

/// One function node in the workspace graph.
pub struct FnNode {
    /// Index of the owning file in the analyzed set.
    pub file: usize,
    pub def: FnDef,
    /// Crate directory of the owning file (`mapreduce`, `er-core`, …).
    pub crate_dir: String,
    /// File stem of the owning file (`shuffle` for `shuffle.rs`).
    pub file_stem: String,
}

/// The workspace call graph plus the entry-point reachability solution.
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Resolved edges, caller → (callee, call line).
    pub edges: Vec<Vec<(usize, usize)>>,
    /// `Some((parent, call_line))` for reachable nodes (entry points have
    /// `parent == usize::MAX`), `None` for unreachable ones.
    reach: Vec<Option<(usize, usize)>>,
    /// Entry-point node ids.
    pub entries: Vec<usize>,
}

/// A human-readable label for an entry point: `Reducer::reduce`,
/// `GroupedPartition::from_buckets`, or a bare fn name.
fn entry_label(node: &FnNode) -> String {
    match (&node.def.impl_trait, &node.def.impl_type) {
        (Some(tr), _) => format!("{tr}::{}", node.def.name),
        (None, Some(ty)) => format!("{ty}::{}", node.def.name),
        _ => node.def.name.clone(),
    }
}

fn is_entry(node: &FnNode) -> bool {
    if node.def.masked {
        return false;
    }
    if let Some(tr) = &node.def.impl_trait {
        if ENTRY_TRAIT_METHODS
            .iter()
            .any(|&(t, m)| t == tr && m == node.def.name)
        {
            return true;
        }
    }
    if let Some(ty) = &node.def.impl_type {
        if node.def.impl_trait.is_none()
            && ENTRY_TYPE_METHODS
                .iter()
                .any(|&(t, m)| t == ty && m == node.def.name)
        {
            return true;
        }
    }
    node.def.impl_type.is_none()
        && ENTRY_FREE_FNS
            .iter()
            .any(|&(c, f)| c == node.crate_dir && f == node.def.name)
}

/// Map an imported crate ident (`pper_simil`) to its directory under
/// `crates/` (`simil`).
fn crate_dir_of_ident(ident: &str) -> Option<String> {
    ident
        .strip_prefix("pper_")
        .map(|rest| rest.replace('_', "-"))
}

impl CallGraph {
    /// Build the graph over the parsed files. `files[i]` must describe the
    /// same file as `parsed[i]`; `meta[i]` is `(crate_dir, file_stem)`.
    pub fn build(parsed: &[ParsedFile], meta: &[(String, String)]) -> CallGraph {
        let mut nodes: Vec<FnNode> = Vec::new();
        for (fi, pf) in parsed.iter().enumerate() {
            let (crate_dir, file_stem) = meta
                .get(fi)
                .cloned()
                .unwrap_or_else(|| (String::new(), String::new()));
            for def in &pf.fns {
                nodes.push(FnNode {
                    file: fi,
                    def: def.clone(),
                    crate_dir: crate_dir.clone(),
                    file_stem: file_stem.clone(),
                });
            }
        }

        // Name → node-id index, split by kind.
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut any_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.def.masked {
                continue; // test-only fns neither receive nor forward taint
            }
            any_by_name.entry(&n.def.name).or_default().push(id);
            if n.def.impl_type.is_some() {
                methods_by_name.entry(&n.def.name).or_default().push(id);
            } else {
                free_by_name.entry(&n.def.name).or_default().push(id);
            }
        }

        // Per-file import table: simple name → path.
        let imports: Vec<BTreeMap<&str, &str>> = parsed
            .iter()
            .map(|pf| {
                pf.imports
                    .iter()
                    .map(|im| (im.name.as_str(), im.path.as_str()))
                    .collect()
            })
            .collect();

        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes.len()];
        for (caller, node) in nodes.iter().enumerate() {
            if node.def.masked {
                continue;
            }
            for call in &node.def.calls {
                let targets = resolve(
                    call,
                    node,
                    &nodes,
                    &methods_by_name,
                    &free_by_name,
                    &any_by_name,
                    imports.get(node.file),
                );
                for t in targets {
                    if t != caller {
                        edges[caller].push((t, call.line));
                    }
                }
            }
            edges[caller].sort_unstable();
            edges[caller].dedup();
        }

        let mut entries: Vec<usize> = (0..nodes.len()).filter(|&i| is_entry(&nodes[i])).collect();
        entries.sort_unstable();

        // Multi-source BFS with parent pointers for chain reconstruction.
        let mut reach: Vec<Option<(usize, usize)>> = vec![None; nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in &entries {
            reach[e] = Some((usize::MAX, 0));
            queue.push_back(e);
        }
        while let Some(cur) = queue.pop_front() {
            for &(next, line) in &edges[cur] {
                if reach[next].is_none() {
                    reach[next] = Some((cur, line));
                    queue.push_back(next);
                }
            }
        }

        CallGraph {
            nodes,
            edges,
            reach,
            entries,
        }
    }

    /// Node ids of reachable functions owned by file `fi`.
    pub fn reachable_in_file(&self, fi: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&id| self.nodes[id].file == fi && self.reach[id].is_some())
            .collect()
    }

    /// The node (if any) in file `fi` whose body contains the sink on
    /// `line` — matched by token span having been impossible here, the
    /// innermost fn by line range is approximated at the caller instead.
    pub fn is_reachable(&self, id: usize) -> bool {
        self.reach.get(id).is_some_and(|r| r.is_some())
    }

    /// Render the call chain from an entry point down to `id`, e.g.
    /// `` `Reducer::reduce` (crates/er-core/src/basic.rs:40) → `score_block`
    /// (crates/simil/src/batch.rs:12) ``. `paths[f]` names file `f`.
    pub fn chain_to(&self, id: usize, paths: &[String]) -> String {
        let mut hops: Vec<usize> = Vec::new();
        let mut cur = id;
        let mut guard = 0usize;
        while guard <= self.nodes.len() {
            hops.push(cur);
            match self.reach.get(cur).copied().flatten() {
                Some((parent, _)) if parent != usize::MAX => cur = parent,
                _ => break,
            }
            guard += 1;
        }
        hops.reverse();
        let fallback = String::new();
        let parts: Vec<String> = hops
            .iter()
            .map(|&h| {
                let n = &self.nodes[h];
                let path = paths.get(n.file).unwrap_or(&fallback);
                let label = if self.reach[h].is_some_and(|(p, _)| p == usize::MAX) {
                    entry_label(n)
                } else {
                    n.def.name.clone()
                };
                format!("`{label}` ({path}:{line})", line = n.def.line)
            })
            .collect();
        parts.join(" → ")
    }

    /// Entry labels, for diagnostics and debugging.
    pub fn entry_labels(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|&e| entry_label(&self.nodes[e]))
            .collect()
    }
}

/// Resolve one call site to candidate node ids. Over-approximate by
/// design; an empty result means "nothing in the workspace can be the
/// callee" (std / external calls).
fn resolve(
    call: &CallSite,
    caller: &FnNode,
    nodes: &[FnNode],
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    any_by_name: &BTreeMap<&str, Vec<usize>>,
    imports: Option<&BTreeMap<&str, &str>>,
) -> Vec<usize> {
    let name = call.name.as_str();
    if call.method {
        // `.name(…)`: any workspace method with that name.
        return methods_by_name.get(name).cloned().unwrap_or_default();
    }
    if let Some(q) = &call.qualifier {
        let Some(cands) = any_by_name.get(name) else {
            return Vec::new();
        };
        let mut out: Vec<usize> = Vec::new();
        for &id in cands {
            let n = &nodes[id];
            let hit = n.def.impl_type.as_deref() == Some(q.as_str())
                || (q == "Self" && n.def.impl_type == caller.def.impl_type)
                || n.file_stem == *q
                || call
                    .root
                    .as_deref()
                    .and_then(crate_dir_of_ident)
                    .is_some_and(|dir| dir == n.crate_dir)
                || imports.is_some_and(|im| {
                    im.get(name).is_some_and(|path| {
                        path.split("::")
                            .next()
                            .and_then(crate_dir_of_ident)
                            .is_some_and(|dir| dir == n.crate_dir)
                    })
                });
            if hit {
                out.push(id);
            }
        }
        return out;
    }
    // Plain call: free fns, nearest scope first.
    let Some(cands) = free_by_name.get(name) else {
        return Vec::new();
    };
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| nodes[id].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    // Imported from a specific crate?
    if let Some(im) = imports {
        if let Some(path) = im.get(name) {
            if let Some(dir) = path.split("::").next().and_then(crate_dir_of_ident) {
                let from_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| nodes[id].crate_dir == dir)
                    .collect();
                if !from_crate.is_empty() {
                    return from_crate;
                }
            }
        }
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| nodes[id].crate_dir == caller.crate_dir)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.clone()
}

/// Find the node in `graph` owning file `fi` whose `fn` body most tightly
/// encloses `line` (by line heuristic: the fn with the greatest start line
/// ≤ the sink line among fns of that file whose body spans it, using token
/// spans mapped back through line numbers is approximated by start lines
/// since bodies do not interleave).
pub fn owner_of_line(graph: &CallGraph, fi: usize, line: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (id, n) in graph.nodes.iter().enumerate() {
        if n.file != fi || n.def.line > line {
            continue;
        }
        // `is_none_or` needs Rust 1.82; the workspace MSRV is 1.80.
        #[allow(clippy::unnecessary_map_or)]
        if best.map_or(true, |b| graph.nodes[b].def.line < n.def.line) {
            best = Some(id);
        }
    }
    best
}

/// The set of entry node ids as a sorted set, exposed for tests.
pub fn entry_set(graph: &CallGraph) -> BTreeSet<usize> {
    graph.entries.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::rules::cfg_test_mask;

    fn graph_of(files: &[(&str, &str)]) -> (CallGraph, Vec<String>) {
        let mut parsed = Vec::new();
        let mut meta = Vec::new();
        let mut paths = Vec::new();
        for (path, src) in files {
            let lexed = lex(src);
            let mask = cfg_test_mask(&lexed.tokens);
            parsed.push(parse_file(&lexed.tokens, &mask));
            let comps: Vec<&str> = path.split('/').collect();
            let crate_dir = comps
                .iter()
                .position(|&c| c == "crates")
                .and_then(|i| comps.get(i + 1))
                .copied()
                .unwrap_or("")
                .to_string();
            let stem = comps
                .last()
                .and_then(|f| f.strip_suffix(".rs"))
                .unwrap_or("")
                .to_string();
            meta.push((crate_dir, stem));
            paths.push(path.to_string());
        }
        (CallGraph::build(&parsed, &meta), paths)
    }

    #[test]
    fn trait_impl_entry_reaches_two_hops() {
        let (g, paths) = graph_of(&[(
            "crates/er-core/src/x.rs",
            "impl Reducer for Foo { fn reduce(&self) { score(1); } } \
             fn score(x: u32) { helper(x); } \
             fn helper(_x: u32) { }",
        )]);
        assert_eq!(g.entries.len(), 1);
        let helper = g
            .nodes
            .iter()
            .position(|n| n.def.name == "helper")
            .expect("helper node");
        assert!(g.is_reachable(helper));
        let chain = g.chain_to(helper, &paths);
        assert!(chain.contains("`Reducer::reduce`"), "{chain}");
        assert!(chain.contains("`score`"), "{chain}");
        assert!(chain.contains("`helper`"), "{chain}");
    }

    #[test]
    fn unreachable_helpers_stay_unreachable() {
        let (g, _) = graph_of(&[(
            "crates/er-core/src/x.rs",
            "impl Reducer for Foo { fn reduce(&self) { } } fn orphan() { }",
        )]);
        let orphan = g
            .nodes
            .iter()
            .position(|n| n.def.name == "orphan")
            .expect("orphan node");
        assert!(!g.is_reachable(orphan));
    }

    #[test]
    fn cross_file_resolution_via_import() {
        let (g, _) = graph_of(&[
            (
                "crates/er-core/src/job.rs",
                "use pper_simil::score_block; \
                 impl Reducer for Foo { fn reduce(&self) { score_block(); } }",
            ),
            ("crates/simil/src/batch.rs", "pub fn score_block() { }"),
        ]);
        let callee = g
            .nodes
            .iter()
            .position(|n| n.def.name == "score_block")
            .expect("callee");
        assert!(g.is_reachable(callee));
    }

    #[test]
    fn method_calls_link_by_name() {
        let (g, _) = graph_of(&[(
            "crates/mapreduce/src/shuffle.rs",
            "pub fn shuffle_partitions() { s.build_groups(); } \
             impl Arena { fn build_groups(&self) { } }",
        )]);
        let callee = g
            .nodes
            .iter()
            .position(|n| n.def.name == "build_groups")
            .expect("callee");
        assert!(g.is_reachable(callee));
    }

    #[test]
    fn masked_fns_are_not_entries_or_targets() {
        let (g, _) = graph_of(&[(
            "crates/er-core/src/x.rs",
            "#[cfg(test)] mod t { use super::*; \
             impl Reducer for Foo { fn reduce(&self) { helper(); } } } \
             fn helper() { }",
        )]);
        assert!(g.entries.is_empty());
    }

    #[test]
    fn owner_of_line_picks_innermost_by_start() {
        let (g, _) = graph_of(&[(
            "crates/er-core/src/x.rs",
            "fn a() {\n  x();\n}\nfn b() {\n  y();\n}\n",
        )]);
        let owner = owner_of_line(&g, 0, 5).expect("owner");
        assert_eq!(g.nodes[owner].def.name, "b");
    }
}
