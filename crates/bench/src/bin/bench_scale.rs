//! Paper-scale out-of-core resolution benchmark (§VI-A2's OL-Books sizes).
//!
//! Streams a books dataset straight into a `pper-store` columnar file
//! (entities never exist in memory as a `Vec<Entity>`), re-opens it
//! mmap-backed, blocks it through a disk-spilling external sort under a
//! fixed memory budget, and resolves each block with a PSNM window driven
//! by the `pper_simil::BlockScorer` batch kernels reading attribute views
//! zero-copy out of the mapping.
//!
//! ```text
//! bench_scale --entities 1000000 --budget-mib 512
//! bench_scale --entities 30000000 --budget-mib 512   # paper scale, ~tens of GB of disk
//! bench_scale --quick                                 # CI smoke (50k entities)
//! ```
//!
//! Emits `BENCH_scale.json` under `--out` (default `target/experiments`)
//! with entities/sec for each stage plus peak RSS, spill, and recall notes.

use std::path::PathBuf;
use std::time::Instant;

use pper_bench::{BenchRecord, BenchReport};
use pper_datagen::BookGen;
use pper_mapreduce::ExternalSorter;
use pper_simil::{BlockScorer, PreparedRule};
use pper_store::{EntityStore, StoreBuilder};

/// Estimated resident bytes per `(String, u32)` sort record (String header
/// plus small-prefix allocation plus tuple padding), used only to convert
/// the byte budget into the sorter's run capacity.
const SORT_RECORD_BYTES: u64 = 128;

/// PSNM window width within each block (the paper's w=5 books default).
const WINDOW: usize = 5;

struct ScaleOptions {
    entities: usize,
    seed: u64,
    budget_mib: u64,
    out_dir: PathBuf,
    store_path: Option<PathBuf>,
    keep_store: bool,
    quick: bool,
}

impl ScaleOptions {
    fn from_args() -> Self {
        let mut opts = Self {
            entities: 1_000_000,
            seed: 42,
            budget_mib: 512,
            out_dir: PathBuf::from("target/experiments"),
            store_path: None,
            keep_store: false,
            quick: false,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--entities" => {
                    i += 1;
                    opts.entities = args[i].parse().expect("--entities takes a number");
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args[i].parse().expect("--seed takes a number");
                }
                "--budget-mib" => {
                    i += 1;
                    opts.budget_mib = args[i].parse().expect("--budget-mib takes a number");
                }
                "--out" => {
                    i += 1;
                    opts.out_dir = PathBuf::from(&args[i]);
                }
                "--store" => {
                    i += 1;
                    opts.store_path = Some(PathBuf::from(&args[i]));
                }
                "--keep-store" => opts.keep_store = true,
                "--quick" => {
                    opts.quick = true;
                    opts.entities = opts.entities.min(50_000);
                }
                other => panic!("unknown argument: {other}"),
            }
            i += 1;
        }
        opts
    }
}

/// Blocking key: lowercased 3-char title prefix, mirroring the books
/// preset's main blocking function (`PrefixFunction { attr: 0, chars: 3 }`).
fn title_prefix_key(title: &str) -> String {
    title.chars().take(3).collect::<String>().to_lowercase()
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`);
/// 0 where procfs is unavailable.
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    parse_vm_hwm(&status).unwrap_or(0)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> std::io::Result<()> {
    let opts = ScaleOptions::from_args();
    let budget_bytes = opts.budget_mib * 1024 * 1024;
    // The sorter gets a 1/16 slice of the budget: the rest is headroom for
    // the streaming generator, the per-block window working set, and the
    // page cache behind the mmap. 512 MiB → 262,144 records per run, so a
    // 1M-entity sort spills into 4 on-disk runs.
    let run_capacity = ((budget_bytes / 16) / SORT_RECORD_BYTES).max(1024) as usize;

    std::fs::create_dir_all(&opts.out_dir)?;
    let store_path = opts
        .store_path
        .clone()
        .unwrap_or_else(|| opts.out_dir.join(format!("scale-{}.store", opts.entities)));

    let mut report = BenchReport::new(
        "scale",
        format!(
            "out-of-core books resolution: {} entities, {} MiB budget, seed {}",
            opts.entities, opts.budget_mib, opts.seed
        ),
    );

    // Stage 1 — stream generation into the columnar store. O(1) memory: at
    // most one duplicate cluster is buffered at a time on either side.
    let gen = BookGen::new(opts.entities, opts.seed);
    let start = Instant::now();
    let mut stream = gen.records();
    let mut builder = StoreBuilder::create(&store_path, BookGen::schema().len(), true)
        .map_err(std::io::Error::other)?;
    for (cluster, attrs) in stream.by_ref() {
        builder
            .push(&attrs, Some(cluster))
            .map_err(std::io::Error::other)?;
    }
    let true_pairs = stream.duplicate_pairs();
    let summary = builder.finish().map_err(std::io::Error::other)?;
    report.push(BenchRecord::from_total(
        "generate_store",
        summary.entities,
        start.elapsed(),
    ));
    report.note(format!(
        "store: {} entities, {} arena bytes, {} file bytes",
        summary.entities, summary.arena_bytes, summary.file_bytes
    ));

    // Stage 2 — re-open mmap-backed; attribute reads are views into the
    // mapping from here on.
    let store = EntityStore::open(&store_path).expect("open store");
    report.note(format!("store backend: {}", store.backend()));

    // Stage 3 — out-of-core blocking: (title-prefix key, entity id) pairs
    // through a budgeted external sort.
    let start = Instant::now();
    let mut sorter: ExternalSorter<(String, u32)> = ExternalSorter::new(run_capacity);
    if let Some(dir) = store_path.parent() {
        sorter = sorter.with_dir(dir);
    }
    for e in 0..store.len() {
        let title = store.attr(e, 0).expect("title attr");
        sorter
            .push((title_prefix_key(title), e as u32))
            .expect("push sort record");
    }
    let spill_runs = sorter.spilled_runs();
    let spill_bytes = sorter.spilled_bytes();
    let blocking_elapsed = start.elapsed();
    report.push(BenchRecord::from_total(
        "blocking_extsort",
        store.len(),
        blocking_elapsed,
    ));
    report.note(format!(
        "sorter: run_capacity {run_capacity} records, {spill_runs} spilled runs, {spill_bytes} spilled bytes"
    ));

    // Stage 4 — stream the sorted pairs, cut blocks at key boundaries, and
    // resolve each block with a title-sorted PSNM window over the batch
    // kernels. Only the current block's ids plus a (WINDOW+1)-entity
    // prepared ring are ever resident.
    let rule = PreparedRule::new(pper_er::ErConfig::books(1).rule);
    let start = Instant::now();
    let mut stream = sorter.into_stream().expect("start sorted stream");
    let mut block: Vec<u32> = Vec::new();
    let mut current_key: Option<String> = None;
    let mut stats = ResolveStats::default();
    let mut resolver = WindowResolver::new(&rule);
    for item in stream.by_ref() {
        let (key, id) = item.expect("sorted stream read");
        if current_key.as_deref() != Some(key.as_str()) {
            resolver.resolve_block(&store, &mut block, &mut stats);
            current_key = Some(key);
        }
        block.push(id);
    }
    resolver.resolve_block(&store, &mut block, &mut stats);
    report.push(BenchRecord::from_total(
        "resolve_window",
        stats.comparisons.max(1),
        start.elapsed(),
    ));

    let recall = if true_pairs > 0 {
        stats.true_matches as f64 / true_pairs as f64
    } else {
        0.0
    };
    report.note(format!(
        "resolution: {} comparisons, {} matches ({} true), window {WINDOW}",
        stats.comparisons, stats.matches, stats.true_matches
    ));
    report.note(format!(
        "recall {recall:.3} of {true_pairs} ground-truth pairs (window-bounded)"
    ));
    report.note(format!("peak RSS: {} KiB", peak_rss_kib()));
    report.note(format!(
        "budget: {} MiB{}",
        opts.budget_mib,
        if opts.quick { " (quick mode)" } else { "" }
    ));

    report.emit(&opts.out_dir)?;
    drop(store);
    if !opts.keep_store {
        std::fs::remove_file(&store_path).ok();
    }
    Ok(())
}

#[derive(Default)]
struct ResolveStats {
    comparisons: u64,
    matches: u64,
    true_matches: u64,
}

/// Rolling PSNM window over one block: entities are prepared at most once
/// each and at most `WINDOW + 1` prepared entities are alive at a time.
struct WindowResolver<'r> {
    rule: &'r PreparedRule,
    scorer: BlockScorer,
    decisions: Vec<bool>,
}

impl<'r> WindowResolver<'r> {
    fn new(rule: &'r PreparedRule) -> Self {
        Self {
            rule,
            scorer: BlockScorer::new(),
            decisions: Vec::new(),
        }
    }

    /// Resolve and clear one block of entity ids.
    fn resolve_block(
        &mut self,
        store: &EntityStore,
        block: &mut Vec<u32>,
        stats: &mut ResolveStats,
    ) {
        if block.len() < 2 {
            block.clear();
            return;
        }
        // Deterministic PSNM order: sort by (title, id) with titles read
        // straight from the mapping.
        block.sort_unstable_by(|&a, &b| {
            store
                .attr_bytes(u64::from(a), 0)
                .cmp(store.attr_bytes(u64::from(b), 0))
                .then(a.cmp(&b))
        });

        let mut row: Vec<&str> = Vec::new();
        let mut window = Vec::with_capacity(WINDOW + 1);
        let mut fill = 0usize;
        for i in 0..block.len() {
            // Top up the ring so it holds prepared entities for
            // block[i..=i+WINDOW].
            while fill < block.len() && fill <= i + WINDOW {
                store
                    .row(u64::from(block[fill]), &mut row)
                    .expect("entity row");
                window.push(self.rule.prepare(&row));
                fill += 1;
            }
            let probe = &window[0];
            let cands = &window[1..];
            if !cands.is_empty() {
                self.scorer
                    .matches_block(self.rule, probe, cands, &mut self.decisions);
                stats.comparisons += cands.len() as u64;
                for (j, &hit) in self.decisions.iter().enumerate() {
                    if hit {
                        stats.matches += 1;
                        let a = store.label(u64::from(block[i]));
                        let b = store.label(u64::from(block[i + 1 + j]));
                        if a.is_some() && a == b {
                            stats.true_matches += 1;
                        }
                    }
                }
            }
            window.remove(0);
        }
        block.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_key_mirrors_blocking_preset() {
        assert_eq!(title_prefix_key("The Great War"), "the");
        assert_eq!(title_prefix_key("Ab"), "ab");
        assert_eq!(title_prefix_key(""), "");
        assert_eq!(title_prefix_key("ÉCOLE x"), "éco");
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tbench\nVmPeak:\t  100 kB\nVmHWM:\t  4321 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(4321));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }
}
