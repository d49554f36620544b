//! Kernel benchmark: string-path vs prepared-path pair throughput on the
//! paper's CiteSeerX rule, plus per-kernel ns/op for all six similarity
//! kernels. Emits `BENCH_kernels.json` (pairs/sec, per-kernel ns/op) so CI
//! and scripts can track the prepared fast path over time.
//!
//! The prepared path wins two ways: signatures (char buffers, interned
//! token ids, q-gram multisets, Soundex codes) are built once per entity
//! instead of once per pair, and threshold-aware early exit skips the
//! expensive abstract comparison for pairs whose titles already decide the
//! outcome.
//!
//! ```sh
//! cargo run --release -p pper-bench --bin bench_kernels -- --entities 500
//! ```

use std::time::Instant;

use pper_bench::{BenchRecord, BenchReport, ExpOptions};
use pper_datagen::PubGen;
use pper_er::ErConfig;
use pper_simil::{AttributeSim, MatchRule, PreparedRule, SimScratch, TokenInterner, WeightedAttr};

/// Time one single-term rule on a fixed string pair, both paths.
fn kernel_records(
    label: &str,
    sim: AttributeSim,
    a: &str,
    b: &str,
    iters: u64,
) -> (BenchRecord, BenchRecord) {
    let rule = MatchRule::new(vec![WeightedAttr::new(0, 1.0, sim)], 0.5);
    let va = vec![a.to_string()];
    let vb = vec![b.to_string()];
    let rule_score = rule.score(&va, &vb);
    let string = BenchRecord::time(format!("{label}/string"), iters, || rule.score(&va, &vb));

    let prepared = PreparedRule::new(rule);
    let mut interner = TokenInterner::new();
    let pa = prepared.prepare(&va, &mut interner);
    let pb = prepared.prepare(&vb, &mut interner);
    let mut scratch = SimScratch::new();
    // Warm the scratch so the timed loop runs at steady state — and hold
    // the timed kernel to the string path's result (for the abstract: the
    // multi-word Myers distance against the two-row DP's).
    assert_eq!(
        prepared.score(&pa, &pb, &mut scratch).to_bits(),
        rule_score.to_bits(),
        "{label}: prepared and string kernels disagree"
    );
    let prep = BenchRecord::time(format!("{label}/prepared"), iters, || {
        prepared.score(&pa, &pb, &mut scratch)
    });
    (string, prep)
}

fn main() -> std::io::Result<()> {
    let opts = ExpOptions::from_args(400);
    let n = if opts.quick {
        opts.entities.min(150)
    } else {
        opts.entities
    };
    eprintln!("generating {n} publication entities…");
    let ds = PubGen::new(n, opts.seed).generate();
    let rule = ErConfig::citeseer(10).rule;

    let mut report = BenchReport::new(
        "kernels",
        format!("CiteSeerX-rule pair throughput + per-kernel ns/op ({n} entities, all pairs)"),
    );

    // ---- pair throughput: all pairs, string path vs prepared path -------
    let pairs = (n * (n - 1) / 2) as u64;
    eprintln!("timing string path over {pairs} pairs…");
    let start = Instant::now();
    let mut string_matches = 0u64;
    for i in 0..ds.entities.len() {
        for j in (i + 1)..ds.entities.len() {
            if rule.matches(&ds.entities[i].attrs, &ds.entities[j].attrs) {
                string_matches += 1;
            }
        }
    }
    let string_pairs = BenchRecord::from_total("pairs/string", pairs, start.elapsed());

    let prepared = PreparedRule::new(rule.clone());
    let mut interner = TokenInterner::new();
    let start = Instant::now();
    let prepped: Vec<_> = ds
        .entities
        .iter()
        .map(|e| prepared.prepare(&e.attrs, &mut interner))
        .collect();
    let prepare_sigs = BenchRecord::from_total("prepare/entity", n as u64, start.elapsed());

    eprintln!("timing prepared path over {pairs} pairs…");
    let mut scratch = SimScratch::new();
    let start = Instant::now();
    let mut prepared_matches = 0u64;
    for i in 0..prepped.len() {
        for j in (i + 1)..prepped.len() {
            if prepared.matches(&prepped[i], &prepped[j], &mut scratch) {
                prepared_matches += 1;
            }
        }
    }
    let prepared_pairs = BenchRecord::from_total("pairs/prepared", pairs, start.elapsed());

    assert_eq!(
        string_matches, prepared_matches,
        "paths must agree on every match decision"
    );
    let speedup = string_pairs.ns_per_op / prepared_pairs.ns_per_op;
    report.push(string_pairs);
    report.push(prepared_pairs);
    report.push(prepare_sigs);
    report.note(format!(
        "prepared pair speedup: {speedup:.1}x ({pairs} pairs, {string_matches} matches, both paths)"
    ));

    // ---- per-kernel ns/op ------------------------------------------------
    let title_a = &ds.entities[0].attrs[0];
    let title_b = &ds.entities[1].attrs[0];
    let abs_a = &ds.entities[0].attrs[1];
    let abs_b = &ds.entities[1].attrs[1];
    let iters: u64 = if opts.quick { 2_000 } else { 20_000 };
    let cases: [(&str, AttributeSim, &str, &str, u64); 7] = [
        (
            "levenshtein_title",
            AttributeSim::Levenshtein { max_chars: None },
            title_a,
            title_b,
            iters,
        ),
        (
            "levenshtein_abstract350",
            AttributeSim::Levenshtein {
                max_chars: Some(350),
            },
            abs_a,
            abs_b,
            iters / 10,
        ),
        (
            "jaro_winkler",
            AttributeSim::JaroWinkler,
            title_a,
            title_b,
            iters,
        ),
        (
            "jaccard_tokens",
            AttributeSim::JaccardTokens,
            title_a,
            title_b,
            iters,
        ),
        (
            "qgram2",
            AttributeSim::QGram { q: 2 },
            title_a,
            title_b,
            iters,
        ),
        ("exact", AttributeSim::Exact, title_a, title_b, iters),
        ("soundex", AttributeSim::Soundex, title_a, title_b, iters),
    ];
    for (label, sim, a, b, iters) in cases {
        eprintln!("timing kernel {label}…");
        let (s, p) = kernel_records(label, sim, a, b, iters);
        report.push(s);
        report.push(p);
    }

    report.emit(&opts.out_dir)?;
    if speedup < 3.0 && !opts.quick {
        eprintln!("WARNING: prepared speedup {speedup:.1}x below the 3x target");
    }
    Ok(())
}
