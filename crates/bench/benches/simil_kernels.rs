//! Micro-benchmarks of the similarity kernels — the per-pair resolve cost
//! that dominates the paper's cost model (§IV-B).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pper_simil::{
    jaccard_tokens, jaro_winkler, levenshtein, qgram_similarity, AttributeSim, MatchRule,
    PreparedRule, SimScratch, TokenInterner, WeightedAttr,
};

const TITLE_A: &str = "parallel progressive approach to entity resolution using mapreduce";
const TITLE_B: &str = "paralel progresive aproach to entity resolution using map reduce";

fn bench_levenshtein(c: &mut Criterion) {
    let mut g = c.benchmark_group("levenshtein");
    for len in [16usize, 64, 256] {
        let a: String = TITLE_A.chars().cycle().take(len).collect();
        let b: String = TITLE_B.chars().cycle().take(len).collect();
        g.bench_with_input(BenchmarkId::new("full", len), &len, |bench, _| {
            bench.iter(|| levenshtein(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_other_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.bench_function("jaro_winkler", |b| {
        b.iter(|| jaro_winkler(black_box(TITLE_A), black_box(TITLE_B)))
    });
    g.bench_function("jaccard_tokens", |b| {
        b.iter(|| jaccard_tokens(black_box(TITLE_A), black_box(TITLE_B)))
    });
    g.bench_function("qgram2", |b| {
        b.iter(|| qgram_similarity(black_box(TITLE_A), black_box(TITLE_B), 2))
    });
    g.finish();
}

fn bench_match_rule(c: &mut Criterion) {
    let rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.55, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(
                1,
                0.25,
                AttributeSim::Levenshtein {
                    max_chars: Some(350),
                },
            ),
            WeightedAttr::new(2, 0.20, AttributeSim::Levenshtein { max_chars: None }),
        ],
        0.82,
    );
    let a = vec![TITLE_A.to_string(), TITLE_A.repeat(6), "ICDE".to_string()];
    let b = vec![TITLE_B.to_string(), TITLE_B.repeat(6), "ICDE".to_string()];
    c.bench_function("match_rule/citeseer", |bench| {
        bench.iter(|| rule.matches(black_box(&a), black_box(&b)))
    });

    // Prepared fast path on the same pair: signatures built once outside
    // the timed loop, per-pair work is allocation-free with early exit.
    let prepared = PreparedRule::new(rule);
    let mut interner = TokenInterner::new();
    let pa = prepared.prepare(&a, &mut interner);
    let pb = prepared.prepare(&b, &mut interner);
    let mut scratch = SimScratch::new();
    c.bench_function("match_rule/citeseer-prepared", |bench| {
        bench.iter(|| prepared.matches(black_box(&pa), black_box(&pb), &mut scratch))
    });
    c.bench_function("match_rule/citeseer-prepared-score", |bench| {
        bench.iter(|| prepared.score(black_box(&pa), black_box(&pb), &mut scratch))
    });
}

fn bench_prepared_levenshtein(c: &mut Criterion) {
    // Myers bit-parallel vs two-row DP on an ASCII pair under 64 chars:
    // single-term rules isolate the kernel on both paths.
    let rule = MatchRule::new(
        vec![WeightedAttr::new(
            0,
            1.0,
            AttributeSim::Levenshtein {
                max_chars: Some(48),
            },
        )],
        0.5,
    );
    let a = vec![TITLE_A.to_string()];
    let b = vec![TITLE_B.to_string()];
    let prepared = PreparedRule::new(rule.clone());
    let mut interner = TokenInterner::new();
    let pa = prepared.prepare(&a, &mut interner);
    let pb = prepared.prepare(&b, &mut interner);
    let mut scratch = SimScratch::new();
    let mut g = c.benchmark_group("levenshtein48");
    g.bench_function("string", |bench| {
        bench.iter(|| rule.score(black_box(&a), black_box(&b)))
    });
    g.bench_function("prepared-myers", |bench| {
        bench.iter(|| prepared.score(black_box(&pa), black_box(&pb), &mut scratch))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_levenshtein,
    bench_other_kernels,
    bench_match_rule,
    bench_prepared_levenshtein
);
criterion_main!(benches);
