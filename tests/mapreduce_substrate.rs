//! Substrate-level integration: the MapReduce runtime features exercised
//! through the public facade, independent of the ER pipeline.

use pper::mapreduce::prelude::*;

struct Tokenize;
impl Mapper for Tokenize {
    type Input = String;
    type Key = String;
    type Value = u64;
    fn map(&self, line: &String, ctx: &mut TaskContext, out: &mut Emitter<String, u64>) {
        for w in line.split_whitespace() {
            ctx.charge(1.0);
            out.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn reduce(
        &self,
        key: &String,
        values: &[u64],
        ctx: &mut TaskContext,
        out: &mut Vec<(String, u64)>,
    ) {
        ctx.charge(values.len() as f64);
        out.push((key.clone(), values.iter().sum()));
    }
}

fn corpus() -> Vec<String> {
    (0..500)
        .map(|i| format!("alpha beta w{} alpha", i % 20))
        .collect()
}

#[test]
fn external_sorter_handles_shuffle_scale() {
    let mut sorter: ExternalSorter<(u64, String)> = ExternalSorter::new(1_000);
    let mut expected = Vec::new();
    for i in (0..20_000u64).rev() {
        let rec = (i % 997, format!("value-{i}"));
        expected.push(rec.clone());
        sorter.push(rec).unwrap();
    }
    assert!(sorter.spilled_runs() >= 20);
    let sorted = sorter.finish().unwrap();
    expected.sort();
    assert_eq!(sorted, expected);
}

#[test]
fn skew_metric_visible_from_results() {
    let cfg = JobConfig::new("wc", ClusterSpec::paper(2));
    let inputs = corpus();
    let result = run_job(&cfg, &Tokenize, &GroupReducer::new(Sum), &inputs).unwrap();
    let skew = result.reduce_skew();
    assert!(skew >= 0.0, "skew {skew}");
}
