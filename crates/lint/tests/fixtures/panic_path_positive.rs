//@ path: crates/mapreduce/src/runtime.rs
//! D4 `panic_path` positives: unwrap/expect/panic! in a pipeline crate
//! (`mapreduce` here) must be reported.

fn lookup(table: &[Option<usize>], key: usize) -> usize {
    let first = table.first().unwrap();
    let hit = first.expect("slot populated");
    if hit != key {
        panic!("route mismatch");
    }
    hit
}
