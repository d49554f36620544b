//@ path: crates/mapreduce/src/runtime.rs
//! D4 `panic_path` negatives: an annotated invariant passes, and the same
//! operations are always fine outside the pipeline crates (covered by the
//! scoping tests in `rules.rs`).

fn lookup(table: &[Option<usize>]) -> usize {
    // lint:allow(panic_path) fixture: slot occupancy proven by construction.
    let hit = table.first().and_then(|s| *s).expect("slot populated");
    hit
}
