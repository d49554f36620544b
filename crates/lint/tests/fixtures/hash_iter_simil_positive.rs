//@ path: crates/simil/src/prepared.rs
//! D1 in `simil`: the kernel's crate is a pipeline crate like any other —
//! a hash-order iteration two private calls below the scoring entry point
//! is reported without anything having to link the calls.
use std::collections::HashMap;

pub fn score_all() {
    tally();
}

fn tally() {
    let m: HashMap<String, u64> = HashMap::new();
    for k in m.keys() {
        emit(k);
    }
}
