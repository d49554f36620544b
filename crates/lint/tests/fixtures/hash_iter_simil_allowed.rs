//@ path: crates/simil/src/prepared.rs
//! D1 in `simil`, negative: the same iteration with a written argument.
use std::collections::HashMap;

pub fn score_all() {
    tally();
}

fn tally() {
    let m: HashMap<String, u64> = HashMap::new();
    // lint:allow(hash_iter) fixture: emit only bumps a commutative counter.
    for k in m.keys() {
        emit(k);
    }
}
