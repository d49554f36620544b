//@ path: crates/er-core/src/job2.rs
//! D4 in `er-core`, negative: the same unwrap with a written invariant.
pub fn normalize() {
    strip();
}

fn strip() {
    // lint:allow(panic_path) fixture: parts() is non-empty by construction.
    let _v = parts().first().unwrap();
}
