//@ path: crates/er-core/src/job2.rs
//! D4 in `er-core`: an unwrap in a private helper of the resolution job
//! is in scope because the whole crate is, not because a file list or a
//! call chain happens to name it.
pub fn normalize() {
    strip();
}

fn strip() {
    let _v = parts().first().unwrap();
}
