//@ path: crates/er-core/src/durable.rs
//! D5 in `er-core`: the durable runner sits above the journal, so a write
//! that bypasses the VFS seam there escapes the chaos suites just as one in
//! the journal crate would.
pub fn persist() {
    dump();
}

fn dump() {
    std::fs::write("plan.json", b"{}").ok();
}
