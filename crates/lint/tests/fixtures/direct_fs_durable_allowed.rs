//@ path: crates/er-core/src/durable.rs
//! D5 in `er-core`, negative: a justified escape stays silent.
pub fn persist() {
    dump();
}

fn dump() {
    // lint:allow(direct_fs) fixture: debug dump, never read back by a job.
    std::fs::write("plan.json", b"{}").ok();
}
