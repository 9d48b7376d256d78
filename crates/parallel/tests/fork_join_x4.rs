//! Fork/join suite at four threads (the `pool_forced` setting), where a
//! nested fan-out can find a slot to spare.

#[path = "fork_join_common/mod.rs"]
mod fork_join_common;

#[test]
fn fork_join_at_4_threads() {
    fork_join_common::run_suite(4);
}
