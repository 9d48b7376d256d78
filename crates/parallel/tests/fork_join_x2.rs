//! Fork/join suite at two threads — the repo benchmark's setting, where one
//! helper is all a fan-out can get and only while the other core is idle.

#[path = "fork_join_common/mod.rs"]
mod fork_join_common;

#[test]
fn fork_join_at_2_threads() {
    fork_join_common::run_suite(2);
}
