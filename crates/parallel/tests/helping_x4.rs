//! Helping-join suite at four threads (the `pool_forced` setting).

#[path = "helping_common/mod.rs"]
mod helping_common;

#[test]
fn helping_join_at_4_threads() {
    helping_common::run_suite(4);
}
