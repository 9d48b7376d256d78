//! Helping-join suite at two threads — the repo benchmark's setting, where
//! the joining caller is the only other thread a fat chunk can get help from.

#[path = "helping_common/mod.rs"]
mod helping_common;

#[test]
fn helping_join_at_2_threads() {
    helping_common::run_suite(2);
}
