//! Over-decomposition factor 4 (a split between one chunk per thread and the
//! default) must be bit-identical to sequential.

#[path = "chunk_common/mod.rs"]
mod chunk_common;

#[test]
fn factor_4_is_bit_identical_to_sequential() {
    chunk_common::run_suite(4);
}
