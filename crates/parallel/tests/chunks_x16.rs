//! Over-decomposition factor 16 (the default: the finest split, which gives
//! an experiment grid's uneven cells room to balance) must be bit-identical
//! to sequential.

#[path = "chunk_common/mod.rs"]
mod chunk_common;

#[test]
fn factor_16_is_bit_identical_to_sequential() {
    chunk_common::run_suite(16);
}
