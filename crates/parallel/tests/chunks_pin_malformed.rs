//! A `PARALLEL_CHUNKS` value that is not a non-negative integer panics at
//! first read, naming the variable and the value, instead of quietly running
//! the default factor — even at one thread, where no map splits.
//! Its own binary: the pin is cached once per process.

use std::panic::catch_unwind;

#[test]
fn a_malformed_chunks_pin_panics_even_on_a_sequential_pool() {
    std::env::set_var("PARALLEL_THREADS", "1");
    std::env::set_var("PARALLEL_CHUNKS", "4x");
    for _ in 0..2 {
        let payload = catch_unwind(parallel::chunk_factor).expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            msg.starts_with(r#"PARALLEL_CHUNKS="4x" is not a non-negative integer"#),
            "{msg}"
        );
    }
    let payload = catch_unwind(|| parallel::par_map(vec![1, 2], |x: u32| x)).expect_err("");
    assert!(payload
        .downcast_ref::<String>()
        .unwrap()
        .contains("PARALLEL_CHUNKS"));
    assert_eq!(parallel::max_threads(), 1);
}
