//! A `PARALLEL_THREADS` value that is not a non-negative integer panics at
//! first read, naming the variable and the value, instead of quietly running
//! on every core. Its own binary: the pin is cached once per process.

use std::panic::catch_unwind;

#[test]
fn a_malformed_threads_pin_panics_and_an_empty_chunks_pin_is_the_default() {
    std::env::set_var("PARALLEL_THREADS", "two");
    std::env::set_var("PARALLEL_CHUNKS", " ");
    for _ in 0..2 {
        let payload = catch_unwind(parallel::max_threads).expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            msg.starts_with(r#"PARALLEL_THREADS="two" is not a non-negative integer"#),
            "{msg}"
        );
    }
    let payload = catch_unwind(|| parallel::par_map(vec![1, 2], |x: u32| x)).expect_err("");
    assert!(payload
        .downcast_ref::<String>()
        .unwrap()
        .contains("PARALLEL_THREADS"));
    assert_eq!(parallel::chunk_factor(), 16);
}
