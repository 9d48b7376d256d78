//! Offline stand-in for the `serde` facade.
//!
//! The workspace annotates its data types with `#[derive(Serialize,
//! Deserialize)]` so that a future networked build can serialize traces,
//! configs and parameters, but the build container has no crates.io access.
//! This crate keeps those annotations compiling: the derive macros (from the
//! sibling `serde_derive` stand-in) expand to nothing and the traits below are
//! empty markers. Swap the `serde`/`serde_derive` path entries in the root
//! `Cargo.toml` for the real crates to turn serialization on.

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

/// Marker stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: Sized {}

impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
