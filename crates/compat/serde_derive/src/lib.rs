//! No-op `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros.
//!
//! The build environment has no crates.io access, so the workspace ships this
//! stand-in instead of the real `serde_derive`. The derives expand to nothing:
//! annotated types simply do not implement the (equally empty) marker traits
//! of the sibling `serde` stand-in crate. The moment real serialization is
//! needed, replace the two `crates/compat/serde*` path entries in the root
//! `Cargo.toml` with the crates.io versions — no call-site changes required.

use proc_macro::TokenStream;

/// No-op stand-in for `serde_derive::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op stand-in for `serde_derive::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
