//! # experiments — the replicate runner and the renderer
//!
//! Every experiment of the paper's evaluation section (§VI) is a
//! `(system variant × mechanism × seed)` product of independent replicates
//! folded into per-cell statistics. The shared pieces live here:
//!
//! * [`harness`] — the one replicate runner
//!   (`run_replicated_isolated_plan`: cache pass → group identical misses →
//!   prepare on the calling thread → parallel pass over one leader per group
//!   → bounded retries → fold), `run_mechanism_cells` (which owns the
//!   shared-system-or-per-replicate decision, builds a shared system only
//!   when a replicate misses the store — in the prepare step, so always on
//!   the calling thread — and lets grid cells that differ only in a ξ their
//!   mechanism never reads train once) and the bare `run_grid` pool fan-out,
//!   plus the [`RunSummary`] each replicate produces.
//! * [`render`] — the one renderer: a kind hands it a `Layout` (row keys
//!   plus the `stats::Metric` columns it shows, each with its table header
//!   and CSV stem) and the folded cells; how a metric prints, and the
//!   one-seed-vs-many rule (the run itself vs `mean±std`, the `_mean` /
//!   `_std` / `_n` CSV fields, the error-bar series), live there and nowhere
//!   else. Which cells and which columns a kind has, and in which order
//!   they print, is decided where the spec is, in the `scenario` crate.
//! * [`report`] — plain-text table rendering, CSV output (including the
//!   error-bar CSVs of replicated runs) and shaded-band gnuplot scripts.
//! * [`scale`] — the `AIRFEDGA_SCALE` switch (`full` / `quick`) so the same
//!   experiments can be exercised in CI seconds or run at paper scale, and
//!   [`FigureParams`], the scale plus a run's replication and overrides.
//! * [`stats`] — Welford replication statistics behind the multi-seed
//!   error bars, and the one fold (`CellStats::stat`) over the `Metric`
//!   vocabulary.
//!
//! Figs. 3–6 and 8–10 are committed specs (`scenarios/fig*.toml`) run by
//! the `scenario` crate's `airfedga-run`. The analyses no scenario kind
//! expresses are examples of the umbrella crate:
//!
//! | Example | Reproduces |
//! |---------|------------|
//! | `fig7_grouping` | Fig. 7 — per-group latency ranges at ξ = 0.3 |
//! | `table1_comparison` | Table I — qualitative mechanism comparison, measured proxies |
//! | `noniid_grouping` | Table III — average inter-group EMD per grouping method |
//! | `convergence_bound` | Theorem 1 / Corollaries 1–2 — numeric bound evaluation |

#![warn(missing_docs)]

pub mod harness;
pub mod render;
pub mod report;
pub mod scale;
pub mod stats;

pub use harness::{MechanismChoice, RunSummary, SeedPlan};
pub use report::{write_csv, Table};
pub use scale::{FigureParams, Scale};
pub use stats::{replication_seeds, CellStats, SummaryStats, Welford};
