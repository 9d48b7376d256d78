//! # experiments — the replicate runner, figure drivers and analysis binaries
//!
//! Every experiment of the paper's evaluation section (§VI) is a
//! `(system variant × mechanism × seed)` product of independent replicates
//! folded into per-cell statistics. The shared pieces live here:
//!
//! * [`harness`] — the one replicate runner
//!   (`run_replicated_isolated_plan`: cache pass → group identical misses →
//!   parallel pass over one leader per group → bounded retries → fold),
//!   `run_mechanism_cells` (which owns the shared-system-or-per-replicate
//!   decision, builds shared systems on first use, and lets grid cells that
//!   differ only in a ξ their mechanism never reads train once) and the bare
//!   `run_grid` pool fan-out, plus the [`RunSummary`] each replicate
//!   produces.
//! * [`figures`] / [`sweeps`] — the figure drivers (time-accuracy
//!   comparisons, the ξ-sweep and the scalability sweep) parameterised by
//!   [`figures::FigureParams`]: each lists its cells and system configs,
//!   calls the runner and renders. The `scenario` crate's spec files are
//!   their only caller: `airfedga-run scenarios/<fig>.toml` is how a figure
//!   is run.
//! * [`report`] — plain-text table rendering, CSV output (including the
//!   error-bar CSVs of replicated runs) and shaded-band gnuplot scripts.
//! * [`scale`] — the `AIRFEDGA_SCALE` switch (`full` / `quick`) so the same
//!   experiments can be exercised in CI seconds or run at paper scale.
//! * [`stats`] — Welford replication statistics behind the multi-seed
//!   error bars.
//! * [`watchdog`] — per-cell wall-clock timeouts: a monitor thread cancels
//!   the cooperative `simcore::cancel` token of a cell that overruns its
//!   `[limits] cell_timeout_secs` budget, turning a hung cell into a
//!   labelled `CellFailure` instead of a stalled grid.
//!
//! Figs. 3–6 and 8–10 are committed specs (`scenarios/fig*.toml`). The
//! binaries under `src/bin/` are the analyses no scenario kind expresses:
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `fig7_grouping_boxplot` | Fig. 7 — per-group latency ranges at ξ = 0.3 |
//! | `table1_comparison` | Table I — qualitative mechanism comparison, measured proxies |
//! | `table3_emd`        | Table III — average inter-group EMD per grouping method |
//! | `theorem1_bound`    | Theorem 1 / Corollaries 1–2 — numeric bound evaluation |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod harness;
pub mod report;
pub mod scale;
pub mod stats;
pub mod sweeps;
pub mod watchdog;

pub use figures::FigureParams;
pub use harness::{MechanismChoice, RunSummary, SeedPlan};
pub use report::{write_csv, Table};
pub use scale::Scale;
pub use stats::{replication_seeds, CellStats, SummaryStats, Welford};
