//! Plain-text tables and CSV output.
//!
//! The scenario driver and the examples print paper-style tables to stdout
//! and optionally dump CSV files (one per figure series) under `results/` so
//! the curves can be re-plotted with any external tool. Replicated
//! (`--seeds N`) runs additionally emit **error-bar CSVs**
//! (`error_bar_csv`): one row per evaluation point with `*_mean` /
//! `*_std` / `*_min` / `*_max` columns over the seeds, ready for
//! shaded-band or error-bar plotting.

use crate::stats::PointStats;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::RwLock;

/// A simple fixed-column text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells). Rows shorter than the header are
    /// padded with empty cells; longer rows are rejected.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert!(
            cells.len() <= self.header.len(),
            "row has more cells than the header"
        );
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Render the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Where [`write_csv`] writes: the cwd-relative `results/` unless
/// [`set_results_dir`] redirected it. Process-wide, so the scenario driver
/// and the examples name their directory through [`write_csv_in`] instead;
/// the two functions stay for `benchmark/`'s CSV-write probe, which calls
/// them.
static RESULTS_DIR_OVERRIDE: RwLock<Option<PathBuf>> = RwLock::new(None);

/// Redirect [`write_csv`] to `dir`, or restore `results/` with `None`.
/// Affects the whole process.
pub fn set_results_dir(dir: Option<PathBuf>) {
    *RESULTS_DIR_OVERRIDE
        .write()
        .unwrap_or_else(|e| e.into_inner()) = dir;
}

/// The directory [`write_csv`] writes into.
fn results_dir() -> PathBuf {
    RESULTS_DIR_OVERRIDE
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Write `contents` to `<dir>/<name>`, creating the directory if needed.
/// Returns the written path.
///
/// The write goes through [`telemetry::write_atomic`], the one way a durable
/// file is written: a crash mid-write can leave a stale `<name>.tmp` behind
/// but never a torn file at the final path. A CSV that already holds
/// `contents` (a resumed run renders the same bytes) is left in place, only
/// fsynced; its mtime does not advance.
pub fn write_csv_in(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    telemetry::write_atomic(&path, contents.as_bytes())?;
    Ok(path)
}

/// [`write_csv_in`] the directory [`set_results_dir`] chose.
pub fn write_csv(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    write_csv_in(&results_dir(), name, contents)
}

/// Write a CSV into `dir` and print where it went; swallow (but report) I/O
/// errors so a read-only filesystem does not kill an experiment.
pub fn try_write_csv(dir: &Path, name: &str, contents: &str) {
    match write_csv_in(dir, name, contents) {
        Ok(path) => println!("  -> wrote {}", path.display()),
        Err(e) => eprintln!("  (could not write {name}: {e})"),
    }
}

/// Render per-eval-point replication statistics as an error-bar CSV.
///
/// One row per evaluation point, with the seed count and mean / sample-std /
/// min / max of every traced quantity — the multi-seed analogue of
/// `TrainingTrace::to_csv` (same precision per quantity, so a one-seed
/// error-bar file carries exactly the single trace's values in its `_mean`
/// columns).
pub(crate) fn error_bar_csv(points: &[PointStats]) -> String {
    let mut out = String::from(
        "round,seeds,time_mean,time_std,time_min,time_max,\
         loss_mean,loss_std,loss_min,loss_max,\
         accuracy_mean,accuracy_std,accuracy_min,accuracy_max,\
         energy_mean,energy_std,energy_min,energy_max\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{:.4},{:.4},{:.6},{:.6},{:.6},{:.6},\
             {:.6},{:.6},{:.6},{:.6},{:.4},{:.4},{:.4},{:.4}\n",
            p.round,
            p.time.n,
            p.time.mean,
            p.time.std,
            p.time.min,
            p.time.max,
            p.loss.mean,
            p.loss.std,
            p.loss.min,
            p.loss.max,
            p.accuracy.mean,
            p.accuracy.std,
            p.accuracy.min,
            p.accuracy.max,
            p.energy.mean,
            p.energy.std,
            p.energy.min,
            p.energy.max,
        ));
    }
    out
}

/// Render a gnuplot script that draws shaded-band mean±std curves from
/// error-bar CSVs in the [`error_bar_csv`] layout.
///
/// `series` pairs a legend label with the CSV file name (relative to the
/// script, i.e. both live in `results/`); the script draws one loss panel
/// and one accuracy panel against the mean virtual time, with a translucent
/// `mean±std` band under each mean curve, and writes `output_png`. Column
/// indices follow [`error_bar_csv`]: time mean 3, loss mean/std 7/8,
/// accuracy mean/std 11/12.
///
/// Usage: `gnuplot <name>.gp` from the directory holding the CSVs.
pub(crate) fn gnuplot_script(title: &str, output_png: &str, series: &[(String, String)]) -> String {
    let esc = |s: &str| s.replace('\'', "''");
    let mut out = String::new();
    out.push_str("# Shaded-band mean±std plot over replication seeds.\n");
    out.push_str("# Generated next to the error-bar CSVs; run from that directory:\n");
    out.push_str("#   gnuplot thisfile.gp\n");
    out.push_str("set datafile separator ','\n");
    out.push_str("set terminal pngcairo size 1200,500 enhanced\n");
    out.push_str(&format!("set output '{}'\n", esc(output_png)));
    out.push_str(&format!(
        "set multiplot layout 1,2 title '{}'\n",
        esc(title)
    ));
    out.push_str("set key top right\n");
    out.push_str("set xlabel 'virtual time (s)'\n");
    for (ylabel, mean_col, std_col) in [("loss", 7, 8), ("accuracy", 11, 12)] {
        out.push_str(&format!("set ylabel '{ylabel}'\n"));
        let mut cmds: Vec<String> = Vec::new();
        for (i, (label, csv)) in series.iter().enumerate() {
            let lc = i + 1;
            cmds.push(format!(
                "'{}' skip 1 using 3:(${mean_col}-${std_col}):(${mean_col}+${std_col}) \
                 with filledcurves fs transparent solid 0.25 lc {lc} notitle",
                esc(csv)
            ));
            cmds.push(format!(
                "'{}' skip 1 using 3:{mean_col} with lines lw 2 lc {lc} title '{}'",
                esc(csv),
                esc(label)
            ));
        }
        out.push_str("plot \\\n  ");
        out.push_str(&cmds.join(", \\\n  "));
        out.push('\n');
    }
    out.push_str("unset multiplot\n");
    out
}

/// Format seconds with a sensible precision for report tables.
pub(crate) fn fmt_secs(s: f64) -> String {
    if s.is_infinite() {
        "n/a".to_string()
    } else if s >= 100.0 {
        format!("{s:.0}")
    } else {
        format!("{s:.1}")
    }
}

/// Format an `Option<f64>` time, printing `n/a` for `None`.
pub(crate) fn fmt_opt_secs(s: Option<f64>) -> String {
    s.map(fmt_secs).unwrap_or_else(|| "n/a".to_string())
}

/// Format a ξ value for tables and CSVs: one decimal when that is exact
/// (the historical grids are 0.1-spaced, so `0.3` / `1.0` keep their
/// byte-identical rendering), full precision otherwise — scenario files may
/// sweep values like `0.25` and `0.21`, which must not collapse into
/// indistinguishable `0.2` rows.
pub fn fmt_xi(xi: f64) -> String {
    let one = format!("{xi:.1}");
    if one.parse::<f64>() == Ok(xi) {
        one
    } else {
        format!("{xi}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that read or mutate the process-global results-dir take this
    /// lock so the override test cannot race the atomic-write test.
    static DIR_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["mechanism", "time"]);
        t.add_row(vec!["Air-FedGA".into(), "1077".into()]);
        t.add_row(vec!["FedAvg".into(), "13755".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "== demo ==",
                "mechanism  time ",
                "----------------",
                "Air-FedGA  1077 ",
                "FedAvg     13755",
            ]
        );
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.add_row(vec!["only-one".into()]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    #[should_panic(expected = "more cells")]
    fn long_rows_are_rejected() {
        let mut t = Table::new("x", &["a"]);
        t.add_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn error_bar_csv_has_all_stat_columns() {
        use crate::stats::Welford;
        let mut time = Welford::new();
        let mut loss = Welford::new();
        let mut acc = Welford::new();
        let mut energy = Welford::new();
        for (t, l, a, e) in [(1.0, 2.0, 0.5, 10.0), (1.5, 1.8, 0.6, 12.0)] {
            time.push(t);
            loss.push(l);
            acc.push(a);
            energy.push(e);
        }
        let points = vec![PointStats {
            round: 5,
            time: time.summary(),
            loss: loss.summary(),
            accuracy: acc.summary(),
            energy: energy.summary(),
        }];
        let csv = error_bar_csv(&points);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 18);
        assert!(header.starts_with("round,seeds,time_mean"));
        assert!(header.contains("loss_mean,loss_std,loss_min,loss_max"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), 18);
        assert!(row.starts_with("5,2,1.2500,"));
        assert!(lines.next().is_none());
    }

    #[test]
    fn gnuplot_script_covers_every_series_twice_per_panel() {
        let series = vec![
            (
                "Air-FedGA".to_string(),
                "fig3_air_fedga_errorbars.csv".to_string(),
            ),
            (
                "Dynamic".to_string(),
                "fig3_dynamic_errorbars.csv".to_string(),
            ),
        ];
        let script = gnuplot_script("Fig. 3", "fig3_errorbars.png", &series);
        assert!(script.contains("set output 'fig3_errorbars.png'"));
        assert!(script.contains("set datafile separator ','"));
        // Two panels x (band + mean line) per series.
        assert_eq!(script.matches("fig3_air_fedga_errorbars.csv").count(), 4);
        assert_eq!(script.matches("filledcurves").count(), 4);
        assert!(script.contains("title 'Air-FedGA'"));
        // Loss band uses columns 7/8, accuracy band 11/12.
        assert!(script.contains("using 3:($7-$8):($7+$8)"));
        assert!(script.contains("using 3:($11-$12):($11+$12)"));
        // Quotes in labels are escaped for gnuplot single-quoted strings.
        let quoted = gnuplot_script("it's", "o.png", &series);
        assert!(quoted.contains("title 'it''s'"));
    }

    #[test]
    fn results_dir_override_redirects_and_restores() {
        let _lock = DIR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(results_dir(), PathBuf::from("results"));
        set_results_dir(Some(PathBuf::from("override_results_test")));
        assert_eq!(results_dir(), PathBuf::from("override_results_test"));
        let path = write_csv("override_probe.csv", "a,b\n").unwrap();
        assert!(path.starts_with("override_results_test"));
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n");
        set_results_dir(None);
        assert_eq!(results_dir(), PathBuf::from("results"));
        fs::remove_dir_all("override_results_test").ok();
    }

    #[test]
    fn write_csv_is_atomic_via_tmp_rename() {
        let dir = std::env::temp_dir().join(format!("report_atomic_{}", std::process::id()));
        let name = "atomic_write_test.csv";
        let final_path = dir.join(name);
        let tmp_path = dir.join(format!("{name}.tmp"));
        // Establish known contents at the final path.
        write_csv_in(&dir, name, "old,complete\n").unwrap();
        assert_eq!(fs::read_to_string(&final_path).unwrap(), "old,complete\n");
        // Simulate a crash mid-write: a torn partial lands at the tmp path
        // (exactly where write_csv stages its bytes) and the process dies
        // before the rename — the final path must still hold the old bytes.
        fs::write(&tmp_path, "new,tor").unwrap();
        assert_eq!(fs::read_to_string(&final_path).unwrap(), "old,complete\n");
        // A completed write replaces the file and consumes the staging file.
        write_csv_in(&dir, name, "new,complete\n").unwrap();
        assert_eq!(fs::read_to_string(&final_path).unwrap(), "new,complete\n");
        assert!(!tmp_path.exists(), "rename must consume the staging file");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatting_helpers() {
        let _lock = DIR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(fmt_secs(1234.56), "1235");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_opt_secs(None), "n/a");
        assert_eq!(fmt_opt_secs(Some(50.0)), "50.0");
    }

    #[test]
    fn xi_formatting_is_historical_for_coarse_grids_and_lossless_for_fine() {
        // The historical 0.1-spaced grids keep their byte-identical one
        // decimal rendering…
        assert_eq!(fmt_xi(0.3), "0.3");
        assert_eq!(fmt_xi(1.0), "1.0");
        assert_eq!(fmt_xi(0.0), "0.0");
        // …while scenario-supplied finer values stay distinguishable.
        assert_eq!(fmt_xi(0.25), "0.25");
        assert_eq!(fmt_xi(0.21), "0.21");
        assert_ne!(fmt_xi(0.25), fmt_xi(0.21));
    }
}
