//! The one renderer: folded cells in, tables and CSVs out.
//!
//! A scenario kind decides *which* rows and columns it shows (a [`Layout`]);
//! how a [`Metric`] prints is decided here, once, for every kind. In
//! particular this module owns the one-seed-vs-many rule: with one seed a
//! cell prints the run itself (replicate 0 **is** the historical single-seed
//! run, byte for byte), with many it prints `mean±std` over the seeds, the
//! CSVs grow `_mean` / `_std` / `_n` fields, and a time-accuracy figure
//! gains its error-bar series. No caller asks how many seeds there were.
//!
//! The formats are byte-frozen (`crates/scenario/tests/golden/pinned/`), odd
//! corners included: `avg round` is `report::fmt_secs`
//! with one seed but one decimal with many; `rounds survived` is an integer
//! with one seed and `mean±std` (CSV two decimals) with many; a target's
//! `_n` CSV field carries no `_s` unit suffix.

use crate::harness::SeedPlan;
use crate::report::{error_bar_csv, fmt_opt_secs, gnuplot_script, try_write_csv, Table};
use crate::stats::{CellStats, Metric};
use std::path::Path;

/// One metric column of a [`Layout`].
#[derive(Debug, Clone)]
pub struct Column {
    /// What the column reports.
    pub metric: Metric,
    /// Table header — in a [`Renderer::pivot`], the column's table title.
    pub header: String,
    /// CSV header stem: the field is `<stem>` with one seed and
    /// `<stem>_mean,<stem>_std` (plus a count field for a target) with many.
    /// `None` in a layout without a CSV.
    pub csv: Option<String>,
    /// Stem of a target's count field `<count>_n` where it is not `csv`'s: a
    /// count has no unit, so `time_to_80_s` is counted by `time_to_80_n`.
    pub count: Option<String>,
}

impl Column {
    /// A column of `metric` under the given table header and CSV stem.
    pub fn new(metric: Metric, header: impl Into<String>, csv: impl Into<String>) -> Self {
        Self {
            csv: Some(csv.into()),
            ..Self::table_only(metric, header)
        }
    }

    /// A column of `metric` for a layout without a CSV.
    pub fn table_only(metric: Metric, header: impl Into<String>) -> Self {
        Self {
            metric,
            header: header.into(),
            csv: None,
            count: None,
        }
    }

    /// Name this target column's count field `<count>_n`.
    pub fn counted_as(self, count: impl Into<String>) -> Self {
        Self {
            count: Some(count.into()),
            ..self
        }
    }
}

/// Which rows and columns one table (and its CSV) shows.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Table title.
    pub title: String,
    /// The key columns left of the metrics: table header and CSV header.
    pub keys: Vec<(&'static str, &'static str)>,
    /// Each row's key cells, index-aligned with the run's cells. A cell that
    /// lost every replicate has no row (its failures are reported apart).
    pub rows: Vec<Vec<String>>,
    /// The metric columns.
    pub columns: Vec<Column>,
    /// Also write the rows to this CSV file under the results directory.
    pub csv_name: Option<String>,
    /// Replicated CSV rows carry a `seeds` field after the keys.
    pub seeds_column: bool,
    /// The `grid` kind's two historical departures: `[reached/total]` counts
    /// (and the `seeds` field) are over the seeds that survived in that cell
    /// rather than the seeds requested, and a last-point statistic that only
    /// some seeds reached is not marked with its coverage.
    pub grid_counts: bool,
}

/// Renders [`Layout`]s for one run; knows the run's replication from its
/// [`SeedPlan`] and writes its CSVs into one directory.
#[derive(Debug, Clone, Copy)]
pub struct Renderer<'a> {
    plan: &'a SeedPlan,
    dir: &'a Path,
}

/// `  system re-sampled per replicate (system seeds a..b)`, the line that
/// says a run used the `--system-seeds` axis.
pub fn resampled_note(plan: &SeedPlan) -> String {
    format!(
        "  system re-sampled per replicate (system seeds {}..{})",
        plan.system_seed,
        plan.system_seed + (plan.run_seeds.len() as u64 - 1)
    )
}

impl<'a> Renderer<'a> {
    /// A renderer for the run `plan` describes, writing CSVs into `dir`.
    pub fn new(plan: &'a SeedPlan, dir: &'a Path) -> Self {
        Self { plan, dir }
    }

    fn replicated(&self) -> bool {
        self.plan.run_seeds.len() > 1
    }

    /// The `total` of a cell's `[reached/total]` counts.
    fn total(&self, layout: &Layout, cell: &CellStats) -> usize {
        if layout.grid_counts {
            cell.seeds.len()
        } else {
            self.plan.run_seeds.len()
        }
    }

    /// Under a replicated run's headline: the seed range and `legend` (what
    /// a table cell shows), then the system-seed range under
    /// `--system-seeds`; each line ends with `end`. Prints nothing for a
    /// single-seed run.
    pub fn banner(&self, legend: &str, end: &str) {
        if !self.replicated() {
            return;
        }
        let seeds = &self.plan.run_seeds;
        print!(
            "  replicated over {} seeds ({}..{}); {legend}{end}",
            seeds.len(),
            seeds[0],
            seeds[seeds.len() - 1]
        );
        if self.plan.vary_system {
            print!("{}{end}", resampled_note(self.plan));
        }
    }

    /// One table cell.
    fn cell(&self, layout: &Layout, metric: Metric, cell: &CellStats) -> String {
        use Metric::*;
        if !self.replicated() {
            let x = metric.of(cell.first());
            return match metric {
                FinalAccuracy | FinalLoss | Participation => x.map(|x| format!("{x:.3}")),
                AverageRound | TotalTime | TimeTo(_) => Some(fmt_opt_secs(x)),
                Energy | EnergyTo(_) | RoundsSurvived => x.map(|x| format!("{x:.0}")),
            }
            .unwrap_or_else(|| "n/a".to_string());
        }
        let stat = cell.stat(metric);
        let total = self.total(layout, cell);
        match metric {
            FinalAccuracy | FinalLoss | Participation => stat.fmt_mean_std(3),
            AverageRound | RoundsSurvived => stat.fmt_mean_std(1),
            // The last eval point may cover only the seeds whose traces ran
            // that long; make the partial coverage visible instead of
            // presenting a subset mean as if it spanned every replicate.
            TotalTime | Energy if layout.grid_counts || stat.n == total as u64 => {
                stat.fmt_mean_std(0)
            }
            TotalTime | Energy | TimeTo(_) | EnergyTo(_) => stat.fmt_with_count(0, total),
        }
    }

    /// One column's CSV header fields.
    fn csv_header(&self, column: &Column) -> String {
        let stem = column.csv.as_deref().expect("a CSV column has a stem");
        if !self.replicated() {
            stem.to_string()
        } else if column.metric.is_target() {
            let count = column.count.as_deref().unwrap_or(stem);
            format!("{stem}_mean,{stem}_std,{count}_n")
        } else {
            format!("{stem}_mean,{stem}_std")
        }
    }

    /// One cell's CSV fields under [`Self::csv_header`]. A target no seed
    /// reached leaves its value fields blank — an empty field parses as
    /// missing data, where a literal 0 would read as a measurement.
    fn csv_fields(&self, metric: Metric, cell: &CellStats) -> String {
        use Metric::*;
        let p = match metric {
            FinalAccuracy | FinalLoss | Participation => 4,
            AverageRound | TotalTime | Energy => 2,
            TimeTo(_) | EnergyTo(_) => 1,
            RoundsSurvived if self.replicated() => 2,
            RoundsSurvived => 0,
        };
        if !self.replicated() {
            let x = metric.of(cell.first());
            return x.map(|x| format!("{x:.p$}")).unwrap_or_default();
        }
        let stat = cell.stat(metric);
        if metric.is_target() {
            stat.csv_fields(p)
        } else {
            format!("{:.p$},{:.p$}", stat.mean, stat.std)
        }
    }

    /// The layout's rows as CSV text: the key fields, the `seeds` field of a
    /// replicated layout that has one, then every column's fields.
    fn csv(&self, layout: &Layout, cells: &[Option<CellStats>]) -> String {
        let seeds_column = self.replicated() && layout.seeds_column;
        let mut header: Vec<String> = layout.keys.iter().map(|k| k.1.to_string()).collect();
        if seeds_column {
            header.push("seeds".to_string());
        }
        header.extend(layout.columns.iter().map(|c| self.csv_header(c)));
        let mut csv = header.join(",");
        csv.push('\n');
        for (keys, cell) in layout.rows.iter().zip(cells) {
            let Some(cell) = cell else { continue };
            let mut fields = keys.clone();
            if seeds_column {
                fields.push(self.total(layout, cell).to_string());
            }
            let metrics = layout.columns.iter();
            fields.extend(metrics.map(|c| self.csv_fields(c.metric, cell)));
            csv.push_str(&fields.join(","));
            csv.push('\n');
        }
        csv
    }

    /// Write [`Self::csv`] to the layout's `csv_name` (nothing without one).
    fn write_csv(&self, layout: &Layout, cells: &[Option<CellStats>]) {
        if let Some(name) = &layout.csv_name {
            try_write_csv(self.dir, name, &self.csv(layout, cells));
        }
    }

    /// What [`Self::table`] prints.
    fn table_text(&self, layout: &Layout, cells: &[Option<CellStats>]) -> String {
        let keys = layout.keys.iter().map(|k| k.0);
        let header: Vec<&str> = keys
            .chain(layout.columns.iter().map(|c| c.header.as_str()))
            .collect();
        let mut table = Table::new(&layout.title, &header);
        for (keys, cell) in layout.rows.iter().zip(cells) {
            let Some(cell) = cell else { continue };
            let mut row = keys.clone();
            let metrics = layout.columns.iter();
            row.extend(metrics.map(|c| self.cell(layout, c.metric, cell)));
            table.add_row(row);
        }
        table.render() + "\n"
    }

    /// Print the layout as one table, a row per surviving cell, and write
    /// its CSV.
    pub fn table(&self, layout: &Layout, cells: &[Option<CellStats>]) {
        print!("{}", self.table_text(layout, cells));
        self.write_csv(layout, cells);
    }

    /// What [`Self::pivot`] prints.
    fn pivot_text(&self, layout: &Layout, heads: &[&str], cells: &[Option<CellStats>]) -> String {
        let key_header = layout.keys[0].0;
        let header: Vec<&str> = std::iter::once(key_header)
            .chain(heads.iter().copied())
            .collect();
        let mut tables: Vec<Table> = layout
            .columns
            .iter()
            .map(|c| Table::new(&c.header, &header))
            .collect();
        let mut text = String::new();
        let groups = layout.rows.chunks(heads.len());
        for (rows, cells) in groups.zip(cells.chunks(heads.len())) {
            let key = &rows[0][0];
            for (table, column) in tables.iter_mut().zip(&layout.columns) {
                let mut row = vec![key.clone()];
                row.extend(cells.iter().map(|cell| match cell {
                    Some(cell) => self.cell(layout, column.metric, cell),
                    None => "n/a".to_string(),
                }));
                table.add_row(row);
            }
            text.push_str(&format!("finished {key_header} = {key}\n"));
        }
        text.push('\n');
        for table in &tables {
            text.push_str(&table.render());
            text.push('\n');
        }
        text
    }

    /// Print a layout with two keys as one table per metric column — a row
    /// per value of the first key, a column per value of the second
    /// (`heads`), `n/a` for a cell that lost every replicate — after one
    /// `finished <key> = <value>` line per row, and write its CSV (a row per
    /// surviving cell, as [`Self::table`] would). Rows arrive first key
    /// outermost, `heads.len()` to a group.
    pub fn pivot(&self, layout: &Layout, heads: &[&str], cells: &[Option<CellStats>]) {
        print!("{}", self.pivot_text(layout, heads, cells));
        self.write_csv(layout, cells);
    }

    /// Write each surviving cell's canonical first-seed trace as
    /// `<csv_prefix>_<mechanism>.csv` — the historical name and bytes at any
    /// seed count, so plotting scripts keep working — and, for a replicated
    /// run, its `…_errorbars.csv` series beside it plus one shaded-band
    /// gnuplot script over all of them.
    pub fn traces(&self, title: &str, csv_prefix: &str, cells: &[Option<CellStats>]) {
        let mut series: Vec<(String, String)> = Vec::new();
        for c in cells.iter().flatten() {
            let stem = c.mechanism.to_lowercase().replace(['-', ' '], "_");
            try_write_csv(
                self.dir,
                &format!("{csv_prefix}_{stem}.csv"),
                &c.first().trace.to_csv(),
            );
            if self.replicated() {
                let name = format!("{csv_prefix}_{stem}_errorbars.csv");
                try_write_csv(self.dir, &name, &error_bar_csv(&c.points));
                series.push((c.mechanism.clone(), name));
            }
        }
        if self.replicated() {
            try_write_csv(
                self.dir,
                &format!("{csv_prefix}_errorbars.gp"),
                &gnuplot_script(title, &format!("{csv_prefix}_errorbars.png"), &series),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunSummary;
    use simcore::trace::{TracePoint, TrainingTrace};

    /// A run evaluated every 10 s: accuracy as given, loss `1 − accuracy`,
    /// 2 J per second.
    fn run(accuracies: &[f64]) -> RunSummary {
        let mut trace = TrainingTrace::new("Air-FedGA", "test");
        for (i, &accuracy) in accuracies.iter().enumerate() {
            let time = 10.0 * (i + 1) as f64;
            trace.record(TracePoint {
                time,
                round: i + 1,
                loss: 1.0 - accuracy,
                accuracy,
                energy: 2.0 * time,
            });
        }
        RunSummary::from_trace(trace)
    }

    fn plan(seeds: u64) -> SeedPlan {
        SeedPlan::fixed_system(42, (0..seeds).map(|r| 4242 + r).collect())
    }

    fn cell(runs: &[&[f64]]) -> CellStats {
        let seeds = (0..runs.len() as u64).map(|r| 4242 + r).collect();
        CellStats::from_summaries(seeds, runs.iter().map(|a| run(a)).collect())
    }

    fn layout(columns: Vec<Column>) -> Layout {
        Layout {
            title: "t".to_string(),
            keys: vec![("mechanism", "mechanism")],
            rows: vec![vec!["Air-FedGA".to_string()]],
            columns,
            csv_name: Some("unused.csv".to_string()),
            ..Layout::default()
        }
    }

    fn all_metrics() -> Vec<Column> {
        use Metric::*;
        let column = |metric, csv: &str| Column::new(metric, csv, csv);
        vec![
            column(FinalAccuracy, "final_acc"),
            column(FinalLoss, "final_loss"),
            column(AverageRound, "avg_round_s"),
            column(TotalTime, "total_time_s"),
            column(Energy, "energy_j"),
            column(TimeTo(0.5), "t50"),
            column(TimeTo(0.99), "time_to_99_s").counted_as("time_to_99"),
            column(EnergyTo(0.5), "e50"),
            column(Participation, "participation"),
            column(RoundsSurvived, "rounds_survived"),
        ]
    }

    fn cells_of(renderer: &Renderer, layout: &Layout, cell: &CellStats) -> Vec<String> {
        layout
            .columns
            .iter()
            .map(|c| renderer.cell(layout, c.metric, cell))
            .collect()
    }

    #[test]
    fn one_seed_prints_the_run_itself() {
        let plan = plan(1);
        let renderer = Renderer::new(&plan, Path::new("unused"));
        let layout = layout(all_metrics());
        let cell = cell(&[&[0.25, 0.5, 0.75]]);
        assert_eq!(
            cells_of(&renderer, &layout, &cell),
            ["0.750", "0.250", "10.0", "30.0", "60", "20.0", "n/a", "40", "1.000", "3"]
        );
        assert_eq!(
            renderer.csv(&layout, &[Some(cell)]),
            "mechanism,final_acc,final_loss,avg_round_s,total_time_s,energy_j,t50,\
             time_to_99_s,e50,participation,rounds_survived\n\
             Air-FedGA,0.7500,0.2500,10.00,30.00,60.00,20.0,,40.0,1.0000,3\n"
        );
    }

    #[test]
    fn many_seeds_print_mean_std_and_count_the_seeds_that_got_there() {
        let plan = plan(3);
        let renderer = Renderer::new(&plan, Path::new("unused"));
        let mut layout = layout(all_metrics());
        layout.seeds_column = true;
        // The third seed stops one evaluation early and never reaches 50 %.
        let cell = cell(&[&[0.25, 0.5, 0.75], &[0.25, 0.5, 0.75], &[0.25, 0.25]]);
        assert_eq!(
            cells_of(&renderer, &layout, &cell),
            [
                "0.583±0.289",
                "0.417±0.289",
                "10.0±0.0",
                "30±0 [2/3]",
                "60±0 [2/3]",
                "20±0 [2/3]",
                "n/a",
                "40±0 [2/3]",
                "1.000±0.000",
                "2.7±0.6"
            ]
        );
        assert_eq!(
            renderer.csv(&layout, &[Some(cell)]),
            "mechanism,seeds,final_acc_mean,final_acc_std,final_loss_mean,final_loss_std,\
             avg_round_s_mean,avg_round_s_std,total_time_s_mean,total_time_s_std,\
             energy_j_mean,energy_j_std,t50_mean,t50_std,t50_n,\
             time_to_99_s_mean,time_to_99_s_std,time_to_99_n,e50_mean,e50_std,e50_n,\
             participation_mean,participation_std,rounds_survived_mean,rounds_survived_std\n\
             Air-FedGA,3,0.5833,0.2887,0.4167,0.2887,10.00,0.00,30.00,0.00,60.00,0.00,\
             20.0,0.0,2,,,0,40.0,0.0,2,1.0000,0.0000,2.67,0.58\n"
        );
    }

    /// A cell that lost a replicate for good: the grid counts over the two
    /// survivors and never marks partial coverage; every other kind counts
    /// over the three seeds requested.
    #[test]
    fn grid_counts_are_over_the_cell_s_survivors() {
        let plan = plan(3);
        let renderer = Renderer::new(&plan, Path::new("unused"));
        let columns = || {
            vec![
                Column::new(Metric::TotalTime, "total time (s)", "total_time_s"),
                Column::new(Metric::TimeTo(0.5), "t@50% (s)", "t50"),
            ]
        };
        let cell = cell(&[&[0.25, 0.5, 0.75], &[0.25, 0.25]]);
        let mut layout = layout(columns());
        layout.seeds_column = true;
        assert_eq!(
            cells_of(&renderer, &layout, &cell),
            ["30±0 [1/3]", "20±0 [1/3]"]
        );
        let csv = renderer.csv(&layout, std::slice::from_ref(&Some(cell.clone())));
        assert!(
            csv.ends_with("\nAir-FedGA,3,30.00,0.00,20.0,0.0,1\n"),
            "{csv}"
        );
        layout.grid_counts = true;
        assert_eq!(cells_of(&renderer, &layout, &cell), ["30±0", "20±0 [1/2]"]);
        let csv = renderer.csv(&layout, &[Some(cell)]);
        assert!(
            csv.ends_with("\nAir-FedGA,2,30.00,0.00,20.0,0.0,1\n"),
            "{csv}"
        );
    }

    #[test]
    fn a_cell_without_survivors_has_no_row_and_pivots_to_n_a() {
        let plan = plan(1);
        let renderer = Renderer::new(&plan, Path::new("unused"));
        let layout = Layout {
            keys: vec![("N", "n"), ("mechanism", "mechanism")],
            rows: [
                ("5", "FedAvg"),
                ("5", "Air-FedGA"),
                ("8", "FedAvg"),
                ("8", "Air-FedGA"),
            ]
            .map(|(n, m)| vec![n.to_string(), m.to_string()])
            .to_vec(),
            columns: vec![Column::new(
                Metric::AverageRound,
                "round time",
                "avg_round_s",
            )],
            ..Layout::default()
        };
        let alive = || Some(cell(&[&[0.25, 0.5]]));
        let cells = [alive(), None, alive(), alive()];
        assert_eq!(
            renderer.pivot_text(&layout, &["FedAvg", "Air-FedGA"], &cells),
            "finished N = 5\nfinished N = 8\n\n\
             == round time ==\n\
             N  FedAvg  Air-FedGA\n\
             --------------------\n\
             5  10.0    n/a      \n\
             8  10.0    10.0     \n\n"
        );
        assert_eq!(
            renderer.csv(&layout, &cells),
            "n,mechanism,avg_round_s\n5,FedAvg,10.00\n8,FedAvg,10.00\n8,Air-FedGA,10.00\n"
        );
        assert_eq!(
            renderer.table_text(&layout, &cells),
            "==  ==\n\
             N  mechanism  round time\n\
             ------------------------\n\
             5  FedAvg     10.0      \n\
             8  FedAvg     10.0      \n\
             8  Air-FedGA  10.0      \n\n"
        );
    }
}
