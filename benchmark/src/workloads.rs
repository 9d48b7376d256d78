//! The four workloads, and the three of them that drive `airfedga-run`
//! directly. `service_mix` lives in [`crate::service`].
//!
//! Load shape: one generator (this process), closed loop, one operation in
//! flight at a time. Every workload repeats its op, each followed by a few
//! warm repeats (everything already stored), until its time box is spent:
//!
//! | workload      | op                                   | warm repeat          |
//! |---------------|--------------------------------------|----------------------|
//! | `fig3_cold`   | `airfedga-run fig3 --fresh`          | `--resume`, all hits |
//! | `grid_cold`   | `airfedga-run grid --fresh`          | `--resume`, all hits |
//! | `resume_mix`  | lose half the store, then `--resume` | `--resume`, all hits |
//! | `service_mix` | fresh job, submit -> terminal        | the same job again   |

use crate::metrics::Metrics;
use crate::probe::HostSpeed;
use crate::program::{Invocation, Program};
use crate::spans::Recorder;
use crate::{clock, specs, stats};
use experiments::Scale;
use fedml::rng::Rng64;
use runstore::Fnv128;
use scenario::spec::expand_grid;
use scenario::{ScenarioKind, ScenarioSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Set-up is repeated through the run, before the ops, so that it sees the
/// host as the ops do and not one instant before them: a few
/// milliseconds for the cold workloads, hence several before every op;
/// `resume_mix` pays a store fill per set-up, hence one before each of its
/// first three ops.
const CHEAP_SETUPS_PER_OP: usize = 8;
const FILL_SETUPS: usize = 3;
/// Warm repeats (the same request again, everything stored) after every op.
const WARMS_PER_OP: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig3Cold,
    GridCold,
    ResumeMix,
    ServiceMix,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig3Cold,
        Kind::GridCold,
        Kind::ResumeMix,
        Kind::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig3Cold => "fig3_cold",
            Kind::GridCold => "grid_cold",
            Kind::ResumeMix => "resume_mix",
            Kind::ServiceMix => "service_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The spec the workload's `airfedga-run` invocations execute; for
    /// `service_mix`, the first job's.
    pub fn spec(self, seed: u64) -> String {
        match self {
            Kind::Fig3Cold => specs::fig3(seed),
            Kind::GridCold | Kind::ResumeMix => specs::grid(seed),
            Kind::ServiceMix => specs::job(seed, 0),
        }
    }

    /// How the workload's op invokes `airfedga-run`.
    pub fn op_mode(self) -> &'static str {
        match self {
            Kind::ResumeMix => "--resume",
            _ => "--fresh",
        }
    }
}

/// What one pass over one workload needs.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub program: &'a Program,
    /// Scratch directory of this workload, under `benchmark/out/<run-id>/`.
    pub dir: PathBuf,
    pub seed: u64,
    /// Time box of the measured loop.
    pub seconds: f64,
    pub smoke: bool,
}

impl Ctx<'_> {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Whether a measured loop that has used `elapsed_s` of its time box
    /// has room for another iteration as long as the last one. At least two
    /// run; a smoke run stops after one.
    pub fn time_left(&self, elapsed_s: f64, last_iter_s: f64, iters: usize) -> bool {
        if self.smoke {
            return iters == 0;
        }
        iters < 2 || elapsed_s + last_iter_s <= self.seconds
    }
}

/// Attempted and failed operations, with the reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation (or one end-of-run check); `Err` is why it
    /// failed.
    pub fn op(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(reason) => {
                self.failed += 1;
                eprintln!("check failed: {reason}");
                self.reasons.push(reason);
                false
            }
        }
    }
}

/// What one pass over one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// FNV-1a-128 of the reference outputs, for exact cross-commit checks.
    pub digest: String,
    /// Mean calibration slice of the untraced pass, and what it made of
    /// the host's speed (see [`crate::probe`]); zero when not measured.
    pub slice_s: f64,
    pub slowdown: f64,
}

/// What an untraced pass sampled, as measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per successful op: wall and CPU seconds, simulated rounds computed,
    /// peak resident memory.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub rounds: Vec<f64>,
    pub rss_mb: Vec<f64>,
    /// Per warm repeat and per set-up repetition.
    pub warm_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl Outcome {
    /// Record the end-to-end metrics of an untraced pass. Times are
    /// calibrated to the reference host speed; memory is not a time. An
    /// op's wall and CPU time are means and the rate is total rounds over
    /// total time (see [`crate::probe`] for why not medians); memory is a
    /// median. The warm repeat and set-up are their fastest repetitions:
    /// milliseconds of process start and file work whose whole distribution,
    /// median included, moves with the neighbours' load while the fastest of
    /// a run's 40 to 90 repetitions stays (run-to-run spread of the warm
    /// repeat 3 to 4 % against 10 to 13 % for its median; of set-up under
    /// heavy load 19 % against 44 %).
    pub fn end_to_end(&mut self, speed: &HostSpeed, s: &Samples) {
        let wall_s = speed.calibrate(&s.wall_s);
        let rate: Vec<f64> = s.rounds.iter().zip(&wall_s).map(|(r, w)| r / w).collect();
        let total_rate = s.rounds.iter().sum::<f64>() / wall_s.iter().sum::<f64>();
        self.metrics.mean_of("wall_s", &wall_s);
        self.metrics.mean_of("cpu_s", &speed.calibrate(&s.cpu_s));
        self.metrics.summary(
            "rounds_per_s",
            stats::summarize(&rate).map(|r| r.with_value(total_rate)),
        );
        self.metrics.samples("peak_rss_mb", &s.rss_mb);
        self.metrics
            .fastest_of("warm_min_ms", &speed.calibrate(&s.warm_ms));
        self.metrics
            .fastest_of("setup_s", &speed.calibrate(&s.setup_s));
        self.slice_s = speed.slice_s();
        self.slowdown = speed.slowdown();
    }
}

/// Stdout and CSV files of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    pub stdout: String,
    pub csvs: Vec<(String, String)>,
}

impl Outputs {
    pub fn digest(&self) -> String {
        let mut h = Fnv128::new();
        h.update(self.stdout.as_bytes());
        for (name, text) in &self.csvs {
            h.update(name.as_bytes());
            h.update(text.as_bytes());
        }
        format!("{:032x}", h.finish())
    }
}

/// The `*.csv` files of a results directory, sorted by name.
pub fn read_csvs(dir: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut csvs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|x| x == "csv") {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            csvs.push((name.into_owned(), fs::read_to_string(&path)?));
        }
    }
    csvs.sort();
    Ok(csvs)
}

/// The `.run` files of a store root, sorted, grouped by spec directory.
pub fn stored_runs(store: &Path) -> Result<Vec<(PathBuf, BTreeSet<PathBuf>)>, String> {
    let io = |e: std::io::Error| format!("{}: {e}", store.display());
    let mut dirs = Vec::new();
    for spec_dir in fs::read_dir(store).map_err(io)? {
        let spec_dir = spec_dir.map_err(io)?.path();
        if !spec_dir.is_dir() {
            continue;
        }
        let mut runs = BTreeSet::new();
        for entry in fs::read_dir(&spec_dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            if path.extension().is_some_and(|x| x == "run") {
                runs.insert(path);
            }
        }
        dirs.push((spec_dir, runs));
    }
    dirs.sort();
    Ok(dirs)
}

/// The pre-flight of every set-up: `airfedga-run --list-components` proves
/// the binary starts.
pub fn preflight(ctx: &Ctx<'_>, scratch: &Path, rec: &mut Recorder) -> Result<(), String> {
    let open = rec.enter("scenario.preflight");
    let started = ctx
        .program
        .run(&["--list-components"], ctx.program.threads, scratch);
    rec.exit(open);
    match started {
        Ok(inv) if inv.ok => Ok(()),
        Ok(_) => Err("pre-flight `airfedga-run --list-components` failed".into()),
        Err(e) => Err(format!("{}: {e}", scratch.display())),
    }
}

/// `(hits, recomputed, corrupt)` from the `runstore:` stderr summary.
pub fn cache_summary(stderr: &str) -> Option<(u64, u64, u64)> {
    let line = stderr.lines().find(|l| l.starts_with("runstore: "))?;
    let mut numbers = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().ok());
    Some((numbers.next()??, numbers.next()??, numbers.next()??))
}

/// `(final accuracy, t@80 %)` of one mechanism's row in a single-seed
/// time-accuracy table.
pub fn fig3_row(stdout: &str, mechanism: &str) -> Option<(f64, Option<f64>)> {
    let row = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some(mechanism))?;
    let cols: Vec<&str> = row.split_whitespace().collect();
    Some((cols.get(1)?.parse().ok()?, cols.get(6)?.parse().ok()))
}

/// Mean time to 80 % of the Air-FedGA, N = 20, xi = 0.8 cell of a grid CSV
/// (the one Air-FedGA cell that reaches 80 % within the grids' 20 rounds).
pub fn grid_t80(csv: &str) -> Option<f64> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let (n, xi, mech, t80) = (col("n")?, col("xi")?, col("mechanism")?, col("t80_mean")?);
    lines
        .map(|l| l.split(',').collect::<Vec<_>>())
        .find(|r| {
            r.get(n) == Some(&"20")
                && r.get(xi) == Some(&"0.8")
                && r.get(mech) == Some(&"Air-FedGA")
        })
        .and_then(|r| r.get(t80)?.parse().ok())
}

/// One `airfedga-run` working directory: spec, store and results.
#[derive(Debug)]
pub struct Batch<'a> {
    program: &'a Program,
    pub kind: Kind,
    pub dir: PathBuf,
    pub spec_text: String,
    /// Replicates in the spec and rounds per replicate, exact.
    pub replicates: u64,
    pub rounds: u64,
    /// The paper's claims are checked at the paper's scale only.
    full_scale: bool,
    /// What every later invocation must reproduce byte for byte.
    pub reference: Option<Outputs>,
    /// Chooses the replicates a `resume_mix` op loses.
    rng: Rng64,
}

impl<'a> Batch<'a> {
    /// Set-up as a user would do it before the first timed op: scratch
    /// directory, spec file, a pre-flight `--list-components` that proves the
    /// binary starts, and for `resume_mix` the cold run that fills the store.
    pub fn setup(
        ctx: &Ctx<'a>,
        kind: Kind,
        dir: PathBuf,
        rec: &mut Recorder,
    ) -> Result<Self, String> {
        let at = dir.display().to_string();
        let io = |e: std::io::Error| format!("{at}: {e}");
        fs::create_dir_all(dir.join("results")).map_err(io)?;
        let spec_text = kind.spec(ctx.seed);
        let open = rec.enter("scenario.generate_spec");
        fs::write(dir.join("spec.toml"), &spec_text).map_err(io)?;
        let spec = ScenarioSpec::parse(&spec_text).map_err(|e| format!("generated spec: {e}"))?;
        rec.exit(open);
        let cells = match spec.kind {
            ScenarioKind::Grid => expand_grid(&spec).len(),
            _ => spec.mechanisms.len(),
        };
        let mut batch = Self {
            program: ctx.program,
            kind,
            replicates: (cells * spec.num_seeds) as u64,
            rounds: spec.rounds.unwrap_or(ctx.scale().total_rounds()) as u64,
            spec_text,
            full_scale: !ctx.smoke,
            reference: None,
            rng: Rng64::seed_from(ctx.seed),
            dir,
        };
        preflight(ctx, &batch.dir, rec)?;
        if kind == Kind::ResumeMix {
            let open = rec.enter("runstore.fill");
            let fill = batch
                .invoke("--fresh", ctx.program.threads, None)
                .map_err(io)?;
            rec.exit(open);
            batch.verify(&fill, batch.replicates)?;
        }
        Ok(batch)
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// Run the spec with `--fresh` or `--resume` against this directory's
    /// store and results.
    pub fn invoke(
        &self,
        mode: &str,
        threads: usize,
        telemetry: Option<&Path>,
    ) -> std::io::Result<Invocation> {
        let (spec, store, results) = (
            self.path("spec.toml"),
            self.path("store"),
            self.path("results"),
        );
        let mut args = vec![
            spec.as_str(),
            mode,
            "--store-root",
            &store,
            "--results-dir",
            &results,
        ];
        let telemetry = telemetry.map(|d| d.to_string_lossy().into_owned());
        if let Some(dir) = &telemetry {
            args.extend(["--telemetry", dir]);
        }
        self.program.run(&args, threads, &self.dir)
    }

    /// Make the store what the next op expects and return how many
    /// replicates that op must recompute: all of them for a `--fresh` op;
    /// for `resume_mix` a seed-chosen half of every cell's replicates, whose
    /// `.run` files are deleted here. (Any half would do for the store; half
    /// of each cell keeps the recomputed work equal from op to op and seed
    /// to seed — cells differ in cost by up to 4x.)
    pub fn prepare_op(&mut self) -> Result<u64, String> {
        if self.kind != Kind::ResumeMix {
            return Ok(self.replicates);
        }
        // The replicate files are the truth; the store's journal says which
        // cell each belongs to. The journal is advisory and its lines can
        // interleave when two threads store at once (seen about once in 40
        // fills), so only well-formed lines naming an existing file count
        // and the rest of the files form one group of their own.
        let mut by_cell: BTreeMap<Option<u64>, BTreeSet<PathBuf>> = BTreeMap::new();
        for (spec_dir, mut unplaced) in stored_runs(&self.store_dir())? {
            let journal = fs::read_to_string(spec_dir.join("journal")).unwrap_or_default();
            for line in journal.lines() {
                let mut fields = line.split_whitespace();
                let file = fields.next().map(|key| spec_dir.join(format!("{key}.run")));
                let cell = fields
                    .next()
                    .and_then(|f| f.strip_prefix("cell=")?.parse().ok());
                if let (Some(file), Some(cell)) = (file, cell) {
                    if unplaced.remove(&file) {
                        by_cell.entry(Some(cell)).or_default().insert(file);
                    }
                }
            }
            by_cell.entry(None).or_default().extend(unplaced);
        }
        let stored: usize = by_cell.values().map(BTreeSet::len).sum();
        if stored as u64 != self.replicates {
            return Err(format!(
                "store holds {stored} replicates, not {}",
                self.replicates
            ));
        }
        let mut lost = 0;
        for files in by_cell.values() {
            let mut files: Vec<&PathBuf> = files.iter().collect();
            self.rng.shuffle(&mut files);
            for file in &files[..files.len() / 2] {
                fs::remove_file(file).map_err(|e| format!("{}: {e}", file.display()))?;
                lost += 1;
            }
        }
        Ok(lost)
    }

    /// The correctness checks on one invocation: clean exit, the expected
    /// recompute count, and outputs identical to the first invocation's.
    pub fn verify(&mut self, inv: &Invocation, recomputed: u64) -> Result<(), String> {
        if !inv.ok {
            let tail = inv.stderr.lines().last().unwrap_or_default();
            return Err(format!(
                "{}: non-zero exit or panic: {tail}",
                self.kind.name()
            ));
        }
        let expected = (self.replicates - recomputed, recomputed, 0);
        if cache_summary(&inv.stderr) != Some(expected) {
            return Err(format!(
                "{}: expected (hits, recomputed, corrupt) = {expected:?}, stderr says {:?}",
                self.kind.name(),
                cache_summary(&inv.stderr)
            ));
        }
        // Stdout names the results directory ("-> wrote <dir>/x.csv"), which
        // differs from one set-up to the next.
        let outputs = Outputs {
            stdout: inv.stdout.replace(&self.path("results"), "<results>"),
            csvs: read_csvs(&self.dir.join("results")).map_err(|e| e.to_string())?,
        };
        match &self.reference {
            None => self.reference = Some(outputs),
            Some(reference) if *reference != outputs => {
                return Err(format!(
                    "{}: outputs differ from the first invocation's",
                    self.kind.name()
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Simulated seconds to 80 % accuracy, read from the reference outputs.
    pub fn sim_t80(&self) -> Option<f64> {
        let reference = self.reference.as_ref()?;
        match self.kind {
            Kind::Fig3Cold => fig3_row(&reference.stdout, "Air-FedGA")?.1,
            _ => reference.csvs.iter().find_map(|(_, text)| grid_t80(text)),
        }
    }

    /// Checks on what the run computed, not only that it repeats: on the
    /// paper's figure every mechanism must train (final accuracy >= 0.95)
    /// and Air-FedGA must reach 80 % before Air-FedAvg. Tolerances, not
    /// digests, because a kernel change may legitimately move rounding.
    pub fn verify_results(&self) -> Result<(), String> {
        let Some(reference) = &self.reference else {
            return Err(format!("{}: no successful invocation", self.kind.name()));
        };
        if self.sim_t80().is_none() {
            return Err(format!(
                "{}: no time-to-80 % in the outputs",
                self.kind.name()
            ));
        }
        if self.kind != Kind::Fig3Cold || !self.full_scale {
            return Ok(());
        }
        let row = |m: &str| fig3_row(&reference.stdout, m).ok_or(format!("fig3: no {m} row"));
        for mechanism in ["Dynamic", "Air-FedAvg", "Air-FedGA"] {
            let (accuracy, _) = row(mechanism)?;
            if accuracy < 0.95 {
                return Err(format!("fig3: {mechanism} ends at accuracy {accuracy}"));
            }
        }
        match (row("Air-FedGA")?.1, row("Air-FedAvg")?.1) {
            (Some(ga), Some(avg)) if ga < avg => Ok(()),
            (ga, avg) => Err(format!(
                "fig3: t@80% Air-FedGA {ga:?} vs Air-FedAvg {avg:?}"
            )),
        }
    }
}

/// The untraced pass of a workload that drives `airfedga-run` directly.
pub fn run_batch(ctx: &Ctx<'_>, kind: Kind) -> Result<Outcome, String> {
    let mut rec = Recorder::new(false);
    let mut out = Outcome::default();
    let threads = ctx.program.threads;
    let mut s = Samples::default();
    let mut speed = HostSpeed::default();
    // The ops run on the first set-up's directory; the later ones are timed,
    // checked and deleted. Set-up time is no part of the time box.
    let mut first: Option<Batch<'_>> = None;
    let started = clock::now();
    let (mut iters, mut last_iter_s) = (0, 0.0);
    while ctx.time_left(
        clock::secs_since(started) - s.setup_s.iter().sum::<f64>(),
        last_iter_s,
        iters,
    ) {
        let setups = match kind {
            Kind::ResumeMix => usize::from(iters < FILL_SETUPS),
            _ if ctx.smoke => 1,
            _ => CHEAP_SETUPS_PER_OP,
        };
        for k in 0..setups {
            let dir = ctx.dir.join(format!("setup{iters}.{k}"));
            let start = clock::now();
            let fresh = Batch::setup(ctx, kind, dir.clone(), &mut rec)?;
            s.setup_s.push(clock::secs_since(start));
            let Some(batch) = &first else {
                first = Some(fresh);
                continue;
            };
            if fresh.reference.is_some() {
                let same = fresh.reference == batch.reference;
                out.tally.op(same.then_some(()).ok_or(format!(
                    "{}: a later store fill's outputs differ from the first's",
                    kind.name()
                )));
            }
            fs::remove_dir_all(&dir).ok();
        }
        let batch = first.as_mut().expect("the first iteration sets up");
        let iter_start = clock::now();
        speed.keep_up(clock::secs_since(started));
        let recomputed = batch.prepare_op()?;
        let op = batch
            .invoke(kind.op_mode(), threads, None)
            .map_err(|e| e.to_string())?;
        if out.tally.op(batch.verify(&op, recomputed)) {
            s.wall_s.push(op.wall_s);
            s.cpu_s.push(op.cpu_s);
            s.rss_mb.push(op.peak_rss_mb);
            s.rounds.push((recomputed * batch.rounds) as f64);
        }
        for _ in 0..WARMS_PER_OP {
            let warm = batch
                .invoke("--resume", threads, None)
                .map_err(|e| e.to_string())?;
            if out.tally.op(batch.verify(&warm, 0)) {
                s.warm_ms.push(warm.wall_s * 1e3);
            }
        }
        iters += 1;
        last_iter_s = clock::secs_since(iter_start);
    }
    speed.keep_up(clock::secs_since(started));
    let batch = first.expect("at least one iteration");
    out.tally.op(batch.verify_results());
    out.end_to_end(&speed, &s);
    out.digest = batch
        .reference
        .as_ref()
        .map(Outputs::digest)
        .unwrap_or_default();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3_STDOUT: &str = "\
== Fig. 3: LR on MNIST-like (loss/accuracy vs time) ==
mechanism   final acc  final loss  avg round (s)  total time (s)  energy (J)  t@80% (s)  t@85% (s)  t@90% (s)
-------------------------------------------------------------------------------------------------------------
Dynamic     1.000      0.004       103            41351           77016       2058       2058       2058
Air-FedAvg  1.000      0.001       105            41847           103509      1046       1046       1046
Air-FedGA   0.948      0.015       13.7           5467            25205       n/a        424        578
  Air-FedGA reaches 80% accuracy 59.5% faster than Air-FedAvg (424s vs 1046s)
";

    #[test]
    fn fig3_rows_are_read_by_mechanism_name() {
        assert_eq!(
            fig3_row(FIG3_STDOUT, "Air-FedAvg"),
            Some((1.0, Some(1046.0)))
        );
        assert_eq!(fig3_row(FIG3_STDOUT, "Air-FedGA"), Some((0.948, None)));
        assert_eq!(fig3_row(FIG3_STDOUT, "FedAvg"), None);
    }

    #[test]
    fn grid_t80_picks_the_documented_cell() {
        let csv = "n,xi,mechanism,seeds,final_acc_mean,t80_mean,t80_std,t80_n\n\
                   20,0.3,Air-FedGA,2,0.78,,,0\n\
                   20,0.8,Air-FedAvg,2,0.99,4320.0,0.0,2\n\
                   20,0.8,Air-FedGA,2,0.90,7007.5,0.0,2\n";
        assert_eq!(grid_t80(csv), Some(7007.5));
        assert_eq!(grid_t80("n,xi,mechanism\n20,0.8,Air-FedGA\n"), None);
    }

    #[test]
    fn cache_summary_reads_the_stderr_line() {
        let stderr =
            "noise\nrunstore: 45 hit(s), 15 recomputed, 0 corrupt file(s) degraded to recompute\n";
        assert_eq!(cache_summary(stderr), Some((45, 15, 0)));
        assert_eq!(cache_summary("nothing here"), None);
    }

    #[test]
    fn tally_counts_failures_and_keeps_reasons() {
        let mut t = Tally::default();
        assert!(t.op(Ok(())));
        assert!(!t.op(Err("boom".into())));
        assert!(!t.op(Err("late".into())));
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.reasons, vec!["boom", "late"]);
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("fig3"), None);
    }
}
