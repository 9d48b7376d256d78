//! The `airfedga-run` process contract, asserted against the real binary:
//! the documented exit codes (0 clean / 1 unrecovered failures / 2 usage),
//! and the `--store-root` / `--results-dir` relocation flags producing
//! byte-identical outputs to a default-layout run (the equivalence the job
//! server builds on), an all-hits `--resume` that rewrites no file, every
//! byte of stdout and `results/` that the four scenario kinds print, replayed
//! against `golden/pinned/` — one case per kind on every schedule, with the
//! store, telemetry and progress flags, each of which must leave those bytes
//! alone — and the fan-out counts of the benchmark's two-thread schedule.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RUN_BIN: &str = env!("CARGO_BIN_EXE_airfedga-run");

/// Small two-seed grid with an active run store.
const GRID_SPEC: &str = r#"
[scenario]
name = "cli_contract_grid"
kind = "grid"
title = "cli contract grid"
csv_prefix = "cli_contract"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;

/// One cell that panics at round 2 with retries disabled: an unrecovered
/// replicate loss by construction.
const PANIC_SPEC: &str = r#"
[scenario]
name = "cli_contract_panic"
kind = "grid"
title = "cli contract injected panic"

[system]
workload = "mnist_lr_quick"

[faults]
inject_panic_round = 2

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [1.0]

[limits]
max_retries = 0
"#;

/// A `scalability` sweep whose every replicate panics at round 2, retries
/// disabled: the sweep kinds isolate and report like the other two.
const SWEEP_PANIC_SPEC: &str = r#"
[scenario]
name = "cli_contract_sweep_panic"
kind = "scalability"
title = "cli contract injected panic in a sweep kind"

[system]
workload = "mnist_lr_quick"

[faults]
inject_panic_round = 2

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
num_workers = [5]

[limits]
max_retries = 0
"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scenario_cli_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(cwd: &Path, args: &[&str]) -> Output {
    run_with_env(cwd, args, &[])
}

/// Run the binary at quick scale with `env` on top; the schedule is `env`'s
/// alone (an inherited `PARALLEL_THREADS` / `PARALLEL_CHUNKS` is dropped), so
/// a run without either is the host's default schedule.
fn run_with_env(cwd: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(RUN_BIN)
        .args(args)
        .current_dir(cwd)
        .env("AIRFEDGA_SCALE", "quick")
        .env_remove("PARALLEL_THREADS")
        .env_remove("PARALLEL_CHUNKS")
        .envs(env.iter().copied())
        .output()
        .unwrap()
}

#[test]
fn help_documents_the_exit_codes() {
    let dir = tmp_dir("help");
    let out = run_in(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("exit status: 0 clean run; 1 grid finished with unrecovered replicate failures; 2 usage, read or spec errors"),
        "--help must document the exit contract, got:\n{text}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_read_and_spec_errors_exit_2() {
    let dir = tmp_dir("usage");
    // Unknown flag.
    assert_eq!(run_in(&dir, &["x.toml", "--frsh"]).status.code(), Some(2));
    // Missing operand.
    assert_eq!(run_in(&dir, &[]).status.code(), Some(2));
    // Conflicting store flags.
    let out = run_in(&dir, &["x.toml", "--resume", "--fresh"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("mutually exclusive"));
    // A malformed or missing `--seeds` value is a usage error (these two
    // used to panic inside the flag parser and exit 101).
    for args in [
        &["x.toml", "--seeds", "abc"][..],
        &["x.toml", "--seeds", "--resume"][..],
    ] {
        let out = run_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--seeds"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: airfedga-run"), "{args:?}: {stderr}");
    }
    // A misspelt `AIRFEDGA_SCALE` is a usage error naming the two values,
    // before anything runs (it used to select paper scale silently).
    fs::write(dir.join("grid.toml"), GRID_SPEC).unwrap();
    let out = Command::new(RUN_BIN)
        .arg("grid.toml")
        .current_dir(&dir)
        .env("AIRFEDGA_SCALE", "quik")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("AIRFEDGA_SCALE must be `full` or `quick`") && stderr.contains("\"quik\""),
        "{stderr}"
    );
    assert!(out.stdout.is_empty() && !dir.join("results").exists());
    // Unreadable file.
    assert_eq!(run_in(&dir, &["no_such_spec.toml"]).status.code(), Some(2));
    // Spec that fails validation.
    fs::write(dir.join("bad.toml"), "[scenario]\nname = \"x\"\n").unwrap();
    let out = run_in(&dir, &["bad.toml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8(out.stderr).unwrap().is_empty());
    // A zero time budget is one line-numbered spec error before anything
    // runs, not a grid-full of replicates panicking in the engines' option
    // asserts.
    let zero_budget = GRID_SPEC.replace("rounds = 4", "rounds = 4\nmax_virtual_time = 0");
    fs::write(dir.join("zero_budget.toml"), zero_budget).unwrap();
    let out = run_in(&dir, &["zero_budget.toml"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("line 15") && stderr.contains("`run.max_virtual_time` must be positive"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "something ran");
    assert!(
        !dir.join("runstore").exists() && !dir.join("results").exists(),
        "something ran"
    );
    // Likewise the three `[system]` numbers the system build asserts on:
    // they used to pass the parser, panic in every replicate's build (twice,
    // with the retry) and exit 1 under an empty table.
    for (key, bad, expect) in [
        ("noise_variance", "-1.0", "non-negative"),
        ("base_time_per_sample", "0.0", "positive"),
        ("learning_rate", "nan", "positive"),
    ] {
        let workload = "workload = \"mnist_lr_quick\"";
        let spec = GRID_SPEC.replace(workload, &format!("{workload}\n{key} = {bad}"));
        fs::write(dir.join("bad_system.toml"), spec).unwrap();
        let out = run_in(&dir, &["bad_system.toml"]);
        assert_eq!(out.status.code(), Some(2), "{key} = {bad}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let wanted = format!("`system.{key}` must be {expect}");
        assert!(
            stderr.contains("line 10") && stderr.contains(&wanted),
            "{key} = {bad}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{key} = {bad}: something ran");
        assert!(
            !dir.join("runstore").exists() && !dir.join("results").exists(),
            "{key} = {bad}: something ran"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_run_exits_0_and_unrecovered_failures_exit_1() {
    let dir = tmp_dir("codes");
    fs::write(dir.join("grid.toml"), GRID_SPEC).unwrap();
    fs::write(dir.join("panic.toml"), PANIC_SPEC).unwrap();

    let clean = run_in(&dir, &["grid.toml"]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    fs::write(dir.join("sweep_panic.toml"), SWEEP_PANIC_SPEC).unwrap();
    for spec in ["panic.toml", "sweep_panic.toml"] {
        let failed = run_in(&dir, &[spec]);
        assert_eq!(failed.status.code(), Some(1), "{spec}");
        let stderr = String::from_utf8(failed.stderr).unwrap();
        assert!(
            stderr.contains("replicate(s) panicked") && stderr.contains("injected fault"),
            "{spec}: stderr was: {stderr}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// Every file under `root` (relative path → bytes), excluding per-run
/// bookkeeping whose ordering is timing-dependent (`journal`) and transient
/// (`lock`).
fn snapshot(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = snapshot_all(root);
    out.retain(|rel, _| !rel.ends_with("journal") && !rel.ends_with("lock"));
    out
}

/// Every file under `root` (relative path → bytes).
fn snapshot_all(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, base: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, base, out);
            } else {
                let rel = path
                    .strip_prefix(base)
                    .unwrap()
                    .to_string_lossy()
                    .to_string();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// Sorted journal lines per spec directory (completion order is
/// pool-timing-dependent; the *set* of journaled replicates is not).
fn journals(root: &Path) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let Ok(entries) = fs::read_dir(root) else {
        return out;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let journal = entry.path().join("journal");
        if let Ok(text) = fs::read_to_string(&journal) {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines.sort();
            out.insert(entry.file_name().to_string_lossy().to_string(), lines);
        }
    }
    out
}

/// The store summary and harness lines of a run's stderr.
fn report(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| l.starts_with("runstore: ") || l.starts_with("harness: "))
        .collect()
}

/// The invariant the job server is built on: relocating the store and the
/// results directory changes *where* bytes land, never *which* bytes.
#[test]
fn store_root_and_results_dir_relocation_is_byte_identical() {
    let default_cwd = tmp_dir("reloc_default");
    let reloc_cwd = tmp_dir("reloc_moved");
    fs::write(default_cwd.join("grid.toml"), GRID_SPEC).unwrap();
    fs::write(reloc_cwd.join("grid.toml"), GRID_SPEC).unwrap();

    let default_run = run_in(&default_cwd, &["grid.toml", "--fresh"]);
    assert_eq!(default_run.status.code(), Some(0));
    let moved = run_in(
        &reloc_cwd,
        &[
            "grid.toml",
            "--fresh",
            "--store-root",
            "moved/store",
            "--results-dir",
            "moved/out",
        ],
    );
    assert_eq!(
        moved.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&moved.stderr)
    );

    // The stderr report: the store summary, then — Air-FedAvg's two xi cells
    // being one computation per seed — how many replicates reused a sibling.
    assert_eq!(
        report(&String::from_utf8_lossy(&default_run.stderr)),
        [
            "runstore: 0 hit(s), 8 recomputed, 0 corrupt file(s) degraded to recompute",
            "harness: 2 of 8 replicate(s) reused an identical replicate computed in this run",
        ]
    );

    // stdout is identical up to the "-> wrote <path>" lines, which name the
    // relocated directory by design.
    let tables = |bytes: &[u8]| -> String {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| !l.contains("-> wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(tables(&default_run.stdout), tables(&moved.stdout));
    // Default layout wrote to cwd-relative dirs, the relocated run elsewhere.
    assert!(default_cwd.join("runstore").is_dir());
    assert!(default_cwd.join("results").is_dir());
    assert!(!reloc_cwd.join("runstore").exists());
    assert!(!reloc_cwd.join("results").exists());

    // Same result CSVs, byte for byte.
    let default_results = snapshot(&default_cwd.join("results"));
    let moved_results = snapshot(&reloc_cwd.join("moved/out"));
    assert!(!default_results.is_empty());
    assert_eq!(default_results, moved_results);

    // Same store contents (specs, replicate payloads) and journaled sets.
    let default_store = snapshot(&default_cwd.join("runstore"));
    let moved_store = snapshot(&reloc_cwd.join("moved/store"));
    assert!(!default_store.is_empty());
    assert_eq!(default_store, moved_store);
    assert_eq!(
        journals(&default_cwd.join("runstore")),
        journals(&reloc_cwd.join("moved/store"))
    );

    fs::remove_dir_all(&default_cwd).ok();
    fs::remove_dir_all(&reloc_cwd).ok();
}

/// A `--resume` after a partial loss repairs the store without a trace of
/// the loss, on every schedule: `joint_xi_workers` at quick scale runs
/// `--fresh`, loses every second `.run` file (sorted by name), and resumes
/// from a copy of that half-deleted store under each of [`SCHEDULES`].
/// Stdout, `results/` and every store file equal the fresh run's, and the
/// store and harness report lines are exact: two of the six lost replicates
/// are Air-FedAvg's with a surviving twin and are copied; four train.
#[test]
fn a_partial_loss_resume_is_byte_identical_on_every_schedule() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/joint_xi_workers.toml");
    let spec = spec.to_str().unwrap();
    let fresh_cwd = tmp_dir("partial_loss_fresh");
    let fresh = run_in(&fresh_cwd, &[spec, "--fresh"]);
    assert_eq!(fresh.status.code(), Some(0));
    let fresh_results = snapshot(&fresh_cwd.join("results"));
    assert!(fresh_results.contains_key("joint_xi_workers_grid.csv"));
    let fresh_store = snapshot(&fresh_cwd.join("runstore"));
    let runs: Vec<&String> = fresh_store.keys().filter(|f| f.ends_with(".run")).collect();
    assert_eq!(runs.len(), 12);
    for rel in runs.into_iter().skip(1).step_by(2) {
        fs::remove_file(fresh_cwd.join("runstore").join(rel)).unwrap();
    }
    let mut half = snapshot_all(&fresh_cwd.join("runstore"));
    half.retain(|rel, _| !rel.ends_with("lock"));

    for &(threads, chunks) in SCHEDULES {
        let cwd = tmp_dir(&format!("partial_loss_{threads}x{chunks}"));
        for (rel, bytes) in &half {
            let path = cwd.join("runstore").join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, bytes).unwrap();
        }
        let env = [("PARALLEL_THREADS", threads), ("PARALLEL_CHUNKS", chunks)];
        let resume = run_with_env(&cwd, &[spec, "--resume"], &env);
        let stderr = String::from_utf8_lossy(&resume.stderr);
        assert_eq!(
            resume.status.code(),
            Some(0),
            "{threads}x{chunks}: {stderr}"
        );
        assert_eq!(
            report(&stderr),
            [
                "runstore: 6 hit(s), 6 recomputed, 0 corrupt file(s) degraded to recompute",
                "harness: 2 of 12 replicate(s) copied from an identical stored replicate",
            ],
            "{threads}x{chunks}"
        );
        assert_eq!(resume.stdout, fresh.stdout, "{threads}x{chunks}");
        assert_eq!(
            snapshot(&cwd.join("results")),
            fresh_results,
            "{threads}x{chunks}"
        );
        assert_eq!(
            snapshot(&cwd.join("runstore")),
            fresh_store,
            "{threads}x{chunks}"
        );
        fs::remove_dir_all(&cwd).ok();
    }
    fs::remove_dir_all(&fresh_cwd).ok();
}

/// An all-hits `--resume` renders every CSV and opens every store slot again,
/// but writes nothing: each file under `results/` and `runstore/` keeps its
/// bytes and its inode (no staged rename), and stdout is the `--fresh` run's.
#[test]
fn a_warm_resume_rewrites_no_file() {
    use std::os::unix::fs::MetadataExt as _;
    let cwd = tmp_dir("warm_resume");
    fs::write(cwd.join("grid.toml"), GRID_SPEC).unwrap();
    let files = || -> BTreeMap<String, (Vec<u8>, u64)> {
        let mut out = BTreeMap::new();
        for dir in ["results", "runstore"] {
            for (rel, bytes) in snapshot_all(&cwd.join(dir)) {
                let ino = fs::metadata(cwd.join(dir).join(&rel)).unwrap().ino();
                out.insert(format!("{dir}/{rel}"), (bytes, ino));
            }
        }
        out
    };

    let fresh = run_in(&cwd, &["grid.toml", "--fresh"]);
    assert_eq!(fresh.status.code(), Some(0));
    let before = files();
    assert!(before.keys().any(|f| f.starts_with("results/")));
    assert!(before.keys().any(|f| f.ends_with("spec.txt")));
    let resume = run_in(&cwd, &["grid.toml", "--resume"]);
    assert_eq!(resume.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&resume.stderr)
            .lines()
            .any(|l| l
                == "runstore: 8 hit(s), 0 recomputed, 0 corrupt file(s) degraded to recompute"),
        "stderr: {}",
        String::from_utf8_lossy(&resume.stderr)
    );
    assert_eq!(resume.stdout, fresh.stdout);
    assert_eq!(files(), before);

    fs::remove_dir_all(&cwd).ok();
}

/// The runs pinned under `golden/pinned/<case>/`: the case, its command line
/// with the spec path relative to this crate, and whether the case pins the
/// run's files as well. `stdout.txt` is the run's stdout; `files/` beside it
/// holds every file the run wrote to `results/` (named `files` because the
/// repo ignores every `results/`). The three
/// `golden/{xi_sweep,scalability,grid}.toml` specs pin stdout only — their
/// CSV bytes are `golden_sweeps.rs`'s.
///
/// Written once by the `airfedga-run` of the commit *before* the kind drivers
/// became one list/lay-out/render path (quick scale, a fresh working
/// directory per run so the `-> wrote results/…` lines are relative), and
/// never regenerated: a renderer change that moves a byte fails here.
/// Between them they cover every layout rule the renderer owns: one seed vs
/// many, `--system-seeds` banners, the faulty columns, the energy table, the
/// speed-up lines, the ξ-sweep and scalability tables, `[n/N]` partial
/// coverage and `n/a` cells. `convex_lr` is the exception in age and purpose:
/// written by the `airfedga-run` of the commit before `LogisticRegression`
/// became a zero-hidden-layer `Mlp`, it pins the only tier-1 run of
/// `model = "convex_lr"` (all five mechanisms, evaluated every round).
const PINNED: &[(&str, &str, bool)] = &[
    ("fig3_s1", "../../scenarios/fig3.toml", true),
    ("fig3_s3", "../../scenarios/fig3.toml --seeds 3", true),
    (
        "fig3_s3sys",
        "../../scenarios/fig3.toml --seeds 3 --system-seeds",
        true,
    ),
    ("fig9", "../../scenarios/fig9.toml", true),
    ("churn_mnist", "../../scenarios/churn_mnist.toml", true),
    ("fig8", "../../scenarios/fig8.toml", true),
    ("fig10", "../../scenarios/fig10.toml", true),
    (
        "outage_xi_grid",
        "../../scenarios/outage_xi_grid.toml",
        true,
    ),
    ("partial_s1", "tests/golden/partial.toml --seeds 1", true),
    (
        "partial_s3sys",
        "tests/golden/partial.toml --system-seeds",
        true,
    ),
    ("partial_grid", "tests/golden/partial_grid.toml", true),
    ("xi_sweep_s1", "tests/golden/xi_sweep.toml", false),
    ("xi_sweep_s2", "tests/golden/xi_sweep.toml --seeds 2", false),
    (
        "xi_sweep_s2sys",
        "tests/golden/xi_sweep.toml --seeds 2 --system-seeds",
        false,
    ),
    ("scalability_s1", "tests/golden/scalability.toml", false),
    (
        "scalability_s2",
        "tests/golden/scalability.toml --seeds 2",
        false,
    ),
    (
        "scalability_s2sys",
        "tests/golden/scalability.toml --seeds 2 --system-seeds",
        false,
    ),
    ("grid_s1", "tests/golden/grid.toml", false),
    ("grid_s2", "tests/golden/grid.toml --seeds 2", false),
    (
        "grid_s2sys",
        "tests/golden/grid.toml --seeds 2 --system-seeds",
        false,
    ),
    ("convex_lr", "tests/golden/convex_lr.toml", true),
];

/// The cases replayed on the schedule axis instead of once: at the host's
/// default schedule and under every `PARALLEL_THREADS` × `PARALLEL_CHUNKS`
/// schedule of [`SCHEDULES`], against the same pinned bytes. One per scenario
/// kind, and one per shape the training lanes see — fig3's three fat cells, a
/// churned run, a two-seed grid with shared replicates, and the two sweep
/// kinds at two seeds.
const SCHEDULE_AXIS: &[&str] = &[
    "fig3_s1",
    "churn_mnist",
    "grid_s2",
    "xi_sweep_s2",
    "scalability_s2",
];

/// `PARALLEL_THREADS` × `PARALLEL_CHUNKS`: one lane (fully sequential), two
/// lanes (a joining caller is the only other thread: the benchmark's setting),
/// three lanes (uneven runs: N = 100 splits 34/34/32), and four lanes
/// over-decomposed 16-fold. The plain replay runs at the host's default
/// schedule.
const SCHEDULES: &[(&str, &str)] = &[("1", "1"), ("2", "4"), ("3", "4"), ("4", "16")];

/// Run pinned `case`'s command line plus `extra` in `cwd` under `env`, and
/// assert that it exits 0 and that its stdout and `results/` are the pinned
/// bytes. `results/` is emptied first, so a run that renders nothing cannot
/// pass on an earlier run's files. Returns stderr.
fn replay(case: &str, cwd: &Path, extra: &[&str], env: &[(&str, &str)]) -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let &(_, command_line, pins_files) = PINNED
        .iter()
        .find(|pinned| pinned.0 == case)
        .expect("a pinned case");
    let mut words = command_line.split_whitespace();
    let spec = manifest.join(words.next().expect("a spec path"));
    let mut args = vec![spec.to_str().unwrap()];
    args.extend(words.chain(extra.iter().copied()));
    let tag = format!("{case} {extra:?} {env:?}");
    fs::remove_dir_all(cwd.join("results")).ok();
    let out = run_with_env(cwd, &args, env);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{tag}: stderr: {stderr}");
    let pinned = manifest.join("tests/golden/pinned").join(case);
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        fs::read_to_string(pinned.join("stdout.txt")).unwrap(),
        "{tag}: stdout moved"
    );
    if pins_files {
        let text = |files: BTreeMap<String, Vec<u8>>| -> BTreeMap<String, String> {
            files
                .into_iter()
                .map(|(name, bytes)| (name, String::from_utf8(bytes).unwrap()))
                .collect()
        };
        let files = text(snapshot(&pinned.join("files")));
        assert!(
            !files.is_empty(),
            "{tag}: the pinned files are missing from this checkout"
        );
        assert_eq!(
            text(snapshot(&cwd.join("results"))),
            files,
            "{tag}: results/ moved"
        );
    }
    stderr
}

/// The progress reporter's line, which only `--progress` prints off a TTY.
const PROGRESS: &str = ", eta ";

#[test]
fn every_kind_reproduces_its_pinned_stdout_and_results() {
    for &(case, _, _) in PINNED {
        if SCHEDULE_AXIS.contains(&case) {
            continue; // replayed on the schedule axis below
        }
        let cwd = tmp_dir(&format!("pinned_{case}"));
        let stderr = replay(case, &cwd, &[], &[]);
        assert!(!stderr.contains(PROGRESS), "{case}: {stderr}");
        fs::remove_dir_all(&cwd).ok();
    }
}

#[test]
fn every_kind_reproduces_its_pins_on_every_schedule() {
    for &case in SCHEDULE_AXIS {
        let cwd = tmp_dir(&format!("pinned_{case}"));
        replay_on_the_schedule_axis(case, &cwd);
        fs::remove_dir_all(&cwd).ok();
    }
}

/// One [`SCHEDULE_AXIS`] case, in one working directory:
/// - a `--fresh` run at the host's default schedule, telemetry off, writes
///   the reference store;
/// - under each of [`SCHEDULES`], a `--fresh --telemetry` run discards that
///   store, recomputes every replicate, and writes the same store bytes, the
///   same sorted journal and the same store and harness report; their logical
///   `metrics.json` files are one file, and the first forces `--progress`;
/// - an all-hits `--resume` ends it, leaving the store as it was.
///
/// Every run's stdout and `results/` are the pins, so neither the store
/// flags, nor telemetry, nor `--progress`, nor the schedule moves a byte.
fn replay_on_the_schedule_axis(case: &str, cwd: &Path) {
    // Compared with `assert!(==)`: a failing `assert_eq!` would print every
    // stored payload.
    let store = || snapshot(&cwd.join("runstore"));
    let fresh = replay(case, cwd, &["--fresh"], &[]);
    assert!(!fresh.contains(PROGRESS), "{case}: {fresh}");
    let (stored, journal) = (store(), journals(&cwd.join("runstore")));
    let runs = stored.keys().filter(|f| f.ends_with(".run")).count();
    assert!(runs > 0, "{case}: nothing stored");
    let summary = |hits: usize, recomputed: usize| {
        format!("runstore: {hits} hit(s), {recomputed} recomputed, 0 corrupt file(s) degraded to recompute")
    };
    let reference = report(&fresh);
    assert_eq!(reference[0], summary(0, runs), "{case}");
    // `harness: <k> of <n> replicate(s) reused …`, counted in metrics.json.
    let shared = reference
        .iter()
        .find_map(|l| l.strip_prefix("harness: ")?.split(' ').next()?.parse().ok())
        .unwrap_or(0u64);

    let mut first_metrics: Option<String> = None;
    for (i, &(threads, chunks)) in SCHEDULES.iter().enumerate() {
        let tag = format!("{case} {threads}x{chunks}");
        let tel = format!("tel_{threads}x{chunks}");
        let mut extra = vec!["--fresh", "--telemetry", &tel];
        extra.extend((i == 0).then_some("--progress"));
        let env = [("PARALLEL_THREADS", threads), ("PARALLEL_CHUNKS", chunks)];
        let stderr = replay(case, cwd, &extra, &env);
        assert_eq!(stderr.contains(PROGRESS), i == 0, "{tag}: {stderr}");
        assert_eq!(report(&stderr), reference, "{tag}");
        assert!(store() == stored, "{tag}: the store moved");
        assert_eq!(journals(&cwd.join("runstore")), journal, "{tag}");
        let metrics = fs::read_to_string(cwd.join(&tel).join("metrics.json")).unwrap();
        match &first_metrics {
            Some(first) => assert_eq!(&metrics, first, "{tag}: metrics.json moved"),
            None => {
                assert_telemetry_artifacts(&tag, &cwd.join(&tel), &stderr);
                let row = format!("\"harness.shared_replicates\": {shared},");
                assert!(metrics.contains(&row), "{tag}: not {row}\n{metrics}");
                first_metrics = Some(metrics);
            }
        }
    }

    let resume = replay(case, cwd, &["--resume"], &[]);
    assert_eq!(report(&resume), [summary(runs, 0)], "{case}");
    assert!(store() == stored, "{case}: --resume moved the store");
}

/// The three sidecar files `--telemetry` writes carry their schema, and
/// stderr the run profile.
fn assert_telemetry_artifacts(tag: &str, dir: &Path, stderr: &str) {
    for (file, keys) in [
        (
            "spans.jsonl",
            &[
                r#""span": "grid""#,
                r#""span": "replicate""#,
                r#""span": "round""#,
            ][..],
        ),
        (
            "metrics.json",
            &[
                r#""version": 1"#,
                r#""plane": "logical""#,
                r#""engine.rounds""#,
            ],
        ),
        (
            "profile.json",
            &[
                r#""version": 1"#,
                r#""spans""#,
                r#""counters""#,
                r#""histograms""#,
            ],
        ),
    ] {
        let text = fs::read_to_string(dir.join(file)).unwrap();
        for key in keys {
            assert!(text.contains(key), "{tag}: {file} lacks {key}");
        }
    }
    assert!(stderr.contains("run profile"), "{tag}: {stderr}");
}

/// The schedule itself is pinned: at `PARALLEL_THREADS=2` and the default
/// chunk factor (the benchmark's setting), these pinned cases issue exactly
/// these fan-outs and chunk claims — the sched plane of `profile.json`,
/// deterministic per configuration — and print their pinned bytes. fig3's
/// nine `--seeds 3` replicates are the one case here that a factor of 4
/// would split differently (1,085 claims). The counts were read from the
/// binary of the commit before `parallel::par_map` replaced the
/// iterator-style map and its per-call chunk hints.
const SCHEDULE_PINS: &[(&str, u64, u64)] = &[
    ("fig3_s1", 181, 363),
    ("fig3_s3", 541, 1089),
    ("outage_xi_grid", 481, 968),
];

#[test]
fn the_default_two_thread_schedule_issues_its_pinned_fan_outs() {
    for &(case, fork_joins, chunks) in SCHEDULE_PINS {
        let cwd = tmp_dir(&format!("schedule_{case}"));
        let extra = ["--fresh", "--telemetry", "tel"];
        replay(case, &cwd, &extra, &[("PARALLEL_THREADS", "2")]);
        let profile = fs::read_to_string(cwd.join("tel/profile.json")).unwrap();
        for (name, value) in [
            ("pool.fork_joins", fork_joins),
            ("pool.chunks_claimed", chunks),
        ] {
            let row = format!(r#"{{"name": "{name}", "plane": "sched", "value": {value}}}"#);
            assert!(
                profile.contains(&row),
                "{case}: {name} is not {value}:\n{profile}"
            );
        }
        fs::remove_dir_all(&cwd).ok();
    }
}

/// `--list-components` prints the registry catalogue byte for byte as
/// pinned: every axis, key and summary, in table order.
#[test]
fn list_components_matches_its_pinned_bytes() {
    let dir = tmp_dir("list_components");
    let out = run_in(&dir, &["--list-components"]);
    assert_eq!(out.status.code(), Some(0));
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/list_components.txt");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        fs::read_to_string(pinned).unwrap()
    );
    fs::remove_dir_all(&dir).ok();
}
