//! `airfedga-run <scenario.toml>` — execute any declarative scenario file.
//!
//! The driver reads a spec (see the `scenario` crate and `scenarios/` for
//! the format), validates it against the component registry, and runs it
//! through the one replicate runner — this is how every figure of the paper
//! is run (`airfedga-run scenarios/fig3.toml`, …). Flags:
//!
//! * `--seeds N` — replicate over N run seeds (overrides `run.seeds`).
//! * `--system-seeds` — also re-sample the system per replicate.
//! * `--resume` — load completed replicates from the `runstore/` run store
//!   and persist fresh ones, so a killed grid picks up where it left off.
//! * `--fresh` — discard this scenario's stored replicates first, then
//!   persist as `--resume` does.
//! * `--telemetry <dir>` — enable telemetry for the run and write
//!   `spans.jsonl` / `metrics.json` / `profile.json` into `<dir>` afterwards
//!   (stdout, CSVs and the run store stay byte-identical —
//!   `cli_contract`'s `every_kind_reproduces_its_pins_on_every_schedule`
//!   compares them).
//! * `--progress` — force the stderr progress reporter on even when stderr
//!   is not a TTY.
//! * `--store-root DIR` — relocate the run store away from `runstore/` (the
//!   job server shares one root across jobs this way).
//! * `--results-dir DIR` — relocate CSV output away from `results/`.
//! * `--list-components` — print the registry catalogue and exit.
//!
//! Scale comes from `AIRFEDGA_SCALE` (`full` / `quick`; any other value is a
//! usage error). The driver prints nothing beyond what the scenario's driver
//! prints, so output stays byte-comparable across schedules, resumes and the
//! job service (`cli_contract`'s replays and `jobserver`'s
//! `http_submit_execute_fetch_and_dedup_round_trip` compare them). Exit status: 0 on a clean run, 1 when the
//! grid finished but lost replicates for good (the failure report goes to
//! stderr), 2 on usage/parse errors.

use experiments::scale::Scale;
use scenario::run::{execute, EXIT_CLEAN, EXIT_FAILURES, EXIT_USAGE};
use scenario::{registry, CliOverrides, ScenarioSpec};

const USAGE: &str = "usage: airfedga-run <scenario.toml> [--seeds N] [--system-seeds] \
                     [--resume | --fresh] [--telemetry DIR] [--progress]\n\
                     \u{20}                   [--store-root DIR] [--results-dir DIR]\n\
                     \u{20}      airfedga-run --list-components\n\
                     exit status: 0 clean run; 1 grid finished with unrecovered replicate \
                     failures; 2 usage, read or spec errors";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-components") {
        print!("{}", registry::describe());
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let (path, cli) = match CliOverrides::parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("airfedga-run: {e}\n{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let scale = Scale::from_env_or_exit("airfedga-run");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("airfedga-run: cannot read {}: {e}", path.display());
            std::process::exit(EXIT_USAGE);
        }
    };
    let path = path.display();
    match ScenarioSpec::parse(&text).and_then(|spec| execute(&spec, scale, &cli)) {
        Ok(report) => {
            // Failures (recovered ones included) go to stderr so stdout
            // stays byte-comparable; unrecovered losses make the run fail.
            let failures = report.failure_report();
            if !failures.is_empty() {
                eprint!("{failures}");
            }
            // The `--resume`/`--fresh` cache summary and the telemetry
            // profile are stderr-only for the same reason.
            if let Some(cache) = &report.cache {
                eprintln!("{}", cache.summary());
            }
            // "Recomputed" counts store misses, not trainings: say so when
            // some of them were served by one shared training or copied
            // from a stored twin.
            for line in report.harness_summary() {
                eprintln!("{line}");
            }
            if let Some(profile) = &report.profile {
                eprint!("{profile}");
            }
            if !report.is_clean() {
                eprintln!("airfedga-run: {path}: grid finished with unrecovered failures");
                std::process::exit(EXIT_FAILURES);
            }
            std::process::exit(EXIT_CLEAN);
        }
        Err(e) => {
            eprintln!("airfedga-run: {path}: {e}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

#[cfg(test)]
mod tests {
    use scenario::{CliOverrides, StoreMode};
    use std::path::{Path, PathBuf};

    fn parse(list: &[&str]) -> Result<(PathBuf, CliOverrides), String> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        CliOverrides::parse(&args)
    }

    #[test]
    fn known_flags_and_one_path_are_accepted() {
        let (path, cli) = parse(&["scenarios/fig3.toml"]).unwrap();
        assert_eq!(path, Path::new("scenarios/fig3.toml"));
        assert_eq!(cli.seeds, None);
        assert_eq!(cli.store, StoreMode::Disabled);

        let (path, cli) = parse(&["--seeds", "3", "s.toml", "--system-seeds"]).unwrap();
        assert_eq!(path, Path::new("s.toml"));
        assert_eq!(cli.seeds, Some(3));
        assert!(cli.system_seeds);
        // `--seeds=N` works too, and 0 is clamped to one replicate.
        assert_eq!(parse(&["--seeds=0", "s.toml"]).unwrap().1.seeds, Some(1));

        assert_eq!(
            parse(&["s.toml", "--resume"]).unwrap().1.store,
            StoreMode::Resume
        );
        assert_eq!(
            parse(&["--fresh", "s.toml"]).unwrap().1.store,
            StoreMode::Fresh
        );

        let (_, cli) = parse(&["s.toml", "--telemetry", "out/", "--progress"]).unwrap();
        assert_eq!(cli.telemetry.as_deref(), Some("out/"));
        assert!(cli.progress_force);
        let (path, cli) = parse(&["--telemetry=out/tel", "s.toml"]).unwrap();
        assert_eq!(path, Path::new("s.toml"));
        assert_eq!(cli.telemetry.as_deref(), Some("out/tel"));

        let (_, cli) = parse(&["s.toml", "--store-root", "sr/", "--results-dir", "rd/"]).unwrap();
        assert_eq!(cli.store_root.as_deref(), Some(Path::new("sr/")));
        assert_eq!(cli.results_dir.as_deref(), Some(Path::new("rd/")));
        let (_, cli) = parse(&["--store-root=sr", "--results-dir=rd", "s.toml"]).unwrap();
        assert_eq!(cli.store_root.as_deref(), Some(Path::new("sr")));
        assert_eq!(cli.results_dir.as_deref(), Some(Path::new("rd")));
    }

    #[test]
    fn typoed_flags_fail_instead_of_silently_running() {
        let err = |list: &[&str]| parse(list).unwrap_err();
        assert!(err(&["s.toml", "--system-seed"]).contains("unknown flag"));
        assert!(err(&["s.toml", "--seed", "3"]).contains("unknown flag"));
        assert!(err(&["s.toml", "--system-seeds=yes"]).contains("unknown flag"));
        assert!(err(&["s.toml", "--telemetries", "out/"]).contains("unknown flag"));
        assert!(err(&["--seeds"]).contains("requires a value"));
        assert!(err(&["s.toml", "--seeds="]).contains("requires a value"));
        // A malformed replication request is a usage error, not a panic.
        assert!(err(&["s.toml", "--seeds", "abc"]).contains("invalid --seeds value"));
        assert!(err(&["s.toml", "--seeds", "--resume"]).contains("requires a value"));
        for flag in ["--telemetry", "--store-root", "--results-dir"] {
            assert!(err(&["s.toml", flag]).contains("requires a directory"));
            assert!(err(&["s.toml", flag, "--progress"]).contains("requires a directory"));
        }
        assert!(err(&["s.toml", "--resume", "--fresh"]).contains("mutually exclusive"));
        assert!(err(&["a.toml", "b.toml"]).contains("extra argument"));
        assert!(err(&[]).contains("missing scenario file"));
    }
}
