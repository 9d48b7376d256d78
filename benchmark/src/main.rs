//! `cargo run --release --manifest-path benchmark/Cargo.toml -- [options]`,
//! from the repository root. See `benchmark/README.md`.

use airfedga_benchmark::result::{self, RunInfo};
use airfedga_benchmark::workloads::{Ctx, Kind, Outcome};
use airfedga_benchmark::{
    layers, metrics, program::Program, service, workloads, DEFAULT_SECONDS, THREADS,
};
use jobserver::json::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: airfedga-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
       airfedga-benchmark compare <base.json> <new.json>
  --workload NAME  fig3_cold | grid_cold | resume_mix | service_mix (default: all four)
  --seed S         workload seed (default 42)
  --seconds T      time box of each workload's measured loop (default 20)
  --trace 0|1      0: end-to-end metrics, tracing off (default); 1: the traced pass, per-layer metrics
  --smoke          quick scale, one repeat, both passes: a test of the harness, never a measurement
exit status: 0 all checks passed; 1 a correctness check failed or `compare` found a regression; 2 usage";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.kinds = vec![Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One pass over one workload: print its metrics, then the result line.
fn run_pass(
    program: &Program,
    args: &Args,
    kind: Kind,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let ctx = Ctx {
        program,
        dir: out_dir.join(format!("{}.trace{}", kind.name(), trace as u8)),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let (mut outcome, defs) = if trace {
        let (outcome, recorder) = layers::trace(&ctx, kind)?;
        // Written once, now that the pass is over.
        let path = out_dir.join(format!("trace_{}.jsonl", kind.name()));
        fs::write(&path, recorder.to_jsonl(kind.name()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        (outcome, metrics::PER_LAYER)
    } else if kind == Kind::ServiceMix {
        (service::run(&ctx)?, metrics::END_TO_END)
    } else {
        (workloads::run_batch(&ctx, kind)?, metrics::END_TO_END)
    };
    // Only the results and traces outlive the run.
    fs::remove_dir_all(&ctx.dir).ok();
    // The driver reads every catalogue metric off a full run; a missing one
    // is a failed check. Smoke runs are too short for the tail percentiles.
    let missing = outcome.metrics.missing(defs);
    if !missing.is_empty() && !args.smoke {
        outcome
            .tally
            .op(Err(format!("{}: no value for {missing:?}", kind.name())));
    }
    outcome.metrics.print(kind.name(), defs);
    println!(
        "{:<12} fail_share {}/{}",
        kind.name(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    Ok(outcome)
}

fn run(args: &Args) -> Result<bool, String> {
    let program = Program::build(THREADS, args.smoke)?;
    // The layer timings call the workspace crates in this process: same pool
    // width as the program under test.
    std::env::set_var("PARALLEL_THREADS", THREADS.to_string());
    std::env::remove_var("PARALLEL_CHUNKS");

    let passes: &[bool] = match (args.smoke, args.trace) {
        (true, _) => &[false, true],
        (false, trace) => &[trace][..],
    };
    let mut all_correct = true;
    for &trace in passes {
        let run_id = format!(
            "seed{}-trace{}-pid{}",
            args.seed,
            trace as u8,
            std::process::id()
        );
        let out_dir = PathBuf::from("benchmark/out").join(run_id);
        fs::remove_dir_all(&out_dir).ok();
        fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let info = RunInfo {
            seed: args.seed,
            seconds: args.seconds,
            trace,
            smoke: args.smoke,
            threads: THREADS,
        };
        let mut outcomes = Vec::new();
        let mut lines = Vec::new();
        for &kind in &args.kinds {
            let outcome = run_pass(&program, args, kind, trace, &out_dir)?;
            all_correct &= outcome.tally.failed == 0;
            lines.push(result::driver_line(&info, &outcome));
            outcomes.push((kind.name(), outcome));
        }
        let named: Vec<(&str, &Outcome)> = outcomes.iter().map(|(n, o)| (*n, o)).collect();
        let path = out_dir.join("result.json");
        fs::write(&path, result::document(&info, &named).encode())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        // Last on stdout: one result object per workload, in run order.
        for line in lines {
            println!("{line}");
        }
    }
    Ok(all_correct)
}

fn compare(base: &str, new: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, pass) = result::compare(&load(base)?, &load(new)?)?;
    print!("{report}");
    println!(
        "{}",
        if pass {
            "PASS"
        } else {
            "FAIL: worse or differing metrics above"
        }
    );
    Ok(pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [cmd, base, new] if cmd == "compare" => compare(base, new),
        [flag] if flag == "--help" || flag == "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("airfedga-benchmark: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("airfedga-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
