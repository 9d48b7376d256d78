//! `result.json` — what one run measured — and `compare`, which judges two
//! of them against the catalogue's bounds.

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Outcome;
use jobserver::json::Json;
use std::process::Command;

/// What `result.json` says about the run as a whole.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Quick scale and reduced counts: never for reported numbers.
    pub smoke: bool,
    pub threads: usize,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The whole run as a JSON document.
pub fn document(info: &RunInfo, workloads: &[(&str, &Outcome)]) -> Json {
    let defs = if info.trace { PER_LAYER } else { END_TO_END };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = Json::obj(vec![
        ("nproc", Json::num(nproc as u64)),
        ("parallel_threads", Json::num(info.threads as u64)),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    let per_workload = workloads
        .iter()
        .map(|(name, out)| {
            let reasons = out.tally.reasons.iter().map(Json::str).collect();
            let entry = Json::obj(vec![
                ("correct", Json::Bool(out.tally.failed == 0)),
                ("attempted", Json::num(out.tally.attempted)),
                ("failed", Json::num(out.tally.failed)),
                ("reasons", Json::Arr(reasons)),
                ("digest", Json::str(out.digest.clone())),
                ("calibration_slice_s", Json::Num(out.slice_s)),
                ("host_slowdown", Json::Num(out.slowdown)),
                ("metrics", out.metrics.result_json(defs)),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::num(1)),
        ("smoke", Json::Bool(info.smoke)),
        ("seed", Json::num(info.seed)),
        ("seconds", Json::Num(info.seconds)),
        ("trace", Json::num(info.trace as u64)),
        ("host", host),
        ("workloads", Json::Obj(per_workload)),
    ])
}

/// The driver's result line for one workload.
pub fn driver_line(info: &RunInfo, out: &Outcome) -> String {
    let defs = if info.trace { PER_LAYER } else { END_TO_END };
    Json::obj(vec![
        ("correct", Json::Bool(out.tally.failed == 0)),
        ("attempted", Json::num(out.tally.attempted)),
        ("failed", Json::num(out.tally.failed)),
        ("metrics", out.metrics.driver_json(defs)),
    ])
    .encode()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// One side's quartile spread exceeds the bound: no verdict either way.
    Unresolved,
    /// An exact metric that is not identical.
    Differs,
    /// A layer timing: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// Judge `new` against `base` for one metric. `same_inputs` says whether the
/// two runs had the same seed and scale, without which exact metrics may
/// legitimately differ.
pub fn judge(def: &Def, base: &Summary, new: &Summary, same_inputs: bool) -> (f64, Verdict) {
    let delta = (new.value - base.value) / base.value.abs();
    let verdict = if def.exact {
        match (same_inputs, new.value == base.value) {
            (false, _) => Verdict::Info,
            (true, true) => Verdict::Ok,
            (true, false) => Verdict::Differs,
        }
    } else if let Some(bound) = def.bound {
        let worsening = if def.higher_is_better { -delta } else { delta };
        if base.spread().max(new.spread()) > bound {
            Verdict::Unresolved
        } else if worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else {
        Verdict::Info
    };
    (delta, verdict)
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let num = |key: &str| match metric.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    };
    Some(Summary {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")? as usize,
    })
}

/// Compare two `result.json` documents (`new` against `base`): one line per
/// workload and metric, `Ok(true)` when nothing is worse and every exact
/// metric is identical.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    let inputs = |doc: &Json| {
        (
            doc.get("seed").and_then(Json::as_u64),
            doc.get("smoke").and_then(Json::as_bool),
        )
    };
    let same_inputs = inputs(base) == inputs(new);
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(pairs)) => Ok(pairs.clone()),
        _ => Err("not a benchmark result: no `workloads` object".to_string()),
    };
    let new_workloads = workloads(new)?;
    let mut report = format!(
        "{:<12} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "delta", "bound"
    );
    let mut pass = true;
    for (workload, base_entry) in workloads(base)? {
        let Some((_, new_entry)) = new_workloads.iter().find(|(w, _)| *w == workload) else {
            continue;
        };
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let side = |entry: &Json| {
                entry
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(summary_of)
            };
            let (Some(a), Some(b)) = (side(&base_entry), side(new_entry)) else {
                continue;
            };
            let (delta, verdict) = judge(def, &a, &b, same_inputs);
            pass &= !verdict.fails();
            let bound = def.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            report.push_str(&format!(
                "{workload:<12} {:<30} {:>14.4} {:>14.4} {:>+8.1}% {bound:>7}  {}\n",
                def.name,
                a.value,
                b.value,
                delta * 100.0,
                verdict.label()
            ));
        }
        for key in ["correct", "digest"] {
            if same_inputs && base_entry.get(key) != new_entry.get(key) {
                report.push_str(&format!("{workload:<12} {key} differs\n"));
            }
        }
    }
    Ok((report, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn def(name: &str) -> &'static Def {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap()
    }

    fn tight(value: f64) -> Summary {
        Summary {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
            n: 9,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // wall_s: lower is better, bound 0.25.
        assert_eq!(
            judge(def("wall_s"), &tight(1.0), &tight(1.2), true).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(def("wall_s"), &tight(1.0), &tight(1.3), true).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(def("wall_s"), &tight(1.0), &tight(0.5), true).1,
            Verdict::Ok
        );
        // rounds_per_s: higher is better.
        assert_eq!(
            judge(def("rounds_per_s"), &tight(100.0), &tight(70.0), true).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(def("rounds_per_s"), &tight(100.0), &tight(130.0), true).1,
            Verdict::Ok
        );
        // A spread wider than the bound settles nothing, either way.
        let noisy = Summary {
            value: 1.3,
            q1: 1.0,
            q3: 1.6,
            n: 3,
        };
        assert_eq!(
            judge(def("wall_s"), &tight(1.0), &noisy, true).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_must_be_identical_on_equal_inputs() {
        let d = def("engine.rounds");
        assert_eq!(
            judge(d, &Summary::exact(900.0), &Summary::exact(900.0), true).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(d, &Summary::exact(900.0), &Summary::exact(901.0), true).1,
            Verdict::Differs
        );
        assert_eq!(
            judge(d, &Summary::exact(900.0), &Summary::exact(901.0), false).1,
            Verdict::Info
        );
        assert_eq!(
            judge(def("fedml.eval_us"), &tight(5.0), &tight(50.0), true).1,
            Verdict::Info
        );
    }

    fn doc(wall: &[f64], seed: u64) -> Json {
        let mut out = Outcome::default();
        out.metrics.samples("wall_s", wall);
        out.tally.op(Ok(()));
        let info = RunInfo {
            seed,
            seconds: 1.0,
            trace: false,
            smoke: false,
            threads: 2,
        };
        // Through text, as the files on disk go.
        Json::parse(&document(&info, &[("fig3_cold", &out)]).encode()).unwrap()
    }

    #[test]
    fn compare_reads_documents_and_fails_on_worse() {
        let base = doc(&[1.0, 1.01, 0.99], 42);
        let (report, pass) = compare(&base, &doc(&[1.02, 1.03, 1.01], 42)).unwrap();
        assert!(pass, "{report}");
        assert!(report.contains("fig3_cold") && report.contains("wall_s") && report.contains("ok"));
        let (report, pass) = compare(&base, &doc(&[1.5, 1.51, 1.49], 42)).unwrap();
        assert!(!pass && report.contains("worse"), "{report}");
        assert!(compare(&Json::Null, &base).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        for d in END_TO_END {
            out.metrics.value(d.name, 1.5);
        }
        out.tally.op(Ok(()));
        let info = RunInfo {
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
            threads: 2,
        };
        let line = Json::parse(&driver_line(&info, &out)).unwrap();
        let Json::Obj(pairs) = &line else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            Metrics::default().missing(END_TO_END).len(),
            END_TO_END.len()
        );
    }
}
