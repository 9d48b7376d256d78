//! The metric catalogue (`BENCHMARK.json` mirrors it; a test keeps the two in
//! step) and the per-workload metric set.

use crate::stats::{self, Summary};
use jobserver::json::Json;
use std::collections::BTreeMap;

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// End to end: the share of the baseline median by which the metric may
    /// worsen before `compare` calls it a regression. Per layer: `None`.
    pub bound: Option<f64>,
    /// A count or simulated quantity that repeats exactly for one commit
    /// and seed; `compare` requires identity instead of a bound.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        exact: true,
    }
}

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: &[Def] = &[
    e2e("wall_s", "s", false, 0.25),
    e2e("cpu_s", "s", false, 0.25),
    e2e("rounds_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("warm_min_ms", "ms", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// Measured by the traced pass; layer = crate.
pub const PER_LAYER: &[Def] = &[
    // scenario
    layer("scenario.parse_us", "us", false),
    count("scenario.replicates", "count"),
    layer("scenario.proc_start_ms", "ms", false),
    // experiments
    layer("harness.replicate_overhead_us", "us", false),
    layer("harness.fold_us", "us", false),
    layer("report.csv_write_us", "us", false),
    layer("harness.idle_share", "ratio", false),
    // parallel
    layer("parallel.fork_join_us", "us", false),
    layer("parallel.t1_wall_s", "s", false),
    layer("parallel.speedup", "ratio", true),
    layer("parallel.fork_joins", "count", false),
    // airfedga, baselines
    layer("system.build_ms", "ms", false),
    layer("engine.air_fedga.round_us", "us", false),
    layer("engine.air_fedavg.round_us", "us", false),
    layer("engine.dynamic.round_us", "us", false),
    layer("engine.fedavg.round_us", "us", false),
    layer("engine.tifl.round_us", "us", false),
    layer("engine.train_self_s", "s", false),
    layer("engine.aggregate_self_s", "s", false),
    layer("engine.eval_self_s", "s", false),
    layer("engine.dispatch_self_s", "s", false),
    layer("engine.grid_self_s", "s", false),
    count("engine.rounds", "count"),
    count("engine.participants", "count"),
    count("engine.participants_filtered", "count"),
    count("engine.group_skips", "count"),
    // fedml
    layer("fedml.local_step_us", "us", false),
    layer("fedml.samples_per_s", "1/s", true),
    layer("fedml.eval_us", "us", false),
    layer("fedml.gemm_nn_gflops", "GFLOP/s", true),
    layer("fedml.gemm_tn_acc_gflops", "GFLOP/s", true),
    count("fedml.gemm_calls", "count"),
    count("fedml.gemm_mnk_p50", "count"),
    layer("fedml.dataset_gen_ms", "ms", false),
    layer("fedml.local_step_vgg_us", "us", false),
    // wireless
    layer("wireless.aggregate_us", "us", false),
    layer("wireless.aggregate_gbs", "GB/s", true),
    layer("wireless.power_us", "us", false),
    count("wireless.aggregate_calls", "count"),
    // grouping
    layer("grouping.alg3_ms", "ms", false),
    count("grouping.groups", "count"),
    layer("grouping.emd_us", "us", false),
    // faults, simcore
    layer("faults.compile_us", "us", false),
    layer("simcore.event_ns", "ns", false),
    layer("simcore.trace_csv_us", "us", false),
    count("sim.t80_s", "s"),
    // runstore
    layer("runstore.open_us", "us", false),
    layer("runstore.put_us", "us", false),
    layer("runstore.get_us", "us", false),
    layer("runstore.encode_us", "us", false),
    layer("runstore.decode_us", "us", false),
    count("runstore.bytes_per_replicate", "B"),
    count("runstore.hits", "count"),
    count("runstore.misses", "count"),
    count("runstore.corrupt", "count"),
    count("runstore.hit_share", "ratio"),
    // telemetry
    layer("telemetry.off_ns", "ns", false),
    layer("telemetry.on_span_ns", "ns", false),
    layer("telemetry.flush_ms", "ms", false),
    layer("telemetry.on_wall_s", "s", false),
    layer("telemetry.overhead_share", "ratio", false),
    count("telemetry.spans", "count"),
    // jobserver
    layer("jobserver.start_ms", "ms", false),
    layer("jobserver.submit_rtt_us", "us", false),
    layer("jobserver.status_idle_rtt_us", "us", false),
    layer("jobserver.status_busy_rtt_us", "us", false),
    layer("jobserver.queue_wait_ms", "ms", false),
    layer("jobserver.queue_persist_us", "us", false),
    layer("jobserver.json_parse_us", "us", false),
    layer("jobserver.dup_p50_ms", "ms", false),
    layer("jobserver.dup_p90_ms", "ms", false),
    count("jobserver.dedup_hit_share", "ratio"),
    // host and the traced pass itself
    layer("host.calib_ms", "ms", false),
    layer("run.warm_p50_ms", "ms", false),
    layer("run.warm_p95_ms", "ms", false),
    layer("trace.untraced_wall_s", "s", false),
    layer("trace.overhead_s", "s", false),
];

/// The metrics one workload reported, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Summary>);

impl Metrics {
    /// Record a metric's summary. No samples, no summary, no metric: a
    /// metric is never reported as 0.
    pub fn summary(&mut self, name: &'static str, summary: Option<Summary>) {
        if let Some(summary) = summary {
            self.0.insert(name, summary);
        }
    }

    /// Record a timing metric as the median of its samples.
    pub fn samples(&mut self, name: &'static str, samples: &[f64]) {
        self.summary(name, stats::summarize(samples));
    }

    /// Record a timing metric as the mean of its samples, with their
    /// quartiles and count.
    pub fn mean_of(&mut self, name: &'static str, samples: &[f64]) {
        let mean = stats::mean(samples).unwrap_or_default();
        self.summary(name, stats::summarize(samples).map(|s| s.with_value(mean)));
    }

    /// Record a timing metric as the fastest of its samples, with their
    /// quartiles and count.
    pub fn fastest_of(&mut self, name: &'static str, samples: &[f64]) {
        let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
        self.summary(
            name,
            stats::summarize(samples).map(|s| s.with_value(fastest)),
        );
    }

    /// Record a single observation.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.get(name)
    }

    /// Names from `defs` that were not reported.
    pub fn missing(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .map(|d| d.name)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }

    /// The driver's `metrics` object: `{name: {value, unit}}` in catalogue
    /// order.
    pub fn driver_json(&self, defs: &[Def]) -> Json {
        self.json_with(defs, |def, s| {
            vec![("value", Json::Num(s.value)), ("unit", Json::str(def.unit))]
        })
    }

    /// The `result.json` form, which keeps the quartiles and sample count
    /// that `compare` needs.
    pub fn result_json(&self, defs: &[Def]) -> Json {
        self.json_with(defs, |def, s| {
            vec![
                ("value", Json::Num(s.value)),
                ("unit", Json::str(def.unit)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::num(s.n as u64)),
            ]
        })
    }

    fn json_with(
        &self,
        defs: &[Def],
        fields: impl Fn(&Def, &Summary) -> Vec<(&'static str, Json)>,
    ) -> Json {
        Json::Obj(
            defs.iter()
                .filter_map(|def| {
                    let s = self.0.get(def.name)?;
                    Some((def.name.to_string(), Json::obj(fields(def, s))))
                })
                .collect(),
        )
    }

    /// One line per metric, for people.
    pub fn print(&self, workload: &str, defs: &[Def]) {
        for def in defs {
            if let Some(s) = self.0.get(def.name) {
                println!(
                    "{workload:<12} {:<30} {:>14.4} {:<8} (q1 {:.4}, q3 {:.4}, n {})",
                    def.name, s.value, def.unit, s.q1, s.q3, s.n
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` is written by hand; the catalogue above is what the
    /// binary prints. They must agree name for name.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` array");
            };
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    let bound = match m.get("bound") {
                        Some(Json::Num(b)) => Some(*b),
                        _ => None,
                    };
                    (field("name"), field("unit"), field("better"), bound)
                })
                .collect()
        };
        let catalogue = |defs: &[Def]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.into(), d.unit.into(), better.into(), d.bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(PER_LAYER));

        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no `workloads` array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, ours);
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert_eq!(seconds as f64, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn a_metric_without_samples_is_missing_not_zero() {
        let mut m = Metrics::default();
        m.samples("wall_s", &[]);
        m.samples("cpu_s", &[2.0, 1.0, 3.0]);
        m.value("setup_s", 0.5);
        assert_eq!(
            m.missing(END_TO_END),
            vec!["wall_s", "rounds_per_s", "peak_rss_mb", "warm_min_ms"]
        );
        let json = m.driver_json(END_TO_END).encode();
        assert_eq!(
            json,
            r#"{"cpu_s":{"value":2,"unit":"s"},"setup_s":{"value":0.5,"unit":"s"}}"#
        );
        let full = m.result_json(END_TO_END);
        assert_eq!(
            full.get("cpu_s").unwrap().get("n").and_then(Json::as_u64),
            Some(3)
        );
    }
}
