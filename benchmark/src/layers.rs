//! The traced pass: the per-layer numbers of one workload, measured from
//! outside the program — by reading its public outputs (`--telemetry`
//! files, the `runstore:` summary, `health`), by timing calls into each
//! crate's public functions with inputs taken from the workload's own
//! resolved spec, and by recording the benchmark's own spans around both.

use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::workloads::{stored_runs, Batch, Ctx, Kind, Outcome, Outputs};
use crate::{clock, service, stats};
use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use airfedga::system::FlSystemConfig;
use experiments::harness::{
    run_replicated_isolated_plan, NoCache, RunPolicy, RunSummary, SeedPlan,
};
use experiments::{replication_seeds, CellStats, FigureParams, MechanismChoice};
use faults::FaultPlan;
use fedml::linalg::{gemm_nn, gemm_tn_acc};
use fedml::model::{Mlp, ModelKind};
use fedml::optimizer::local_update_ws;
use fedml::params::FlatParams;
use fedml::rng::Rng64;
use fedml::workspace::Workspace;
use jobserver::json::Json;
use jobserver::JobQueue;
use runstore::RunStore;
use scenario::ScenarioSpec;
use simcore::events::EventQueue;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use wireless::{
    air_aggregate_indexed_into, optimize_power, AirAggregationInput, AirAggregationScratch,
    PowerControlConfig,
};

/// Warm invocations of the traced pass: a 95th percentile needs ten samples
/// beyond it. Likewise 100 duplicate jobs for a 90th.
const WARM_TAIL_N: usize = 200;
const DUP_TAIL_N: usize = 100;
/// Untraced/telemetry op pairs are repeated (up to three) while they fit in
/// this many seconds.
const PAIRS_BUDGET_S: f64 = 6.0;
/// Simulated rounds per engine timing.
const ENGINE_ROUNDS: usize = 10;

/// Times batches of calls, one span per batch, and records the per-call
/// time of each batch as the metric's samples.
struct Micro<'a> {
    rec: &'a mut Recorder,
    metrics: &'a mut Metrics,
    /// Divides every iteration count (smoke mode).
    shrink: usize,
}

impl Micro<'_> {
    /// Seconds per call, one value per batch.
    fn time(&mut self, span: &str, batches: usize, iters: usize, mut f: impl FnMut()) -> Vec<f64> {
        let iters = (iters / self.shrink).max(1);
        (0..batches)
            .map(|_| {
                let open = self.rec.enter(span);
                for _ in 0..iters {
                    f();
                }
                self.rec.exit(open) / iters as f64
            })
            .collect()
    }

    /// Record `metric` as per-call time times `scale` (1e6 for µs).
    fn record(
        &mut self,
        metric: &'static str,
        scale: f64,
        batches: usize,
        iters: usize,
        f: impl FnMut(),
    ) -> f64 {
        let per_call: Vec<f64> = self
            .time(metric, batches, iters, f)
            .iter()
            .map(|s| s * scale)
            .collect();
        self.metrics.samples(metric, &per_call);
        stats::median(&per_call).unwrap_or(f64::NAN)
    }

    /// Record `metric` as `work` per call-second (a rate).
    fn record_rate(
        &mut self,
        metric: &'static str,
        work: f64,
        batches: usize,
        iters: usize,
        f: impl FnMut(),
    ) {
        let rates: Vec<f64> = self
            .time(metric, batches, iters, f)
            .iter()
            .map(|s| work / s)
            .collect();
        self.metrics.samples(metric, &rates);
    }
}

/// The layer numbers the program itself publishes under `--telemetry`.
pub fn telemetry_metrics(
    profile_json: &str,
    metrics_json: &str,
) -> Result<Vec<(&'static str, f64)>, String> {
    let profile = Json::parse(profile_json).map_err(|e| format!("profile.json: {e}"))?;
    let logical = Json::parse(metrics_json).map_err(|e| format!("metrics.json: {e}"))?;
    let named = |doc: &Json, list: &str, name: &str| -> Option<Json> {
        let Json::Arr(items) = doc.get(list)? else {
            return None;
        };
        items
            .iter()
            .find(|i| i.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    let num = |doc: Option<Json>, key: &str| doc.and_then(|d| d.get(key).and_then(Json::as_u64));
    // A span that never ran has no entry: zero self time, zero calls.
    let span_self_s =
        |name: &str| num(named(&profile, "spans", name), "self_us").unwrap_or(0) as f64 / 1e6;
    let counter = |name: &str| -> Result<f64, String> {
        logical
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .map(|v| v as f64)
            .ok_or(format!("metrics.json has no counter {name}"))
    };
    let Some(Json::Arr(spans)) = profile.get("spans") else {
        return Err("profile.json has no spans".into());
    };
    let span_count: u64 = spans
        .iter()
        .filter_map(|s| s.get("count").and_then(Json::as_u64))
        .sum();
    let gemm_calls = [
        "gemm.nn",
        "gemm.tn",
        "gemm.tn_acc",
        "gemm.nt",
        "gemm.nt_packed",
    ]
    .iter()
    .map(|c| counter(c))
    .sum::<Result<f64, String>>()?;
    Ok(vec![
        ("engine.train_self_s", span_self_s("train")),
        ("engine.aggregate_self_s", span_self_s("aggregate")),
        ("engine.eval_self_s", span_self_s("eval")),
        ("engine.dispatch_self_s", span_self_s("dispatch")),
        ("engine.grid_self_s", span_self_s("grid")),
        ("engine.rounds", counter("engine.rounds")?),
        ("engine.participants", counter("engine.participants")?),
        (
            "engine.participants_filtered",
            counter("engine.participants_filtered")?,
        ),
        ("engine.group_skips", counter("engine.group_skips")?),
        ("fedml.gemm_calls", gemm_calls),
        (
            "fedml.gemm_mnk_p50",
            num(named(&profile, "histograms", "gemm.mnk"), "p50")
                .ok_or("profile.json has no gemm.mnk histogram")? as f64,
        ),
        (
            "wireless.aggregate_calls",
            num(named(&profile, "spans", "aggregate"), "count").unwrap_or(0) as f64,
        ),
        (
            "parallel.fork_joins",
            num(named(&profile, "counters", "pool.fork_joins"), "value")
                .ok_or("profile.json has no pool.fork_joins")? as f64,
        ),
        ("telemetry.spans", span_count as f64),
    ])
}

/// What the program's own run of the workload's op shows: wall and CPU
/// untraced, the same op under `--telemetry`, at one thread, and a long run
/// of warm invocations for the tail.
fn observe_program(
    ctx: &Ctx<'_>,
    batch: &mut Batch<'_>,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let threads = ctx.program.threads;
    let mode = batch.kind.op_mode();

    // The op with tracing off and under `--telemetry`, in alternation (up to
    // three pairs while they fit the budget): their difference is the
    // tracing overhead, and single runs on this host differ by more.
    let tel_dir = batch.dir.join("telemetry");
    let (mut plain_wall, mut plain_cpu, mut traced_wall) = (vec![], vec![], vec![]);
    let mut traced_stderr = String::new();
    let pairs_started = clock::now();
    while plain_wall.is_empty()
        || (plain_wall.len() < 3 && clock::secs_since(pairs_started) < PAIRS_BUDGET_S)
    {
        let recomputed = batch.prepare_op()?;
        let open = rec.enter("program.op_untraced");
        let plain = batch.invoke(mode, threads, None).map_err(io)?;
        rec.exit(open);
        if out.tally.op(batch.verify(&plain, recomputed)) {
            plain_wall.push(plain.wall_s);
            plain_cpu.push(plain.cpu_s);
        }
        let recomputed = batch.prepare_op()?;
        let open = rec.enter("program.op_telemetry");
        let traced = batch.invoke(mode, threads, Some(&tel_dir)).map_err(io)?;
        rec.exit(open);
        if out.tally.op(batch.verify(&traced, recomputed)) {
            traced_wall.push(traced.wall_s);
        }
        traced_stderr = traced.stderr;
    }
    let median = |v: &[f64]| {
        stats::median(v).ok_or(format!(
            "{}: every traced-pass op failed",
            batch.kind.name()
        ))
    };
    let (plain_s, traced_s) = (median(&plain_wall)?, median(&traced_wall)?);
    out.metrics.samples("trace.untraced_wall_s", &plain_wall);
    out.metrics.value(
        "harness.idle_share",
        1.0 - median(&plain_cpu)? / (threads as f64 * plain_s),
    );
    out.metrics.samples("telemetry.on_wall_s", &traced_wall);
    out.metrics
        .value("telemetry.overhead_share", (traced_s - plain_s) / plain_s);
    out.metrics.value("trace.overhead_s", traced_s - plain_s);
    let read =
        |name: &str| fs::read_to_string(tel_dir.join(name)).map_err(|e| format!("{name}: {e}"));
    for (name, value) in telemetry_metrics(&read("profile.json")?, &read("metrics.json")?)? {
        out.metrics.value(name, value);
    }
    if let Some((hits, recomputed, corrupt)) = crate::workloads::cache_summary(&traced_stderr) {
        out.metrics.value("runstore.hits", hits as f64);
        out.metrics
            .value("runstore.misses", (recomputed - corrupt) as f64);
        out.metrics.value("runstore.corrupt", corrupt as f64);
        out.metrics.value(
            "runstore.hit_share",
            hits as f64 / (hits + recomputed) as f64,
        );
    }

    let recomputed = batch.prepare_op()?;
    let open = rec.enter("program.op_one_thread");
    let serial = batch.invoke(mode, 1, None).map_err(io)?;
    rec.exit(open);
    out.tally.op(batch.verify(&serial, recomputed));
    out.metrics.value("parallel.t1_wall_s", serial.wall_s);
    out.metrics
        .value("parallel.speedup", serial.wall_s / plain_s);

    let open = rec.enter("program.warm_invocations");
    let mut warm_ms = Vec::new();
    for _ in 0..if ctx.smoke { 12 } else { WARM_TAIL_N } {
        let warm = batch.invoke("--resume", threads, None).map_err(io)?;
        if out.tally.op(batch.verify(&warm, 0)) {
            warm_ms.push(warm.wall_s * 1e3);
        }
    }
    rec.exit(open);
    out.metrics.samples("run.warm_p50_ms", &warm_ms);
    if let Some(p95) = stats::percentile(&warm_ms, 95.0) {
        out.metrics.value("run.warm_p95_ms", p95);
    }

    let open = rec.enter("scenario.proc_start");
    let mut start_ms = Vec::new();
    for _ in 0..20 {
        let inv = ctx
            .program
            .run(&["--list-components"], threads, &batch.dir)
            .map_err(io)?;
        start_ms.push(inv.wall_s * 1e3);
    }
    rec.exit(open);
    out.metrics.samples("scenario.proc_start_ms", &start_ms);

    if let Some(t80) = batch.sim_t80() {
        out.metrics.value("sim.t80_s", t80);
    }
    Ok(())
}

/// The stored replicates of the workload's own run: `(text of one, mean
/// file size)`.
fn stored_replicate(store: &Path) -> Result<(String, f64), String> {
    let runs: Vec<_> = stored_runs(store)?
        .into_iter()
        .flat_map(|(_, runs)| runs)
        .collect();
    let first = runs
        .first()
        .ok_or("the workload's store holds no replicate")?;
    let bytes: u64 = runs
        .iter()
        .filter_map(|p| fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let text = fs::read_to_string(first).map_err(|e| e.to_string())?;
    Ok((text, bytes as f64 / runs.len() as f64))
}

/// Calls into each crate's public functions, shaped by the workload's spec.
fn time_layers(ctx: &Ctx<'_>, batch: &Batch<'_>, m: &mut Micro<'_>) -> Result<(), String> {
    let scratch = batch.dir.join("layers");
    fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let spec_text = batch.spec_text.as_str();
    let spec = ScenarioSpec::parse(spec_text).map_err(|e| e.to_string())?;

    // scenario
    m.record("scenario.parse_us", 1e6, 5, 200, || {
        black_box(ScenarioSpec::parse(black_box(spec_text)).is_ok());
    });
    m.metrics
        .value("scenario.replicates", batch.replicates as f64);

    // The system as the driver resolves it; a grid's largest cell.
    let params = FigureParams {
        scale: ctx.scale(),
        num_seeds: spec.num_seeds,
        vary_system: spec.vary_system,
        run_seed: spec.run_seed,
        system_seed: spec.system_seed,
        num_workers: spec.num_workers,
        total_rounds: spec.rounds,
        eval_every: spec.eval_every,
        max_virtual_time: spec.max_virtual_time,
    };
    let mut cfg = params.apply(spec.base_config.clone());
    if let Some(n) = spec
        .sweep_num_workers
        .as_ref()
        .and_then(|ns| ns.iter().max())
    {
        cfg.num_workers = *n;
    }

    // airfedga: system build, and fedml's share of it
    let mut built = None;
    m.record("system.build_ms", 1e3, 3, 1, || {
        built = Some(cfg.build(&mut Rng64::seed_from(spec.system_seed)));
    });
    let system = built.expect("timed at least once");
    m.record("fedml.dataset_gen_ms", 1e3, 3, 1, || {
        black_box(
            cfg.dataset
                .generate_split(cfg.test_per_class, &mut Rng64::seed_from(spec.system_seed)),
        );
    });

    // grouping
    let air_fedga = AirFedGa::new(AirFedGaConfig {
        total_rounds: ENGINE_ROUNDS,
        eval_every: params.eval(),
        ..AirFedGaConfig::default()
    });
    let mut grouped = None;
    m.record("grouping.alg3_ms", 1e3, 3, 1, || {
        grouped = Some(air_fedga.grouping_for(&system))
    });
    let grouping = grouped.expect("timed at least once");
    m.metrics
        .value("grouping.groups", grouping.num_groups() as f64);
    m.record("grouping.emd_us", 1e6, 5, 200, || {
        black_box(grouping::emd::average_group_emd(
            &grouping,
            &system.worker_infos,
        ));
    });

    // engines: host time per simulated round, Algorithm 3 excluded
    let per_round = 1e6 / ENGINE_ROUNDS as f64;
    m.record("engine.air_fedga.round_us", per_round, 3, 1, || {
        black_box(air_fedga.run_with_grouping(
            &system,
            &grouping,
            &mut Rng64::seed_from(spec.run_seed),
        ));
    });
    for (metric, choice) in [
        ("engine.air_fedavg.round_us", MechanismChoice::AirFedAvg),
        ("engine.dynamic.round_us", MechanismChoice::Dynamic),
        ("engine.fedavg.round_us", MechanismChoice::FedAvg),
        ("engine.tifl.round_us", MechanismChoice::TiFl),
    ] {
        let mechanism = choice.build(ENGINE_ROUNDS, params.eval(), None);
        m.record(metric, per_round, 3, 1, || {
            black_box(mechanism.run(&system, &mut Rng64::seed_from(spec.run_seed)));
        });
    }

    // fedml: one worker's local update, an evaluation, the modal GEMMs
    let mut rng = Rng64::seed_from(spec.run_seed);
    let mut ws = Workspace::new();
    let shard = &system.shards[0];
    let mut model = system.fresh_model();
    let step_us = m.record("fedml.local_step_us", 1e6, 5, 200, || {
        black_box(local_update_ws(
            &mut *model,
            shard,
            &cfg.sgd,
            &mut rng,
            &mut ws,
        ));
    });
    m.metrics.value(
        "fedml.samples_per_s",
        (shard.len() * cfg.sgd.local_epochs) as f64 / (step_us / 1e6),
    );
    m.record("fedml.eval_us", 1e6, 5, 50, || {
        black_box(system.template.evaluate_ws(&system.test, &mut ws));
    });
    // The modal `gemm.mnk` bucket of every workload here is the first
    // layer at one mini-batch: forward X·Wᵀ and the fused weight update.
    let (b, d) = (
        cfg.sgd.batch_size.min(shard.len()),
        system.train.num_features(),
    );
    let h = Mlp::paper_lr(d, system.train.num_classes(), &mut rng)
        .layer_weights(0)
        .rows();
    let flops = (2 * b * h * d) as f64 / 1e9;
    let fill = |n: usize, rng: &mut Rng64| -> Vec<f64> { (0..n).map(|_| rng.gaussian()).collect() };
    let (x, wt, delta) = (
        fill(b * d, &mut rng),
        fill(d * h, &mut rng),
        fill(b * h, &mut rng),
    );
    let (mut z, mut w) = (vec![0.0; b * h], vec![0.0; h * d]);
    m.record_rate("fedml.gemm_nn_gflops", flops, 5, 20_000, || {
        gemm_nn(black_box(&x), &wt, &mut z, b, h, d);
    });
    m.record_rate("fedml.gemm_tn_acc_gflops", flops, 5, 20_000, || {
        gemm_tn_acc(black_box(&delta), &x, &mut w, h, d, b, -1e-9);
    });
    // Large-shape guard: the same call on an `imagenet_vgg` shard. Both
    // compute workloads stay in the LR model's small-GEMM regime.
    let vgg = FlSystemConfig::imagenet_vgg();
    let vgg_shard = vgg
        .dataset
        .clone()
        .with_samples_per_class(2)
        .generate(&mut rng);
    let mut vgg_model =
        ModelKind::Vgg16.build(vgg_shard.num_features(), vgg_shard.num_classes(), &mut rng);
    m.record("fedml.local_step_vgg_us", 1e6, 3, 10, || {
        black_box(local_update_ws(
            &mut *vgg_model,
            &vgg_shard,
            &vgg.sgd,
            &mut rng,
            &mut ws,
        ));
    });

    // wireless: Algorithm 2 and one AirComp aggregation of the median group
    let mut groups: Vec<&Vec<usize>> = grouping.groups().iter().collect();
    groups.sort_by_key(|g| g.len());
    let members = groups[groups.len() / 2];
    let dim = system.model_dim();
    let locals: Vec<FlatParams> = members
        .iter()
        .map(|_| FlatParams(fill(dim, &mut rng)))
        .collect();
    let sizes: Vec<f64> = members
        .iter()
        .map(|&w| system.shards[w].len() as f64)
        .collect();
    let gains: Vec<f64> = members
        .iter()
        .map(|&w| system.channel.draw_worker(w, &mut rng))
        .collect();
    let norm_bound = locals.iter().map(FlatParams::norm).fold(0.0, f64::max);
    let mut power = PowerControlConfig::for_group(norm_bound, &sizes, &gains);
    power.noise_variance = cfg.wireless.noise_variance;
    m.record("wireless.power_us", 1e6, 5, 200, || {
        black_box(optimize_power(black_box(&power)));
    });
    let solution = optimize_power(&power);
    let mut estimate = FlatParams::zeros(dim);
    let mut air_scratch = AirAggregationScratch::new();
    let aggregate_us = m.record("wireless.aggregate_us", 1e6, 5, 200, || {
        black_box(air_aggregate_indexed_into(
            members.len(),
            |k| AirAggregationInput {
                data_size: sizes[k],
                channel_gain: gains[k],
                params: &locals[k],
            },
            solution.sigma,
            solution.eta,
            cfg.wireless.noise_variance,
            &mut rng,
            &mut estimate,
            &mut air_scratch,
        ));
    });
    // Computed, not measured: the bytes of the local models one call reads.
    m.metrics.value(
        "wireless.aggregate_gbs",
        (members.len() * dim * 8) as f64 / (aggregate_us / 1e6) / 1e9,
    );

    // faults, simcore
    m.record("faults.compile_us", 1e6, 5, 50, || {
        black_box(FaultPlan::compile(
            &cfg.faults,
            cfg.num_workers,
            &mut Rng64::seed_from(spec.system_seed),
        ));
    });
    let times: Vec<f64> = (0..1024).map(|_| rng.uniform()).collect();
    m.record("simcore.event_ns", 1e9 / times.len() as f64, 5, 100, || {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(t, i);
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
    });

    // runstore, on a replicate the workload's own run stored
    let (stored, bytes) = stored_replicate(&batch.store_dir())?;
    m.metrics.value("runstore.bytes_per_replicate", bytes);
    let trace = runstore::decode_trace(&stored).ok_or("a stored replicate does not decode")?;
    m.record("runstore.decode_us", 1e6, 5, 200, || {
        black_box(runstore::decode_trace(black_box(&stored)));
    });
    m.record("runstore.encode_us", 1e6, 5, 200, || {
        black_box(runstore::encode_trace(black_box(&trace)));
    });
    m.record("simcore.trace_csv_us", 1e6, 5, 200, || {
        black_box(black_box(&trace).to_csv());
    });
    let store_root = scratch.join("store");
    m.record("runstore.open_us", 1e6, 5, 20, || {
        black_box(RunStore::open(&store_root, "benchmark layer timing").is_ok());
    });
    let store = RunStore::open(&store_root, "benchmark layer timing").map_err(|e| e.to_string())?;
    let mut cell = 0;
    m.record("runstore.put_us", 1e6, 5, 20, || {
        cell += 1;
        black_box(
            store
                .store_trace(cell, "cell", spec.run_seed, spec.system_seed, &trace)
                .is_ok(),
        );
    });
    m.record("runstore.get_us", 1e6, 5, 200, || {
        black_box(store.load_trace_checked(1, "cell", spec.run_seed, spec.system_seed));
    });

    // experiments: the replicate fan-out and fold over canned summaries,
    // and one CSV write
    telemetry::progress::set_mode(telemetry::progress::ProgressMode::Off);
    let summary = RunSummary::from_trace(trace.clone());
    let seeds = replication_seeds(spec.run_seed, spec.num_seeds);
    let plan = SeedPlan::fixed_system(spec.system_seed, seeds.clone());
    let cells: Vec<usize> = (0..batch.replicates as usize / seeds.len()).collect();
    m.record(
        "harness.replicate_overhead_us",
        1e6 / batch.replicates as f64,
        5,
        20,
        || {
            black_box(run_replicated_isolated_plan(
                cells.clone(),
                &plan,
                |i, _| format!("cell {i}"),
                &RunPolicy::default(),
                &NoCache,
                |_, _| summary.clone(),
            ));
        },
    );
    m.record("harness.fold_us", 1e6, 5, 200, || {
        black_box(CellStats::from_summaries(
            seeds.clone(),
            vec![summary.clone(); seeds.len()],
        ));
    });
    let reference = batch.reference.as_ref().ok_or("no reference outputs")?;
    let (_, csv) = reference.csvs.first().ok_or("the workload wrote no CSV")?;
    experiments::report::set_results_dir(Some(scratch.join("csv")));
    m.record("report.csv_write_us", 1e6, 5, 20, || {
        black_box(experiments::report::write_csv("bench.csv", csv).is_ok());
    });
    experiments::report::set_results_dir(None);

    // parallel
    m.record("parallel.fork_join_us", 1e6, 5, 2000, || {
        parallel::fork_join_chunks(8, &|c| {
            black_box(c);
        })
    });

    // telemetry: one span off, one span on, and a flush of what that left
    m.record("telemetry.off_ns", 1e9, 5, 1_000_000, || {
        black_box(telemetry::span!("bench"));
    });
    telemetry::metrics::reset();
    telemetry::enable();
    m.record("telemetry.on_span_ns", 1e9, 5, 20_000, || {
        black_box(telemetry::span!("bench"));
    });
    m.record("telemetry.flush_ms", 1e3, 1, 1, || {
        black_box(telemetry::flush_to_dir(&scratch.join("telemetry")).is_ok());
    });
    telemetry::disable();
    telemetry::metrics::reset();

    // jobserver: the queue's two persisted transitions
    let mut queue = JobQueue::open(&scratch.join("queue")).map_err(|e| e.to_string())?;
    m.record("jobserver.queue_persist_us", 1e6, 5, 10, || {
        let id = queue.submit("bench", 0, spec_text).unwrap_or(0);
        black_box(
            queue
                .mutate(id, |r| r.state = jobserver::JobState::Running)
                .is_ok(),
        );
    });

    // host
    m.record("host.calib_ms", 1e3, 5, 1, || {
        black_box(crate::probe::slice());
    });
    Ok(())
}

/// The traced pass of one workload. For `service_mix` the program
/// observations and layer timings use the job spec run through
/// `airfedga-run` (the daemon publishes no telemetry of its own yet); the
/// `jobserver.*` numbers of every workload come from a service session on
/// that same job spec.
pub fn trace(ctx: &Ctx<'_>, kind: Kind) -> Result<(Outcome, Recorder), String> {
    let mut rec = Recorder::new(true);
    let mut out = Outcome::default();
    let root = rec.enter(kind.name());

    let open = rec.enter("setup");
    let mut batch = Batch::setup(ctx, kind, ctx.dir.join("batch"), &mut rec)?;
    rec.exit(open);

    let open = rec.enter("program");
    observe_program(ctx, &mut batch, &mut out, &mut rec)?;
    rec.exit(open);
    out.tally.op(batch.verify_results());

    let open = rec.enter("layers");
    let mut micro = Micro {
        rec: &mut rec,
        metrics: &mut out.metrics,
        shrink: if ctx.smoke { 10 } else { 1 },
    };
    time_layers(ctx, &batch, &mut micro)?;
    rec.exit(open);

    let open = rec.enter("service");
    let dups = if ctx.smoke { 12 } else { DUP_TAIL_N };
    service::trace_session(ctx, dups, &mut out.metrics, &mut out.tally, &mut rec)?;
    rec.exit(open);

    rec.exit(root);
    out.digest = batch
        .reference
        .as_ref()
        .map(Outputs::digest)
        .unwrap_or_default();
    Ok((out, rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROFILE: &str = r#"{
  "version": 1,
  "spans": [
    {"name": "replicate", "count": 90, "total_us": 5170276, "self_us": 229244},
    {"name": "train", "count": 890, "total_us": 4544072, "self_us": 4544072},
    {"name": "grid", "count": 1, "total_us": 2625476, "self_us": 47767},
    {"name": "aggregate", "count": 890, "total_us": 228843, "self_us": 228843},
    {"name": "eval", "count": 178, "total_us": 139207, "self_us": 139207}
  ],
  "counters": [
    {"name": "engine.rounds", "plane": "logical", "value": 900},
    {"name": "pool.fork_joins", "plane": "sched", "value": 844}
  ],
  "gauges": [{"name": "pool.threads", "plane": "sched", "value": 2}],
  "histograms": [
    {"name": "gemm.mnk", "plane": "logical", "count": 716068, "sum": 31394745600, "p50": 65536, "p90": 65536, "p99": 65536}
  ]
}"#;
    const LOGICAL: &str = r#"{
  "version": 1, "plane": "logical",
  "counters": {
    "engine.rounds": 900, "engine.participants": 8918,
    "engine.participants_filtered": 1916, "engine.group_skips": 10,
    "gemm.nn": 448447, "gemm.tn": 0, "gemm.tn_acc": 267621, "gemm.nt": 0, "gemm.nt_packed": 0
  },
  "histograms": {"gemm.mnk": {"count": 716068, "sum": 31394745600, "buckets": [[16, 401445]]}}
}"#;

    #[test]
    fn telemetry_files_give_the_engine_layer_numbers() {
        let got = telemetry_metrics(PROFILE, LOGICAL).unwrap();
        let value = |name: &str| got.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("engine.train_self_s"), 4.544072);
        assert_eq!(value("engine.grid_self_s"), 0.047767);
        // No `dispatch` span in this profile: zero, not an error.
        assert_eq!(value("engine.dispatch_self_s"), 0.0);
        assert_eq!(value("engine.participants_filtered"), 1916.0);
        assert_eq!(value("fedml.gemm_calls"), 716068.0);
        assert_eq!(value("fedml.gemm_mnk_p50"), 65536.0);
        assert_eq!(value("wireless.aggregate_calls"), 890.0);
        assert_eq!(value("parallel.fork_joins"), 844.0);
        assert_eq!(value("telemetry.spans"), 2049.0);
    }

    #[test]
    fn missing_counters_are_errors() {
        assert!(telemetry_metrics(PROFILE, r#"{"counters": {}}"#)
            .unwrap_err()
            .contains("no counter"));
        assert!(telemetry_metrics("{}", LOGICAL).is_err());
        assert!(telemetry_metrics("not json", LOGICAL).is_err());
    }

    #[test]
    fn every_reported_telemetry_metric_is_in_the_catalogue() {
        for (name, _) in telemetry_metrics(PROFILE, LOGICAL).unwrap() {
            assert!(
                crate::metrics::PER_LAYER.iter().any(|d| d.name == name),
                "{name}"
            );
        }
    }
}
