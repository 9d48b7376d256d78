//! The one replicate runner, and the summaries it folds.
//!
//! Every experiment of the paper's §VI is the same computation: a
//! `(system variant × mechanism × seed)` product of independent replicates
//! folded into per-cell [`CellStats`]. This module runs it, one way:
//!
//! * [`run_grid`] — the bare pool fan-out: independent cells across the
//!   persistent worker pool, results in input order, nested fan-out allowed
//!   (each cell's training rounds use the pool again; see the `parallel`
//!   crate docs).
//! * [`run_replicated_isolated_plan`] — **the** runner: cache pass → group
//!   the misses that are one computation → parallel pass over the group
//!   leaders (stored as they complete) → bounded input-order retries →
//!   per-cell fold. Panic isolation, the [`RunPolicy`] watchdog/retries and
//!   the [`ReplicateCache`] apply to everything that goes through it.
//! * [`run_mechanism_cells`] — the runner for cells that are "a mechanism on
//!   one of these systems": it owns the decision to build each system once
//!   (only when a replicate misses the cache, and then on the calling thread)
//!   and share it, or to re-sample it per replicate (`--system-seeds`), and
//!   it tells the runner which cells are the same computation (those that
//!   differ only in a ξ their mechanism never reads). Every scenario kind
//!   and the `table1_comparison` example call this. What a mechanism is —
//!   its name, its grouping rule, its aggregation back-end, whether it
//!   reads ξ — is the `baselines` crate's table ([`MechanismChoice`],
//!   re-exported here); the round budget travels in one
//!   `airfedga::mechanism::EngineOptions`.
//!
//! **Seed-stream contract** (see [`crate::stats::replication_seeds`]):
//! replicate `r` of a cell runs with seed `seeds[r]`, and the figures use
//! `base + r` with the historical single-seed value as `base` — so
//! `--seeds 1` is the historical run itself (byte-identical output), and
//! raising `N` appends replicates without renumbering existing ones. Cells
//! derive all randomness from their own data and seed and do no I/O, so a
//! replicated grid is bit-identical to the sequential double loop at any
//! `PARALLEL_THREADS` / `PARALLEL_CHUNKS` setting, and to a resumed one.

use crate::stats::CellStats;
use airfedga::mechanism::EngineOptions;
use airfedga::system::{FlSystem, FlSystemConfig};
use baselines::Mechanism;
pub use baselines::MechanismChoice;
use fedml::rng::Rng64;
use parallel::prelude::*;
use simcore::trace::TrainingTrace;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Summary of one mechanism's run, as reported in the paper's text.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Mechanism label.
    pub mechanism: String,
    /// Full trace (for CSV output / plotting).
    pub trace: TrainingTrace,
    /// Final accuracy at the end of the run.
    pub final_accuracy: f64,
    /// Final loss at the end of the run.
    pub final_loss: f64,
    /// Average single-round duration (seconds).
    pub average_round_time: f64,
    /// Total virtual training time (seconds).
    pub total_time: f64,
    /// Total aggregation energy (Joules).
    pub total_energy: f64,
    /// Fraction of scheduled member slots that participated (1.0 for
    /// fault-free runs).
    pub participation_rate: f64,
    /// Rounds that produced a global update under fault injection (equals
    /// the attempted rounds for fault-free runs).
    pub rounds_survived: usize,
}

impl RunSummary {
    /// Build the summary from a trace.
    pub fn from_trace(trace: TrainingTrace) -> Self {
        let rounds_survived = if trace.faults.is_empty() {
            trace.total_rounds()
        } else {
            trace.faults.rounds_survived()
        };
        Self {
            mechanism: trace.mechanism.clone(),
            final_accuracy: trace.final_accuracy(),
            final_loss: trace.final_loss(),
            average_round_time: trace.average_round_time(),
            total_time: trace.total_time(),
            total_energy: trace.total_energy(),
            participation_rate: trace.faults.participation_rate(),
            rounds_survived,
            trace,
        }
    }

    /// Virtual time at which the run first stably reaches `target` accuracy.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.trace.time_to_accuracy(target)
    }

    /// Aggregation energy spent when the run first stably reaches `target`.
    pub fn energy_to_accuracy(&self, target: f64) -> Option<f64> {
        self.trace.energy_to_accuracy(target)
    }
}

/// Fan the independent cells of an experiment grid across the persistent
/// worker pool, returning the per-cell results **in input order**.
///
/// A *cell* is one self-contained unit of a figure/table grid — a (seed,
/// mechanism, config) combination, a worker-count of a scalability sweep, a
/// ξ value of the Fig. 8 sweep. Cells run concurrently (each may itself use
/// inner per-member round parallelism: the pool supports nested fan-out), so
/// `run_cell` must uphold the determinism contract that makes the grid's
/// output byte-identical to a sequential `cells.into_iter().map(run_cell)`:
///
/// * **Cell-local RNG**: every stochastic draw inside a cell must come from
///   generators seeded from the cell's own data (e.g.
///   `Rng64::seed_from(cell.seed)`), never from state shared across cells.
/// * **No cell-order side effects**: cells must not print or write files —
///   render tables/CSVs from the returned vector afterwards, in input order.
///
/// Under `PARALLEL_THREADS=1` the cells run in-line in input order, which the
/// CI determinism job uses to cross-check the parallel schedule.
///
/// Grid cells are exactly the workload over-decomposition exists for —
/// heterogeneous mechanisms and seeds finishing at very different times — so
/// the fan-out passes [`ChunkHint::Fine`] to the pool (scheduling-only: any
/// hint, and any explicit `PARALLEL_CHUNKS` pin, is bit-identical).
pub fn run_grid<T, R, F>(cells: Vec<T>, run_cell: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let indexed: Vec<(usize, T)> = cells.into_iter().enumerate().collect();
    indexed
        .into_par_iter()
        .map(|(index, cell)| {
            // Re-panic with the cell index attached: a bare worker panic
            // ("index out of bounds…") is useless in a 100-cell grid.
            match catch_unwind(AssertUnwindSafe(|| run_cell(cell))) {
                Ok(result) => result,
                Err(payload) => {
                    panic!("grid cell {index} panicked: {}", panic_message(&*payload))
                }
            }
        })
        .with_chunk_hint(ChunkHint::Fine)
        .collect()
}

/// Best-effort extraction of a panic payload's message (`&str` / `String`
/// payloads — everything `panic!` and `assert!` produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One replicate whose first attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Index of the replicate in the flat, cell-major (cell × seed) product.
    pub index: usize,
    /// Human-readable (cell, seed) label: `"<cell label> seed <seed>"`.
    pub label: String,
    /// Panic message of the last failing attempt.
    pub message: String,
    /// True when the sequential retry succeeded (the grid result is intact;
    /// the failure is still reported so flaky cells don't go unnoticed).
    pub recovered: bool,
    /// Total attempts made (first attempt + retries), at least 1.
    pub attempts: usize,
}

impl CellFailure {
    /// One report line for this failure. The historical single-retry wording
    /// is preserved verbatim for the default [`RunPolicy`] (two attempts).
    pub fn describe(&self) -> String {
        let head = format!("cell {} [{}]", self.index, self.label);
        let message = &self.message;
        match (self.recovered, self.attempts.saturating_sub(1)) {
            (true, 0 | 1) => format!("{head}: recovered on retry; first panic: {message}"),
            (true, n) => format!("{head}: recovered on retry {n}; first panic: {message}"),
            (false, 0) => format!("{head}: FAILED (no retry): {message}"),
            (false, 1) => format!("{head}: FAILED after one retry: {message}"),
            (false, n) => format!("{head}: FAILED after {n} retries: {message}"),
        }
    }
}

/// Per-cell execution limits for the replicate runner: how many bounded
/// retries a failed attempt gets, how long to back off between them, and an
/// optional wall-clock watchdog per attempt. The default reproduces the
/// historical behaviour exactly: one retry, no backoff, no timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPolicy {
    /// Sequential retries after a failed first attempt (0 = fail fast).
    pub max_retries: usize,
    /// Base backoff in wall-clock seconds: retry `k` sleeps `k * backoff`
    /// first (deterministic linear backoff; sleeping never touches the
    /// simulation, so results are unaffected).
    pub retry_backoff: f64,
    /// Wall-clock seconds each attempt may run before the watchdog cancels
    /// it at the next round boundary (`None` = no watchdog).
    pub cell_timeout: Option<f64>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        Self {
            max_retries: 1,
            retry_backoff: 0.0,
            cell_timeout: None,
        }
    }
}

impl RunPolicy {
    fn backoff_sleep(&self, completed_attempts: usize) {
        if self.retry_backoff > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(
                self.retry_backoff * completed_attempts as f64,
            ));
        }
    }
}

thread_local! {
    /// True while this thread is inside an isolated cell attempt whose panic
    /// will be caught, labelled and re-reported deterministically.
    static ISOLATED_ATTEMPT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// Install (once) a panic hook that stays silent for panics raised inside an
/// isolated cell attempt. Without this, worker threads print the default
/// "thread panicked" dump at panic time — interleaving with other cells'
/// output in schedule order — even though the panic is caught and re-emitted
/// in the sorted failure report. Panics outside isolated attempts (real bugs,
/// test failures) still reach the previous hook untouched.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ISOLATED_ATTEMPT.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Re-arms the previous quiet-flag state on drop (attempts can nest through
/// the pool's help-first caller participation).
struct IsolatedFlagGuard {
    prev: bool,
}

impl IsolatedFlagGuard {
    fn set() -> Self {
        Self {
            prev: ISOLATED_ATTEMPT.with(|f| f.replace(true)),
        }
    }
}

impl Drop for IsolatedFlagGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        ISOLATED_ATTEMPT.with(|f| f.set(prev));
    }
}

/// One isolated attempt at a cell, under the policy's watchdog if any.
fn attempt_cell<R>(policy: &RunPolicy, f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    let _quiet = IsolatedFlagGuard::set();
    let _watch = policy.cell_timeout.map(crate::watchdog::watch);
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(&*payload))
}

/// A persistent store of completed replicates consulted by
/// [`run_replicated_isolated_plan`]. Keys are the (cell index, cell label,
/// run seed, system seed) coordinates of one replicate *within a fixed
/// already-hashed experiment* — the store implementation (see the
/// `runstore` crate) scopes them under a content hash of the full spec.
/// Implementations must be `Sync`: fresh results are stored from the
/// parallel pass as soon as they complete.
pub trait ReplicateCache: Sync {
    /// A previously completed replicate, if the store has one.
    fn load(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
    ) -> Option<RunSummary>;

    /// Persist a freshly completed replicate. Must be atomic (a torn write
    /// must never be loadable) and infallible from the caller's view —
    /// storage errors should degrade to "not cached", not kill the grid.
    /// The summary may have been computed for a sibling cell that is the
    /// same computation (see [`run_mechanism_cells`]); it is bit for bit what
    /// this replicate would have produced, and it is stored under this
    /// replicate's own coordinates.
    fn store(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
        summary: &RunSummary,
    );
}

/// The no-op cache: every replicate is a miss, nothing is persisted. The
/// zero-store default — runs with `NoCache` perform no disk I/O.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl ReplicateCache for NoCache {
    fn load(&self, _: usize, _: &str, _: u64, _: u64) -> Option<RunSummary> {
        None
    }
    fn store(&self, _: usize, _: &str, _: u64, _: u64, _: &RunSummary) {}
}

/// Multi-line failure report (empty string when nothing failed), one
/// [`CellFailure::describe`] line each, ordered by the flat (cell, seed)
/// index so reruns diff cleanly. The one formatter behind
/// [`ReplicatedOutcome::failure_report`] and the scenario driver's report.
pub fn failure_report(failures: &[CellFailure]) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&CellFailure> = failures.iter().collect();
    sorted.sort_by(|a, b| a.index.cmp(&b.index).then_with(|| a.label.cmp(&b.label)));
    let mut out = format!("{} replicate(s) panicked:\n", failures.len());
    for f in sorted {
        out.push_str("  - ");
        out.push_str(&f.describe());
        out.push('\n');
    }
    out
}

/// Result of a replicated run: per-cell folded statistics (`None` when
/// **every** replicate of the cell was lost) plus the failures, labelled
/// `"<cell label> seed <seed>"`.
#[derive(Debug)]
pub struct ReplicatedOutcome {
    /// Per-cell statistics folded over the *surviving* replicates, input
    /// order. A cell whose replicates all failed is `None`.
    pub cells: Vec<Option<CellStats>>,
    /// First-attempt failures across the flat (cell × seed) grid, recovered
    /// ones included, in flat-index order.
    pub failures: Vec<CellFailure>,
    /// Replicates that were not run themselves but took the result of an
    /// identical replicate computed in this run (always 0 through
    /// [`run_replicated_isolated_plan`], where every cell is its own
    /// computation).
    pub shared: usize,
    /// Cache misses that were not run but took a clone of an identical
    /// replicate the cache held under another cell's key (always 0 through
    /// [`run_replicated_isolated_plan`]). Each is stored under its own key.
    pub copied: usize,
}

impl ReplicatedOutcome {
    /// True when every cell kept all of its replicates.
    pub fn is_complete(&self) -> bool {
        self.failures.iter().all(|f| f.recovered)
    }

    /// See [`failure_report`].
    pub fn failure_report(&self) -> String {
        failure_report(&self.failures)
    }
}

/// Run the full (cell × seed) replication product and fold each cell's
/// replicates into [`CellStats`], every cell its own computation. This is
/// the private `run_replicates` — the only code that runs replicates; its
/// docs list the steps — with the cell index as the cell's identity, so no
/// two replicates share a run.
pub fn run_replicated_isolated_plan<T, F, L>(
    cells: Vec<T>,
    plan: &SeedPlan,
    label: L,
    policy: &RunPolicy,
    cache: &dyn ReplicateCache,
    run_cell: F,
) -> ReplicatedOutcome
where
    T: Sync + Send,
    F: Fn(&T, u64) -> RunSummary + Sync,
    L: Fn(usize, &T) -> String,
{
    run_replicates(
        cells,
        plan,
        label,
        |ci, _| ci,
        policy,
        cache,
        |_, _| (),
        run_cell,
    )
}

/// The one body behind [`run_replicated_isolated_plan`] and
/// [`run_mechanism_cells`].
///
/// `run_cell(&cell, seed)` runs one replicate under [`run_grid`]'s
/// determinism contract (all randomness from the cell's own data and the
/// seed, no I/O). `identity(ci, &cell)` names the computation a cell stands
/// for: the caller promises that two cells of equal identity produce, for
/// equal seeds, bit-identical summaries. The product is laid out cell-major
/// — `(cell 0, seeds[0]), (cell 0, seeds[1]), …` — and executed in six
/// steps:
///
/// 1. **Cache pass**, sequential and in input order: replicates the
///    [`ReplicateCache`] holds under their own key are loaded, the rest
///    queued. A fully warmed cache replays the grid without touching the
///    worker pool.
/// 2. **Copy, then group** the misses by `(identity, run seed, system
///    seed)`, in input order. A miss whose key a hit shares takes a clone of
///    the first such hit and is stored under its own key on the calling
///    thread: it runs nothing, and its file is the bytes a recomputation
///    would write. (The store has no checksum, so a corrupt file that still
///    decodes is copied into its twins' files as well as served for its
///    own key.) The other misses group; the first member of a group leads:
///    it is the only one that runs. Who leads depends on the input alone,
///    never on the schedule.
/// 3. **Prepare**, sequential and in input order: `prepare(&cell, seed)` for
///    every leader, on the calling thread — where [`run_mechanism_cells`]
///    builds the systems the leaders share, so that which thread allocates
///    them never depends on the schedule. A panic in it is swallowed:
///    `run_cell` meets the same panic inside its own isolated attempt.
/// 4. **Parallel pass** over the leaders as one flat [`run_grid`], so a slow
///    replicate never serializes the others. Each attempt is panic-isolated
///    and runs under the [`RunPolicy`]'s watchdog; a success is stored at
///    once under every member's own key, so an interrupted grid loses only
///    the replicates in flight and the store holds one entry per replicate
///    whether or not it was shared.
/// 5. **Retries**: failed leaders get up to `policy.max_retries` more
///    attempts, sequentially and in input order. A group that never succeeds
///    is dropped from its cells' statistics (the error bars cover fewer
///    seeds) and reported as one [`CellFailure`] per member, labelled
///    `"<label(ci, &cell)> seed <seed>"`; its `index` is the member's flat
///    (cell × seed) coordinate whether or not the cache was warm — what a
///    runner that shared nothing would report.
/// 6. **Fold** per cell over the surviving replicates, followers holding a
///    clone of their leader's summary and copies one of their twin's. With
///    one seed the statistics degenerate to that run (`CellStats::first()`
///    is the plain single-seed run, bit for bit).
///
/// Every replicate is bit-identical wherever and whenever it runs, so a
/// resumed grid folds to the same [`CellStats`] — and renders the same bytes
/// — as an uninterrupted one. `plan.system_seed_for(seed)` is part of each
/// cache key, so `--system-seeds` replicates never collide with
/// fixed-system ones.
#[expect(
    clippy::too_many_arguments,
    reason = "the one runner: each argument is a distinct axis every kind supplies"
)]
fn run_replicates<T, K, F, P, L, I>(
    cells: Vec<T>,
    plan: &SeedPlan,
    label: L,
    identity: I,
    policy: &RunPolicy,
    cache: &dyn ReplicateCache,
    prepare: P,
    run_cell: F,
) -> ReplicatedOutcome
where
    T: Sync + Send,
    K: Ord,
    F: Fn(&T, u64) -> RunSummary + Sync,
    P: Fn(&T, u64),
    L: Fn(usize, &T) -> String,
    I: Fn(usize, &T) -> K,
{
    let seeds = &plan.run_seeds;
    assert!(!seeds.is_empty(), "replication needs at least one seed");
    let labels: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| label(ci, cell))
        .collect();
    let pairs: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|ci| seeds.iter().map(move |&s| (ci, s)))
        .collect();

    // 1. Cache pass.
    let progress = telemetry::progress::Reporter::new("cells", pairs.len());
    let mut results: Vec<Option<RunSummary>> = Vec::with_capacity(pairs.len());
    let mut todo: Vec<usize> = Vec::new();
    for (flat, &(ci, seed)) in pairs.iter().enumerate() {
        let hit = cache.load(ci, &labels[ci], seed, plan.system_seed_for(seed));
        match &hit {
            Some(_) => progress.cached(),
            None => todo.push(flat),
        }
        results.push(hit);
    }

    // 2. Copy the misses whose computation a hit holds; group the rest,
    // groups in the input order of their first member; `group[0]` leads.
    let key_of = |flat: usize| {
        let (ci, seed) = pairs[flat];
        (identity(ci, &cells[ci]), seed, plan.system_seed_for(seed))
    };
    let mut stored: BTreeMap<(K, u64, u64), usize> = BTreeMap::new();
    for flat in (0..pairs.len()).filter(|&flat| results[flat].is_some()) {
        stored.entry(key_of(flat)).or_insert(flat);
    }
    let mut copied = 0usize;
    let mut by_key: BTreeMap<(K, u64, u64), Vec<usize>> = BTreeMap::new();
    for flat in todo {
        let key = key_of(flat);
        match stored.get(&key).and_then(|&twin| results[twin].clone()) {
            Some(summary) => {
                let (ci, seed) = pairs[flat];
                cache.store(ci, &labels[ci], seed, plan.system_seed_for(seed), &summary);
                progress.cached();
                results[flat] = Some(summary);
                copied += 1;
            }
            None => by_key.entry(key).or_default().push(flat),
        }
    }
    let mut groups: Vec<Vec<usize>> = by_key.into_values().collect();
    groups.sort_by_key(|group| group[0]);
    // A leader's result, stored under every member's own key.
    let store = |group: &[usize], summary: &RunSummary| {
        for &flat in group {
            let (ci, seed) = pairs[flat];
            cache.store(ci, &labels[ci], seed, plan.system_seed_for(seed), summary);
        }
    };

    // 3. Prepare on the calling thread what the leaders share.
    for group in &groups {
        let (ci, seed) = pairs[group[0]];
        attempt_cell(policy, || prepare(&cells[ci], seed)).ok();
    }

    // 4. Parallel pass over the leaders.
    let first_pass: Vec<Result<RunSummary, String>> = run_grid((0..groups.len()).collect(), |g| {
        let group = &groups[g];
        let (ci, seed) = pairs[group[0]];
        let _scope = telemetry::spans::scope(ci as i64, seed as i64, 0);
        let _span = telemetry::span!("replicate", seed);
        let attempt = attempt_cell(policy, || run_cell(&cells[ci], seed));
        if let Ok(summary) = &attempt {
            store(group, summary);
            for _ in group {
                progress.done(true);
            }
        }
        attempt
    });

    // 5. Bounded sequential retries, input order.
    let mut failures: Vec<CellFailure> = Vec::new();
    let mut shared = 0usize;
    for (group, mut attempt) in groups.iter().zip(first_pass) {
        let (ci, seed) = pairs[group[0]];
        let first_message = attempt.as_ref().err().cloned();
        let mut attempts = 1usize;
        while attempt.is_err() && attempts <= policy.max_retries {
            policy.backoff_sleep(attempts);
            telemetry::metrics::HARNESS_RETRIES.add(1);
            progress.retried();
            attempts += 1;
            let _scope = telemetry::spans::scope(ci as i64, seed as i64, (attempts - 1) as u32);
            let _span = telemetry::span!("replicate", seed);
            attempt = attempt_cell(policy, || run_cell(&cells[ci], seed));
            if let Ok(summary) = &attempt {
                store(group, summary);
            }
        }
        if let Some(first_message) = first_message {
            for &flat in group {
                progress.done(attempt.is_ok());
                failures.push(CellFailure {
                    index: flat,
                    label: format!("{} seed {}", labels[pairs[flat].0], seed),
                    // Recovered replicates report what first went wrong; dead
                    // ones report the final attempt's panic.
                    message: match &attempt {
                        Ok(_) => first_message.clone(),
                        Err(last_message) => last_message.clone(),
                    },
                    recovered: attempt.is_ok(),
                    attempts,
                });
            }
        }
        if let Ok(summary) = attempt {
            shared += group.len() - 1;
            for &follower in &group[1..] {
                results[follower] = Some(summary.clone());
            }
            results[group[0]] = Some(summary);
        }
    }
    failures.sort_by_key(|f| f.index);
    telemetry::metrics::HARNESS_SHARED_REPLICATES.add(shared as u64);
    progress.finish();

    // 6. Fold per cell over the surviving replicates.
    let mut flat_iter = results.into_iter();
    let folded = (0..cells.len())
        .map(|_| {
            let (kept_seeds, per_seed): (Vec<u64>, Vec<RunSummary>) = seeds
                .iter()
                .zip(flat_iter.by_ref())
                .filter_map(|(&seed, summary)| Some((seed, summary?)))
                .unzip();
            (!per_seed.is_empty()).then(|| CellStats::from_summaries(kept_seeds, per_seed))
        })
        .collect();
    ReplicatedOutcome {
        cells: folded,
        failures,
        shared,
        copied,
    }
}

/// How one replicated comparison derives its RNG streams: the system seed,
/// the per-replicate run seeds, and whether the sampled system itself is
/// re-drawn per replicate.
///
/// **Contract**: replicate `r` runs with run seed `run_seeds[r]`; its system
/// is built from `system_seed` when `vary_system` is false (the historical
/// one-system-per-figure behaviour) and from `system_seed + r` when true
/// (folding system-sampling noise into the error bars as well). Replicate 0
/// therefore always reproduces the historical run bit for bit, with or
/// without `vary_system`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedPlan {
    /// Seed the system (shards, profiles, channel draws, initial model) is
    /// built from (replicate `r` adds `r` when [`Self::vary_system`]).
    pub system_seed: u64,
    /// Per-replicate run seeds, in replication order.
    pub run_seeds: Vec<u64>,
    /// Re-sample the system per replicate (`--system-seeds`).
    pub vary_system: bool,
}

impl SeedPlan {
    /// A plan with the given seeds and the historical fixed-system behaviour.
    pub fn fixed_system(system_seed: u64, run_seeds: Vec<u64>) -> Self {
        Self {
            system_seed,
            run_seeds,
            vary_system: false,
        }
    }

    /// The replicate index of a run seed from this plan's stream.
    pub fn replicate_of(&self, run_seed: u64) -> usize {
        self.run_seeds
            .iter()
            .position(|&s| s == run_seed)
            .expect("run seed is not part of this SeedPlan")
    }

    /// The system seed replicate `run_seed` builds its system from.
    pub fn system_seed_for(&self, run_seed: u64) -> u64 {
        if self.vary_system {
            self.system_seed + self.replicate_of(run_seed) as u64
        } else {
            self.system_seed
        }
    }
}

/// One cell of [`run_mechanism_cells`]: a mechanism, with an optional ξ
/// override for Air-FedGA, on one of the run's system variants.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismCell {
    /// Index into the `configs` slice: the system variant this cell runs on.
    pub config: usize,
    /// The mechanism this cell runs.
    pub mechanism: MechanismChoice,
    /// Air-FedGA's ξ (ignored by mechanisms without one); `None` keeps the
    /// mechanism default.
    pub xi: Option<f64>,
    /// Names the cell in failure reports and cache keys.
    pub label: String,
}

impl MechanismCell {
    /// The computation this cell stands for on a given seed: its system
    /// variant, its mechanism and — by bit pattern, and only when the
    /// mechanism [reads](MechanismChoice::reads_xi) it — its ξ. Cells of
    /// equal identity differ at most in a ξ nothing reads, and in their
    /// label.
    fn identity(&self) -> (usize, MechanismChoice, Option<u64>) {
        let xi = self.xi.filter(|_| self.mechanism.reads_xi());
        (self.config, self.mechanism, xi.map(f64::to_bits))
    }
}

/// The cells of a worker-count sweep: one system config per entry of
/// `worker_counts` (the already-scaled `base` with that many workers) and one
/// cell per (worker count, mechanism), worker count outermost. The sweep
/// keeps the per-worker shard size constant at `per_worker_samples`, as in a
/// scalability experiment where adding workers adds data: this isolates how
/// the *mechanisms* scale with N rather than how shrinking shards speed up
/// local training.
pub fn scalability_cells(
    base: &FlSystemConfig,
    worker_counts: &[usize],
    per_worker_samples: usize,
    mechanisms: &[MechanismChoice],
) -> (Vec<FlSystemConfig>, Vec<MechanismCell>) {
    let configs = worker_counts
        .iter()
        .map(|&n| {
            let mut cfg = base.clone();
            cfg.num_workers = n;
            cfg.dataset.samples_per_class = per_worker_samples * n / cfg.dataset.num_classes.max(1);
            cfg
        })
        .collect();
    let cells = worker_counts
        .iter()
        .enumerate()
        .flat_map(|(config, &n)| {
            mechanisms.iter().map(move |&mechanism| MechanismCell {
                config,
                mechanism,
                xi: None,
                label: format!("N={n} {}", mechanism.label()),
            })
        })
        .collect();
    (configs, cells)
}

/// The runner for cells that each run a mechanism on one of a few system
/// variants — every scenario kind has this shape. Two decisions live here
/// and nowhere else.
///
/// **How systems are shared.** Under a fixed-system plan each of `configs`
/// is built at most once from `plan.system_seed` and shared by every cell
/// and replicate that names it; a config no cache miss names is never built,
/// so an all-hits run builds nothing. The build happens in the runner's
/// prepare step — on the calling thread, before the parallel pass — and not
/// in whichever replicate gets there first. The system is the same either
/// way (a build is a function of the config and the seed alone, and emits no
/// telemetry), but the allocator arena that holds it is the building
/// thread's: a long-lived process (`airfedga-serve`) whose jobs build it now
/// on one thread, now on another ends up with a system's worth of freed
/// memory in each arena (+3 MB peak resident set from the first job on that
/// the pool thread won). A config whose build panics is met again, isolated,
/// by each replicate that names it. Under `plan.vary_system` every replicate
/// builds its own from `plan.system_seed_for(seed)`.
///
/// **Which cells are one computation.** A cell's identity is its config, its
/// mechanism and, if the mechanism table says the mechanism reads one, its ξ
/// compared by bit pattern — so grid cells that differ only in a ξ their
/// mechanism never reads train once per seed and the rest take that result
/// (see [`ReplicatedOutcome::shared`]). A cell whose replicate the cache
/// lost while an identical cell's is stored copies that one instead of
/// training (see [`ReplicatedOutcome::copied`]), so a `--resume` trains
/// only computations the store holds under no key.
///
/// Every cell runs its row of the mechanism table at the round budget
/// `options`. With one seed, [`NoCache`] and the default policy this is the
/// plain "same system, same run seed, every mechanism" comparison of
/// Figs. 3–6.
pub fn run_mechanism_cells(
    configs: &[FlSystemConfig],
    cells: Vec<MechanismCell>,
    options: &EngineOptions,
    plan: &SeedPlan,
    policy: &RunPolicy,
    cache: &dyn ReplicateCache,
) -> ReplicatedOutcome {
    let build = |config: usize, seed: u64| configs[config].build(&mut Rng64::seed_from(seed));
    let shared: Vec<OnceLock<FlSystem>> = configs.iter().map(|_| OnceLock::new()).collect();
    let shared_system = |config: usize| {
        shared[config].get_or_init(|| {
            #[cfg(test)]
            tests::SHARED_SYSTEM_BUILDERS
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            build(config, plan.system_seed)
        })
    };
    run_replicates(
        cells,
        plan,
        |_, cell| cell.label.clone(),
        |_, cell| cell.identity(),
        policy,
        cache,
        |cell, _| {
            if !plan.vary_system {
                shared_system(cell.config);
            }
        },
        |cell, seed| {
            let mech = Mechanism {
                choice: cell.mechanism,
                xi: cell.xi,
                options: options.clone(),
            };
            let own;
            let system = if plan.vary_system {
                own = build(cell.config, plan.system_seed_for(seed));
                &own
            } else {
                shared_system(cell.config)
            };
            RunSummary::from_trace(mech.run(system, &mut Rng64::seed_from(seed)))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The thread of every shared-system build `run_mechanism_cells` made in
    /// this test process. Only the subprocess of
    /// `shared_systems_are_built_once_per_config_with_a_miss`
    /// reads it: there no other test runs beside it.
    pub(super) static SHARED_SYSTEM_BUILDERS: Mutex<Vec<std::thread::ThreadId>> =
        Mutex::new(Vec::new());

    const DUO: [MechanismChoice; 2] = [MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa];

    fn quick_system(seed: u64) -> FlSystem {
        FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(seed))
    }

    /// A budget of `total_rounds` rounds, evaluated every `eval_every`.
    fn budget(total_rounds: usize, eval_every: usize) -> EngineOptions {
        EngineOptions {
            total_rounds,
            eval_every,
            max_virtual_time: None,
            parallel: true,
        }
    }

    /// The plain single run every replicate must reproduce bit for bit.
    fn plain_run(system: &FlSystem, m: MechanismChoice, rounds: usize, seed: u64) -> RunSummary {
        let mech = m.build(rounds, 2, None);
        RunSummary::from_trace(mech.run(system, &mut Rng64::seed_from(seed)))
    }

    /// `mechanisms` through the one runner (default policy, no cache), all healthy.
    fn compare(
        cfg: &FlSystemConfig,
        mechanisms: &[MechanismChoice],
        rounds: usize,
        plan: &SeedPlan,
    ) -> Vec<CellStats> {
        let cell = |&mechanism: &MechanismChoice| MechanismCell {
            config: 0,
            mechanism,
            xi: None,
            label: mechanism.label().to_string(),
        };
        run_mechanism_cells(
            std::slice::from_ref(cfg),
            mechanisms.iter().map(cell).collect(),
            &budget(rounds, 2),
            plan,
            &RunPolicy::default(),
            &NoCache,
        )
        .cells
        .into_iter()
        .map(|c| c.expect("healthy cell"))
        .collect()
    }

    fn assert_same_points(a: &RunSummary, b: &RunSummary) {
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.points().iter().zip(b.trace.points()) {
            assert_eq!(x.loss.to_bits(), y.loss.to_bits());
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
            assert_eq!(x.time.to_bits(), y.time.to_bits());
            assert_eq!(x.energy.to_bits(), y.energy.to_bits());
        }
    }

    type Key = (usize, String, u64, u64);

    /// An in-memory [`ReplicateCache`] that records what it was asked.
    #[derive(Default)]
    struct MapCache {
        stored: Mutex<BTreeMap<Key, RunSummary>>,
        hits: AtomicUsize,
        misses: AtomicUsize,
    }

    impl MapCache {
        /// Every stored replicate under its own key, summaries rendered with
        /// `Debug` (shortest round-trip floats: equal text ⇔ equal bits).
        fn encoded(&self) -> BTreeMap<Key, String> {
            let stored = self.stored.lock().unwrap();
            stored
                .iter()
                .map(|(key, summary)| (key.clone(), format!("{summary:?}")))
                .collect()
        }
    }

    impl ReplicateCache for MapCache {
        fn load(&self, ci: usize, label: &str, run: u64, system: u64) -> Option<RunSummary> {
            let key = (ci, label.to_string(), run, system);
            let hit = self.stored.lock().unwrap().get(&key).cloned();
            let counter = if hit.is_some() {
                &self.hits
            } else {
                &self.misses
            };
            counter.fetch_add(1, Ordering::SeqCst);
            hit
        }
        fn store(&self, ci: usize, label: &str, run: u64, system: u64, s: &RunSummary) {
            let key = (ci, label.to_string(), run, system);
            self.stored.lock().unwrap().insert(key, s.clone());
        }
    }

    /// A ξ × five-mechanism grid on config 0, ξ outermost — the `grid`
    /// kind's layout. Per ξ value: FedAvg, TiFL, Dynamic, Air-FedAvg,
    /// Air-FedGA, so FedAvg's cells are 0, 5, 10, ….
    fn xi_grid(xis: &[f64]) -> Vec<MechanismCell> {
        let cell = |xi: f64, mechanism: MechanismChoice| MechanismCell {
            config: 0,
            mechanism,
            xi: Some(xi),
            label: format!("xi={xi} {}", mechanism.label()),
        };
        xis.iter()
            .flat_map(|&xi| MechanismChoice::all().into_iter().map(move |m| cell(xi, m)))
            .collect()
    }

    fn stub_summary(cell: &MechanismCell, seed: u64) -> RunSummary {
        let workload = format!("seed {seed}");
        RunSummary::from_trace(TrainingTrace::new(cell.mechanism.label(), &workload))
    }

    /// Stub replicates through the one body under the mechanism-cell
    /// identity — for the sharing tests, which only care who ran and who
    /// was handed what.
    fn run_shared_stubs(
        cells: Vec<MechanismCell>,
        plan: &SeedPlan,
        policy: &RunPolicy,
        cache: &dyn ReplicateCache,
        body: impl Fn(&MechanismCell, u64) + Sync,
    ) -> ReplicatedOutcome {
        run_replicates(
            cells,
            plan,
            |_, cell| cell.label.clone(),
            |_, cell| cell.identity(),
            policy,
            cache,
            |_, _| (),
            |cell, seed| {
                body(cell, seed);
                stub_summary(cell, seed)
            },
        )
    }

    /// Stub replicates — for the policy tests, which only care who ran when.
    fn run_stubs(
        cells: Vec<usize>,
        policy: &RunPolicy,
        body: impl Fn(usize) + Sync,
    ) -> ReplicatedOutcome {
        run_replicated_isolated_plan(
            cells,
            &SeedPlan::fixed_system(0, vec![7]),
            |i, _| format!("cell {i}"),
            policy,
            &NoCache,
            |&cell, _| {
                body(cell);
                RunSummary::from_trace(TrainingTrace::new("stub", "none"))
            },
        )
    }

    /// Every row builds and runs, and its trace — hence its [`RunSummary`],
    /// its table row and its store entry — carries the row's label.
    #[test]
    fn mechanism_choice_builds_every_variant() {
        let system = quick_system(5);
        for choice in MechanismChoice::all() {
            assert_eq!(plain_run(&system, choice, 2, 9).mechanism, choice.label());
        }
        assert_eq!(MechanismChoice::aircomp_trio().len(), 3);
    }

    #[test]
    fn compare_runs_all_requested_mechanisms_on_one_system() {
        let cfg = FlSystemConfig::mnist_lr_quick();
        let cells = compare(&cfg, &DUO, 15, &SeedPlan::fixed_system(11, vec![12]));
        let labels: Vec<&str> = cells.iter().map(|c| c.mechanism.as_str()).collect();
        assert_eq!(labels, ["Air-FedAvg", "Air-FedGA"]);
        for s in cells.iter().map(CellStats::first) {
            assert!(s.final_loss.is_finite() && s.total_time > 0.0 && !s.trace.is_empty());
        }
    }

    #[test]
    fn run_grid_is_bit_identical_to_a_sequential_loop() {
        let system = quick_system(5);
        let run_cell = |seed: u64| -> Vec<(u64, u64, u64)> {
            let mech = MechanismChoice::AirFedGa.build(6, 2, None);
            mech.run(&system, &mut Rng64::seed_from(seed))
                .points()
                .iter()
                .map(|p| (p.loss.to_bits(), p.accuracy.to_bits(), p.time.to_bits()))
                .collect()
        };
        let cells: Vec<u64> = (0..8).collect();
        let grid = run_grid(cells.clone(), run_cell);
        let seq: Vec<_> = cells.into_iter().map(run_cell).collect();
        assert_eq!(grid, seq);
    }

    #[test]
    fn nested_grids_compose() {
        // Outer grid over system seeds, inner grid over mechanisms.
        let cfg = FlSystemConfig::mnist_lr_quick();
        let run_cell = |system_seed: u64| -> Vec<u64> {
            let system = cfg.build(&mut Rng64::seed_from(system_seed));
            run_grid(DUO.to_vec(), |choice| {
                plain_run(&system, choice, 5, 9).final_loss.to_bits()
            })
        };
        let grid = run_grid(vec![1, 2, 3], run_cell);
        let seq: Vec<_> = vec![1, 2, 3].into_iter().map(run_cell).collect();
        assert_eq!(grid, seq);
    }

    #[test]
    fn run_replicated_single_seed_is_the_plain_run() {
        let cfg = FlSystemConfig::mnist_lr_quick();
        let cells = compare(&cfg, &DUO, 8, &SeedPlan::fixed_system(5, vec![4242]));
        let system = quick_system(5);
        for (c, &choice) in cells.iter().zip(&DUO) {
            let p = plain_run(&system, choice, 8, 4242);
            assert_eq!(c.mechanism, p.mechanism);
            assert_eq!(c.seeds, vec![4242]);
            assert_eq!(c.per_seed.len(), 1);
            // The single replicate IS the plain run, bit for bit…
            assert_same_points(c.first(), &p);
            // …and the folded statistics degenerate to it (std 0, mean = x).
            for (ps, tp) in c.points.iter().zip(p.trace.points()) {
                assert_eq!(ps.loss.mean.to_bits(), tp.loss.to_bits());
                assert_eq!(ps.loss.std, 0.0);
                assert_eq!(ps.loss.n, 1);
                assert_eq!(ps.round, tp.round);
            }
        }
    }

    #[test]
    fn run_replicated_matches_the_sequential_double_loop() {
        let system = quick_system(5);
        let seeds = [4242u64, 4243, 4244];
        let outcome = run_replicated_isolated_plan(
            DUO.to_vec(),
            &SeedPlan::fixed_system(0, seeds.to_vec()),
            |_, choice| choice.label().to_string(),
            &RunPolicy::default(),
            &NoCache,
            |&choice, seed| plain_run(&system, choice, 6, seed),
        );
        assert!(outcome.is_complete() && outcome.failure_report().is_empty());
        assert_eq!(outcome.cells.len(), 2);
        for (cell, &choice) in outcome.cells.iter().zip(&DUO) {
            let cell = cell.as_ref().expect("healthy cell");
            assert_eq!(cell.seeds, seeds);
            assert_eq!(cell.per_seed.len(), 3);
            for (replicate, &seed) in cell.per_seed.iter().zip(&seeds) {
                assert_same_points(replicate, &plain_run(&system, choice, 6, seed));
            }
            // Folded stats cover all three seeds at every shared point.
            assert!(cell.points.iter().all(|p| p.loss.n == 3));
            // Different seeds genuinely vary: some point has nonzero spread.
            assert!(
                cell.points.iter().any(|p| p.loss.std > 0.0),
                "replicates are identical — seed stream not reaching the run"
            );
        }
    }

    #[test]
    fn seed_plan_resolves_system_seeds() {
        let fixed = SeedPlan::fixed_system(42, vec![4242, 4243, 4244]);
        assert_eq!(fixed.system_seed_for(4244), 42);
        let varying = SeedPlan {
            vary_system: true,
            ..fixed.clone()
        };
        assert_eq!(varying.system_seed_for(4242), 42);
        assert_eq!(varying.system_seed_for(4244), 44);
        assert_eq!(varying.replicate_of(4243), 1);
    }

    #[test]
    fn fixed_system_plan_matches_the_historical_path() {
        // One shared system built from the plan's seed, every replicate on it.
        let cfg = FlSystemConfig::mnist_lr_quick();
        let plan = SeedPlan::fixed_system(5, vec![4242, 4243]);
        let via_plan = compare(&cfg, &[MechanismChoice::AirFedGa], 6, &plan);
        let system = quick_system(5);
        for (replicate, &seed) in via_plan[0].per_seed.iter().zip(&plan.run_seeds) {
            assert_same_points(
                replicate,
                &plain_run(&system, MechanismChoice::AirFedGa, 6, seed),
            );
        }
    }

    #[test]
    fn varying_system_plan_changes_later_replicates_only() {
        let cfg = FlSystemConfig::mnist_lr_quick();
        let fixed_plan = SeedPlan::fixed_system(5, vec![4242, 4243]);
        let varying_plan = SeedPlan {
            vary_system: true,
            ..fixed_plan.clone()
        };
        let fixed = compare(&cfg, &[MechanismChoice::AirFedGa], 6, &fixed_plan);
        let varying = compare(&cfg, &[MechanismChoice::AirFedGa], 6, &varying_plan);
        // Replicate 0 builds its system from the same seed either way.
        assert_same_points(fixed[0].first(), varying[0].first());
        // Replicate 1 sees the system of seed 6 — exactly that run, and so
        // different from the fixed-system replicate 1 somewhere.
        assert_same_points(
            &varying[0].per_seed[1],
            &plain_run(&quick_system(6), MechanismChoice::AirFedGa, 6, 4243),
        );
        let differs = fixed[0].per_seed[1]
            .trace
            .points()
            .iter()
            .zip(varying[0].per_seed[1].trace.points())
            .any(|(x, y)| x.loss.to_bits() != y.loss.to_bits());
        assert!(differs, "vary_system did not reach the system build");
    }

    #[test]
    #[should_panic(expected = "grid cell 2 panicked: boom at cell 2")]
    fn grid_panics_carry_the_cell_index() {
        run_grid(vec![0usize, 1, 2, 3], |i| {
            if i == 2 {
                panic!("boom at cell {i}");
            }
            i
        });
    }

    /// A replicate that dies on every attempt leaves the grid standing: the
    /// survivors keep their statistics, and the failure carries the flat
    /// index, the (cell, seed) label and the panic message.
    #[test]
    fn isolated_replication_drops_dead_replicates_from_the_stats() {
        let system = quick_system(5);
        let outcome = run_replicated_isolated_plan(
            DUO.to_vec(),
            &SeedPlan::fixed_system(0, vec![4242, 4243]),
            |_, choice| choice.label().to_string(),
            &RunPolicy::default(),
            &NoCache,
            |&choice, seed| {
                if choice == MechanismChoice::AirFedGa && seed == 4243 {
                    panic!("injected failure");
                }
                plain_run(&system, choice, 3, seed)
            },
        );
        assert_eq!(outcome.cells.len(), 2);
        let healthy = outcome.cells[0].as_ref().expect("healthy cell");
        assert_eq!(healthy.seeds, vec![4242, 4243]);
        let wounded = outcome.cells[1].as_ref().expect("one replicate survives");
        assert_eq!(wounded.seeds, vec![4242]);
        assert!(!outcome.is_complete());
        assert_eq!(outcome.failures.len(), 1);
        let f = &outcome.failures[0];
        assert_eq!(f.index, 3);
        assert_eq!(f.label, "Air-FedGA seed 4243");
        assert_eq!(f.message, "injected failure");
        assert!(!f.recovered);
        assert_eq!(f.attempts, 2);
        let report = outcome.failure_report();
        assert!(report.starts_with("1 replicate(s) panicked:"));
        assert!(report.contains("cell 3 [Air-FedGA seed 4243]: FAILED after one retry"));
    }

    #[test]
    fn summaries_report_robustness_metrics() {
        let mut cfg = FlSystemConfig::mnist_lr_quick();
        let plan = SeedPlan::fixed_system(3, vec![4]);
        let clean = compare(&cfg, &[MechanismChoice::AirFedGa], 10, &plan);
        let clean = clean[0].first();
        assert_eq!(clean.participation_rate, 1.0);
        assert_eq!(clean.rounds_survived, clean.trace.total_rounds());
        cfg.faults.dropout_rate = 0.003;
        cfg.faults.mean_downtime = 50.0;
        let churn = compare(&cfg, &[MechanismChoice::AirFedGa], 10, &plan);
        let churn = churn[0].first();
        assert!(churn.participation_rate <= 1.0);
        assert!(churn.rounds_survived <= 10);
        assert!(churn.rounds_survived > 0);
    }

    #[test]
    fn summary_reflects_trace_contents() {
        let s = plain_run(&quick_system(3), MechanismChoice::AirFedGa, 20, 4);
        assert_eq!(s.final_accuracy, s.trace.final_accuracy());
        assert_eq!(s.total_energy, s.trace.total_energy());
        // A target accuracy of 0 is reached immediately; 1.01 never.
        assert!(s.time_to_accuracy(0.0).is_some());
        assert!(s.time_to_accuracy(1.01).is_none());
    }

    #[test]
    fn zero_retry_policy_fails_fast() {
        let calls = AtomicUsize::new(0);
        let policy = RunPolicy {
            max_retries: 0,
            ..RunPolicy::default()
        };
        let outcome = run_stubs(vec![1, 2], &policy, |cell| {
            calls.fetch_add(1, Ordering::SeqCst);
            if cell == 2 {
                panic!("always dies");
            }
        });
        assert!(outcome.cells[0].is_some());
        assert!(outcome.cells[1].is_none());
        // One attempt per cell, no retry for the dead one.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let f = &outcome.failures[0];
        assert_eq!(f.attempts, 1);
        assert!(!f.recovered);
        assert!(f.describe().contains("FAILED (no retry)"));
    }

    #[test]
    fn extra_retries_recover_a_thrice_flaky_cell() {
        let attempts = AtomicUsize::new(0);
        let policy = RunPolicy {
            max_retries: 3,
            ..RunPolicy::default()
        };
        let outcome = run_stubs(vec![7], &policy, |_| {
            if attempts.fetch_add(1, Ordering::SeqCst) < 3 {
                panic!("flaky");
            }
        });
        assert!(outcome.cells[0].is_some());
        assert!(outcome.is_complete());
        let f = &outcome.failures[0];
        assert!(f.recovered);
        assert_eq!(f.attempts, 4);
        assert_eq!(f.message, "flaky");
        assert!(f.describe().contains("recovered on retry 3"));
    }

    #[test]
    fn watchdog_timeout_surfaces_as_a_cell_failure() {
        let policy = RunPolicy {
            max_retries: 0,
            cell_timeout: Some(0.05),
            ..RunPolicy::default()
        };
        let outcome = run_stubs(vec![0, 1], &policy, |cell| {
            if cell == 1 {
                simcore::cancel::hang_until_cancelled(1);
            }
        });
        assert!(outcome.cells[0].is_some());
        assert!(outcome.cells[1].is_none());
        assert_eq!(outcome.failures.len(), 1);
        let message = &outcome.failures[0].message;
        assert!(message.contains("timed out"), "{message}");
    }

    /// A scripted in-memory cache: a warm entry must be loaded instead of
    /// recomputed, a missing entry recomputed and re-stored, and the folded
    /// statistics must be bit-identical either way.
    #[test]
    fn replicate_cache_hits_skip_recomputation() {
        let system = quick_system(5);
        let calls = AtomicUsize::new(0);
        let cache = MapCache::default();
        let plan = SeedPlan::fixed_system(42, vec![4242, 4243]);
        let run = || {
            run_replicated_isolated_plan(
                DUO.to_vec(),
                &plan,
                |_, choice| choice.label().to_string(),
                &RunPolicy::default(),
                &cache,
                |&choice, seed| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    plain_run(&system, choice, 3, seed)
                },
            )
        };

        let cold = run();
        assert_eq!(calls.load(Ordering::SeqCst), 4);

        // Warm pass: every replicate is a hit, nothing recomputes, and the
        // folded statistics replay bit-for-bit.
        let warm = run();
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        for (a, b) in cold.cells.iter().zip(&warm.cells) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.seeds, b.seeds);
            for (x, y) in a.per_seed.iter().zip(&b.per_seed) {
                assert_same_points(x, y);
            }
        }

        // Evict one replicate: exactly that one recomputes.
        let evicted = (1, "Air-FedGA".to_string(), 4243, 42);
        let removed = cache.stored.lock().unwrap().remove(&evicted);
        assert!(removed.is_some(), "evicted key was cached");
        run();
        assert_eq!(calls.load(Ordering::SeqCst), 5);
    }

    /// The fact the mechanism-cell identity rests on, asserted rather than
    /// assumed: run unshared, a mechanism's trace depends on ξ exactly when
    /// the table says it reads ξ — and only Air-FedGA does.
    #[test]
    fn only_air_fedga_reads_xi() {
        let system = quick_system(5);
        let run = |choice: MechanismChoice, xi: f64| {
            let mech = Mechanism {
                xi: Some(xi),
                ..choice.build(3, 1, None)
            };
            let trace = mech.run(&system, &mut Rng64::seed_from(4242));
            format!("{:?}", RunSummary::from_trace(trace))
        };
        for choice in MechanismChoice::all() {
            let differs = run(choice, 0.1) != run(choice, 0.9);
            assert_eq!(differs, choice.reads_xi(), "{}", choice.label());
            assert_eq!(choice.reads_xi(), choice == MechanismChoice::AirFedGa);
        }
    }

    /// Sharing is invisible in everything the run produces: the folded
    /// statistics and every `(ci, label, seed, system seed) → summary` store
    /// are those of a runner where each cell is its own computation — under
    /// a fixed system and under `--system-seeds`, where a group never spans
    /// two system seeds.
    #[test]
    fn sharing_changes_no_statistic_and_no_stored_summary() {
        let cfg = FlSystemConfig::mnist_lr_quick();
        let cells = xi_grid(&[0.3, 0.8]);
        let fixed = SeedPlan::fixed_system(5, vec![4242, 4243]);
        let varying = SeedPlan {
            vary_system: true,
            ..fixed.clone()
        };
        for plan in [fixed, varying] {
            let shared_store = MapCache::default();
            let shared = run_mechanism_cells(
                std::slice::from_ref(&cfg),
                cells.clone(),
                &budget(2, 1),
                &plan,
                &RunPolicy::default(),
                &shared_store,
            );
            let calls = AtomicUsize::new(0);
            let own_store = MapCache::default();
            let systems: Vec<FlSystem> = (plan.run_seeds.iter())
                .map(|&seed| quick_system(plan.system_seed_for(seed)))
                .collect();
            let unshared = run_replicated_isolated_plan(
                cells.clone(),
                &plan,
                |_, cell| cell.label.clone(),
                &RunPolicy::default(),
                &own_store,
                |cell, seed| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    let system = &systems[plan.replicate_of(seed)];
                    let mech = Mechanism {
                        xi: cell.xi,
                        ..cell.mechanism.build(2, 1, None)
                    };
                    RunSummary::from_trace(mech.run(system, &mut Rng64::seed_from(seed)))
                },
            );
            assert_eq!(calls.load(Ordering::SeqCst), 20);
            assert_eq!(unshared.shared, 0);
            // Four mechanisms without a ξ × one further ξ value × two seeds.
            assert_eq!(shared.shared, 8);
            assert!(shared.failures.is_empty() && unshared.failures.is_empty());
            assert_eq!(
                format!("{:?}", shared.cells),
                format!("{:?}", unshared.cells),
                "folded statistics differ (vary_system = {})",
                plan.vary_system
            );
            assert_eq!(shared_store.encoded().len(), 20);
            assert_eq!(shared_store.encoded(), own_store.encoded());
        }
    }

    /// 30 replicates, 14 computations: per seed, one run for each of the four
    /// mechanisms without a ξ and one per ξ for Air-FedGA. Every member is
    /// stored under its own key with its own group's summary.
    #[test]
    fn a_group_of_identical_replicates_runs_once() {
        let calls = AtomicUsize::new(0);
        let cache = MapCache::default();
        let cells = xi_grid(&[0.1, 0.3, 0.8]);
        let outcome = run_shared_stubs(
            cells.clone(),
            &SeedPlan::fixed_system(0, vec![7, 8]),
            &RunPolicy::default(),
            &cache,
            |_, _| {
                calls.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 14);
        assert_eq!(outcome.shared, 16);
        assert!(outcome.failures.is_empty());
        let stored = cache.stored.lock().unwrap();
        assert_eq!(stored.len(), 30);
        for ((ci, label, seed, _), summary) in stored.iter() {
            assert_eq!(label, &cells[*ci].label);
            assert_eq!(summary.mechanism, cells[*ci].mechanism.label());
            assert_eq!(summary.trace.workload, format!("seed {seed}"));
        }
        for (cell, stats) in cells.iter().zip(&outcome.cells) {
            let stats = stats.as_ref().expect("healthy cell");
            assert_eq!(stats.seeds, [7, 8]);
            assert_eq!(stats.mechanism, cell.mechanism.label());
        }
    }

    /// The store is checked before anything trains. With one member of
    /// FedAvg's group (cells 0, 5, 10) already stored — a follower, then the
    /// would-be leader — the other two copy it and FedAvg does not run;
    /// hits and misses are still counted per own key, and every replicate
    /// ends up stored under its own label.
    #[test]
    fn a_partially_warm_group_runs_nothing() {
        for warm in [5, 0] {
            let cells = xi_grid(&[0.1, 0.3, 0.8]);
            let cache = MapCache::default();
            cache.store(
                warm,
                &cells[warm].label,
                7,
                0,
                &stub_summary(&cells[warm], 7),
            );
            let ran = Mutex::new(Vec::new());
            let outcome = run_shared_stubs(
                cells.clone(),
                &SeedPlan::fixed_system(0, vec![7]),
                &RunPolicy::default(),
                &cache,
                |cell, _| ran.lock().unwrap().push(cell.label.clone()),
            );
            let ran = ran.into_inner().unwrap();
            // TiFL, Dynamic, Air-FedAvg once each, Air-FedGA per xi.
            assert_eq!(ran.len(), 6, "{ran:?}");
            assert!(
                !ran.iter().any(|label| label.ends_with(" FedAvg")),
                "{ran:?}"
            );
            assert_eq!((outcome.copied, outcome.shared), (2, 6));
            assert_eq!(cache.hits.load(Ordering::SeqCst), 1);
            assert_eq!(cache.misses.load(Ordering::SeqCst), 14);
            let stored = cache.stored.lock().unwrap();
            assert_eq!(stored.len(), 15);
            for ((ci, label, seed, _), summary) in stored.iter() {
                assert_eq!(label, &cells[*ci].label);
                assert_eq!(
                    format!("{summary:?}"),
                    format!("{:?}", stub_summary(&cells[*ci], *seed))
                );
            }
            assert!(outcome.cells.iter().all(Option::is_some));
        }
    }

    /// A leader that fails once and then succeeds recovers its whole group:
    /// one failure per member (own flat index, own label), every member
    /// stored, one retry made.
    #[test]
    fn a_flaky_leader_recovers_every_member_of_its_group() {
        let fedavg_calls = AtomicUsize::new(0);
        let cache = MapCache::default();
        let outcome = run_shared_stubs(
            xi_grid(&[0.1, 0.8]),
            &SeedPlan::fixed_system(0, vec![7]),
            &RunPolicy::default(),
            &cache,
            |cell, _| {
                let flaky = cell.mechanism == MechanismChoice::FedAvg;
                if flaky && fedavg_calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flaky");
                }
            },
        );
        assert_eq!(fedavg_calls.load(Ordering::SeqCst), 2);
        assert!(outcome.is_complete());
        let reported: Vec<(usize, &str)> = outcome
            .failures
            .iter()
            .map(|f| (f.index, f.label.as_str()))
            .collect();
        assert_eq!(
            reported,
            [(0, "xi=0.1 FedAvg seed 7"), (5, "xi=0.8 FedAvg seed 7")]
        );
        for f in &outcome.failures {
            assert!(f.recovered);
            assert_eq!((f.attempts, f.message.as_str()), (2, "flaky"));
        }
        assert_eq!(outcome.shared, 4);
        assert_eq!(cache.stored.lock().unwrap().len(), 10);
        assert!(outcome.cells.iter().all(Option::is_some));
    }

    /// A [`ReplicateCache`] that holds every replicate whose label starts
    /// with the prefix.
    struct WarmFor(&'static str);

    impl ReplicateCache for WarmFor {
        fn load(&self, _: usize, label: &str, _: u64, _: u64) -> Option<RunSummary> {
            label
                .starts_with(self.0)
                .then(|| RunSummary::from_trace(TrainingTrace::new("stub", "none")))
        }
        fn store(&self, _: usize, _: &str, _: u64, _: u64, _: &RunSummary) {}
    }

    /// A config that cannot be built: `build` asserts `num_workers > 0`.
    fn unbuildable() -> FlSystemConfig {
        FlSystemConfig {
            num_workers: 0,
            ..FlSystemConfig::mnist_lr_quick()
        }
    }

    /// An all-hits run builds nothing — not even a system whose build would
    /// panic.
    #[test]
    fn an_all_hits_run_builds_no_system() {
        let outcome = run_mechanism_cells(
            &[unbuildable()],
            xi_grid(&[0.3, 0.8]),
            &budget(3, 1),
            &SeedPlan::fixed_system(5, vec![4242, 4243]),
            &RunPolicy::default(),
            &WarmFor(""),
        );
        assert!(outcome.failures.is_empty(), "{}", outcome.failure_report());
        assert!(outcome.cells.iter().all(Option::is_some));
    }

    /// Child half of the test below: inert in a normal test run. Spawned
    /// alone with `HARNESS_LAZY_BUILD_CHILD` set and four pool threads, it
    /// trains 24 replicates on two buildable configs next to an all-hits
    /// unbuildable one and checks who built the shared systems.
    #[test]
    fn lazy_build_child_counts_system_builds() {
        if std::env::var_os("HARNESS_LAZY_BUILD_CHILD").is_none() {
            return;
        }
        let quick = FlSystemConfig::mnist_lr_quick();
        let cells: Vec<MechanismCell> = (0..3)
            .flat_map(|config| {
                xi_grid(&[0.3, 0.8])
                    .into_iter()
                    .map(move |cell| MechanismCell {
                        config,
                        label: format!("config {config} {}", cell.label),
                        ..cell
                    })
            })
            .collect();
        let outcome = run_mechanism_cells(
            &[quick.clone(), quick, unbuildable()],
            cells,
            &budget(1, 1),
            &SeedPlan::fixed_system(5, vec![4242, 4243]),
            &RunPolicy::default(),
            &WarmFor("config 2"),
        );
        assert!(outcome.failures.is_empty(), "{}", outcome.failure_report());
        let me = std::thread::current().id();
        assert_eq!(*SHARED_SYSTEM_BUILDERS.lock().unwrap(), [me, me]);
    }

    /// Under four pool threads — replicates of one config all needing its
    /// system at once — a shared system is built exactly once per config
    /// that has a miss, and by the calling thread whatever the schedule (the
    /// replicates used to race for it, so a pool thread built the second
    /// config's three times in four). A subprocess, because the pool reads
    /// `PARALLEL_THREADS` once per process and the build log is process-wide.
    #[test]
    fn shared_systems_are_built_once_per_config_with_a_miss() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "harness::tests::lazy_build_child_counts_system_builds",
                "--exact",
            ])
            .env("HARNESS_LAZY_BUILD_CHILD", "1")
            .env("PARALLEL_THREADS", "4")
            .output()
            .expect("spawn the lazy-build child");
        assert!(
            out.status.success(),
            "lazy-build child failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
