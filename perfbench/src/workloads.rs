//! The three workloads and the rounds that measure them.
//!
//! A run sets up, then repeats its workload's round (the timed phase) until
//! `--seconds` would be exceeded, and at least [`MIN_ROUNDS`] times.
//! Wall and CPU are means over rounds; set-up time is the median of the
//! set-ups. With `--trace 1` rounds alternate untraced and traced; traced
//! rounds record spans around every call into a layer plus the registered
//! counters' deltas, and the gap between the median traced and untraced
//! round walls is the tracing overhead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vmp_analytics::segstore::SpillConfig;
use vmp_analytics::store::{IngestOptions, IngestPipeline};
use vmp_experiments::{ExperimentResult, ReproContext, ALL_EXPERIMENTS, SCENARIOS};
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

use crate::oracle::{Golden, Tally};
use crate::procfs::{Probe, Reading};
use crate::spans::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper_full", "outofcore_query", "scenarios"];

/// Master seed of the `paper_full` and `outofcore_query` ecosystems. Fixed,
/// so the failing-check base share (and with it `failed_frac`) is the same
/// in every run; `--seed` sets the call order instead.
pub const ECOSYSTEM_SEED: u64 = 1;

/// Scenario seeds every `scenarios` round runs, consecutive from 1.
pub const SCENARIO_SEEDS: std::ops::RangeInclusive<u64> = 1..=24;

/// Seed of the `scenarios` warm-up, which is not among [`SCENARIO_SEEDS`].
pub const WARMUP_SEED: u64 = 0;

/// The store-reading drivers `outofcore_query` repeats (fig02–fig14 except
/// the store-free fig05, plus summary).
pub const STORE_DRIVERS: [&str; 13] = [
    "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "summary",
];

/// `outofcore_query` view-volume multiplier over the quick ecosystem.
pub const OUTOFCORE_VOLUME: u64 = 3;

/// `outofcore_query` hot-cache budget: a few times smaller than the
/// ~40 MB of spilled columns, as the 384 MiB default is against the
/// ~5 GiB a `--scale 100` run spills.
pub const OUTOFCORE_HOT_BUDGET: usize = 8 << 20;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest rounds per run (one untraced and one traced with `--trace 1`).
pub const MIN_ROUNDS: usize = 2;

/// Counters from `crates/obs/METRICS.md` reported as per-layer deltas.
pub const COUNTERS: [&str; 19] = [
    "session.sessions",
    "session.chunks_fetched",
    "session.retries",
    "cdn.cache_hits",
    "cdn.cache_misses",
    "cdn.shed",
    "cdn.coalesced",
    "cdn.retry_budget_exhausted",
    "faults.injected",
    "monitor.views",
    "monitor.ticks",
    "monitor.alerts",
    "store.spill_bytes",
    "store.segments_spilled",
    "store.hot_hits",
    "store.hot_misses",
    "analytics.rows_scanned",
    "analytics.rollups",
    "obs.events_dropped",
];

/// Per-layer values of one round, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// One timed phase of the workload.
#[derive(Debug, Clone)]
pub struct Round {
    /// Whether spans and counters were recorded.
    pub traced: bool,
    /// Wall seconds of the round's timed steps (the streaming build, each
    /// driver call, the export).
    pub wall_s: f64,
    /// Process CPU seconds of the same steps (wall without `/proc`).
    pub cpu_s: f64,
    /// Per-layer values (traced rounds only).
    pub layers: Layers,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The timed phases, in order.
    pub rounds: Vec<Round>,
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// Output-oracle totals.
    pub tally: Tally,
    /// The workload seeds the program ran at.
    pub workload_seeds: String,
}

impl Outcome {
    /// Mean wall seconds of a round: the run's timed wall over its rounds.
    /// The host's slow spells last several rounds, so a run's median round
    /// jumps with the share of the run they cover, where the mean moves in
    /// proportion to it.
    pub fn wall_s(&self) -> f64 {
        crate::stats::mean(&self.rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
    }

    /// Mean CPU seconds of a round.
    pub fn cpu_s(&self) -> f64 {
        crate::stats::mean(&self.rounds.iter().map(|r| r.cpu_s).collect::<Vec<_>>())
    }
}

/// The workload seeds a workload runs at, for the run stamp.
pub fn workload_seeds(workload: &str) -> String {
    match workload {
        "scenarios" => format!("{}-{}", SCENARIO_SEEDS.start(), SCENARIO_SEEDS.end()),
        _ => ECOSYSTEM_SEED.to_string(),
    }
}

/// A small deterministic generator (SplitMix64) for call orders.
#[derive(Debug, Clone)]
pub struct Order(u64);

impl Order {
    /// A generator seeded from `--seed`.
    pub fn new(seed: u64) -> Order {
        Order(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `items`.
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Run state shared by all workloads.
#[derive(Debug)]
pub struct Bench<'g> {
    probe: Probe,
    tracer: Tracer,
    golden: &'g Golden,
    tally: Tally,
    order: Order,
    trace: bool,
    seconds: f64,
    scratch: PathBuf,
    /// Wall and CPU seconds of the round in progress's timed steps.
    timed: (f64, f64),
    /// Golden lines by (workload seed, driver), when recording.
    recorded: Option<BTreeMap<(u64, String), String>>,
}

impl<'g> Bench<'g> {
    /// A run with the given settings; `run_id` tags its spans and
    /// `scratch` is a directory inside the checkout for spill files.
    pub fn new(
        golden: &'g Golden,
        run_id: String,
        seed: u64,
        seconds: u64,
        trace: bool,
        scratch: PathBuf,
    ) -> Bench<'g> {
        Bench {
            probe: Probe::default(),
            tracer: Tracer::new(run_id, Probe::default()),
            golden,
            tally: Tally::default(),
            order: Order::new(seed),
            trace,
            seconds: seconds as f64,
            scratch,
            timed: (0.0, 0.0),
            recorded: None,
        }
    }

    /// Collects golden lines instead of only comparing against them.
    pub fn start_recording(&mut self) {
        self.recorded = Some(BTreeMap::new());
    }

    /// The recorded golden lines, sorted.
    pub fn recorded_lines(&self) -> Vec<String> {
        self.recorded
            .iter()
            .flat_map(|m| m.values().cloned())
            .collect()
    }

    /// The span recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Runs one workload by name; `None` for an unknown name.
    pub fn run(&mut self, workload: &str) -> Option<Result<Outcome, String>> {
        let outcome = match workload {
            "paper_full" => self.paper_full(),
            "outofcore_query" => self.outofcore_query(),
            "scenarios" => self.scenarios(),
            _ => return None,
        };
        Some(outcome.map(|(rounds, setups)| Outcome {
            rounds,
            setups,
            tally: self.tally,
            workload_seeds: workload_seeds(workload),
        }))
    }

    /// `paper_full`: what `repro` does by default — the full config at
    /// scale 1, rows retained, all 19 drivers once. Set-up is
    /// `ViewStream::new`; the timed phase is streaming generation into
    /// ingest, the store seal, every driver and the JSON export.
    fn paper_full(&mut self) -> Result<(Vec<Round>, Vec<f64>), String> {
        let config = || EcosystemConfig {
            seed: ECOSYSTEM_SEED,
            snapshot_stride: 2,
            ..EcosystemConfig::default()
        };
        // `setup_s` comes from set-ups made before the rounds. A round's own
        // set-up follows the previous round's teardown, whose freed memory
        // makes it page-fault heavy and noisy; it is outside the timed
        // steps and not reported.
        let mut setups = Vec::new();
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            let stream = ViewStream::new(config());
            setups.push(started.elapsed().as_secs_f64());
            // Joins the shards (each stops at its first send).
            drop(stream.into_dataset());
        }
        let rounds = self.rounds("paper_full", |b, layers| {
            let options = IngestOptions {
                drop_rows: false,
                spill: None,
            };
            let ctx = b.build(config(), options, layers);
            let ids = b.order.shuffled(&ALL_EXPERIMENTS);
            Ok(ids
                .iter()
                .map(|id| (ECOSYSTEM_SEED, b.call(id, &ctx)))
                .collect())
        })?;
        Ok((rounds, setups))
    }

    /// `outofcore_query`: the quick ecosystem at [`OUTOFCORE_VOLUME`]×
    /// volume, rows dropped, sealed segments spilled under an
    /// [`OUTOFCORE_HOT_BUDGET`] hot cache. Set-up builds the store; the
    /// timed phase is one pass of [`STORE_DRIVERS`] plus the export.
    fn outofcore_query(&mut self) -> Result<(Vec<Round>, Vec<f64>), String> {
        let mut setups = Vec::new();
        let mut built = None;
        for rep in 0..SETUP_REPS {
            // Only the kept (last) store's build is traced.
            let traced = self.trace && rep + 1 == SETUP_REPS;
            self.tracer.set_enabled(traced);
            drop(built.take());
            let before = self.counters(traced);
            let mark = self.tracer.mark();
            let mut layers = Layers::new();
            let mut config = EcosystemConfig {
                seed: ECOSYSTEM_SEED,
                ..EcosystemConfig::small()
            };
            config.view_gen.volume_scale = OUTOFCORE_VOLUME;
            let dir = self
                .scratch
                .join(format!("spill-{}-{rep}", std::process::id()));
            let options = IngestOptions {
                drop_rows: true,
                spill: Some(SpillConfig {
                    dir,
                    hot_budget_bytes: OUTOFCORE_HOT_BUDGET,
                }),
            };
            let started = Instant::now();
            let ctx = self.build(config, options, &mut layers);
            setups.push(started.elapsed().as_secs_f64());
            self.layer_totals(traced, mark, before, &mut layers);
            built = Some((ctx, layers));
        }
        self.tracer.set_enabled(false);
        let (ctx, build_layers) = built.expect("SETUP_REPS is positive");
        let rounds = self.rounds("outofcore_query", |b, layers| {
            if b.tracer.enabled() {
                // One result is the build plus one pass: the round's layers
                // start from the build's (generation, ingest, spill writes).
                layers.clone_from(&build_layers);
            }
            let ids = b.order.shuffled(&STORE_DRIVERS);
            Ok(ids
                .iter()
                .map(|id| (ECOSYSTEM_SEED, b.call(id, &ctx)))
                .collect())
        })?;
        Ok((rounds, setups))
    }

    /// `scenarios`: `resilience`, `monitor` and `live_event` at every seed
    /// of [`SCENARIO_SEEDS`] per round, single-threaded. Set-up is one
    /// warm-up call of each at [`WARMUP_SEED`].
    fn scenarios(&mut self) -> Result<(Vec<Round>, Vec<f64>), String> {
        let mut setups = Vec::new();
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            for id in SCENARIOS {
                black_box(vmp_experiments::run_standalone(id, WARMUP_SEED));
            }
            setups.push(started.elapsed().as_secs_f64());
        }
        let calls: Vec<(&str, u64)> = SCENARIO_SEEDS
            .flat_map(|seed| SCENARIOS.map(|id| (id, seed)))
            .collect();
        let rounds = self.rounds("scenarios", |b, _| {
            let mut results = Vec::with_capacity(calls.len());
            for (id, seed) in b.order.shuffled(&calls) {
                let r = b.phase(&format!("scenario.{id}"), || {
                    vmp_experiments::run_standalone(id, seed)
                });
                results.push((seed, r.ok_or_else(|| format!("unknown scenario {id}"))?));
            }
            Ok(results)
        })?;
        Ok((rounds, setups))
    }

    /// Repeats a round until the next one would overrun `--seconds`, and
    /// at least [`MIN_ROUNDS`] times; with tracing, odd rounds are traced.
    /// `body` makes the round's calls (timed through [`phase`](Self::phase)) and
    /// returns each result with its workload seed; the JSON export, layer
    /// totals and the oracle check follow here.
    fn rounds(
        &mut self,
        workload: &str,
        mut body: impl FnMut(&mut Self, &mut Layers) -> Result<Vec<(u64, ExperimentResult)>, String>,
    ) -> Result<Vec<Round>, String> {
        let started = Instant::now();
        let budget = Duration::from_secs_f64(self.seconds);
        let mut rounds = Vec::new();
        loop {
            let traced = self.trace && rounds.len() % 2 == 1;
            self.tracer.set_enabled(traced);
            let before = self.counters(traced);
            let mark = self.tracer.mark();
            self.timed = (0.0, 0.0);
            let round = self.tracer.begin("round");
            let mut layers = Layers::new();
            let (seeds, results): (Vec<u64>, Vec<ExperimentResult>) =
                body(self, &mut layers)?.into_iter().unzip();
            let json = self.phase("export.json", || {
                serde_json::to_string_pretty(&results).expect("experiment results always serialize")
            });
            self.tracer.end(round);
            if traced {
                layers.insert("export.json_bytes".into(), json.len() as f64);
            }
            black_box(json);
            self.layer_totals(traced, mark, before, &mut layers);
            self.tracer.set_enabled(false);
            for (seed, r) in seeds.iter().zip(&results) {
                self.observe(workload, *seed, r)?;
            }
            let (wall_s, cpu_s) = self.timed;
            rounds.push(Round {
                traced,
                wall_s,
                cpu_s,
                layers,
            });
            let elapsed = started.elapsed();
            let per_round = elapsed / rounds.len() as u32;
            if rounds.len() >= MIN_ROUNDS && elapsed + per_round > budget {
                return Ok(rounds);
            }
        }
    }

    /// Runs `f` as a timed step of the round, inside a span named `span`.
    fn phase<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> T {
        let start = self.probe.reading();
        let out = self.tracer.time(span, f);
        let end = self.probe.reading();
        self.add_timed(&start, &end);
        out
    }

    fn add_timed(&mut self, start: &Reading, end: &Reading) {
        let d = start.until(end);
        self.timed.0 += d.wall_s;
        self.timed.1 += d.cpu_s_or_wall();
    }

    /// Streams generation into ingest and seals the store. Everything
    /// after `ViewStream::new` is a timed step of the round.
    fn build(
        &mut self,
        config: EcosystemConfig,
        options: IngestOptions,
        layers: &mut Layers,
    ) -> ReproContext {
        let mark = self.tracer.mark();
        let scale_factor = config.view_gen.volume_scale;
        let started = Instant::now();
        let mut stream = self.tracer.time("synth.setup", || ViewStream::new(config));
        let setup_s = started.elapsed().as_secs_f64();
        let start = self.probe.reading();
        let mut pipeline = IngestPipeline::new(options);
        let mut views = 0u64;
        while let Some(batch) = self.tracer.time("synth.next_batch", || stream.next_batch()) {
            views += batch.views.len() as u64;
            self.tracer
                .time("analytics.push_batch", || pipeline.push_batch(batch.views));
        }
        let dataset = self.tracer.time("synth.join", || stream.into_dataset());
        let streamed = self.probe.reading();
        let store = self.tracer.time("analytics.finish", || pipeline.finish());
        let sealed = self.probe.reading();
        self.add_timed(&start, &sealed);
        if self.tracer.enabled() {
            let t = &self.tracer;
            let wait = t.sum(mark, "synth.next_batch");
            let ingest = t.sum(mark, "analytics.push_batch");
            // Generator shards: everything the process ran while streaming
            // except the consumer (this thread).
            let shards_cpu = start.until(&streamed).other_threads_cpu_s().unwrap_or(0.0);
            layers.insert("synth.setup_s".into(), setup_s);
            layers.insert("synth.wait_s".into(), wait.wall_s);
            layers.insert("synth.cpu_s".into(), shards_cpu);
            layers.insert("synth.views".into(), views as f64);
            layers.insert(
                "synth.views_per_cpu_s".into(),
                per(views as f64, shards_cpu),
            );
            layers.insert("analytics.ingest_s".into(), ingest.wall_s);
            layers.insert("analytics.ingest_cpu_s".into(), ingest.cpu_s);
            layers.insert("analytics.ingest_runq_s".into(), ingest.runq_s);
            layers.insert(
                "analytics.finish_s".into(),
                t.sum(mark, "analytics.finish").wall_s,
            );
            layers.insert(
                "analytics.rows_per_cpu_s".into(),
                per(views as f64, ingest.cpu_s),
            );
        }
        ReproContext {
            dataset,
            store,
            scale_factor,
        }
    }

    /// One driver call through `vmp_experiments::run`, as `repro` makes it.
    fn call(&mut self, id: &str, ctx: &ReproContext) -> ExperimentResult {
        self.phase(&format!("experiments.{id}"), || {
            vmp_experiments::run(id, ctx)
        })
        .expect("driver ids come from the experiments crate's own lists")
    }

    /// Registered counter values now (traced phases only).
    fn counters(&self, traced: bool) -> Option<BTreeMap<String, u64>> {
        traced.then(|| {
            let snap = vmp_obs::snapshot();
            let mut c = snap.counters;
            c.insert("obs.events_dropped".into(), snap.events_dropped);
            c
        })
    }

    /// Fills a traced phase's span totals and counter deltas into `layers`
    /// (adding to values already there).
    fn layer_totals(
        &self,
        traced: bool,
        mark: usize,
        before: Option<BTreeMap<String, u64>>,
        layers: &mut Layers,
    ) {
        if !traced {
            return;
        }
        let t = &self.tracer;
        let mut figures = 0.0;
        for id in ALL_EXPERIMENTS {
            let s = t.sum(mark, &format!("experiments.{id}"));
            if s.count > 0 {
                layers.insert(format!("experiments.{id}_s"), s.wall_s);
                figures += s.wall_s;
            }
        }
        if figures > 0.0 {
            layers.insert("experiments.figures_s".into(), figures);
        }
        for id in SCENARIOS {
            let s = t.sum(mark, &format!("scenario.{id}"));
            if s.count > 0 {
                layers.insert(format!("scenario.{id}_s"), s.wall_s);
            }
        }
        let export = t.sum(mark, "export.json");
        if export.count > 0 {
            layers.insert("export.json_s".into(), export.wall_s);
        }
        let after = self.counters(true).unwrap_or_default();
        let before = before.unwrap_or_default();
        for name in COUNTERS {
            let delta = after
                .get(name)
                .copied()
                .unwrap_or(0)
                .saturating_sub(before.get(name).copied().unwrap_or(0));
            *layers.entry(name.to_string()).or_default() += delta as f64;
        }
        derive_ratios(layers);
    }

    /// Oracle check of one driver call (or, when recording, its golden
    /// line; a second call that disagrees is nondeterminism).
    fn observe(&mut self, workload: &str, seed: u64, r: &ExperimentResult) -> Result<(), String> {
        if let Some(rec) = &mut self.recorded {
            let line = Golden::line(workload, seed, r);
            match rec.insert((seed, r.id.clone()), line.clone()) {
                Some(prev) if prev != line => {
                    return Err(format!("{workload}/{}@{seed} is not deterministic", r.id))
                }
                _ => return Ok(()),
            }
        }
        self.tally.observe(self.golden, workload, seed, r);
        Ok(())
    }
}

/// Ratios recomputed from the (possibly merged) counts.
fn derive_ratios(layers: &mut Layers) {
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let cdn = per(
        get(layers, "cdn.cache_hits"),
        get(layers, "cdn.cache_hits") + get(layers, "cdn.cache_misses"),
    );
    let store = per(
        get(layers, "store.hot_hits"),
        get(layers, "store.hot_hits") + get(layers, "store.hot_misses"),
    );
    let scan = per(
        get(layers, "analytics.rows_scanned"),
        get(layers, "experiments.figures_s"),
    );
    layers.insert("cdn.hit_ratio".into(), cdn);
    layers.insert("store.hit_ratio".into(), store);
    layers.insert("analytics.rows_scanned_per_s".into(), scan);
}

/// `num / den`, 0 for a zero denominator.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
