//! `perfbench` — the repository's end-to-end benchmark.
//!
//! Runs one workload (`paper_full`, `outofcore_query` or `scenarios`)
//! against the library crates, times every call into a layer from outside,
//! checks every driver's output against reference digests, and prints one
//! JSON result line. See `README.md` next to this crate for the workloads,
//! metrics and how to read them.

#![forbid(unsafe_code)]

pub mod oracle;
pub mod procfs;
pub mod record;
pub mod spans;
pub mod stats;
pub mod workloads;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units; a layer a workload does
/// not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("synth.setup_s", "s"),
        ("synth.wait_s", "s"),
        ("synth.cpu_s", "s"),
        ("synth.views", "count"),
        ("synth.views_per_cpu_s", "1/s"),
        ("session.sessions", "count"),
        ("session.chunks_fetched", "count"),
        ("session.retries", "count"),
        ("cdn.cache_hits", "count"),
        ("cdn.cache_misses", "count"),
        ("cdn.hit_ratio", "ratio"),
        ("cdn.shed", "count"),
        ("cdn.coalesced", "count"),
        ("cdn.retry_budget_exhausted", "count"),
        ("faults.injected", "count"),
        ("monitor.views", "count"),
        ("monitor.ticks", "count"),
        ("monitor.alerts", "count"),
        ("analytics.ingest_s", "s"),
        ("analytics.ingest_cpu_s", "s"),
        ("analytics.ingest_runq_s", "s"),
        ("analytics.finish_s", "s"),
        ("analytics.rows_per_cpu_s", "1/s"),
        ("analytics.rows_scanned", "count"),
        ("analytics.rollups", "count"),
        ("analytics.rows_scanned_per_s", "1/s"),
        ("store.spill_bytes", "B"),
        ("store.segments_spilled", "count"),
        ("store.hot_hits", "count"),
        ("store.hot_misses", "count"),
        ("store.hit_ratio", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    m.extend(
        vmp_experiments::ALL_EXPERIMENTS
            .iter()
            .map(|id| (format!("experiments.{id}_s"), "s")),
    );
    m.push(("experiments.figures_s".into(), "s"));
    m.extend(
        vmp_experiments::SCENARIOS
            .iter()
            .map(|id| (format!("scenario.{id}_s"), "s")),
    );
    m.extend([
        ("obs.events_dropped".to_string(), "count"),
        ("export.json_s".to_string(), "s"),
        ("export.json_bytes".to_string(), "B"),
        ("trace.overhead_s".to_string(), "s"),
    ]);
    m
}
