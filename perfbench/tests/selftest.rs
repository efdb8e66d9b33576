//! Self-tests of the benchmark's own machinery: `/proc` parsers and their
//! fallback, the digest normalizer, mean/median/quartile aggregation, the
//! reference-digest file, the compare step, and the metric catalog
//! against `BENCHMARK.json`.

use perfbench::oracle::{digest, normalized, Golden, Tally};
use perfbench::procfs::{
    parse_schedstat, parse_stat_cpu_ticks, parse_vm_hwm_kib, Probe, ThreadSched,
};
use perfbench::record::compare;
use perfbench::spans::Tracer;
use perfbench::stats::{mean, median, quartiles, spread};
use perfbench::workloads::{Order, Outcome, Round};
use vmp_analytics::report::Table;
use vmp_experiments::{Check, ExperimentResult};

#[test]
fn schedstat_parses_on_cpu_and_runq() {
    assert_eq!(
        parse_schedstat("361798911 531456 22\n"),
        Some(ThreadSched {
            on_cpu_ns: 361_798_911,
            runq_ns: 531_456
        })
    );
    assert_eq!(parse_schedstat(""), None);
    assert_eq!(parse_schedstat("12 x 3"), None);
}

#[test]
fn stat_counts_fields_after_the_last_paren() {
    // utime = 34, stime = 1; the command name holds spaces and parens.
    let line = "11918 (a b) c) R 11913 11918 11913 0 -1 4194304 82 0 0 0 34 1 0 0 20 0 1 0";
    assert_eq!(parse_stat_cpu_ticks(line), Some(35));
    assert_eq!(parse_stat_cpu_ticks("11918 (cat) R 1 2"), None);
    assert_eq!(parse_stat_cpu_ticks("no parens"), None);
}

#[test]
fn vm_hwm_parses_kib() {
    let status = "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t    1832 kB\nVmRSS:\t 1 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(1832));
    assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
    assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
}

#[test]
fn missing_proc_falls_back_to_wall_time() {
    let dir = std::env::temp_dir().join(format!("perfbench-noproc-{}", std::process::id()));
    let probe = Probe::at(&dir);
    assert_eq!(probe.thread(), None);
    assert_eq!(probe.process_cpu_s(), None);
    assert_eq!(probe.peak_rss_mib(), None);
    let a = probe.reading();
    std::thread::sleep(std::time::Duration::from_millis(5));
    let d = a.until(&probe.reading());
    assert!(d.wall_s >= 0.005);
    assert_eq!(d.cpu_s_or_wall(), d.wall_s);
    assert_eq!(d.other_threads_cpu_s(), None);

    // Spans still time calls: on-CPU time reads as wall, run-queue as 0.
    let mut tracer = Tracer::new("r".into(), probe);
    tracer.set_enabled(true);
    tracer.time("layer.call", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    let s = tracer.sum(0, "layer.call");
    assert_eq!(s.count, 1);
    assert_eq!(s.cpu_s, s.wall_s);
    assert_eq!(s.runq_s, 0.0);
}

#[test]
fn live_proc_readings_when_available() {
    if !std::path::Path::new("/proc/self/stat").exists() {
        return;
    }
    let probe = Probe::default();
    assert!(probe.thread().is_some());
    assert!(probe.process_cpu_s().is_some());
    assert!(probe.peak_rss_mib().is_some_and(|m| m > 0.0));
    let a = probe.reading();
    let mut x = 0u64;
    let until = std::time::Instant::now() + std::time::Duration::from_millis(50);
    while std::time::Instant::now() < until {
        x = std::hint::black_box(x.wrapping_add(1));
    }
    let d = a.until(&probe.reading());
    assert!(d.thread_cpu_s.is_some_and(|c| c > 0.0));
}

#[test]
fn tracer_records_nesting_and_writes_json_lines() {
    let mut t = Tracer::new("run42".into(), Probe::default());
    assert_eq!(t.begin("off"), None, "a disabled tracer records nothing");
    t.set_enabled(true);
    let outer = t.begin("round");
    t.time("layer.a", || ());
    t.time("layer.a", || ());
    t.end(outer);
    assert_eq!(t.spans().len(), 3);
    assert_eq!(t.spans()[1].parent, Some(0));
    assert_eq!(t.spans()[0].parent, None);
    assert_eq!(t.sum(0, "layer.a").count, 2);
    assert_eq!(t.sum(2, "layer.a").count, 1);
    let text = t.to_jsonl(serde_json::Value::Null);
    assert_eq!(text.lines().count(), 4);
    assert!(text
        .lines()
        .skip(1)
        .all(|l| l.contains("\"run\":\"run42\"")));
}

fn sample_result() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig99", "Demo");
    let mut t = Table::new("t", vec!["a", "b"]);
    t.row(vec!["1".into(), "2".into()]);
    r.tables.push(t);
    r.notes.push("note".into());
    r.checks.push(Check::new("c", true, "ok"));
    r
}

#[test]
fn digest_ignores_timing_fields() {
    let a = sample_result();
    let mut b = a.clone();
    b.wall_time_secs = 12.5;
    b.stages.push(("analytics.query.rollup".into(), 0.25));
    assert_eq!(normalized(&a), normalized(&b));
    assert_eq!(digest(&a), digest(&b));
}

#[test]
fn digest_catches_a_changed_cell_or_check() {
    let a = sample_result();
    let mut cell = a.clone();
    cell.tables[0].rows[0][1] = "3".into();
    assert_ne!(digest(&a), digest(&cell));
    let mut check = a.clone();
    check.checks[0].passed = false;
    assert_ne!(digest(&a), digest(&check));
}

#[test]
fn golden_round_trips_and_tallies() {
    let a = sample_result();
    let mut failing = a.clone();
    failing.checks.push(Check::new("d", false, "bad"));
    let text = format!("# comment\n\n{}\n", Golden::line("w", 7, &a));
    let golden = Golden::parse(&text).expect("well-formed");
    let entry = golden.get("w", 7, "fig99").expect("present");
    assert_eq!((entry.checks, entry.failed_checks), (1, 0));
    assert!(golden.get("w", 8, "fig99").is_none());

    let mut tally = Tally::default();
    tally.observe(&golden, "w", 7, &a);
    assert_eq!(tally.mismatches, 0);
    tally.observe(&golden, "w", 7, &failing); // changed output, failing check
    tally.observe(&golden, "w", 8, &a); // no reference for this seed
    assert_eq!(
        (
            tally.calls,
            tally.mismatches,
            tally.checks,
            tally.failed_checks
        ),
        (3, 2, 4, 1)
    );
    assert_eq!(tally.failed_frac(), 3.0 / 7.0);

    assert!(Golden::parse("w 7 fig99 abc 1").is_err());
    assert!(Golden::parse("w x fig99 abc 1 0").is_err());
    let dup = format!("{0}\n{0}\n", Golden::line("w", 7, &a));
    assert!(Golden::parse(&dup).is_err());
}

#[test]
fn median_and_quartiles_match_python() {
    // statistics.quantiles(values, n=4) and statistics.median.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(median(&ten), Some(5.5));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
    let q = quartiles(&[0.9, 1.1, 1.0, 1.3, 0.7, 1.05, 0.95]).expect("seven values");
    for (got, want) in q.iter().zip([0.9, 1.0, 1.1]) {
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }
    assert_eq!(median(&[]), None);
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[0.0, 0.0]), None);
}

#[test]
fn outcome_reports_round_means_and_setup_median() {
    let round = |wall_s: f64, cpu_s: f64| Round {
        traced: false,
        wall_s,
        cpu_s,
        layers: Default::default(),
    };
    let outcome = Outcome {
        rounds: vec![round(1.0, 2.0), round(2.0, 3.0), round(6.0, 7.0)],
        setups: vec![0.5, 0.1, 0.2],
        tally: Tally::default(),
        workload_seeds: "1".into(),
    };
    assert_eq!(outcome.wall_s(), 3.0);
    assert_eq!(outcome.cpu_s(), 4.0);
    assert_eq!(mean(&[]), 0.0);
}

#[test]
fn call_order_is_a_seeded_permutation() {
    let items: Vec<u32> = (0..19).collect();
    let a = Order::new(3).shuffled(&items);
    assert_eq!(a, Order::new(3).shuffled(&items));
    assert_ne!(a, Order::new(4).shuffled(&items));
    let mut sorted = a.clone();
    sorted.sort();
    assert_eq!(sorted, items);
}

fn record(nproc: u64, wall: f64) -> String {
    format!(
        r#"{{"stamp":{{"nproc":{nproc},"cpu_model":"cpu","rustc":"rustc 1","workload":"w","trace":false}},"metrics":{{"wall_s":{{"value":{wall},"unit":"s"}}}}}}"#
    )
}

#[test]
fn compare_reports_medians_and_refuses_other_hosts() {
    let base = [record(2, 1.0), record(2, 3.0), record(2, 2.0)].join("\n");
    let head = record(2, 1.0);
    let table = compare(&base, &head).expect("same host");
    assert!(table.contains("w\t0\twall_s\t2.000000"), "{table}");
    assert!(table.contains("-50.00%"), "{table}");
    let err = compare(&base, &record(4, 1.0)).expect_err("different nproc");
    assert!(err.contains("different hosts"), "{err}");
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = perfbench::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = perfbench::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, perfbench::workloads::WORKLOADS);
}
