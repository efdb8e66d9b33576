//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record-golden]
//! perfbench compare BASE.jsonl HEAD.jsonl
//! ```
//!
//! A run prints diagnostics on stderr and, as the last line of stdout, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. It also
//! appends a stamped record to `.bench_build/perfbench/records.jsonl` and,
//! with `--trace 1`, writes its spans to
//! `.bench_build/perfbench/trace-<workload>-seed<N>.jsonl`.
//! `--record-golden` prints reference digest lines instead of a result.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use perfbench::oracle::Golden;
use perfbench::procfs::Probe;
use perfbench::record::{self, Host, RunInfo};
use perfbench::stats::median;
use perfbench::workloads::{Bench, Outcome, WORKLOADS};
use perfbench::{per_layer, END_TO_END};

/// Reference digests recorded at the commit the benchmark was defined on.
const GOLDEN: &str = include_str!("../golden.txt");

/// Where runs write (inside the checkout; git ignores it).
const SCRATCH: &str = ".bench_build/perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_golden: bool,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--record-golden]\n       \
         perfbench compare BASE.jsonl HEAD.jsonl",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut record_golden = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seconds takes a whole number")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--record-golden" => record_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be a positive whole number")?,
        trace: trace.ok_or("--trace is required")?,
        record_golden,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let paths: Vec<String> = argv.skip(1).collect();
        let [base, head] = &paths[..] else {
            return usage("compare takes two record files");
        };
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(base).and_then(|b| read(head).and_then(|h| record::compare(&b, &h))) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let golden = Golden::parse(GOLDEN)?;
    let scratch = PathBuf::from(SCRATCH);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let host = Host::current();
    let rev = record::source_rev(Path::new("."));
    let run_id = format!(
        "{:016x}",
        perfbench::oracle::fnv1a64(
            format!(
                "{}|{}|{}|{:?}",
                args.workload,
                args.seed,
                std::process::id(),
                std::time::SystemTime::now()
            )
            .as_bytes()
        )
    );
    let mut bench = Bench::new(
        &golden,
        run_id.clone(),
        args.seed,
        args.seconds,
        args.trace,
        scratch.clone(),
    );
    if args.record_golden {
        bench.start_recording();
    }
    let outcome = bench
        .run(&args.workload)
        .expect("workload name validated at parse")?;
    if args.record_golden {
        for line in bench.recorded_lines() {
            println!("{line}");
        }
        return Ok(());
    }
    report_rounds(&outcome);

    let correct = outcome.tally.mismatches == 0 && outcome.tally.calls > 0;
    let metrics = if args.trace {
        layer_metrics(&outcome)
    } else {
        e2e_metrics(&outcome)
    };
    let info = RunInfo {
        workload: args.workload.clone(),
        workload_seeds: outcome.workload_seeds.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(outcome.tally.calls as u64)),
        ("failed".into(), Value::U64(outcome.tally.mismatches as u64)),
        ("metrics".into(), metrics),
    ]);

    // The stamped record: the result plus stamp, run id and raw samples.
    let mut fields = vec![
        (
            "schema".to_string(),
            Value::Str("perfbench-record/1".into()),
        ),
        ("run".to_string(), Value::Str(run_id)),
        ("stamp".to_string(), record::stamp(&host, &rev, &info)),
    ];
    fields.extend(result.as_object().unwrap_or_default().iter().cloned());
    fields.push((
        "rounds_wall_s".into(),
        floats(outcome.rounds.iter().map(|r| r.wall_s)),
    ));
    fields.push((
        "rounds_cpu_s".into(),
        floats(outcome.rounds.iter().map(|r| r.cpu_s)),
    ));
    fields.push(("setups_s".into(), floats(outcome.setups.iter().copied())));
    let line = serde_json::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;
    append(&scratch.join("records.jsonl"), &format!("{line}\n"))?;

    if args.trace {
        let path = scratch.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let header = Value::Object(vec![
            ("schema".into(), Value::Str("perfbench-trace/1".into())),
            ("stamp".into(), record::stamp(&host, &rev, &info)),
        ]);
        std::fs::write(&path, bench.tracer().to_jsonl(header))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} ({} spans)",
            path.display(),
            bench.tracer().spans().len()
        );
    }
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `--trace 0`: the end-to-end metrics: round means, set-up median.
fn e2e_metrics(o: &Outcome) -> Value {
    let values = [
        o.wall_s(),
        o.cpu_s(),
        Probe::default().peak_rss_mib().unwrap_or(0.0),
        median(&o.setups).unwrap_or(0.0),
        o.tally.failed_frac(),
    ];
    metric_object(
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .zip(values),
    )
}

/// `--trace 1`: every per-layer metric, medians over traced rounds, and
/// the tracing overhead (median traced minus median untraced round wall).
fn layer_metrics(o: &Outcome) -> Value {
    let wall = |traced: bool| {
        let w: Vec<f64> = o
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect();
        median(&w).unwrap_or(0.0)
    };
    let overhead = wall(true) - wall(false);
    let entries = per_layer().into_iter().map(|(name, unit)| {
        let value = if name == "trace.overhead_s" {
            overhead
        } else {
            let v: Vec<f64> = o
                .rounds
                .iter()
                .filter(|r| r.traced)
                .map(|r| r.layers.get(&name).copied().unwrap_or(0.0))
                .collect();
            median(&v).unwrap_or(0.0)
        };
        ((name, unit), value)
    });
    metric_object(entries)
}

fn metric_object(entries: impl Iterator<Item = ((String, &'static str), f64)>) -> Value {
    Value::Object(
        entries
            .map(|((name, unit), value)| {
                let m = Value::Object(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name, m)
            })
            .collect(),
    )
}

fn floats(values: impl Iterator<Item = f64>) -> Value {
    Value::Array(values.map(Value::F64).collect())
}

fn report_rounds(o: &Outcome) {
    for (i, r) in o.rounds.iter().enumerate() {
        eprintln!(
            "perfbench: round {i}{}: wall {:.3}s cpu {:.3}s",
            if r.traced { " (traced)" } else { "" },
            r.wall_s,
            r.cpu_s
        );
    }
    let setups: Vec<String> = o.setups.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("perfbench: setups [{}] s", setups.join(", "));
    let t = &o.tally;
    eprintln!(
        "perfbench: oracle {} calls, {} mismatches; checks {} failed of {} (workload seeds {})",
        t.calls, t.mismatches, t.failed_checks, t.checks, o.workload_seeds
    );
}

fn append(path: &Path, text: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(text.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}
