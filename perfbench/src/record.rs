//! Stamped run records and the compare step.
//!
//! Every run appends one JSON line to `.bench_build/perfbench/records.jsonl`
//! holding its metrics and a stamp: host (nproc, CPU model, `rustc -V`),
//! source revision, workload, workload seeds, `--seed` and run length.
//! `perfbench compare BASE.jsonl HEAD.jsonl` prints per-metric medians and
//! refuses records from different hosts.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

use crate::oracle::fnv1a64;
use crate::stats;

/// Host identity: records are comparable only when all three agree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Host {
    /// Available parallelism.
    pub nproc: u64,
    /// First `model name` of `/proc/cpuinfo` (`unknown` without procfs).
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Host {
    /// The host this process runs on.
    pub fn current() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            cpu_model,
            rustc,
        }
    }

    fn to_json(&self) -> Vec<(String, Value)> {
        vec![
            ("nproc".into(), Value::U64(self.nproc)),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
        ]
    }

    fn from_json(stamp: &Value) -> Option<Host> {
        Some(Host {
            nproc: stamp.get("nproc")?.as_u64()?,
            cpu_model: stamp.get("cpu_model")?.as_str()?.to_string(),
            rustc: stamp.get("rustc")?.as_str()?.to_string(),
        })
    }
}

/// Source revision: `git rev-parse HEAD` where the checkout is a git
/// repository, and always a digest of the sources the benchmark builds
/// (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`), which identifies a
/// checkout that is not one.
pub fn source_rev(root: &Path) -> (String, String) {
    // Only the checkout's own repository: `git` would otherwise report an
    // enclosing one.
    let git = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    (git, format!("{:016x}", fnv1a64(&bytes)))
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    match std::fs::read_dir(path) {
        Ok(entries) => {
            for entry in entries.flatten() {
                collect_files(&entry.path(), out);
            }
        }
        Err(_) if path.is_file() => out.push(path.to_path_buf()),
        Err(_) => {}
    }
}

/// First stdout line of a finished command; `None` if it could not run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// What a record is stamped with besides the host.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// The workload seeds the program was run at.
    pub workload_seeds: String,
    /// `--seed` (the call order).
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
}

/// The stamp object of one record.
pub fn stamp(host: &Host, rev: &(String, String), info: &RunInfo) -> Value {
    let mut fields = host.to_json();
    fields.extend([
        ("git_rev".into(), Value::Str(rev.0.clone())),
        ("src_digest".into(), Value::Str(rev.1.clone())),
        ("workload".into(), Value::Str(info.workload.clone())),
        (
            "workload_seeds".into(),
            Value::Str(info.workload_seeds.clone()),
        ),
        ("seed".into(), Value::U64(info.seed)),
        ("seconds".into(), Value::U64(info.seconds)),
        ("trace".into(), Value::Bool(info.trace)),
    ]);
    Value::Object(fields)
}

/// Metric samples of a record file, grouped by (workload, trace, metric).
type Samples = BTreeMap<(String, bool, String), Vec<f64>>;

fn load(text: &str, what: &str, hosts: &mut Vec<(Host, String)>) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |why: &str| format!("{what} line {}: {why}", n + 1);
        let record: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let stamp = record.get("stamp").ok_or_else(|| bad("no stamp"))?;
        let host = Host::from_json(stamp).ok_or_else(|| bad("stamp lacks a host"))?;
        hosts.push((host, format!("{what} line {}", n + 1)));
        let workload = stamp
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let trace = stamp.get("trace").and_then(Value::as_bool).unwrap_or(false);
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric lacks a value"))?;
            samples
                .entry((workload.to_string(), trace, name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// Compares two record files (JSON lines). Refuses, with an error naming
/// both, when any two records come from different hosts.
pub fn compare(base: &str, head: &str) -> Result<String, String> {
    let mut hosts = Vec::new();
    let base = load(base, "base", &mut hosts)?;
    let head = load(head, "head", &mut hosts)?;
    if let Some((first, at)) = hosts.first() {
        if let Some((other, other_at)) = hosts.iter().find(|(h, _)| h != first) {
            return Err(format!(
                "refusing to compare records from different hosts: {at} ran on {first:?}, \
                 {other_at} on {other:?}"
            ));
        }
    }
    let mut out = String::from(
        "workload\ttrace\tmetric\tbase_median\tbase_spread\thead_median\thead_spread\tchange\n",
    );
    for (key, base_values) in &base {
        let Some(head_values) = head.get(key) else {
            continue;
        };
        let (b, h) = (stats::median(base_values), stats::median(head_values));
        let change = match (b, h) {
            (Some(b), Some(h)) if b != 0.0 => format!("{:+.2}%", (h - b) / b.abs() * 100.0),
            _ => "n/a".to_string(),
        };
        let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{change}\n",
            key.0,
            u8::from(key.1),
            key.2,
            fmt(b),
            fmt(stats::spread(base_values)),
            fmt(h),
            fmt(stats::spread(head_values)),
        ));
    }
    Ok(out)
}
