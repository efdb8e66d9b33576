//! Output oracle: every driver call's result is normalized, digested and
//! compared with the digest the reference commit produced for the same
//! workload seed (`perfbench/golden.txt`).
//!
//! Normalization strips the two fields that legitimately differ between
//! runs — `wall_time_secs` and the per-stage timing breakdown `stages` —
//! and keeps everything else: tables, series, notes and checks (their
//! pass/fail bits and measured details included).

use std::collections::BTreeMap;

use vmp_experiments::ExperimentResult;

/// The result as canonical JSON with timing fields stripped.
pub fn normalized(result: &ExperimentResult) -> String {
    let mut r = result.clone();
    r.wall_time_secs = 0.0;
    r.stages.clear();
    serde_json::to_string(&r).expect("experiment results are plain data and always serialize")
}

/// 64-bit FNV-1a of the normalized result, as 16 hex digits.
pub fn digest(result: &ExperimentResult) -> String {
    format!("{:016x}", fnv1a64(normalized(result).as_bytes()))
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One recorded driver call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenEntry {
    /// Digest of the normalized result.
    pub digest: String,
    /// Checks the call made.
    pub checks: usize,
    /// Checks that failed at the reference commit (the base share).
    pub failed_checks: usize,
}

/// Reference digests keyed by (workload, workload seed, driver id).
#[derive(Debug, Clone, Default)]
pub struct Golden {
    entries: BTreeMap<(String, u64, String), GoldenEntry>,
}

impl Golden {
    /// Parses lines of `workload seed driver digest checks failed_checks`;
    /// blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden line {}: {line:?}", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, driver, digest, checks, failed] = f[..] else {
                return Err(bad());
            };
            let entry = GoldenEntry {
                digest: digest.to_string(),
                checks: checks.parse().map_err(|_| bad())?,
                failed_checks: failed.parse().map_err(|_| bad())?,
            };
            let key = (
                workload.to_string(),
                seed.parse().map_err(|_| bad())?,
                driver.to_string(),
            );
            if entries.insert(key, entry).is_some() {
                return Err(format!("{}: duplicate entry", bad()));
            }
        }
        Ok(Golden { entries })
    }

    /// The recorded entry for one driver call.
    pub fn get(&self, workload: &str, seed: u64, driver: &str) -> Option<&GoldenEntry> {
        self.entries
            .get(&(workload.to_string(), seed, driver.to_string()))
    }

    /// Renders one entry line for `result` (the inverse of [`parse`](Self::parse)).
    pub fn line(workload: &str, seed: u64, result: &ExperimentResult) -> String {
        format!(
            "{workload} {seed} {} {} {} {}",
            result.id,
            digest(result),
            result.checks.len(),
            result.failures().len()
        )
    }
}

/// Running oracle totals over a benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Driver calls compared.
    pub calls: usize,
    /// Calls whose digest differed from the reference, or had none.
    pub mismatches: usize,
    /// Checks made by all calls.
    pub checks: usize,
    /// Checks that failed.
    pub failed_checks: usize,
}

impl Tally {
    /// Compares one call's result with the reference.
    pub fn observe(
        &mut self,
        golden: &Golden,
        workload: &str,
        seed: u64,
        result: &ExperimentResult,
    ) {
        self.calls += 1;
        self.checks += result.checks.len();
        self.failed_checks += result.failures().len();
        let matches = golden
            .get(workload, seed, &result.id)
            .is_some_and(|g| g.digest == digest(result));
        if !matches {
            self.mismatches += 1;
            eprintln!(
                "perfbench: output of {workload}/{}@{seed} differs from the reference",
                result.id
            );
        }
    }

    /// Failed operations over attempted ones, where an operation is one
    /// check or one digest comparison.
    pub fn failed_frac(&self) -> f64 {
        let attempted = self.calls + self.checks;
        if attempted == 0 {
            return 0.0;
        }
        (self.mismatches + self.failed_checks) as f64 / attempted as f64
    }
}
