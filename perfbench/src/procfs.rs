//! Resource readings taken from outside the program, through `/proc`.
//!
//! - `/proc/thread-self/schedstat`: the calling thread's on-CPU and
//!   run-queue nanoseconds.
//! - `/proc/self/stat`: the process's user+sys CPU, including threads that
//!   have already exited, in `USER_HZ` ticks.
//! - `/proc/self/status`: `VmHWM`, the process's peak resident set.
//!
//! Every reader returns `None` when `/proc` is missing or unparsable, and
//! [`Delta::cpu_s_or_wall`] falls back to wall time, so the benchmark still
//! runs (wall-only) on hosts without procfs.

use std::path::PathBuf;
use std::time::Instant;

/// Ticks per second of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// Linux fixes this `USER_HZ` at 100 for user space on every architecture.
pub const USER_HZ: f64 = 100.0;

/// One thread's scheduler statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSched {
    /// Nanoseconds spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_ns: u64,
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: `on_cpu_ns runq_ns slices`.
pub fn parse_schedstat(text: &str) -> Option<ThreadSched> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let on_cpu_ns = fields.next()?.ok()?;
    let runq_ns = fields.next()?.ok()?;
    Some(ThreadSched { on_cpu_ns, runq_ns })
}

/// Parses `utime + stime` (fields 14 and 15) out of `/proc/<pid>/stat`.
/// The command name (field 2) is parenthesized and may contain spaces or
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state is field 3, so utime (14) is the 12th here.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// Parses the `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// Reads `/proc` (or a stand-in root, for tests).
#[derive(Debug, Clone)]
pub struct Probe {
    root: PathBuf,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::at("/proc")
    }
}

impl Probe {
    /// A probe reading procfs files under `root` instead of `/proc`.
    pub fn at(root: impl Into<PathBuf>) -> Probe {
        Probe { root: root.into() }
    }

    fn read(&self, rel: &str) -> Option<String> {
        std::fs::read_to_string(self.root.join(rel)).ok()
    }

    /// The calling thread's scheduler statistics.
    pub fn thread(&self) -> Option<ThreadSched> {
        parse_schedstat(&self.read("thread-self/schedstat")?)
    }

    /// The process's user+sys CPU seconds so far.
    pub fn process_cpu_s(&self) -> Option<f64> {
        Some(parse_stat_cpu_ticks(&self.read("self/stat")?)? as f64 / USER_HZ)
    }

    /// The process's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        Some(parse_vm_hwm_kib(&self.read("self/status")?)? as f64 / 1024.0)
    }

    /// Wall clock plus every CPU reading available now.
    pub fn reading(&self) -> Reading {
        Reading {
            at: Instant::now(),
            process_cpu_s: self.process_cpu_s(),
            thread: self.thread(),
        }
    }
}

/// A point-in-time reading.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Wall clock.
    pub at: Instant,
    /// Process user+sys CPU seconds, when `/proc/self/stat` was readable.
    pub process_cpu_s: Option<f64>,
    /// Calling thread's schedstat, when readable.
    pub thread: Option<ThreadSched>,
}

impl Reading {
    /// What happened between `self` and a later reading on the same thread.
    pub fn until(&self, later: &Reading) -> Delta {
        Delta {
            wall_s: later.at.duration_since(self.at).as_secs_f64(),
            process_cpu_s: self
                .process_cpu_s
                .zip(later.process_cpu_s)
                .map(|(a, b)| b - a),
            thread_cpu_s: self
                .thread
                .zip(later.thread)
                .map(|(a, b)| b.on_cpu_ns.saturating_sub(a.on_cpu_ns) as f64 / 1e9),
        }
    }
}

/// The difference between two readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Elapsed wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub process_cpu_s: Option<f64>,
    /// The calling thread's on-CPU seconds.
    pub thread_cpu_s: Option<f64>,
}

impl Delta {
    /// Process CPU seconds, or wall seconds when `/proc` is missing.
    pub fn cpu_s_or_wall(&self) -> f64 {
        self.process_cpu_s.unwrap_or(self.wall_s)
    }

    /// CPU spent by threads other than the calling one: process CPU minus
    /// the caller's on-CPU time (never negative; tick rounding of the
    /// process figure can otherwise undershoot). `None` without `/proc`.
    pub fn other_threads_cpu_s(&self) -> Option<f64> {
        let (process, own) = self.process_cpu_s.zip(self.thread_cpu_s)?;
        Some((process - own).max(0.0))
    }
}
