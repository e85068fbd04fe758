//! Sample statistics, process and directory measurements, and the
//! result record every workload fills in.

use std::path::Path;
use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f`, returning its output and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Nearest-rank percentile `p` (0..=1) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
/// Workloads read it right after their window, before the checks.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (reports, jobs) attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or produced a wrong report.
    pub failed: u64,
    /// Failed output checks, one line each; empty when all passed.
    pub mismatches: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// The workload's own headline numbers, printed by name only.
    pub view: Vec<Metric>,
    /// Run-stamp fields this workload adds (sizes, scales).
    pub stamp: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn view(&mut self, name: &str, value: f64, unit: &'static str) {
        self.view.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn stamp(&mut self, key: &str, value: impl ToString) {
        self.stamp.push((key.to_owned(), value.to_string()));
    }

    /// Record a failed check that is not tied to one operation.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Fold a check: an operation whose output disagrees is failed.
    pub fn check_op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < 16 {
                self.mismatches.push(what());
            }
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Run `setup` `n` times, keep the last result, and return it with the
/// median set-up time in seconds. Earlier instances are dropped before
/// the next one starts, so each set-up starts from the same state.
pub fn repeated_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let (value, took) = timed(&mut setup);
        secs.push(took / 1e3);
        last = Some(value);
    }
    (last.expect("at least one set-up"), median(&secs))
}
