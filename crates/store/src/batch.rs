//! Batch serving front-end: analyze a directory of traces concurrently
//! against one shared store.
//!
//! Every worker runs the same [`StoredPipeline`], so traces that share
//! content share work at every granularity: byte-identical traces
//! collapse to one extraction and one set of analyses (singleflight when
//! racing, cache hits when sequenced), and distinct traces that extract
//! identical tables still share their per-issue analyses.

use crate::driver::StoredPipeline;
use crate::StoreError;
use ion::pipeline::IonReport;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Live progress gauges for one batch run, published to the global
/// `ion-obs` registry (`batch.total` / `batch.completed` / `batch.failed`
/// / `batch.in_flight`) so the `/progress` endpoint — and any `/metrics`
/// scraper — can watch a run without poking at store internals. Each
/// count changes and is published under one lock, so a worker never
/// overwrites a gauge with a count older than the one already shown.
#[derive(Debug, Default)]
struct BatchProgress {
    counts: Mutex<ProgressCounts>,
}

#[derive(Debug, Default)]
struct ProgressCounts {
    completed: u64,
    failed: u64,
    in_flight: u64,
}

impl BatchProgress {
    #[allow(clippy::cast_precision_loss)]
    fn start(total: usize) -> Self {
        ion_obs::gauge("batch.total", total as f64);
        ion_obs::gauge("batch.completed", 0.0);
        ion_obs::gauge("batch.failed", 0.0);
        ion_obs::gauge("batch.in_flight", 0.0);
        BatchProgress::default()
    }

    fn counts(&self) -> MutexGuard<'_, ProgressCounts> {
        // Every update leaves the counts consistent, so a lock poisoned
        // by a panicking worker still holds usable counts.
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[allow(clippy::cast_precision_loss)]
    fn trace_started(&self) {
        let mut counts = self.counts();
        counts.in_flight += 1;
        ion_obs::gauge("batch.in_flight", counts.in_flight as f64);
    }

    #[allow(clippy::cast_precision_loss)]
    fn trace_finished(&self, entry: &BatchEntry) {
        let mut counts = self.counts();
        counts.in_flight = counts.in_flight.saturating_sub(1);
        ion_obs::gauge("batch.in_flight", counts.in_flight as f64);
        match &entry.result {
            Ok(report) => {
                counts.completed += 1;
                ion_obs::gauge("batch.completed", counts.completed as f64);
                ion_obs::event!(
                    "batch.trace.completed",
                    path = entry.path.display().to_string(),
                    detected = report.detected().len(),
                );
            }
            Err(err) => {
                counts.failed += 1;
                ion_obs::gauge("batch.failed", counts.failed as f64);
                ion_obs::event!(
                    "batch.trace.failed",
                    path = entry.path.display().to_string(),
                    error = err.as_str(),
                );
            }
        }
    }
}

/// One trace's outcome in a batch run.
#[derive(Debug)]
pub struct BatchEntry {
    /// The trace file.
    pub path: PathBuf,
    /// The report, or why this trace failed (other traces proceed).
    pub result: Result<IonReport, String>,
}

/// Outcome of a whole batch run.
#[derive(Debug, Default)]
pub struct BatchReport {
    /// Per-trace outcomes, in sorted path order.
    pub entries: Vec<BatchEntry>,
}

impl BatchReport {
    /// Number of traces that analyzed successfully.
    #[must_use]
    pub fn succeeded(&self) -> usize {
        self.entries.iter().filter(|e| e.result.is_ok()).count()
    }

    /// Number of traces that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.entries.len() - self.succeeded()
    }

    /// One line per trace: path, detected issue count or error.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.result {
                Ok(report) => {
                    let detected: Vec<&str> =
                        report.detected().iter().map(|d| d.issue.as_str()).collect();
                    out.push_str(&format!(
                        "{}: {} issue(s) detected{}{}\n",
                        e.path.display(),
                        detected.len(),
                        if detected.is_empty() { "" } else { ": " },
                        detected.join(", ")
                    ));
                }
                Err(err) => out.push_str(&format!("{}: FAILED: {err}\n", e.path.display())),
            }
        }
        out.push_str(&format!(
            "{} analyzed, {} failed\n",
            self.succeeded(),
            self.failed()
        ));
        out
    }
}

/// Trace files in `dir` (anything with a `.darshan` extension), sorted
/// for deterministic output order.
pub fn trace_files(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::Io {
        action: "list trace dir".into(),
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::Io {
            action: "list trace dir".into(),
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "darshan") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Analyze every `.darshan` file in `dir` with `jobs` concurrent workers
/// (`0` = one per core). Per-trace failures are reported, not fatal; the
/// call errors only when the directory itself is unreadable or empty of
/// traces.
pub fn analyze_dir(
    driver: &StoredPipeline<'_>,
    dir: &Path,
    jobs: usize,
) -> Result<BatchReport, StoreError> {
    analyze_dir_with(driver, dir, &ion_exec::Batch::new().with_width(jobs))
}

/// [`analyze_dir`] with an explicit execution policy: worker width,
/// batch deadline, and cancellation all come from `exec`. A trace whose
/// worker panics, or that is cancelled/deadlined before completing,
/// becomes a failed [`BatchEntry`]; the rest of the batch proceeds.
pub fn analyze_dir_with(
    driver: &StoredPipeline<'_>,
    dir: &Path,
    exec: &ion_exec::Batch,
) -> Result<BatchReport, StoreError> {
    let files = trace_files(dir)?;
    if files.is_empty() {
        return Err(StoreError::Pipeline(format!(
            "no .darshan traces in {}",
            dir.display()
        )));
    }
    let mut span = ion_obs::span!("store.batch");
    span.attr("traces", files.len());
    span.attr("jobs", exec.effective_width(files.len()));
    let parent = span.id();
    let progress = BatchProgress::start(files.len());

    let outcomes = exec.map_ordered(&files, |path, _ctx| {
        let mut span = ion_obs::span_under(parent, "store.batch.trace");
        span.attr("path", path.display().to_string());
        progress.trace_started();
        let entry = BatchEntry {
            path: path.clone(),
            result: driver.analyze_file(path).map_err(|e| e.to_string()),
        };
        progress.trace_finished(&entry);
        entry
    });
    let entries = outcomes
        .into_iter()
        .zip(&files)
        .map(|(outcome, path)| {
            // A panicked worker unwound before its own `trace_finished`
            // call; account the synthesized failure entry here so the
            // progress gauges stay truthful (no stuck in_flight, failures
            // counted). Cancelled/deadlined tasks never started.
            match outcome {
                ion_exec::TaskOutcome::Ok(entry) => entry,
                ion_exec::TaskOutcome::Panicked(_) => {
                    let entry = BatchEntry {
                        path: path.clone(),
                        result: Err("batch worker panicked".into()),
                    };
                    progress.trace_finished(&entry);
                    entry
                }
                ion_exec::TaskOutcome::Cancelled => BatchEntry {
                    path: path.clone(),
                    result: Err("batch cancelled".into()),
                },
                ion_exec::TaskOutcome::Deadlined => BatchEntry {
                    path: path.clone(),
                    result: Err("batch deadlined".into()),
                },
            }
        })
        .collect();
    Ok(BatchReport { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use darshan::log::LogWriter;
    use iosim::{SimConfig, Simulation};
    use std::sync::Arc;

    fn small_trace(exe: &str, stride: u64) -> Vec<u8> {
        let mut sim = Simulation::new(SimConfig::default().with_ranks(2).with_exe(exe));
        let f = sim.posix_open_all("/scratch/batch.dat").unwrap();
        for i in 0..8u64 {
            for rank in 0..2u32 {
                let base = u64::from(rank) * (4 << 20);
                sim.posix_write(rank, f, base + i * stride, 1024).unwrap();
            }
        }
        sim.posix_close_all(f);
        LogWriter::from_log(sim.finish()).finish().unwrap()
    }

    #[test]
    fn batch_analyzes_a_directory() {
        let dir = std::env::temp_dir().join(format!("ion-batch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("traces")).unwrap();
        std::fs::write(dir.join("traces/a.darshan"), small_trace("a", 1024)).unwrap();
        std::fs::write(dir.join("traces/b.darshan"), small_trace("b", 2048)).unwrap();
        // A duplicate of a: shares every cached stage with it.
        std::fs::write(dir.join("traces/c.darshan"), small_trace("a", 1024)).unwrap();
        std::fs::write(dir.join("traces/ignored.txt"), b"not a trace").unwrap();
        std::fs::write(dir.join("traces/broken.darshan"), b"garbage").unwrap();

        let store = Arc::new(Store::open(dir.join("store")).unwrap());
        let driver = StoredPipeline::new(store);
        let report = analyze_dir(&driver, &dir.join("traces"), 2).unwrap();
        assert_eq!(report.entries.len(), 4); // three traces + one broken
        assert_eq!(report.succeeded(), 3);
        assert_eq!(report.failed(), 1);
        let text = report.render_text();
        assert!(text.contains("3 analyzed, 1 failed"), "{text}");
        // Identical traces produced identical reports.
        let a = report
            .entries
            .iter()
            .find(|e| e.path.ends_with("a.darshan"))
            .unwrap();
        let c = report
            .entries
            .iter()
            .find(|e| e.path.ends_with("c.darshan"))
            .unwrap();
        assert_eq!(
            a.result.as_ref().unwrap().summary,
            c.result.as_ref().unwrap().summary
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("ion-batch-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(Store::open(dir.join("store")).unwrap());
        let driver = StoredPipeline::new(store);
        assert!(analyze_dir(&driver, &dir, 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
