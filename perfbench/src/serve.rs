//! `serve_mixed`: an in-process `ion_serve::Daemon` on loopback driven
//! by closed-loop HTTP clients, plus the `serve` layer profile every
//! workload reports.

use crate::gen;
use crate::layers::{Profile, TimingModel};
use crate::stats::{mean, median, ms, peak_rss_mb, percentile, repeated_setup, timed, Outcome};
use crate::Args;
use ion::pipeline::IonPipeline;
use ion_llm::LanguageModel;
use ion_serve::{client, Daemon, ServeConfig};
use ion_store::{digest_bytes, Digest, Store};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads of `serve_mixed`.
pub const CLIENTS: u64 = 2;
/// Unique traces one daemon analyzes before it is replaced.
const JOBS_PER_DAEMON: u64 = 64;
/// Traces of the profile sample (layer, store and serve profiles).
const SAMPLE: u64 = 16;
/// Q&A questions asked of every finished job.
const QUESTIONS: [&str; 2] = [
    "What is the most severe issue?",
    "Which metrics did you measure?",
];

/// An accepted submission.
struct Submitted {
    id: String,
    start: Instant,
    bytes: u64,
    /// Dedup joined an in-flight job with the same key.
    joined: bool,
}

/// What one client (or several, merged) saw of its jobs.
#[derive(Debug, Default)]
pub struct JobStats {
    pub submit_ms: Vec<f64>,
    pub job_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub qa_ms: Vec<f64>,
    pub queued_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub dedup_joins: u64,
    pub rejected: u64,
    pub attempted: u64,
    pub failed: u64,
    pub done_bytes: u64,
    /// `(trace, report digest)` of each unique job, checked after the
    /// window.
    pub reports: Vec<(Arc<Vec<u8>>, Digest)>,
    pub mismatches: Vec<String>,
}

impl JobStats {
    fn merge(&mut self, other: JobStats) {
        self.submit_ms.extend(other.submit_ms);
        self.job_ms.extend(other.job_ms);
        self.report_ms.extend(other.report_ms);
        self.qa_ms.extend(other.qa_ms);
        self.queued_ms.extend(other.queued_ms);
        self.run_ms.extend(other.run_ms);
        self.overhead_ms.extend(other.overhead_ms);
        self.dedup_joins += other.dedup_joins;
        self.rejected += other.rejected;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done_bytes += other.done_bytes;
        self.reports.extend(other.reports);
        self.mismatches.extend(other.mismatches);
    }

    /// Count a job's outcome: its report, or `None` when any step
    /// failed (counted in `failed`).
    fn settle(&mut self, result: Result<String, String>) -> Option<String> {
        if let Err(why) = &result {
            self.failed += 1;
            if self.mismatches.len() < 16 {
                self.mismatches.push(why.clone());
            }
        }
        result.ok()
    }

    /// `POST /v1/jobs`, retrying 429 rejections.
    fn submit(
        &mut self,
        addr: SocketAddr,
        tenant: &str,
        bytes: &[u8],
    ) -> Result<Submitted, String> {
        self.attempted += 1;
        let start = Instant::now();
        let headers = [("X-Ion-Tenant", tenant)];
        let accepted = loop {
            let reply =
                client::post(addr, "/v1/jobs", &headers, bytes).map_err(|e| e.to_string())?;
            if reply.status != 429 {
                break reply;
            }
            self.rejected += 1;
            std::thread::sleep(Duration::from_millis(5));
        };
        self.submit_ms.push(ms(start.elapsed()));
        let doc = accepted
            .json()
            .ok_or_else(|| format!("submit answered {} without JSON", accepted.status))?;
        let id = doc
            .get("job")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("submit answered {}: {}", accepted.status, accepted.text()))?
            .to_owned();
        let joined = doc.get("deduped").and_then(|d| d.as_bool()) == Some(true);
        if joined {
            self.dedup_joins += 1;
        }
        Ok(Submitted {
            id,
            start,
            bytes: bytes.len() as u64,
            joined,
        })
    }

    /// Long-poll a submitted job to `done`, fetch its report and ask the
    /// Q&A questions.
    fn finish(&mut self, addr: SocketAddr, job: &Submitted) -> Result<String, String> {
        let id = &job.id;
        let status = loop {
            let reply = client::get(addr, &format!("/v1/jobs/{id}?wait_ms=10000"))
                .map_err(|e| e.to_string())?;
            let doc = reply.json().ok_or("job status without JSON")?;
            match doc.get("state").and_then(|s| s.as_str()) {
                Some("done") => break doc,
                Some("queued" | "running") => {}
                other => return Err(format!("job {id} ended {other:?}")),
            }
        };
        if !job.joined {
            let job_ms = ms(job.start.elapsed());
            let field = |k: &str| status.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let (queued_ms, run_ms) = (field("queued_ms"), field("run_ms"));
            self.job_ms.push(job_ms);
            self.queued_ms.push(queued_ms);
            self.run_ms.push(run_ms);
            self.overhead_ms.push(job_ms - queued_ms - run_ms);
        }

        let (reply, report_ms) = timed(|| client::get(addr, &format!("/v1/jobs/{id}/report")));
        let reply = reply.map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("report of {id} answered {}", reply.status));
        }
        self.report_ms.push(report_ms);
        for question in QUESTIONS {
            let path = format!("/v1/jobs/{id}/qa");
            let (answer, qa_ms) = timed(|| client::post(addr, &path, &[], question.as_bytes()));
            let answer = answer.map_err(|e| e.to_string())?;
            let answered = answer.json().and_then(|d| d.get("answer").map(|_| ()));
            if answer.status != 200 || answered.is_none() {
                return Err(format!("Q&A on {id} answered {}", answer.status));
            }
            self.qa_ms.push(qa_ms);
        }
        if !job.joined {
            self.done_bytes += job.bytes;
        }
        Ok(reply.text())
    }

    /// Submit and finish one job.
    fn job(&mut self, addr: SocketAddr, tenant: &str, bytes: &[u8]) -> Option<String> {
        let result = self
            .submit(addr, tenant, bytes)
            .and_then(|s| self.finish(addr, &s));
        self.settle(result)
    }

    /// Submit `bytes` and re-send them at once, so the second submission
    /// joins the first while it is queued or running. Returns the report.
    fn job_with_resend(&mut self, addr: SocketAddr, tenant: &str, bytes: &[u8]) -> Option<String> {
        let first = self.submit(addr, tenant, bytes);
        let second = self.submit(addr, tenant, bytes);
        let report = first.and_then(|s| self.finish(addr, &s));
        let again = second.and_then(|s| self.finish(addr, &s));
        let same = match (&report, &again) {
            (Ok(a), Ok(b)) if a != b => Err("a re-sent trace got another report".to_owned()),
            (_, Err(e)) => Err(e.clone()),
            _ => Ok(()),
        };
        self.settle(same.map(|()| String::new()));
        self.settle(report)
    }

    /// Check every unique job's report against the in-process pipeline
    /// on the same bytes, on `CLIENTS` threads.
    fn verify(&mut self) {
        let chunk = self.reports.len().div_ceil(CLIENTS as usize).max(1);
        let wrong: usize = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .reports
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        let pipeline = IonPipeline::new();
                        part.iter()
                            .filter(|(bytes, digest)| {
                                pipeline
                                    .run_bytes(bytes)
                                    .map(|r| digest_bytes(r.render_text().as_bytes()))
                                    != Ok(*digest)
                            })
                            .count()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verifier"))
                .sum()
        });
        if wrong > 0 {
            self.failed += wrong as u64;
            self.mismatches.push(format!(
                "{wrong} daemon reports disagree with the in-process pipeline"
            ));
        }
        self.reports.clear();
    }

    fn into_outcome(mut self, out: &mut Outcome) {
        self.verify();
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.mismatches.extend(std::mem::take(&mut self.mismatches));
    }

    /// The `serve` layer metrics.
    fn emit(&self, out: &mut Outcome) {
        out.metric("serve.submit_ms", median(&self.submit_ms), "ms");
        out.metric(
            "serve.submit_p90_ms",
            percentile(&self.submit_ms, 0.9),
            "ms",
        );
        out.metric("serve.queued_ms", mean(&self.queued_ms), "ms");
        out.metric("serve.run_ms", mean(&self.run_ms), "ms");
        out.metric("serve.overhead_ms", mean(&self.overhead_ms), "ms");
        out.metric("serve.job_p90_ms", percentile(&self.job_ms, 0.9), "ms");
        out.metric("serve.report_ms", median(&self.report_ms), "ms");
        out.metric("serve.qa_ms", median(&self.qa_ms), "ms");
        out.metric("serve.dedup_joins", self.dedup_joins as f64, "count");
        out.metric("serve.rejected", self.rejected as f64, "count");
    }
}

/// One analysis worker under two clients, so submissions queue and
/// `FairQueue` admission and dispatch are on every job's path.
fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

fn bind(dir: &Path, model: Arc<dyn LanguageModel>) -> Daemon {
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(
        Store::open_with_capacity(dir, crate::store::CACHE_BYTES).expect("open daemon store"),
    );
    Daemon::bind_with_model("127.0.0.1:0", store, model, config()).expect("bind loopback")
}

/// `CLIENTS` closed-loop clients until `deadline` or until they have
/// submitted `budget` unique traces between them: each submits a unique
/// small trace (every eighth one is re-sent at once, so dedup joins the
/// in-flight job), long-polls it to `done`, fetches the report and asks
/// the Q&A questions.
fn clients(
    addr: SocketAddr,
    seed: u64,
    round: u64,
    deadline: Instant,
    budget: u64,
) -> (JobStats, f64) {
    let remaining = AtomicU64::new(budget);
    let take = || {
        remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
            .is_ok()
    };
    let start = Instant::now();
    let stats = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let tenant = format!("client-{c}");
                    let mut stats = JobStats::default();
                    let mut n = 0u64;
                    while Instant::now() < deadline && take() {
                        n += 1;
                        let bytes = Arc::new(gen::small(seed, (round << 8) + c, n));
                        let report = if n.is_multiple_of(8) {
                            stats.job_with_resend(addr, &tenant, &bytes)
                        } else {
                            stats.job(addr, &tenant, &bytes)
                        };
                        if let Some(report) = report {
                            stats.reports.push((bytes, digest_bytes(report.as_bytes())));
                        }
                    }
                    stats
                })
            })
            .collect();
        let mut all = JobStats::default();
        for h in handles {
            all.merge(h.join().expect("client thread"));
        }
        all
    });
    (stats, ms(start.elapsed()))
}

/// Epochs of [`clients`] until `deadline`, each on a fresh daemon and
/// store (the first on `daemon`) that serves `JOBS_PER_DAEMON` traces.
/// The daemon rewrites its whole manifest file on every save, so a store
/// that grew for the whole window would make a job's cost, and the bytes
/// written to disk, grow with the run's length and the machine's speed;
/// epochs keep both in one band.
/// With a `model`, epochs alternate untraced and traced (the daemon
/// analyzing through the timing wrapper). Returns the untraced and traced
/// legs, each with its summed client wall time.
fn epochs(
    dir: &Path,
    seed: u64,
    mut daemon: Daemon,
    model: Option<&Arc<TimingModel>>,
    deadline: Instant,
) -> [(JobStats, f64); 2] {
    let mut legs = [(JobStats::default(), 0.0), (JobStats::default(), 0.0)];
    let mut epoch = 0u64;
    loop {
        let (stats, wall_ms) = clients(daemon.local_addr(), seed, epoch, deadline, JOBS_PER_DAEMON);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(dir.join(format!("epoch-{epoch}")));
        let leg = &mut legs[usize::from(model.is_some() && epoch % 2 == 1)];
        leg.0.merge(stats);
        leg.1 += wall_ms;
        epoch += 1;
        if Instant::now() >= deadline {
            return legs;
        }
        let next: Arc<dyn LanguageModel> = match model {
            Some(model) if epoch % 2 == 1 => Arc::clone(model) as Arc<dyn LanguageModel>,
            _ => Arc::new(ion_llm::DeterministicExpert::new()),
        };
        daemon = bind(&dir.join(format!("epoch-{epoch}")), next);
    }
}

struct Setup {
    daemon: Daemon,
    sample: Vec<Vec<u8>>,
    generate_s: f64,
}

/// The `serve_mixed` workload.
pub fn run(args: &Args, dir: &Path, out: &mut Outcome) {
    let mut generate = Vec::new();
    let (setup, setup_s) = repeated_setup(args.setups(), || {
        let (sample, gen_ms) = timed(|| {
            (0..SAMPLE)
                .map(|n| gen::small(args.seed, 1 << 20, n))
                .collect::<Vec<_>>()
        });
        generate.push(gen_ms / 1e3);
        let daemon = bind(
            &dir.join("epoch-0"),
            Arc::new(ion_llm::DeterministicExpert::new()),
        );
        let mut warm = JobStats::default();
        for bytes in &sample {
            warm.job(daemon.local_addr(), "warm-up", bytes);
        }
        Setup {
            daemon,
            sample,
            generate_s: median(&generate),
        }
    });
    let sample_bytes: usize = setup.sample.iter().map(Vec::len).sum();
    out.stamp("trace_bytes_per_job", setup.sample[0].len());
    out.stamp("daemon_workers", config().workers);
    out.stamp("clients", CLIENTS);
    out.stamp("store_cache_bytes", crate::store::CACHE_BYTES);

    let model = Arc::new(TimingModel::default());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let traced_model = args.trace.then_some(&model);
    let [(stats, wall_ms), (traced, _)] =
        epochs(dir, args.seed, setup.daemon, traced_model, deadline);
    if !args.trace {
        let jobs = stats.job_ms.len() as f64;
        out.metric("setup_s", setup_s, "s");
        out.view("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("report_p50_ms", median(&stats.job_ms), "ms");
        out.metric("traces_per_s", jobs / (wall_ms / 1e3), "1/s");
        out.metric(
            "mb_per_s",
            stats.done_bytes as f64 / 1e6 / (wall_ms / 1e3),
            "MB/s",
        );
        out.view("jobs_per_s", jobs / (wall_ms / 1e3), "1/s");
        out.view("job_p50_ms", median(&stats.job_ms), "ms");
        out.view("job_p90_ms", percentile(&stats.job_ms, 0.9), "ms");
        out.view("submit_p90_ms", percentile(&stats.submit_ms, 0.9), "ms");
        out.view("qa_p50_ms", median(&stats.qa_ms), "ms");
        out.stamp("jobs", stats.job_ms.len());
        stats.into_outcome(out);
        return;
    }
    out.metric("process.peak_rss_mb", peak_rss_mb(), "MB");
    out.metric(
        "obs.trace_overhead_pct",
        100.0 * (median(&traced.job_ms) / median(&stats.job_ms) - 1.0),
        "%",
    );
    traced.emit(out);
    stats.into_outcome(out);
    traced.into_outcome(out);

    let sample: Vec<&[u8]> = setup.sample.iter().map(Vec::as_slice).collect();
    Profile::of(&sample, &model, out).emit(out);
    let refs = crate::store::references(&sample);
    crate::store::profile(&dir.join("store"), &sample, &refs, 0, out);
    out.metric("workloads.generate_s", setup.generate_s, "s");
    out.metric("workloads.trace_mb", sample_bytes as f64 / 1e6, "MB");
}

/// The `serve` layer metrics for a workload that bypasses the daemon:
/// its traces and four small ones submitted back to back (the last
/// re-sent at once, so dedup joins it), then each polled to `done`.
pub fn profile(dir: PathBuf, traces: &[&[u8]], seed: u64, out: &mut Outcome) {
    let was_enabled = ion_obs::enabled();
    let daemon = bind(&dir, Arc::new(ion_llm::DeterministicExpert::new()));
    let addr = daemon.local_addr();
    let small: Vec<Vec<u8>> = (0..4).map(|n| gen::small(seed, 2 << 20, n)).collect();
    let all: Vec<&[u8]> = traces
        .iter()
        .copied()
        .chain(small.iter().map(Vec::as_slice))
        .collect();
    let mut stats = JobStats::default();
    let mut jobs = Vec::new();
    for (i, bytes) in all.iter().chain(all.last()).enumerate() {
        let submitted = stats.submit(addr, &format!("profile-{}", i % 4), bytes);
        jobs.push((*bytes, submitted));
    }
    for (bytes, submitted) in jobs {
        let result = submitted.and_then(|s| stats.finish(addr, &s));
        if let Some(report) = stats.settle(result) {
            stats
                .reports
                .push((Arc::new(bytes.to_vec()), digest_bytes(report.as_bytes())));
        }
    }
    daemon.shutdown();
    if !was_enabled {
        ion_obs::disable();
        ion_obs::reset();
    }
    let _ = std::fs::remove_dir_all(&dir);
    stats.emit(out);
    let mut scratch = Outcome::default();
    stats.into_outcome(&mut scratch);
    out.failed += scratch.failed;
    out.mismatches.extend(scratch.mismatches);
}
