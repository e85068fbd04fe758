//! `ion-cli` — command-line front end for the ION reproduction.
//!
//! ```text
//! ion-cli generate <workload> <out.darshan>   create a synthetic trace
//! ion-cli parse <log.darshan>                 darshan-parser text output
//! ion-cli dxt <log.darshan>                   darshan-dxt-parser output
//! ion-cli extract <log.darshan> <out-dir>     write the per-module CSVs
//! ion-cli analyze <log.darshan>               full ION diagnosis
//! ion-cli batch <trace-dir>                   analyze every trace in a directory
//! ion-cli drishti <log.darshan>               Drishti baseline report
//! ion-cli compare <base> <optimized>          diff two diagnoses (resolved/introduced)
//! ion-cli qa <log.darshan> "<question>" ...   diagnose then answer questions
//! ion-cli iql <log.darshan> <file.iql>        run an IQL program on a trace
//!         [--explain]                         print the plan with live columns instead
//! ion-cli fuzz [--iters N] [--seed S]         hostile-input fuzz campaign
//!         [--minimize] [--save-crashes <dir>] (crashes exit nonzero, bytes pinned)
//!         [--replay <corpus-dir>]             replay pinned regression seeds
//! ion-cli store gc [--apply]                  prune unreferenced store artifacts
//! ion-cli serve [addr]                        multi-tenant analysis daemon
//! ion-cli obs export --chrome <trace.json>    render an ion-trace/1 document as
//!         [-o <out.json>]                     Chrome trace_event JSON (Perfetto)
//! ```
//!
//! A `--flag` that is neither one of the global flags below nor one of
//! the command's own is rejected by name. An input that cannot be read
//! or decoded prints its error alone, without the usage text.
//!
//! `--store <dir>` (valid anywhere on the command line) backs `analyze`,
//! `batch`, `qa` and `serve` with the content-addressed incremental
//! store: stages whose inputs did not change are served from cache
//! instead of being recomputed. `batch` additionally accepts
//! `--jobs <n>`.
//!
//! `serve` runs the always-on analysis daemon (`ion-serve/v1`): POST a
//! trace to `/v1/jobs`, poll `/v1/jobs/<id>`, fetch `/report`, ask
//! `/qa`, and fetch the finished job's span tree from `/trace`. Jobs
//! slower than `--slow-job-ms <n>` (default 10 000, `0` disables) log a
//! `serve.job.slow` event with a stage breakdown. The first Ctrl-C
//! drains gracefully (503 new submissions, finish in-flight work); a
//! second one hard-cancels in-flight jobs.
//!
//! Execution policy (valid anywhere on the command line, honored by
//! `analyze`, `batch` and `qa`):
//!
//! - `--workers <n>` sets the analysis worker-pool width (`0` = one per
//!   core; the `ION_WORKERS` env var sets the same default process-wide).
//! - `--deadline-ms <n>` bounds the run: analyses that have not started
//!   when the deadline passes are reported as failed instead of running.
//!
//! Live telemetry (valid anywhere on the command line):
//!
//! - `--events <path>` streams structured events (span open/close, counter
//!   deltas, model-run lifecycle, store hit/miss, per-trace batch
//!   outcomes) to `<path>` as `ion-obs/events/2` JSONL while the command
//!   runs.
//! - `--serve <addr>` serves `/metrics` (Prometheus text format),
//!   `/progress` and `/healthz` on `<addr>` for the duration of the
//!   command; `--serve-hold-ms <n>` keeps the endpoint up `n` ms after the
//!   command finishes so a final scrape can land (short-lived jobs would
//!   otherwise vanish between scrape intervals).
//!
//! Workloads: `ior-easy-2k`, `ior-easy-1m`, `ior-easy-fpp`, `ior-hard`,
//! `ior-rnd4k`, `mdworkbench`, `openpmd`, `openpmd-opt`, `e2e`, `e2e-opt`.
//! Scale via `IONREPRO_SCALE` (default 0.1).

use darshan::log::{LogReader, LogWriter};
use ion::pipeline::IonPipeline;
use ion_bench::experiment_scale;
use std::fs;
use std::io::Write as _;
use std::process::ExitCode;

/// Print to stdout, ignoring broken pipes (`ion-cli parse log | head`).
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}
use workloads::e2e::{E2e, E2eVariant};
use workloads::ior::{
    ior_easy_1mb_fpp, ior_easy_1mb_shared, ior_easy_2kb_shared, ior_hard, ior_rnd4k,
};
use workloads::mdworkbench::MdWorkbench;
use workloads::openpmd::{OpenPmd, OpenPmdVariant};
use workloads::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ion-cli [--profile] [--metrics-json <path>] [--events <path>] \
         [--serve <addr>] [--serve-hold-ms <n>] [--store <dir>] [--jobs <n>] \
         [--workers <n>] [--deadline-ms <n>] [--slow-job-ms <n>] \
         [--chunk-rows <n>] \
         <generate|parse|dxt|extract|analyze|batch|drishti|compare|qa|iql|store|serve|obs|fuzz> \
         <args...>\n\
         a bare <log.darshan> after the flags is shorthand for `analyze`\n\
         see `cargo doc` or the README for details"
    );
    ExitCode::FAILURE
}

/// A failed invocation. Argument mistakes get the usage text; *outcome*
/// failures (a failed batch trace, an IQL program error) only set the
/// exit code — dumping usage over the command's own output would bury
/// the signal.
struct Failure {
    message: String,
    show_usage: bool,
}

impl Failure {
    /// The command ran; its outcome is the failure.
    fn outcome(message: impl Into<String>) -> Failure {
        Failure {
            message: message.into(),
            show_usage: false,
        }
    }

    /// The same failure, its message prefixed with what it concerns.
    fn about(self, what: &str) -> Failure {
        Failure {
            message: format!("{what}: {}", self.message),
            ..self
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure {
            message,
            show_usage: true,
        }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure::from(message.to_owned())
    }
}

/// Global flags, stripped from anywhere on the command line.
#[derive(Debug, Default)]
struct ObsFlags {
    profile: bool,
    metrics_json: Option<String>,
    events: Option<String>,
    serve: Option<String>,
    serve_hold_ms: u64,
    store: Option<String>,
    jobs: usize,
    workers: Option<usize>,
    deadline_ms: u64,
    slow_job_ms: Option<u64>,
    chunk_rows: Option<usize>,
}

impl ObsFlags {
    /// Extract `--profile` / `--metrics-json <path>` / `--events <path>` /
    /// `--serve <addr>` / `--serve-hold-ms <n>` / `--store <dir>` /
    /// `--jobs <n>` / `--workers <n>` / `--deadline-ms <n>` /
    /// `--slow-job-ms <n>` / `--chunk-rows <n>` from `args`.
    fn strip(args: &mut Vec<String>) -> Result<ObsFlags, String> {
        let mut flags = ObsFlags::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--profile" => {
                    flags.profile = true;
                    args.remove(i);
                }
                "--metrics-json" => {
                    if i + 1 >= args.len() {
                        return Err("--metrics-json needs a <path>".into());
                    }
                    args.remove(i);
                    flags.metrics_json = Some(args.remove(i));
                }
                "--events" => {
                    if i + 1 >= args.len() {
                        return Err("--events needs a <path>".into());
                    }
                    args.remove(i);
                    flags.events = Some(args.remove(i));
                }
                "--serve" => {
                    if i + 1 >= args.len() {
                        return Err("--serve needs an <addr>".into());
                    }
                    args.remove(i);
                    flags.serve = Some(args.remove(i));
                }
                "--serve-hold-ms" => {
                    if i + 1 >= args.len() {
                        return Err("--serve-hold-ms needs a <n>".into());
                    }
                    args.remove(i);
                    let n = args.remove(i);
                    flags.serve_hold_ms = n
                        .parse()
                        .map_err(|_| format!("--serve-hold-ms needs a number, got {n}"))?;
                }
                "--store" => {
                    if i + 1 >= args.len() {
                        return Err("--store needs a <dir>".into());
                    }
                    args.remove(i);
                    flags.store = Some(args.remove(i));
                }
                "--jobs" => {
                    if i + 1 >= args.len() {
                        return Err("--jobs needs a <n>".into());
                    }
                    args.remove(i);
                    let n = args.remove(i);
                    flags.jobs = n
                        .parse()
                        .map_err(|_| format!("--jobs needs a number, got {n}"))?;
                }
                "--workers" => {
                    if i + 1 >= args.len() {
                        return Err("--workers needs a <n>".into());
                    }
                    args.remove(i);
                    let n = args.remove(i);
                    flags.workers = Some(
                        n.parse()
                            .map_err(|_| format!("--workers needs a number, got {n}"))?,
                    );
                }
                "--deadline-ms" => {
                    if i + 1 >= args.len() {
                        return Err("--deadline-ms needs a <n>".into());
                    }
                    args.remove(i);
                    let n = args.remove(i);
                    flags.deadline_ms = n
                        .parse()
                        .map_err(|_| format!("--deadline-ms needs a number, got {n}"))?;
                }
                "--slow-job-ms" => {
                    if i + 1 >= args.len() {
                        return Err("--slow-job-ms needs a <n>".into());
                    }
                    args.remove(i);
                    let n = args.remove(i);
                    flags.slow_job_ms = Some(
                        n.parse()
                            .map_err(|_| format!("--slow-job-ms needs a number, got {n}"))?,
                    );
                }
                "--chunk-rows" => {
                    if i + 1 >= args.len() {
                        return Err("--chunk-rows needs a <n>".into());
                    }
                    args.remove(i);
                    let n = args.remove(i);
                    let rows: usize = n
                        .parse()
                        .map_err(|_| format!("--chunk-rows needs a number, got {n}"))?;
                    if rows == 0 {
                        return Err("--chunk-rows must be at least 1".into());
                    }
                    flags.chunk_rows = Some(rows);
                }
                _ => i += 1,
            }
        }
        Ok(flags)
    }

    fn any(&self) -> bool {
        self.profile || self.metrics_json.is_some() || self.events.is_some() || self.serve.is_some()
    }

    /// The execution policy `--workers` / `--deadline-ms` describe.
    /// `fallback_width` covers `batch`, whose older `--jobs` flag keeps
    /// working when `--workers` is absent.
    fn exec_batch(&self, fallback_width: usize) -> ion_exec::Batch {
        let mut exec = ion_exec::Batch::new().with_width(self.workers.unwrap_or(fallback_width));
        if self.deadline_ms > 0 {
            exec = exec.with_deadline(std::time::Duration::from_millis(self.deadline_ms));
        }
        exec
    }

    /// Open the store named by `--store`, or explain which command
    /// needed it.
    fn open_store(&self, needed_by: &str) -> Result<std::sync::Arc<ion_store::Store>, String> {
        let dir = self
            .store
            .as_ref()
            .ok_or_else(|| format!("{needed_by} needs --store <dir>"))?;
        ion_store::Store::open(dir)
            .map(std::sync::Arc::new)
            .map_err(|e| format!("cannot open store {dir}: {e}"))
    }

    /// Render whatever the run recorded: the profile tree to stderr (so it
    /// never corrupts piped report output) and the JSON document to a file.
    fn report(&self) -> Result<(), String> {
        if !self.any() {
            return Ok(());
        }
        let snap = ion_obs::snapshot();
        if self.profile {
            eprint!("{}", snap.render_profile());
        }
        if let Some(path) = &self.metrics_json {
            fs::write(path, snap.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote metrics to {path}");
        }
        Ok(())
    }
}

fn workload_by_name(name: &str, scale: f64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ior-easy-2k" => Box::new(ior_easy_2kb_shared(scale)),
        "ior-easy-1m" => Box::new(ior_easy_1mb_shared(scale)),
        "ior-easy-fpp" => Box::new(ior_easy_1mb_fpp(scale)),
        "ior-hard" => Box::new(ior_hard(scale / 10.0)),
        "ior-rnd4k" => Box::new(ior_rnd4k(scale / 2.0)),
        "mdworkbench" => Box::new(MdWorkbench::scaled(scale * 5.0)),
        "openpmd" => Box::new(OpenPmd::scaled(OpenPmdVariant::Baseline, scale)),
        "openpmd-opt" => Box::new(OpenPmd::scaled(OpenPmdVariant::Optimized, scale)),
        "e2e" => Box::new(E2e::scaled(E2eVariant::Baseline, scale)),
        "e2e-opt" => Box::new(E2e::scaled(E2eVariant::Optimized, scale)),
        _ => return None,
    })
}

/// The bytes of the input at `path`. An unreadable input is an outcome
/// failure: the error names it, and no usage text buries that.
fn read(path: &str) -> Result<Vec<u8>, Failure> {
    fs::read(path).map_err(|e| Failure::outcome(format!("cannot read {path}: {e}")))
}

fn load(path: &str) -> Result<darshan::log::Log, Failure> {
    LogReader::read(&read(path)?)
        .map_err(|e| Failure::outcome(format!("cannot decode {path}: {e}")))
}

/// Full diagnosis of trace bytes — incremental when `--store` is given,
/// streamed into chunked tables when `--chunk-rows` is given,
/// the plain pipeline otherwise. A trace that fails to decode or a store
/// that fails is an outcome failure; only conflicting flags print usage.
fn analyze_bytes(bytes: &[u8], flags: &ObsFlags) -> Result<ion::pipeline::IonReport, Failure> {
    let exec = flags.exec_batch(0);
    if let Some(chunk_rows) = flags.chunk_rows {
        if flags.store.is_some() {
            return Err("--chunk-rows streams past the warm store; drop --store to use it".into());
        }
        let extracted = extractor::extract_stream(bytes, chunk_rows)
            .map_err(|e| Failure::outcome(format!("cannot stream-decode trace: {e}")))?;
        let pipeline = IonPipeline::new().with_exec(exec);
        let params = pipeline.params_for(&extracted.skeleton);
        return Ok(pipeline.run_tables(&extracted.tables, &params));
    }
    if flags.store.is_some() {
        let store = flags.open_store("analyze").map_err(Failure::outcome)?;
        ion_store::StoredPipeline::new(store)
            .with_exec(exec)
            .analyze_bytes(bytes)
            .map_err(|e| Failure::outcome(e.to_string()))
    } else {
        IonPipeline::new()
            .with_exec(exec)
            .run_bytes(bytes)
            .map_err(|e| Failure::outcome(format!("cannot decode trace: {e}")))
    }
}

fn run() -> Result<(), Failure> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = ObsFlags::strip(&mut args)?;
    if flags.any() {
        ion_obs::enable();
    }
    // Start streaming and serving *before* dispatch so the whole run is
    // covered; tear both down after so the last events and a final scrape
    // window are not lost.
    let events_writer = match &flags.events {
        Some(path) => {
            let ring = std::sync::Arc::new(ion_obs::events::EventRing::new(
                ion_obs::events::DEFAULT_CAPACITY,
            ));
            ion_obs::events::install(std::sync::Arc::clone(&ring));
            let writer = ion_obs::events::EventWriter::spawn(ring, std::path::Path::new(path))
                .map_err(|e| format!("cannot stream events to {path}: {e}"))?;
            Some(writer)
        }
        None => None,
    };
    let server = match &flags.serve {
        Some(addr) => {
            let server = ion_obs::serve::MetricsServer::bind(addr.as_str())
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            eprintln!("serving telemetry on http://{}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let result = dispatch(&args, &flags);
    flags.report()?;
    if let Some(server) = server {
        if flags.serve_hold_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(flags.serve_hold_ms));
        }
        server.shutdown();
    }
    if let Some(writer) = events_writer {
        ion_obs::events::uninstall();
        let stats = writer.finish().map_err(|e| format!("event writer: {e}"))?;
        eprintln!(
            "wrote {} event(s) to {} ({} dropped)",
            stats.written,
            flags.events.as_deref().unwrap_or("?"),
            stats.dropped
        );
    }
    result
}

const COMMANDS: [&str; 14] = [
    "generate", "parse", "dxt", "extract", "analyze", "batch", "drishti", "compare", "qa", "iql",
    "store", "serve", "obs", "fuzz",
];

fn dispatch(args: &[String], flags: &ObsFlags) -> Result<(), Failure> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    // `ion-cli --profile trace.darshan` profiles the default full-pipeline
    // command: a bare trace path means `analyze`.
    let implicit_analyze: Vec<String>;
    let args: &[String] =
        if !COMMANDS.contains(&cmd.as_str()) && std::path::Path::new(cmd).is_file() {
            implicit_analyze = std::iter::once("analyze".to_owned())
                .chain(args.iter().cloned())
                .collect();
            &implicit_analyze
        } else {
            args
        };
    let cmd = &args[0];
    // The global flags are stripped already; any `--flag` left over must
    // be one of the command's own.
    if cmd.starts_with("--") {
        return Err(format!("unknown flag {cmd}").into());
    }
    let own_flags: &[&str] = match cmd.as_str() {
        "iql" => &["--explain"],
        "store" => &["--apply"],
        "obs" => &["--chrome"],
        "fuzz" => &[
            "--iters",
            "--seed",
            "--minimize",
            "--replay",
            "--save-crashes",
        ],
        _ => &[],
    };
    if let Some(flag) = args[1..]
        .iter()
        .find(|a| a.starts_with("--") && !own_flags.contains(&a.as_str()))
    {
        return Err(format!("unknown flag {flag} for {cmd}").into());
    }
    match cmd.as_str() {
        "generate" => {
            let (name, out) = match (args.get(1), args.get(2)) {
                (Some(n), Some(o)) => (n, o),
                _ => return Err("generate needs <workload> <out.darshan>".into()),
            };
            let scale = experiment_scale();
            let w =
                workload_by_name(name, scale).ok_or_else(|| format!("unknown workload {name}"))?;
            let log = w.generate_traced();
            let bytes = LogWriter::from_log(log)
                .finish()
                .map_err(|e| e.to_string())?;
            fs::write(out, &bytes).map_err(|e| e.to_string())?;
            println!("wrote {} ({} bytes, scale {scale})", out, bytes.len());
        }
        "parse" => {
            let path = args.get(1).ok_or("parse needs <log.darshan>")?;
            emit(&darshan::parser::render_text(&load(path)?));
        }
        "dxt" => {
            let path = args.get(1).ok_or("dxt needs <log.darshan>")?;
            emit(&darshan::parser::render_dxt_text(&load(path)?));
        }
        "extract" => {
            let (path, dir) = match (args.get(1), args.get(2)) {
                (Some(p), Some(d)) => (p, d),
                _ => return Err("extract needs <log.darshan> <out-dir>".into()),
            };
            let log = load(path)?;
            let tables = extractor::extract_tables(&log);
            fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            for (name, table) in tables.iter() {
                let file = format!("{dir}/{name}.csv");
                fs::write(&file, extractor::csv::to_csv(table)).map_err(|e| e.to_string())?;
                println!("wrote {file} ({} rows)", table.len());
            }
        }
        "analyze" => {
            let path = args.get(1).ok_or("analyze needs <log.darshan>")?;
            // Feed bytes so the decode span nests under the pipeline span.
            let bytes = read(path)?;
            let report = analyze_bytes(&bytes, flags).map_err(|e| e.about(path))?;
            emit(&report.render_text());
            let problems = report.consistency();
            if problems.is_empty() {
                println!("(consistency check: clean)");
            } else {
                println!("(consistency check: {} problems)", problems.len());
                for p in problems {
                    println!("  {:?}: {}", p.level, p.message);
                }
            }
        }
        "batch" => {
            let dir = args.get(1).ok_or("batch needs <trace-dir>")?;
            let store = flags.open_store("batch")?;
            let driver = ion_store::StoredPipeline::new(store);
            let cancel = ion_exec::CancelToken::new();
            ion_serve::signal::cancel_on_signal(cancel.clone());
            let exec = flags.exec_batch(flags.jobs).with_cancel(cancel);
            let report = ion_store::analyze_dir_with(&driver, std::path::Path::new(dir), &exec)
                .map_err(|e| e.to_string())?;
            emit(&report.render_text());
            if ion_serve::signal::tripped() {
                return Err(Failure::outcome("batch interrupted (Ctrl-C)"));
            }
            if report.failed() > 0 {
                return Err(Failure::outcome(format!(
                    "{} trace(s) failed",
                    report.failed()
                )));
            }
        }
        "serve" => {
            let addr = args.get(1).map_or("127.0.0.1:8080", String::as_str);
            let store = flags.open_store("serve")?;
            let mut config = ion_serve::ServeConfig::default();
            if let Some(workers) = flags.workers {
                config.workers = workers.max(1);
            }
            if flags.jobs > 0 {
                config.issue_width = flags.jobs;
            }
            if flags.deadline_ms > 0 {
                config.job_deadline = Some(std::time::Duration::from_millis(flags.deadline_ms));
            }
            if let Some(ms) = flags.slow_job_ms {
                // `--slow-job-ms 0` turns the slow-job log off entirely.
                config.slow_job_threshold = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            let daemon = ion_serve::Daemon::bind(addr, store, config)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            // The bound address goes to stderr so scripts (and the CI
            // smoke test) can scrape the ephemeral port from `serve :0`.
            eprintln!(
                "ion-serve {} ({}) listening on http://{} (Ctrl-C drains; twice cancels in-flight)",
                env!("CARGO_PKG_VERSION"),
                ion_obs::serve::build_profile(),
                daemon.local_addr()
            );
            let stop = ion_exec::CancelToken::new();
            ion_serve::signal::cancel_on_signal(stop.clone());
            daemon.run_until(&stop);
            // Escalation path: a second signal during the drain trips the
            // daemon's hard-cancel token so stuck jobs cannot block exit.
            let trips_at_drain = ion_serve::signal::trip_count();
            let hard = daemon.cancel_token();
            let _ = std::thread::Builder::new()
                .name("ion-serve-escalate".to_owned())
                .spawn(move || loop {
                    if ion_serve::signal::trip_count() > trips_at_drain {
                        hard.cancel();
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                });
            eprintln!("ion-serve draining...");
            let summary = daemon.shutdown();
            eprintln!(
                "ion-serve stopped: {} done, {} failed, {} cancelled ({} never ran), {} deadlined",
                summary.done,
                summary.failed,
                summary.cancelled,
                summary.cancelled_queued,
                summary.deadlined
            );
        }
        "fuzz" => {
            let mut iters: u64 = 1000;
            let mut seed: u64 = 0;
            let mut minimize = false;
            let mut replay: Option<String> = None;
            let mut save_crashes: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--iters" => {
                        let n = args.get(i + 1).ok_or("--iters needs a <n>")?;
                        iters = n
                            .parse()
                            .map_err(|_| format!("--iters needs a number, got {n}"))?;
                        i += 2;
                    }
                    "--seed" => {
                        let n = args.get(i + 1).ok_or("--seed needs a <n>")?;
                        seed = n
                            .parse()
                            .map_err(|_| format!("--seed needs a number, got {n}"))?;
                        i += 2;
                    }
                    "--minimize" => {
                        minimize = true;
                        i += 1;
                    }
                    "--replay" => {
                        replay = Some(args.get(i + 1).ok_or("--replay needs a <dir>")?.clone());
                        i += 2;
                    }
                    "--save-crashes" => {
                        save_crashes = Some(
                            args.get(i + 1)
                                .ok_or("--save-crashes needs a <dir>")?
                                .clone(),
                        );
                        i += 2;
                    }
                    other => return Err(format!("fuzz: unknown argument {other}").into()),
                }
            }
            if let Some(dir) = replay {
                let (count, failures) = ion_fuzz::corpus::replay_dir(std::path::Path::new(&dir))
                    .map_err(|e| format!("cannot replay {dir}: {e}"))?;
                println!("replayed {count} corpus seed(s) from {dir}");
                if !failures.is_empty() {
                    for f in &failures {
                        println!("  {}: CRASH at {}: {}", f.name, f.stage, f.message);
                        println!("    minimized seed (hex): {}", f.minimized_hex);
                    }
                    return Err(Failure::outcome(format!(
                        "{} corpus seed(s) crash the pipeline",
                        failures.len()
                    )));
                }
                return Ok(());
            }
            let cancel = ion_exec::CancelToken::new();
            ion_serve::signal::cancel_on_signal(cancel.clone());
            let config = ion_fuzz::CampaignConfig {
                iters,
                seed,
                minimize,
                jobs: (flags.jobs > 0).then_some(flags.jobs),
                cancel: Some(cancel),
            };
            let report = ion_fuzz::run_campaign(&config);
            println!("{}", report.render_text());
            for c in &report.crashes {
                println!(
                    "  iter {} [{}] CRASH at {}: {}",
                    c.iter,
                    c.corruption.map_or("valid", ion_fuzz::Corruption::name),
                    c.stage.name(),
                    c.message
                );
                if let Some(dir) = &save_crashes {
                    match ion_fuzz::corpus::save(std::path::Path::new(dir), c) {
                        Ok(path) => println!("    pinned: {}", path.display()),
                        Err(e) => eprintln!("    cannot pin crash: {e}"),
                    }
                }
            }
            if !report.crashes.is_empty() {
                return Err(Failure::outcome(format!(
                    "{} uncaught panic(s) in {} iterations (seed {seed})",
                    report.crashes.len(),
                    iters
                )));
            }
        }
        "store" => match args.get(1).map(String::as_str) {
            Some("gc") => {
                let apply = args.get(2).map(String::as_str) == Some("--apply");
                let store = flags.open_store("store gc")?;
                let report = store.gc(!apply).map_err(|e| e.to_string())?;
                println!(
                    "{} live object(s), {} unreferenced",
                    report.live,
                    report.unreferenced.len()
                );
                for digest in &report.unreferenced {
                    println!(
                        "  {} {}",
                        if report.deleted {
                            "pruned"
                        } else {
                            "would prune"
                        },
                        digest.hex()
                    );
                }
                if !report.deleted && !report.unreferenced.is_empty() {
                    println!("(dry run; pass --apply to prune)");
                }
            }
            _ => return Err("store needs a subcommand: store gc [--apply]".into()),
        },
        "obs" => match args.get(1).map(String::as_str) {
            Some("export") => {
                let rest = &args[2..];
                if !rest.iter().any(|a| a == "--chrome") {
                    return Err("obs export needs --chrome <trace.json> [-o <out.json>]".into());
                }
                let out = match rest.iter().position(|a| a == "-o") {
                    Some(at) => Some(rest.get(at + 1).ok_or("-o needs a path")?.clone()),
                    None => None,
                };
                // The input is the first operand that is neither a flag
                // nor the -o value.
                let input = rest
                    .iter()
                    .enumerate()
                    .find(|(i, a)| {
                        a.as_str() != "--chrome"
                            && a.as_str() != "-o"
                            && rest.get(i.wrapping_sub(1)).map(String::as_str) != Some("-o")
                    })
                    .map(|(_, a)| a)
                    .ok_or("obs export needs --chrome <trace.json>")?;
                let text = fs::read_to_string(input)
                    .map_err(|e| Failure::outcome(format!("cannot read {input}: {e}")))?;
                let doc = ion_obs::json::parse(&text).map_err(|e| format!("{input}: {e}"))?;
                let spans = ion_obs::trace::parse_spans(&doc).ok_or_else(|| {
                    format!("{input}: no \"spans\" array (expected an ion-trace/1 document)")
                })?;
                let chrome = ion_obs::trace::chrome_trace(&spans);
                match out {
                    Some(path) => {
                        fs::write(&path, &chrome)
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                        println!("wrote {path} ({} spans)", spans.len());
                    }
                    None => emit(&chrome),
                }
            }
            _ => {
                return Err(
                    "obs needs a subcommand: obs export --chrome <trace.json> [-o <out.json>]"
                        .into(),
                )
            }
        },
        "drishti" => {
            let path = args.get(1).ok_or("drishti needs <log.darshan>")?;
            emit(&drishti::analyze(&load(path)?).render_text());
        }
        "compare" => {
            let (base, opt) = match (args.get(1), args.get(2)) {
                (Some(b), Some(o)) => (b, o),
                _ => return Err("compare needs <baseline.darshan> <optimized.darshan>".into()),
            };
            let pipeline = IonPipeline::new();
            let before = pipeline.run(&load(base)?);
            let after = pipeline.run(&load(opt)?);
            emit(&ion::compare::compare(&before, &after).render_text());
        }
        "iql" => {
            let positional: Vec<&String> = args[1..].iter().filter(|a| *a != "--explain").collect();
            let explain_flag = args[1..].iter().any(|a| a == "--explain");
            let (path, src_path) = match (positional.first(), positional.get(1)) {
                (Some(p), Some(s)) => (*p, *s),
                _ => return Err("iql needs <log.darshan> <file.iql> [--explain]".into()),
            };
            let src = fs::read_to_string(src_path)
                .map_err(|e| Failure::outcome(format!("cannot read {src_path}: {e}")))?;
            let tables = extractor::extract_tables(&load(path)?);
            let program =
                ion_llm::iql::parse_program(&src).map_err(|e| Failure::outcome(e.to_string()))?;
            let interp = ion_llm::iql::Interpreter::new(&tables);
            if explain_flag || program.explain {
                emit(&interp.explain(&program));
            } else {
                let out = interp
                    .run(&program)
                    .map_err(|e| Failure::outcome(e.to_string()))?;
                for (name, value) in &out.emitted {
                    println!("{name} = {value}");
                }
                if let Some(t) = &out.table {
                    if out.emitted.is_empty() {
                        emit(&extractor::csv::to_csv(t));
                    }
                }
                eprintln!("({} rows scanned)", out.rows_scanned);
            }
        }
        "qa" => {
            let path = args.get(1).ok_or("qa needs <log.darshan> [questions...]")?;
            let bytes = read(path)?;
            let report = analyze_bytes(&bytes, flags).map_err(|e| e.about(path))?;
            emit(&format!("{}\n", report.summary));
            let mut session = report.session();
            for q in &args[2..] {
                emit(&format!("\nQ: {q}\n"));
                emit(&format!("A: {}\n", session.ask(q)));
            }
        }
        other => return Err(format!("unknown command {other}").into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            if e.show_usage {
                usage()
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
