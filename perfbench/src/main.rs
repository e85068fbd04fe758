//! Time-to-diagnosis benchmark for the ION reproduction.
//!
//! ```sh
//! perfbench --workload <openpmd_dxt|fleet_store|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics
//! with nothing but the client's own clock; with `--trace 1` it measures
//! half the window untraced, half with every crate's public calls timed
//! from the outside, and reports the per-layer metrics. Every report is
//! checked; the last stdout line is the JSON result. See README.md.

mod dxt;
mod fleet;
mod gen;
mod layers;
mod serve;
mod stats;
mod store;

use stats::Outcome;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 4] = ["setup_s", "report_p50_ms", "traces_per_s", "mb_per_s"];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: [&str; 53] = [
    "darshan.decode_ms",
    "darshan.decode_mb_per_s",
    "darshan.records",
    "extractor.extract_ms",
    "extractor.rows",
    "extractor.dxt_rows",
    "extractor.rows_per_s",
    "extractor.teardown_ms",
    "llm.model_step_ms",
    "llm.steps",
    "llm.tool_calls",
    "iql.parse_ms",
    "iql.plan_ms",
    "iql.exec_ms",
    "iql.exec_max_ms",
    "ion.issue_ms_sum",
    "ion.issue_max_ms",
    "ion.issue_other_ms",
    "ion.summarize_ms",
    "ion.issues_applicable",
    "exec.analyze_ms",
    "exec.parallel_eff",
    "pipeline.run_bytes_ms",
    "pipeline.unattributed_frac",
    "store.cold_trace_ms",
    "store.warm_trace_ms",
    "store.rebuild_trace_ms",
    "store.get_hit_us",
    "store.get_disk_us",
    "store.put_us",
    "store.revalidate.green",
    "store.revalidate.backdated",
    "store.revalidate.red",
    "store.manifest_saves",
    "store.hit_ratio",
    "store.bytes_on_disk",
    "store.bytes_per_trace_byte",
    "serve.submit_ms",
    "serve.submit_p90_ms",
    "serve.queued_ms",
    "serve.run_ms",
    "serve.overhead_ms",
    "serve.job_p90_ms",
    "serve.report_ms",
    "serve.qa_ms",
    "serve.dedup_joins",
    "serve.rejected",
    "obs.trace_overhead_pct",
    "obs.error_rate",
    "workloads.generate_s",
    "workloads.trace_mb",
    "workloads.seed_size_ratio",
    "process.peak_rss_mb",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Set-ups to run: `setup_s` is only reported untraced, so a traced
    /// run sets up once.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            stats::SETUPS
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?.clone(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds")?,
        trace: number("--trace")? != 0.0,
    })
}

/// Seed handling: a neighbouring seed must give different trace bytes
/// of nearly the same size. Returns the size ratio of the two.
fn check_seed(args: &Args, out: &mut Outcome) -> f64 {
    let traces = |seed: u64| -> Vec<Vec<u8>> {
        match args.workload.as_str() {
            "openpmd_dxt" => vec![gen::openpmd_dxt(seed).bytes],
            "fleet_store" => gen::fleet(seed).into_iter().map(|t| t.bytes).collect(),
            _ => (0..64).map(|n| gen::small(seed, 0, n)).collect(),
        }
    };
    let (a, b) = (traces(args.seed), traces(args.seed + 1));
    let size = |t: &[Vec<u8>]| t.iter().map(Vec::len).sum::<usize>() as f64;
    let ratio = size(&b) / size(&a);
    println!(
        "seed check: seeds {} and {} give {} and {} trace bytes (ratio {ratio:.4})",
        args.seed,
        args.seed + 1,
        size(&a),
        size(&b)
    );
    if a == b {
        out.mismatch("two seeds gave identical trace bytes".into());
    }
    if !(0.98..=1.02).contains(&ratio) {
        out.mismatch(format!("seed size ratio {ratio} outside the 2% band"));
    }
    ratio
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args, &std::path::Path, &mut Outcome) = match args.workload.as_str() {
        "openpmd_dxt" => dxt::run,
        "fleet_store" => fleet::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");

    let mut out = Outcome::default();
    run(&args, &dir, &mut out);
    if args.trace {
        let ratio = check_seed(&args, &mut out);
        out.metric("workloads.seed_size_ratio", ratio, "ratio");
        out.metric(
            "obs.error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
    } else {
        check_seed(&args, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if names != want {
        out.mismatch(format!("metric set {names:?} differs from {want:?}"));
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        out.mismatch(format!("metric {} is not a number", m.name));
    }

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let mut stamp = vec![
        ("workload".to_owned(), args.workload.clone()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        ("git_sha".to_owned(), env("PERFBENCH_GIT_SHA")),
        ("source_digest".to_owned(), env("PERFBENCH_SOURCE_DIGEST")),
        ("rustc".to_owned(), env("PERFBENCH_RUSTC")),
        (
            "nproc".to_owned(),
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("exec_width".to_owned(), ion_exec::width().to_string()),
        (
            "profile".to_owned(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
    ];
    stamp.append(&mut out.stamp);
    let stamp: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}:{}", ion_obs::json::escape(k), ion_obs::json::escape(v)))
        .collect();
    println!("stamp {{{}}}", stamp.join(","));
    for m in &out.view {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>14.4} ratio ({} failed of {} attempted)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for why in &out.mismatches {
        println!("CHECK FAILED: {why}");
    }

    let correct = out.mismatches.is_empty() && out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
