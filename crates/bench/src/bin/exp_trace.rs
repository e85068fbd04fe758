//! Experiment: request-scoped tracing overhead on the analysis pipeline.
//!
//! ```sh
//! cargo run --release -p ion-bench --bin exp_trace
//! cargo run --release -p ion-bench --bin exp_trace -- --quick
//! ```
//!
//! Runs the full decode → extract → detect pipeline over the same
//! synthetic trace twice: once with the `ion-obs` sink disabled (the
//! zero-cost path every library caller gets by default) and once with the
//! sink enabled and a request trace installed, the way `ion-serve`
//! executes every job. The legs run in interleaved pairs, alternating
//! which mode goes first, and each leg repeats the pipeline a fixed
//! number of times. The overhead is the median of the per-pair
//! differences (traced − disabled) over the median disabled leg: noise
//! on a shared box hits both legs of a pair alike and cancels in the
//! difference, and the median ignores the pairs a burst hit anyway. The
//! gate: tracing may cost at most 5% over the disabled baseline. Every
//! traced run must also produce a non-empty span tree whose spans all
//! carry the installed trace id, so the harness cannot "pass" by
//! accidentally measuring an uninstrumented run.
//!
//! `--quick` shrinks the pair count for CI smoke.

use darshan::log::LogWriter;
use ion::pipeline::IonPipeline;
use iosim::{SimConfig, Simulation};
use std::time::Instant;

/// A mid-size trace: enough ranks and operations that the pipeline does
/// real work per iteration, small enough that N iterations stay quick.
fn trace_bytes() -> Vec<u8> {
    let mut sim = Simulation::new(SimConfig::default().with_ranks(4).with_exe("exp-trace"));
    let f = sim.posix_open_all("/scratch/overhead.dat").unwrap();
    for i in 0..512u64 {
        for rank in 0..4u32 {
            let base = u64::from(rank) * (8 << 20);
            sim.posix_write(rank, f, base + i * 512, 512).unwrap();
        }
    }
    sim.posix_close_all(f);
    LogWriter::from_log(sim.finish()).finish().unwrap()
}

fn median(samples: &[i64]) -> i64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (warmup, pairs, max_overhead_pct) = if quick { (3, 101, 5.0) } else { (3, 301, 5.0) };
    // Pipeline runs per leg: a leg of a few milliseconds is long against
    // timer and scheduler jitter, short against drift on the box.
    let runs_per_leg = 4;

    let bytes = trace_bytes();
    let pipeline = IonPipeline::new();
    println!(
        "═══ tracing overhead: {pairs} interleaved pairs of {runs_per_leg}-run legs over a {}-byte trace ═══\n",
        bytes.len()
    );

    // Warm caches and pin the expected analysis result with the sink off.
    ion_obs::disable();
    let mut baseline_detected = 0usize;
    for _ in 0..warmup {
        baseline_detected = pipeline
            .run_bytes(&bytes)
            .expect("pipeline run")
            .detected()
            .len();
    }
    ion_obs::enable();
    for _ in 0..warmup {
        let ctx = ion_obs::mint_trace();
        let _scope = ion_obs::install_trace(ctx);
        pipeline.run_bytes(&bytes).expect("pipeline run");
        let _ = ion_obs::take_trace(ctx.trace);
    }

    let mut spans_per_run = 0usize;
    let mut misattributed = 0usize;
    // Disabled leg: the zero-cost path every library caller gets by
    // default when nobody is watching.
    let disabled_leg = || {
        ion_obs::disable();
        let t0 = Instant::now();
        for _ in 0..runs_per_leg {
            let report = pipeline.run_bytes(&bytes).expect("pipeline run");
            assert_eq!(report.detected().len(), baseline_detected);
        }
        t0.elapsed().as_nanos() as i64
    };
    let mut disabled_ns = Vec::with_capacity(pairs);
    let mut traced_ns = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        // Traced leg: sink enabled with a request trace installed —
        // exactly how an ion-serve worker executes a job.
        let mut traced_leg = || {
            ion_obs::enable();
            let mut elapsed = 0i64;
            for _ in 0..runs_per_leg {
                let ctx = ion_obs::mint_trace();
                let t0 = Instant::now();
                let report = {
                    let _scope = ion_obs::install_trace(ctx);
                    pipeline.run_bytes(&bytes).expect("pipeline run")
                };
                elapsed += t0.elapsed().as_nanos() as i64;
                let spans = ion_obs::take_trace(ctx.trace);
                spans_per_run = spans.len();
                misattributed += spans.iter().filter(|s| s.trace != ctx.trace).count();
                assert_eq!(
                    report.detected().len(),
                    baseline_detected,
                    "tracing must not change analysis results"
                );
            }
            elapsed
        };
        if pair % 2 == 0 {
            disabled_ns.push(disabled_leg());
            traced_ns.push(traced_leg());
        } else {
            traced_ns.push(traced_leg());
            disabled_ns.push(disabled_leg());
        }
    }
    ion_obs::disable();

    let diffs: Vec<i64> = traced_ns
        .iter()
        .zip(&disabled_ns)
        .map(|(t, d)| t - d)
        .collect();
    let base = median(&disabled_ns);
    #[allow(clippy::cast_precision_loss)]
    let overhead_pct = median(&diffs) as f64 / base as f64 * 100.0;

    #[allow(clippy::cast_precision_loss)]
    {
        let ms = |ns: i64| ns as f64 / 1e6 / f64::from(runs_per_leg);
        println!("{:<10} {:>14}", "mode", "median (ms/run)");
        println!("{:<10} {:>14.3}", "disabled", ms(base));
        println!("{:<10} {:>14.3}", "traced", ms(median(&traced_ns)));
        println!("{:<10} {:>14.3}", "difference", ms(median(&diffs)));
    }
    println!(
        "\ntracing overhead {overhead_pct:+.2}% (median of {pairs} paired differences), {spans_per_run} span(s) per run"
    );

    // Acceptance gates.
    let mut gate_ok = true;
    let mut fail = |msg: String| {
        gate_ok = false;
        eprintln!("FAIL: {msg}");
    };
    if spans_per_run == 0 {
        fail("traced runs produced no spans — the harness measured nothing".into());
    }
    if misattributed != 0 {
        fail(format!(
            "{misattributed} span(s) carried a foreign trace id"
        ));
    }
    if overhead_pct > max_overhead_pct {
        fail(format!(
            "tracing overhead {overhead_pct:.2}% exceeds the {max_overhead_pct:.0}% ceiling"
        ));
    }
    if !gate_ok {
        std::process::exit(1);
    }
}
