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
//! executes every job. The comparison uses min-of-N per mode — the
//! minimum is the least noise-sensitive statistic on a shared box — and
//! enforces the acceptance gate: tracing may cost at most 5% over the
//! disabled baseline. Every traced iteration must also produce a
//! non-empty span tree whose spans all carry the installed trace id, so
//! the harness cannot "pass" by accidentally measuring an uninstrumented
//! run.
//!
//! `--quick` shrinks the iteration count for CI smoke.

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

fn min_ns(samples: &[u64]) -> u64 {
    samples.iter().copied().min().unwrap_or(u64::MAX)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Quick mode trims the iteration count for CI but not below what a
    // stable min-of-N needs: 7 iterations left the gate at the mercy of
    // scheduler noise (observed spread −1%..+5% on an idle box).
    let (warmup, iters, max_overhead_pct) = if quick { (3, 15, 5.0) } else { (3, 21, 5.0) };

    let bytes = trace_bytes();
    let pipeline = IonPipeline::new();
    println!(
        "═══ tracing overhead: {iters} iterations per mode over a {}-byte trace ═══\n",
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

    // Measure the two modes interleaved — disabled then traced inside
    // every iteration — so slow drift on a shared box (thermal, noisy
    // neighbors) hits both modes alike instead of biasing one phase.
    let mut disabled_ns = Vec::with_capacity(iters);
    let mut traced_ns = Vec::with_capacity(iters);
    let mut spans_per_run = 0usize;
    let mut misattributed = 0usize;
    for _ in 0..iters {
        // Disabled leg: the zero-cost path every library caller gets by
        // default when nobody is watching.
        ion_obs::disable();
        let t0 = Instant::now();
        let report = pipeline.run_bytes(&bytes).expect("pipeline run");
        disabled_ns.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(report.detected().len(), baseline_detected);

        // Traced leg: sink enabled with a request trace installed —
        // exactly how an ion-serve worker executes a job.
        ion_obs::enable();
        let ctx = ion_obs::mint_trace();
        let t0 = Instant::now();
        let report = {
            let _scope = ion_obs::install_trace(ctx);
            pipeline.run_bytes(&bytes).expect("pipeline run")
        };
        traced_ns.push(t0.elapsed().as_nanos() as u64);
        let spans = ion_obs::take_trace(ctx.trace);
        spans_per_run = spans.len();
        misattributed += spans.iter().filter(|s| s.trace != ctx.trace).count();
        assert_eq!(
            report.detected().len(),
            baseline_detected,
            "tracing must not change analysis results"
        );
    }

    let base = min_ns(&disabled_ns);
    let traced = min_ns(&traced_ns);
    #[allow(clippy::cast_precision_loss)]
    let overhead_pct = (traced as f64 - base as f64) / base as f64 * 100.0;

    #[allow(clippy::cast_precision_loss)]
    {
        println!("{:<10} {:>12} {:>12}", "mode", "min (ms)", "median (ms)");
        for (name, samples) in [("disabled", &mut disabled_ns), ("traced", &mut traced_ns)] {
            samples.sort_unstable();
            println!(
                "{:<10} {:>12.3} {:>12.3}",
                name,
                samples[0] as f64 / 1e6,
                samples[samples.len() / 2] as f64 / 1e6
            );
        }
    }
    println!(
        "\ntracing overhead {overhead_pct:+.2}% (min-of-{iters}), {spans_per_run} span(s) per run"
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
