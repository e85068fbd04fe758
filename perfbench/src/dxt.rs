//! `openpmd_dxt`: one client analyzing the OpenPMD-baseline trace in
//! process through `IonPipeline::run_bytes`, over and over.

use crate::gen;
use crate::layers::{composed, issue_profile, Ledger, Profile, TimingModel};
use crate::stats::{median, ms, peak_rss_mb, repeated_setup, timed, Outcome};
use crate::Args;
use ion::pipeline::IonPipeline;
use std::path::Path;
use std::time::{Duration, Instant};

pub fn run(args: &Args, dir: &Path, out: &mut Outcome) {
    let mut generate = Vec::new();
    let ((trace, pipeline, reference), setup_s) = repeated_setup(args.setups(), || {
        let (trace, gen_ms) = timed(|| gen::openpmd_dxt(args.seed));
        generate.push(gen_ms / 1e3);
        let pipeline = IonPipeline::new();
        let warm = pipeline
            .run_bytes(&trace.bytes)
            .expect("generated traces decode");
        (trace, pipeline, warm)
    });
    if let Some(truth) = &trace.truth {
        let scores = ion_repro::score_report(&reference, truth);
        if ion_repro::accuracy(&scores) < 1.0 {
            out.mismatch(format!("{} misses its ground truth", trace.name));
        }
    }
    let reference = reference.render_text();
    let bytes = trace.bytes.as_slice();
    out.stamp("scale", gen::OPENPMD_SCALE);
    out.stamp("trace", &trace.name);
    out.stamp("trace_bytes", bytes.len());

    // Untraced: trace bytes in, report text out. The traced run
    // alternates these with the composed, individually timed layers.
    let model = TimingModel::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut report_ms, mut run_ms, mut ledgers) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while Instant::now() < deadline {
        out.attempted += 1;
        let begin = Instant::now();
        let report = pipeline.run_bytes(bytes).expect("decodes");
        run_ms.push(ms(begin.elapsed()));
        let text = report.render_text();
        report_ms.push(ms(begin.elapsed()));
        out.check_op(text == reference, || {
            "run_bytes report changed between runs".into()
        });
        if args.trace {
            let (ledger, text) = composed(bytes, &model);
            out.check_op(text == reference, || {
                "composed layer calls disagree with IonPipeline::run_bytes".into()
            });
            ledgers.push(ledger);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    out.stamp("reports", report_ms.len());
    if !args.trace {
        let reports = report_ms.len() as f64;
        out.metric("setup_s", setup_s, "s");
        out.view("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("report_p50_ms", median(&report_ms), "ms");
        out.metric("traces_per_s", reports / wall_s, "1/s");
        out.metric(
            "mb_per_s",
            reports * bytes.len() as f64 / 1e6 / wall_s,
            "MB/s",
        );
        return;
    }

    out.metric("process.peak_rss_mb", peak_rss_mb(), "MB");
    let ledger = Ledger::median_of(&ledgers);
    out.metric(
        "obs.trace_overhead_pct",
        100.0 * (ledger.composed_ms / median(&run_ms) - 1.0),
        "%",
    );
    Profile {
        ledgers: vec![ledger],
        run_bytes_ms: vec![median(&run_ms)],
        issues: vec![issue_profile(bytes, &model, out)],
    }
    .emit(out);
    crate::store::profile(&dir.join("store"), &[bytes], &[reference], 200, out);
    crate::serve::profile(dir.join("serve"), &[bytes], args.seed, out);
    out.metric("workloads.generate_s", median(&generate), "s");
    out.metric("workloads.trace_mb", bytes.len() as f64 / 1e6, "MB");
}
