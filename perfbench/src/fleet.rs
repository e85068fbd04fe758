//! `fleet_store`: one client taking a seed-varied fleet through
//! `ion_store::StoredPipeline::analyze_bytes` on fresh on-disk stores,
//! cycle after cycle: cold pass, warm passes, rebuild after a
//! whitespace-only context edit.

use crate::gen;
use crate::layers::{Profile, TimingModel};
use crate::stats::{dir_bytes, median, peak_rss_mb, repeated_setup, timed, Outcome};
use crate::store::{self, Cycle, CACHE_BYTES, WARM_PASSES};
use crate::Args;
use ion::pipeline::IonPipeline;
use ion_store::{Store, StoredPipeline};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles until `deadline`, each on a fresh store under `dir`. With a
/// `model`, each untraced cycle is followed by one analyzing through it,
/// so the two legs interleave. Stores are removed only after the window,
/// so no deletion runs beside a measured cycle. Returns the untraced and
/// traced cycles and the first store's size.
fn cycles(
    dir: &Path,
    traces: &[&[u8]],
    refs: &[String],
    model: Option<&TimingModel>,
    deadline: Instant,
    out: &mut Outcome,
) -> (Vec<Cycle>, Vec<Cycle>, u64) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut bytes_on_disk = 0;
    let mut edit = 0;
    while Instant::now() < deadline {
        for leg in [None, model] {
            let path = dir.join(format!("cycle-{edit}"));
            let (cycle, store) = store::cycle(&path, traces, refs, edit, leg, out);
            drop(store);
            if edit == 0 {
                bytes_on_disk = dir_bytes(&path);
            }
            edit += 1;
            if leg.is_some() {
                traced.push(cycle);
            } else {
                untraced.push(cycle);
            }
            if model.is_none() {
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    (untraced, traced, bytes_on_disk)
}

fn rate(cycles: &[Cycle], phase: fn(&Cycle) -> &Vec<f64>) -> f64 {
    let n: usize = cycles.iter().map(|c| phase(c).len()).sum();
    let ms: f64 = cycles.iter().flat_map(|c| phase(c).iter()).sum();
    n as f64 / (ms / 1e3)
}

pub fn run(args: &Args, dir: &Path, out: &mut Outcome) {
    let mut generate = Vec::new();
    let (traces, setup_s) = repeated_setup(args.setups(), || {
        let (traces, gen_ms) = timed(|| gen::fleet(args.seed));
        generate.push(gen_ms / 1e3);
        // Warm-up: one trace of each kind, cold then warm, on a
        // throwaway store.
        let warm_dir = dir.join("warm-up");
        let _ = std::fs::remove_dir_all(&warm_dir);
        let store = Arc::new(Store::open_with_capacity(&warm_dir, CACHE_BYTES).expect("open"));
        let driver = StoredPipeline::new(store);
        for trace in &traces[..8] {
            for _ in 0..2 {
                driver
                    .analyze_bytes(&trace.bytes)
                    .expect("warm-up analysis");
            }
        }
        drop(driver);
        let _ = std::fs::remove_dir_all(&warm_dir);
        traces
    });
    let pipeline = IonPipeline::new();
    let mut refs = Vec::with_capacity(traces.len());
    for trace in &traces {
        let report = pipeline.run_bytes(&trace.bytes).expect("decodes");
        if let Some(truth) = &trace.truth {
            if ion_repro::accuracy(&ion_repro::score_report(&report, truth)) < 1.0 {
                out.mismatch(format!("{} misses its ground truth", trace.name));
            }
        }
        refs.push(report.render_text());
    }
    let bytes: Vec<&[u8]> = traces.iter().map(|t| t.bytes.as_slice()).collect();
    let distinct: std::collections::HashSet<&[u8]> = bytes.iter().copied().collect();
    if distinct.len() != bytes.len() {
        out.mismatch(format!(
            "fleet has {} distinct traces of {}",
            distinct.len(),
            bytes.len()
        ));
    }
    let fleet_bytes: usize = bytes.iter().map(|b| b.len()).sum();
    out.stamp("traces", traces.len());
    out.stamp("fleet_bytes", fleet_bytes);
    out.stamp("store_cache_bytes", CACHE_BYTES);
    out.stamp("warm_passes", WARM_PASSES);
    out.stamp(
        "scales",
        format!(
            "ior-easy+md {} ior-hard {} ior-rnd4k {} e2e+openpmd-opt {}",
            gen::FLEET_FIG2_SCALE,
            gen::FLEET_HARD_SCALE,
            gen::FLEET_RND_SCALE,
            gen::FLEET_APP_SCALE
        ),
    );

    let model = TimingModel::default();
    let traced_model = args.trace.then_some(&model);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (untraced, traced, bytes_on_disk) = cycles(
        &dir.join("cycles"),
        &bytes,
        &refs,
        traced_model,
        deadline,
        out,
    );
    out.stamp("store_bytes_on_disk", bytes_on_disk);
    out.stamp("cycles", untraced.len());
    let pass_means: Vec<f64> = untraced.iter().flat_map(Cycle::pass_means).collect();
    if !args.trace {
        let per_cycle = |f: &dyn Fn(&Cycle) -> f64| {
            median(
                &untraced
                    .iter()
                    .map(|c| f(c) / (c.wall_ms / 1e3))
                    .collect::<Vec<_>>(),
            )
        };
        let pass_mb = fleet_bytes as f64 / 1e6;
        out.metric("setup_s", setup_s, "s");
        out.view("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("report_p50_ms", median(&pass_means), "ms");
        out.metric("traces_per_s", per_cycle(&|c| c.reports() as f64), "1/s");
        out.metric(
            "mb_per_s",
            per_cycle(&|c| (c.reports() / traces.len()) as f64 * pass_mb),
            "MB/s",
        );
        out.view("cold_traces_per_s", rate(&untraced, |c| &c.cold_ms), "1/s");
        out.view("warm_traces_per_s", rate(&untraced, |c| &c.warm_ms), "1/s");
        out.view(
            "rebuild_traces_per_s",
            rate(&untraced, |c| &c.rebuild_ms),
            "1/s",
        );
        out.view(
            "store_bytes_per_trace_byte",
            bytes_on_disk as f64 / fleet_bytes as f64,
            "ratio",
        );
        return;
    }

    out.metric("process.peak_rss_mb", peak_rss_mb(), "MB");
    let traced: Vec<f64> = traced.iter().flat_map(Cycle::pass_means).collect();
    out.metric(
        "obs.trace_overhead_pct",
        100.0 * (median(&traced) / median(&pass_means) - 1.0),
        "%",
    );
    Profile::of(&bytes, &model, out).emit(out);
    store::profile(&dir.join("store"), &bytes, &refs, 500, out);
    crate::serve::profile(dir.join("serve"), &bytes, args.seed, out);
    out.metric("workloads.generate_s", median(&generate), "s");
    out.metric("workloads.trace_mb", fleet_bytes as f64 / 1e6, "MB");
}
