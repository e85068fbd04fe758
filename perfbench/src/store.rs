//! Store cycles: a fresh on-disk store taken through a cold pass, warm
//! passes and a rebuild after a whitespace-only context edit, with every
//! report checked against the in-process pipeline.

use crate::layers::TimingModel;
use crate::stats::{dir_bytes, mean, median, ms, timed, Outcome};
use ion::context::builtin_contexts;
use ion::pipeline::IonPipeline;
use ion::IssueContext;
use ion_store::{Store, StoredPipeline};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// In-memory cache of every benchmark store. The fleet's store on disk
/// is about twice this, so warm passes read through the cache to disk;
/// the daemon's cache fills early in a run, so its memory plateaus.
pub const CACHE_BYTES: usize = 8 << 20;
/// All-green passes between a cycle's cold pass and its rebuild.
pub const WARM_PASSES: usize = 6;

/// The in-process reports the store must reproduce.
pub fn references(traces: &[&[u8]]) -> Vec<String> {
    let pipeline = IonPipeline::new();
    traces
        .iter()
        .map(|b| pipeline.run_bytes(b).expect("decodes").render_text())
        .collect()
}

/// The builtin contexts re-indented by two spaces and ended with
/// `edit + 1` blank lines: each edit is new to the process, and no
/// knowledge statement changes.
pub fn edited_contexts(edit: usize) -> Vec<IssueContext> {
    let indent = "  ";
    let mut contexts = builtin_contexts();
    for context in &mut contexts {
        context.text = context
            .text
            .lines()
            .map(|l| {
                if l.is_empty() {
                    String::new()
                } else {
                    format!("{indent}{l}")
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + &"\n".repeat(edit + 1);
    }
    contexts
}

/// A reference report re-stamped with the edited contexts' revisions:
/// what a backdated rebuild must serve.
pub fn rebuild_reference(text: &str, edited: &[IssueContext]) -> String {
    let mut text = text.to_owned();
    for (old, new) in builtin_contexts().iter().zip(edited) {
        let stamp = |c: &IssueContext| format!("(context revision {})", &c.revision().hex()[..12]);
        text = text.replace(&stamp(old), &stamp(new));
    }
    text
}

/// Per-trace latencies of one cycle, by phase.
#[derive(Debug, Default)]
pub struct Cycle {
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
    /// Store open through the end of the rebuild pass.
    pub wall_ms: f64,
}

impl Cycle {
    /// Mean per-report latency of each pass over the fleet, in order.
    pub fn pass_means(&self) -> Vec<f64> {
        let n = self.cold_ms.len().max(1);
        self.cold_ms
            .chunks(n)
            .chain(self.warm_ms.chunks(n))
            .chain(self.rebuild_ms.chunks(n))
            .map(mean)
            .collect()
    }

    pub fn reports(&self) -> usize {
        self.cold_ms.len() + self.warm_ms.len() + self.rebuild_ms.len()
    }
}

fn driver<'m>(
    store: &Arc<Store>,
    model: Option<&'m TimingModel>,
    contexts: Option<Vec<IssueContext>>,
) -> StoredPipeline<'m> {
    let mut driver = StoredPipeline::new(Arc::clone(store));
    if let Some(contexts) = contexts {
        driver = driver.with_pipeline(IonPipeline::new().with_contexts(contexts));
    }
    match model {
        Some(model) => driver.with_model(model),
        None => driver,
    }
}

fn pass(
    driver: &StoredPipeline<'_>,
    traces: &[&[u8]],
    expected: &[String],
    phase: &str,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(traces.len());
    for (bytes, want) in traces.iter().zip(expected) {
        out.attempted += 1;
        let (report, took) = timed(|| driver.analyze_bytes(bytes).map(|r| r.render_text()));
        latencies.push(took);
        out.check_op(report.as_ref() == Ok(want), || {
            format!("{phase} store pass disagrees with the in-process pipeline")
        });
    }
    latencies
}

/// One cycle on a fresh store at `dir`, which is left on disk for the
/// caller. `edit` picks the rebuild's whitespace edit and must be new
/// to the process.
pub fn cycle(
    dir: &Path,
    traces: &[&[u8]],
    refs: &[String],
    edit: usize,
    model: Option<&TimingModel>,
    out: &mut Outcome,
) -> (Cycle, Arc<Store>) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let store = Arc::new(Store::open_with_capacity(dir, CACHE_BYTES).expect("open store"));
    let mut cycle = Cycle::default();
    let plain = driver(&store, model, None);
    cycle.cold_ms = pass(&plain, traces, refs, "cold", out);
    for _ in 0..WARM_PASSES {
        cycle
            .warm_ms
            .extend(pass(&plain, traces, refs, "warm", out));
    }
    let contexts = edited_contexts(edit);
    let rebuilt: Vec<String> = refs
        .iter()
        .map(|r| rebuild_reference(r, &contexts))
        .collect();
    let edited = driver(&store, model, Some(contexts));
    cycle.rebuild_ms = pass(&edited, traces, &rebuilt, "rebuild", out);
    cycle.wall_ms = ms(start.elapsed());
    (cycle, store)
}

fn store_counters() -> [u64; 6] {
    let snap = ion_obs::snapshot();
    [
        "store.revalidate.green",
        "store.revalidate.backdated",
        "store.revalidate.red",
        "store.manifest_save",
        "store.hit",
        "store.miss",
    ]
    .map(|name| snap.counter(name))
}

/// The `store` layer metrics for `traces`: one cycle with the metrics
/// sink on (phase costs and the store's own revalidation and hit
/// counters), then `get`/`put` costs on the keys it bound.
pub fn profile(dir: &Path, traces: &[&[u8]], refs: &[String], edit: usize, out: &mut Outcome) {
    let trace_bytes: usize = traces.iter().map(|b| b.len()).sum();
    let was_enabled = ion_obs::enabled();
    ion_obs::enable();
    let before = store_counters();
    let mut scratch = Outcome::default();
    let (cycle, store) = cycle(dir, traces, refs, edit, None, &mut scratch);
    let after = store_counters();
    if !was_enabled {
        ion_obs::disable();
        ion_obs::reset();
    }
    let [green, backdated, red, saves, hits, misses] =
        std::array::from_fn(|i| (after[i] - before[i]) as f64);
    out.failed += scratch.failed;
    out.mismatches.extend(scratch.mismatches);

    let bytes_on_disk = dir_bytes(dir);
    let keys: Vec<String> = store.bindings().into_iter().map(|(k, _)| k).collect();
    let get_us = |store: &Store| {
        let samples: Vec<f64> = keys
            .iter()
            .map(|k| timed(|| store.get(k).expect("readable store")).1 * 1e3)
            .collect();
        median(&samples)
    };
    get_us(&store);
    let get_hit_us = get_us(&store);
    let reopened = Store::open_with_capacity(dir, CACHE_BYTES).expect("reopen store");
    let get_disk_us = get_us(&reopened);
    drop(reopened);
    let put_us: Vec<f64> = keys
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, k)| {
            let bytes = store.get(k).expect("readable").expect("bound");
            timed(|| store.put(&format!("bench/put/{i}"), &bytes).expect("put")).1 * 1e3
        })
        .collect();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);

    let n = traces.len() as f64;
    out.metric(
        "store.cold_trace_ms",
        cycle.cold_ms.iter().sum::<f64>() / n,
        "ms",
    );
    out.metric("store.warm_trace_ms", mean(&cycle.warm_ms), "ms");
    out.metric(
        "store.rebuild_trace_ms",
        cycle.rebuild_ms.iter().sum::<f64>() / n,
        "ms",
    );
    out.metric("store.get_hit_us", get_hit_us, "us");
    out.metric("store.get_disk_us", get_disk_us, "us");
    out.metric("store.put_us", median(&put_us), "us");
    out.metric("store.revalidate.green", green, "count");
    out.metric("store.revalidate.backdated", backdated, "count");
    out.metric("store.revalidate.red", red, "count");
    out.metric("store.manifest_saves", saves, "count");
    out.metric("store.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    out.metric("store.bytes_on_disk", bytes_on_disk as f64, "bytes");
    out.metric(
        "store.bytes_per_trace_byte",
        bytes_on_disk as f64 / trace_bytes as f64,
        "ratio",
    );
}
