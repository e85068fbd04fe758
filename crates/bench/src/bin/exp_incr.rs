//! Experiment: incremental-rebuild latency of fine-grained red-green
//! revalidation.
//!
//! ```sh
//! cargo run --release -p ion-bench --bin exp_incr
//! cargo run --release -p ion-bench --bin exp_incr -- --quick
//! cargo run --release -p ion-bench --bin exp_incr -- --bench-out BENCH_incr.json
//! cargo run --release -p ion-bench --bin exp_incr -- --traces 200
//! ```
//!
//! The operator's steady-state loop: a warm store over a fleet of traces
//! (default 1000), then one *cosmetic* edit to the context library —
//! every line re-indented, not one knowledge statement changed — and a
//! full re-analysis of the fleet. The store walks each memo's
//! consulted-statement dependencies, proves the edit inert, and
//! backdates: zero model runs, zero table decodes.
//!
//! Acceptance gates: the rebuild performs **zero** model runs
//! (counter-proven) and backdates at least one memo, so the edit was
//! actually exercised.
//!
//! `--quick` shrinks the fleet to 50 traces for CI smoke;
//! `--bench-out <path>` writes the `ion-obs/1` snapshot consumed by
//! `ion_cli obs diff`.

use darshan::log::LogWriter;
use ion::context::builtin_contexts;
use ion::pipeline::IonPipeline;
use ion::IssueContext;
use ion_store::{Store, StoredPipeline};
use iosim::{SimConfig, Simulation};
use std::sync::Arc;
use std::time::Instant;

/// One synthetic trace, varied by index so every *table set* differs —
/// the file path, write size and op count all embed `i` directly, never
/// a cycle.
fn trace_bytes(i: usize) -> Vec<u8> {
    let ranks = 2 + (i % 3) as u32;
    let mut sim = Simulation::new(
        SimConfig::default()
            .with_ranks(ranks)
            .with_exe(&format!("incr-bench-{i}")),
    );
    let f = sim
        .posix_open_all(&format!("/scratch/incr-{i}.dat"))
        .unwrap();
    let size = 1024 + 8 * i as u64;
    let ops = 256 + (i as u64 % 16);
    for op in 0..ops {
        for rank in 0..ranks {
            let base = u64::from(rank) * (8 << 20);
            sim.posix_write(rank, f, base + op * size, size).unwrap();
        }
    }
    sim.posix_close_all(f);
    LogWriter::from_log(sim.finish()).finish().unwrap()
}

/// The cosmetic edit: re-indent every line of every context. The
/// whole-text revision of each context changes; no knowledge statement
/// does.
fn reindented_contexts() -> Vec<IssueContext> {
    let mut contexts = builtin_contexts();
    for context in &mut contexts {
        context.text = context
            .text
            .lines()
            .map(|l| {
                if l.is_empty() {
                    String::new()
                } else {
                    format!("  {l}")
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
    }
    contexts
}

/// Analyze the whole fleet under one deferred-saves scope — the batch
/// idiom: per-trace scopes nest inside it, so the manifest is rewritten
/// once per pass instead of once per trace.
fn analyze_all(store: &Store, driver: &StoredPipeline<'_>, traces: &[Vec<u8>]) -> u64 {
    store
        .with_deferred_saves(|| {
            let mut diagnoses = 0u64;
            for bytes in traces {
                diagnoses += driver.analyze_bytes(bytes)?.diagnoses.len() as u64;
            }
            Ok(diagnoses)
        })
        .expect("analysis succeeds")
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            std::process::exit(1);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let bench_out = arg_value(&args, "--bench-out");
    let n_traces: usize = arg_value(&args, "--traces")
        .map(|s| s.parse().expect("--traces takes an integer"))
        .unwrap_or(if quick { 50 } else { 1000 });
    ion_obs::enable();

    println!("═══ incremental rebuild: {n_traces} traces, cosmetic context edit ═══\n");

    let root = std::env::temp_dir().join(format!("ion-exp-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(Store::open(&root).unwrap());

    let traces: Vec<Vec<u8>> = (0..n_traces).map(trace_bytes).collect();

    // Warm the store over the pristine builtin library.
    let t0 = Instant::now();
    let driver = StoredPipeline::new(Arc::clone(&store));
    let diagnoses = analyze_all(&store, &driver, &traces);
    let cold_s = t0.elapsed().as_secs_f64();
    println!("cold      {cold_s:>10.2}s  ({diagnoses} diagnoses)");
    assert!(diagnoses > 0, "the fleet must exercise the context library");

    // The edit, then the timed rebuild.
    let before = ion_obs::snapshot();
    let t0 = Instant::now();
    let driver = StoredPipeline::new(Arc::clone(&store))
        .with_pipeline(IonPipeline::new().with_contexts(reindented_contexts()));
    analyze_all(&store, &driver, &traces);
    let fine_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = ion_obs::snapshot();

    let fine_llm_runs = after.counter("llm.runs") - before.counter("llm.runs");
    let backdated =
        after.counter("store.revalidate.backdated") - before.counter("store.revalidate.backdated");
    println!("rebuild   {fine_ms:>10.1}ms  ({fine_llm_runs} model runs, {backdated} backdated)");

    // The committed snapshot carries the verdict, not the span firehose:
    // two passes over the fleet record hundreds of thousands of spans,
    // so drop them and re-emit the summary metrics the diff gate reads.
    ion_obs::reset();
    ion_obs::gauge("incr.fine_rebuild_ms", fine_ms);
    ion_obs::counter("incr.traces", n_traces as u64);
    ion_obs::counter("incr.backdated", backdated);
    ion_obs::counter("incr.fine_llm_runs", fine_llm_runs);

    if let Some(path) = &bench_out {
        let json = ion_obs::snapshot().to_json();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote incremental-rebuild trajectory to {path}");
    }
    let _ = std::fs::remove_dir_all(&root);

    // Acceptance gates.
    let mut gate_ok = true;
    if fine_llm_runs != 0 {
        gate_ok = false;
        eprintln!(
            "FAIL: fine rebuild ran {fine_llm_runs} models — a cosmetic edit must backdate, not re-run"
        );
    }
    if backdated == 0 {
        gate_ok = false;
        eprintln!("FAIL: fine rebuild backdated nothing — the edit was not exercised");
    }
    if !gate_ok {
        std::process::exit(1);
    }
}
