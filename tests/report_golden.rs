//! Golden reports for the Figure 2 and Figure 3 traces, across every
//! ingest path.
//!
//! Each test generates one trace at the scale the figure tests use and
//! renders its report through every way the system can ingest it: the
//! in-memory pipeline, serialized bytes, streaming extraction at several
//! chunk sizes, the incremental store cold and warm, and the `ion-serve`
//! daemon over HTTP. Every path must match the committed file under
//! `tests/golden/` byte for byte.
//! Refactors of the decoder, the extractor, the IQL engine, the model
//! or the summarizer must leave every report identical; a deliberate
//! report change re-records the affected file.
//!
//! A last leg edits the whitespace of every context and re-analyzes on
//! the warm store: the store must backdate every cached diagnosis (no
//! model runs) and render what a fresh pipeline over the edited
//! contexts renders.

use darshan::log::{Log, LogWriter};
use extractor::{extract_stream, DEFAULT_CHUNK_ROWS};
use ion::context::builtin_contexts;
use ion::pipeline::IonPipeline;
use ion_llm::{DeterministicExpert, LanguageModel, ModelAction, Thread};
use ion_serve::{client, Daemon, ServeConfig};
use ion_store::{Store, StoredPipeline};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workloads::e2e::{E2e, E2eVariant};
use workloads::ior::{
    ior_easy_1mb_fpp, ior_easy_1mb_shared, ior_easy_2kb_shared, ior_hard, ior_rnd4k,
};
use workloads::mdworkbench::MdWorkbench;
use workloads::openpmd::{OpenPmd, OpenPmdVariant};
use workloads::Workload;

/// The deterministic expert with a step counter, so a test can prove a
/// store run made no model calls without the process-wide metrics sink.
/// It reports the expert's model id, so it shares cache entries with
/// the plain expert.
#[derive(Default)]
struct CountingModel {
    inner: DeterministicExpert,
    steps: AtomicU64,
}

impl LanguageModel for CountingModel {
    fn step(&self, thread: &Thread) -> ModelAction {
        self.steps.fetch_add(1, Ordering::SeqCst);
        self.inner.step(thread)
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

fn scratch_dir(name: &str, leg: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ion-golden-{name}-{leg}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same(name: &str, path: &str, report: &str, golden: &str, golden_file: &Path) {
    if report == golden {
        return;
    }
    let line = report
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| report.lines().count().min(golden.lines().count()));
    panic!(
        "{name} via {path}: report differs from {} at line {}\n--- golden\n{}\n+++ report\n{}",
        golden_file.display(),
        line + 1,
        golden.lines().nth(line).unwrap_or("<end of file>"),
        report.lines().nth(line).unwrap_or("<end of report>"),
    );
}

/// Stream-extract `bytes`, then analyze the tables with the parameters
/// derived from the skeleton.
fn streamed(bytes: &[u8], chunk_rows: usize) -> String {
    let extracted = extract_stream(bytes, chunk_rows).expect("stream extraction");
    let pipeline = IonPipeline::new();
    let params = pipeline.params_for(&extracted.skeleton);
    pipeline
        .run_tables(&extracted.tables, &params)
        .render_text()
}

/// Submit `bytes` to an in-process daemon over HTTP and fetch the report.
fn served(bytes: &[u8], root: &Path) -> String {
    let store = Arc::new(Store::open(root).unwrap());
    let config = ServeConfig {
        http_workers: 1,
        workers: 1,
        capture_events: false,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", store, config).unwrap();
    let addr = daemon.local_addr();
    let submitted = client::post(addr, "/v1/jobs", &[], bytes).unwrap();
    assert_eq!(submitted.status, 202, "{}", submitted.text());
    let doc = submitted.json().unwrap();
    let id = doc.get("job").unwrap().as_str().unwrap().to_owned();
    let status = client::get(addr, &format!("/v1/jobs/{id}?wait_ms=120000")).unwrap();
    assert!(
        status.text().contains("\"state\":\"done\""),
        "{}",
        status.text()
    );
    let report = client::get(addr, &format!("/v1/jobs/{id}/report")).unwrap();
    assert_eq!(report.status, 200, "{}", report.text());
    daemon.shutdown();
    report.text()
}

/// Re-analyze on the warm store at `root` with every context's
/// whitespace edited; returns the report and the model steps it took.
fn backdated(log: &Log, bytes: &[u8], root: &Path) -> (String, String, u64) {
    let mut contexts = builtin_contexts();
    for context in &mut contexts {
        let before = context.revision();
        context.text = context.text.replacen("ISSUE:", "  ISSUE:", 1);
        assert_ne!(context.revision(), before, "{} was not edited", context.id);
    }
    let expected = IonPipeline::new()
        .with_contexts(contexts.clone())
        .run(log)
        .render_text();
    let model = CountingModel::default();
    let store = Arc::new(Store::open(root).unwrap());
    let report = StoredPipeline::new(store)
        .with_pipeline(IonPipeline::new().with_contexts(contexts))
        .with_model(&model)
        .analyze_bytes(bytes)
        .unwrap()
        .render_text();
    (report, expected, model.steps.load(Ordering::SeqCst))
}

fn check(name: &str, workload: &dyn Workload) {
    let golden_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&golden_file)
        .unwrap_or_else(|e| panic!("reading {}: {e}", golden_file.display()));
    let expect = |path: &str, report: &str| assert_same(name, path, report, &golden, &golden_file);

    let log = workload.generate();
    let bytes = LogWriter::from_log(log.clone()).finish().unwrap();

    expect("run", &IonPipeline::new().run(&log).render_text());
    expect(
        "run_bytes",
        &IonPipeline::new().run_bytes(&bytes).unwrap().render_text(),
    );
    expect("stream, 1-row chunks", &streamed(&bytes, 1));
    expect("stream, 7-row chunks", &streamed(&bytes, 7));
    expect(
        "stream, default chunks",
        &streamed(&bytes, DEFAULT_CHUNK_ROWS),
    );

    let store_root = scratch_dir(name, "store");
    {
        let store = Arc::new(Store::open(&store_root).unwrap());
        let cold = StoredPipeline::new(store).analyze_bytes(&bytes).unwrap();
        expect("store, cold", &cold.render_text());
    }
    {
        let model = CountingModel::default();
        let store = Arc::new(Store::open(&store_root).unwrap());
        let warm = StoredPipeline::new(store)
            .with_model(&model)
            .analyze_bytes(&bytes)
            .unwrap();
        expect("store, warm", &warm.render_text());
        assert_eq!(
            model.steps.load(Ordering::SeqCst),
            0,
            "{name}: warm store ran the model"
        );
    }
    let (report, expected, steps) = backdated(&log, &bytes, &store_root);
    assert_eq!(
        report, expected,
        "{name}: backdated report differs from a fresh run"
    );
    assert_eq!(steps, 0, "{name}: a whitespace edit ran the model");
    let _ = std::fs::remove_dir_all(&store_root);

    let serve_root = scratch_dir(name, "serve");
    expect("daemon", &served(&bytes, &serve_root));
    let _ = std::fs::remove_dir_all(&serve_root);
}

#[test]
fn ior_easy_2k() {
    check("ior-easy-2k", &ior_easy_2kb_shared(0.25));
}

#[test]
fn ior_easy_1m() {
    check("ior-easy-1m", &ior_easy_1mb_shared(0.25));
}

#[test]
fn ior_easy_1m_fpp() {
    check("ior-easy-1m-fpp", &ior_easy_1mb_fpp(0.25));
}

#[test]
fn ior_hard_report() {
    check("ior-hard", &ior_hard(0.01));
}

#[test]
fn ior_rnd4k_report() {
    check("ior-rnd4k", &ior_rnd4k(0.05));
}

#[test]
fn mdworkbench() {
    check("mdworkbench", &MdWorkbench::scaled(0.5));
}

#[test]
fn openpmd_baseline() {
    check("openpmd", &OpenPmd::scaled(OpenPmdVariant::Baseline, 0.02));
}

#[test]
fn openpmd_optimized() {
    check(
        "openpmd-opt",
        &OpenPmd::scaled(OpenPmdVariant::Optimized, 0.05),
    );
}

#[test]
fn e2e_baseline() {
    check("e2e", &E2e::scaled(E2eVariant::Baseline, 0.03));
}

#[test]
fn e2e_optimized() {
    check("e2e-opt", &E2e::scaled(E2eVariant::Optimized, 0.25));
}
