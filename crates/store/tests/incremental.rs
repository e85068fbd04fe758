//! Acceptance tests for incremental re-analysis, proven from `ion-obs`
//! metrics alone: a warm store performs zero model runs and zero
//! extractions; a cosmetic context edit (whitespace, or an edit to a
//! rule template that never fired) is *backdated* — still zero model
//! runs; only a substantive edit to consulted knowledge goes *red*, and
//! re-runs exactly the one issue that consulted it.

use darshan::log::LogWriter;
use ion::context::builtin_contexts;
use ion::pipeline::IonPipeline;
use ion_store::{Store, StoredPipeline};
use iosim::{SimConfig, Simulation};
use std::sync::Arc;

/// The global obs sink is process-wide; tests in this binary serialize.
/// (The schema-bump test also mutates process environment under this
/// same lock — every driver run in this file happens while holding it.)
static SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn trace_bytes() -> Vec<u8> {
    let mut sim = Simulation::new(SimConfig::default().with_ranks(2).with_exe("incr"));
    let f = sim.posix_open_all("/scratch/incr.dat").unwrap();
    for i in 0..32u64 {
        for rank in 0..2u32 {
            let base = u64::from(rank) * (8 << 20);
            sim.posix_write(rank, f, base + i * 2048, 2048).unwrap();
        }
    }
    sim.posix_close_all(f);
    LogWriter::from_log(sim.finish()).finish().unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ion-incr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Metrics over one closure with a clean, enabled sink.
fn counted<T>(f: impl FnOnce() -> T) -> (T, ion_obs::render::Snapshot) {
    ion_obs::reset();
    ion_obs::enable();
    let value = f();
    let snap = ion_obs::snapshot();
    ion_obs::disable();
    ion_obs::reset();
    (value, snap)
}

#[test]
fn warm_reanalysis_performs_zero_model_runs_and_zero_extractions() {
    let _sink = obs_guard();
    let bytes = trace_bytes();
    let root = tmp_dir("warm");
    let store = Arc::new(Store::open(&root).unwrap());
    let driver = StoredPipeline::new(Arc::clone(&store));

    let (cold, cold_snap) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    let issues = cold.diagnoses.len() as u64;
    assert!(issues > 0, "trace should exercise at least one context");
    // Cold: one model run per applicable issue plus the summary, and
    // exactly one extraction.
    assert_eq!(cold_snap.counter("llm.runs"), issues + 1);
    assert_eq!(cold_snap.counter("extract.runs"), 1);
    assert_eq!(cold_snap.counter("store.recompute.trace"), 1);
    assert_eq!(cold_snap.counter("store.recompute.issue"), issues);
    assert_eq!(cold_snap.counter("store.recompute.summary"), 1);

    let (warm, warm_snap) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    assert_eq!(warm, cold);
    // Warm: every stage is a cache hit — the acceptance criterion.
    assert_eq!(
        warm_snap.counter("llm.runs"),
        0,
        "warm run must perform zero model runs:\n{}",
        warm_snap.render_profile()
    );
    assert_eq!(
        warm_snap.counter("extract.runs"),
        0,
        "warm run must perform zero extractions:\n{}",
        warm_snap.render_profile()
    );
    assert_eq!(warm_snap.counter("store.miss"), 0);
    // Trace meta + per-issue (memo + diagnosis) + summary, all from
    // cache — table rows are never even decoded on a green re-serve.
    assert_eq!(warm_snap.counter("store.hit"), 2 * issues + 2);
    // Every issue revalidated green; nothing was backdated or re-run.
    assert_eq!(warm_snap.counter("store.revalidate.green"), issues);
    assert_eq!(warm_snap.counter("store.revalidate.backdated"), 0);
    assert_eq!(warm_snap.counter("store.revalidate.red"), 0);

    let _ = std::fs::remove_dir_all(root);
}

/// One cold run plus one run with a single context edited via `edit`.
/// Returns the cold report, the edited-run report, the edited-run
/// metrics, the edited issue id and the pre-edit revision.
fn run_with_edited_context(
    tag: &str,
    pick: impl Fn(&ion::pipeline::IonReport) -> String,
    edit: impl Fn(&mut String),
) -> (
    ion::pipeline::IonReport,
    ion::pipeline::IonReport,
    ion_obs::render::Snapshot,
    String,
    ion::context::ContextRevision,
) {
    let bytes = trace_bytes();
    let root = tmp_dir(tag);
    let store = Arc::new(Store::open(&root).unwrap());

    let driver = StoredPipeline::new(Arc::clone(&store));
    let (cold, _) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    assert!(
        cold.diagnoses.len() > 1,
        "need several issues to show selective invalidation"
    );
    let edited_id = pick(&cold);

    let mut contexts = builtin_contexts();
    let target = contexts
        .iter_mut()
        .find(|c| c.id == edited_id)
        .expect("diagnosed issue comes from a builtin context");
    let old_revision = target.revision();
    edit(&mut target.text);
    assert_ne!(
        target.revision(),
        old_revision,
        "a visible edit must change the revision"
    );

    let edited_driver = StoredPipeline::new(Arc::clone(&store))
        .with_pipeline(IonPipeline::new().with_contexts(contexts));
    let (edited, snap) = counted(|| edited_driver.analyze_bytes(&bytes).unwrap());
    let _ = std::fs::remove_dir_all(root);
    (cold, edited, snap, edited_id, old_revision)
}

#[test]
fn whitespace_edit_is_backdated_with_zero_model_runs() {
    let _sink = obs_guard();
    // Indent one line of one context: the context bytes (and so its
    // coarse revision) change, but every knowledge *statement* is
    // whitespace-normalized, so each consulted statement revalidates
    // equal. The old diagnosis is backdated under the new revision —
    // zero model runs, end to end.
    let (cold, edited, snap, edited_id, old_revision) = run_with_edited_context(
        "edit-inert",
        |cold| cold.diagnoses[0].issue.clone(),
        |text| {
            *text = text.replacen("ISSUE:", "  ISSUE:", 1);
        },
    );

    let issues = cold.diagnoses.len() as u64;
    assert_eq!(
        snap.counter("llm.runs"),
        0,
        "a whitespace edit must not re-run any model:\n{}",
        snap.render_profile()
    );
    assert_eq!(snap.counter("extract.runs"), 0);
    assert_eq!(snap.counter("store.recompute.issue"), 0);
    assert_eq!(snap.counter("store.recompute.summary"), 0);
    assert_eq!(snap.counter("store.miss"), 0);
    assert_eq!(snap.counter("store.revalidate.backdated"), 1);
    assert_eq!(snap.counter("store.revalidate.green"), issues - 1);
    assert_eq!(snap.counter("store.revalidate.red"), 0);

    // The report is what a fresh run would produce: the edited issue
    // carries the *new* revision over unchanged diagnosis content, and
    // every untouched context kept its cached revision.
    let re = edited.diagnosis(&edited_id).unwrap();
    assert_ne!(re.context_revision, old_revision.hex());
    assert_eq!(re.raw, cold.diagnosis(&edited_id).unwrap().raw);
    for d in &cold.diagnoses {
        if d.issue != edited_id {
            assert_eq!(
                edited.diagnosis(&d.issue).unwrap().context_revision,
                d.context_revision,
                "untouched context {} must keep its revision",
                d.issue
            );
        }
    }
}

#[test]
fn backdated_edit_is_green_on_the_following_run() {
    let _sink = obs_guard();
    // Backdating rebinds the cached diagnosis under the edited context's
    // fingerprint, so analyzing again with the *same* edited contexts is
    // a pure green run — the edit is paid for exactly once.
    let bytes = trace_bytes();
    let root = tmp_dir("backdate-settles");
    let store = Arc::new(Store::open(&root).unwrap());
    let (cold, _) = counted(|| {
        StoredPipeline::new(Arc::clone(&store))
            .analyze_bytes(&bytes)
            .unwrap()
    });
    let issues = cold.diagnoses.len() as u64;

    let mut contexts = builtin_contexts();
    let target = contexts
        .iter_mut()
        .find(|c| c.id == cold.diagnoses[0].issue)
        .unwrap();
    target.text = target.text.replacen("ISSUE:", "  ISSUE:", 1);
    let driver = StoredPipeline::new(Arc::clone(&store))
        .with_pipeline(IonPipeline::new().with_contexts(contexts));

    let (first, first_snap) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    assert_eq!(first_snap.counter("store.revalidate.backdated"), 1);
    let (second, second_snap) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    assert_eq!(second, first);
    assert_eq!(second_snap.counter("llm.runs"), 0);
    assert_eq!(second_snap.counter("store.revalidate.green"), issues);
    assert_eq!(second_snap.counter("store.revalidate.backdated"), 0);
    assert_eq!(second_snap.counter("store.miss"), 0);

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn editing_an_unfired_rule_template_is_backdated() {
    let _sink = obs_guard();
    // The trace's writes are all 2 KiB, so small-io concludes with
    // small_pct = 100 and its "transfer sizes are healthy" NOTE (guarded
    // by small_pct <= 50) never fires. Its template was never consulted,
    // so rewording it cannot change any completion — the dependency walk
    // proves that and backdates without a model run.
    let (cold, edited, snap, edited_id, _old) = run_with_edited_context(
        "edit-unfired",
        |cold| {
            assert!(cold.diagnosis("small-io").is_some());
            "small-io".to_owned()
        },
        |text| {
            assert!(text.contains("transfer sizes are healthy"));
            *text = text.replace("transfer sizes are healthy", "transfer sizes look good");
        },
    );

    assert_eq!(
        snap.counter("llm.runs"),
        0,
        "an unconsulted template edit must not re-run any model:\n{}",
        snap.render_profile()
    );
    assert_eq!(snap.counter("store.recompute.issue"), 0);
    assert_eq!(snap.counter("store.revalidate.backdated"), 1);
    assert_eq!(snap.counter("store.revalidate.red"), 0);
    assert_eq!(
        edited.diagnosis(&edited_id).unwrap().raw,
        cold.diagnosis(&edited_id).unwrap().raw,
        "the unfired template is invisible in the diagnosis"
    );
}

#[test]
fn substantive_edit_also_refreshes_the_summary_but_nothing_else() {
    let _sink = obs_guard();
    // Append a prose remark: the expert's completion echoes knowledge
    // statements, so the diagnosis text changes — and the summary, whose
    // key is the completion texts, must honestly recompute too. Still
    // zero extractions and every other issue served from cache: editing
    // one statement re-runs exactly the one issue that consults it.
    let (cold, edited, snap, edited_id, _old_revision) = run_with_edited_context(
        "edit-prose",
        |cold| cold.diagnoses[0].issue.clone(),
        |text| {
            text.push_str("\nOperators report this issue most often on weekly runs.\n");
        },
    );

    let issues = cold.diagnoses.len() as u64;
    assert_eq!(
        snap.counter("llm.runs"),
        2,
        "the edited issue and the summary over its new text:\n{}",
        snap.render_profile()
    );
    assert_eq!(snap.counter("extract.runs"), 0);
    assert_eq!(snap.counter("store.recompute.issue"), 1);
    assert_eq!(snap.counter("store.recompute.summary"), 1);
    assert_eq!(snap.counter("store.revalidate.red"), 1);
    assert_eq!(snap.counter("store.revalidate.green"), issues - 1);
    assert_eq!(snap.counter("store.revalidate.backdated"), 0);
    assert_ne!(
        edited.diagnosis(&edited_id).unwrap().raw,
        cold.diagnosis(&edited_id).unwrap().raw,
        "the prose edit is visible in the diagnosis steps"
    );
}

#[test]
fn schema_bump_reextracts_once_but_stays_green_downstream() {
    let _sink = obs_guard();
    // Bumping one module's extraction version re-keys stage 1, so the
    // trace is re-extracted exactly once — but the re-extracted content
    // digests come out equal, so every dependent diagnosis revalidates
    // green through the early cutoff: zero model runs.
    let bytes = trace_bytes();
    let root = tmp_dir("schema-bump");
    let store = Arc::new(Store::open(&root).unwrap());
    let driver = StoredPipeline::new(Arc::clone(&store));
    let (cold, _) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    let issues = cold.diagnoses.len() as u64;

    std::env::set_var(extractor::schema::VERSION_BUMP_ENV, "POSIX=2");
    let (bumped, snap) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    std::env::remove_var(extractor::schema::VERSION_BUMP_ENV);

    assert_eq!(bumped, cold);
    assert_eq!(snap.counter("store.recompute.trace"), 1);
    assert_eq!(snap.counter("extract.runs"), 1);
    assert_eq!(
        snap.counter("llm.runs"),
        0,
        "equal content digests must keep every diagnosis green:\n{}",
        snap.render_profile()
    );
    assert_eq!(snap.counter("store.recompute.issue"), 0);
    assert_eq!(snap.counter("store.revalidate.green"), issues);
    assert_eq!(snap.counter("store.revalidate.red"), 0);

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn gc_removes_only_artifacts_orphaned_by_rebinding() {
    let _sink = obs_guard();
    let bytes = trace_bytes();
    let root = tmp_dir("gc");
    let store = Arc::new(Store::open(&root).unwrap());
    let driver = StoredPipeline::new(Arc::clone(&store));
    driver.analyze_bytes(&bytes).unwrap();

    // A fully live store: dry-run gc finds nothing to prune.
    let clean = store.gc(true).unwrap();
    assert_eq!(clean.unreferenced, vec![]);
    assert!(clean.live > 0);

    // Rebinding a key (as a re-analysis after an edit would) orphans the
    // old object; gc prunes it and every surviving binding still resolves.
    let (key, _) = store.bindings().into_iter().next().unwrap();
    store.put(&key, b"rebound artifact").unwrap();
    let pruned = store.gc(false).unwrap();
    assert_eq!(pruned.unreferenced.len(), 1);
    // One object orphaned, one new object bound: the live count holds.
    assert_eq!(pruned.live, clean.live);
    for (key, _) in store.bindings() {
        assert!(
            store.get(&key).unwrap().is_some(),
            "binding {key} must survive gc"
        );
    }

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn cold_pass_decodes_no_tables_and_a_red_pass_decodes_each_module_once() {
    let _sink = obs_guard();
    let bytes = trace_bytes();
    let root = tmp_dir("decodes");
    let store = Arc::new(Store::open(&root).unwrap());
    let two_wide = || ion_exec::Batch::new().with_width(2);

    // Cold: the issues analyze the tables just extracted.
    let cold_driver = StoredPipeline::new(Arc::clone(&store)).with_exec(two_wide());
    let (cold, cold_snap) = counted(|| cold_driver.analyze_bytes(&bytes).unwrap());
    assert_eq!(cold_snap.counter("store.recompute.trace"), 1);
    assert_eq!(cold_snap.counter("store.table.decodes"), 0);

    // Red: a prose edit to every context re-runs every issue, two at a
    // time; they share one load of the table artifacts.
    let mut contexts = builtin_contexts();
    for context in &mut contexts {
        context
            .text
            .push_str("\nOperators report this issue most often on weekly runs.\n");
    }
    let red_driver = StoredPipeline::new(Arc::clone(&store))
        .with_pipeline(IonPipeline::new().with_contexts(contexts))
        .with_exec(two_wide());
    let (_, red_snap) = counted(|| red_driver.analyze_bytes(&bytes).unwrap());
    assert_eq!(
        red_snap.counter("store.revalidate.red"),
        cold.diagnoses.len() as u64
    );
    assert!(cold.diagnoses.len() >= 2, "need concurrent red issues");
    let log = darshan::log::LogReader::read(&bytes[..]).unwrap();
    let modules = extractor::extract_tables(&log).names().len() as u64;
    assert_eq!(
        red_snap.counter("store.table.decodes"),
        modules,
        "each module's table decodes exactly once per red pass:\n{}",
        red_snap.render_profile()
    );
    assert_eq!(red_snap.counter("store.recompute.trace"), 0);

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn store_written_with_csv_tables_self_heals_to_the_same_report() {
    let _sink = obs_guard();
    // Write what a store from before the chunk-codec tables holds for
    // this trace: a v1 trace meta under the old key, and one
    // `ion-table v1` CSV artifact per module.
    let bytes = trace_bytes();
    let root = tmp_dir("csv-store");
    let store = Arc::new(Store::open(&root).unwrap());
    let trace_hex = ion_store::digest_bytes(&bytes).hex();
    let log = darshan::log::LogReader::read(&bytes[..]).unwrap();
    let params = ion::analyzer::SystemParams::from_log(&log);
    let mut meta = format!(
        "ion-trace-meta v1\nparams {}\n",
        ion_store::codec::params_line(&params)
    );
    let tables = extractor::extract_tables(&log);
    let mut legacy_keys = Vec::new();
    for (name, table) in tables.iter() {
        let csv = extractor::csv::to_csv(table);
        let artifact = format!("ion-table v1\ntable {name} {}\n{csv}\n", csv.len());
        // Stand-in for the old row-fold digest: nothing reads it now.
        let digest = ion_store::digest_bytes(artifact.as_bytes()).hex();
        let version = extractor::schema::module_version(name);
        let key = format!("trace/{trace_hex}/table/{name}/{version}-{digest}");
        store.put(&key, artifact.as_bytes()).unwrap();
        legacy_keys.push(key);
        meta.push_str(&format!("table {name} {version} {digest}\n"));
    }
    let meta_key = format!(
        "trace/{trace_hex}/meta/{}",
        extractor::schema::schema_fingerprint()
    );
    store.put(&meta_key, meta.as_bytes()).unwrap();
    legacy_keys.push(meta_key);

    // The first run re-extracts once, without an error, and reports what
    // the plain pipeline reports.
    let driver = StoredPipeline::new(Arc::clone(&store));
    let (healed, snap) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    let plain = IonPipeline::new().run_bytes(&bytes).unwrap();
    assert_eq!(healed.render_text(), plain.render_text());
    assert_eq!(healed.diagnoses, plain.diagnoses);
    assert_eq!(snap.counter("store.recompute.trace"), 1);
    assert_eq!(snap.counter("store.table.decodes"), 0);

    // The old bindings are gone, so gc reclaims the CSV objects.
    for key in &legacy_keys {
        assert!(store.get(key).unwrap().is_none(), "{key} is still bound");
    }
    assert_eq!(
        store.gc(false).unwrap().unreferenced.len(),
        legacy_keys.len()
    );

    // The next run is all green.
    let issues = healed.diagnoses.len() as u64;
    let (warm, warm_snap) = counted(|| driver.analyze_bytes(&bytes).unwrap());
    assert_eq!(warm, healed);
    assert_eq!(warm_snap.counter("store.revalidate.green"), issues);
    assert_eq!(warm_snap.counter("store.revalidate.red"), 0);
    assert_eq!(warm_snap.counter("store.revalidate.backdated"), 0);
    assert_eq!(warm_snap.counter("store.recompute.trace"), 0);
    assert_eq!(warm_snap.counter("store.recompute.issue"), 0);
    assert_eq!(warm_snap.counter("store.recompute.summary"), 0);
    assert_eq!(warm_snap.counter("llm.runs"), 0);

    let _ = std::fs::remove_dir_all(root);
}
