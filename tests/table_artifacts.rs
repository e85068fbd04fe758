//! The table artifacts of the Figure 2 and Figure 3 traces, pinned by
//! content digest, and the IQL key path the expert runs over them.
//!
//! `every_ingest_path_yields_byte_identical_table_artifacts` (in
//! `ion-store`) compares the ingest paths with each other, so a change
//! made to all of them at once passes it. This test compares the batch
//! extractor's tables with a committed list instead: every table of the
//! ten golden traces must encode (`encode_table`) to the bytes whose
//! SHA-256 `tests/golden/tables.sha256` lists. The list was recorded
//! once and is never re-recorded to make a change pass; a change to the
//! artifact format is a change to every store on disk.
//!
//! The expert's programs GROUP, `distinct` and JOIN only on typed key
//! columns, so over these tables no row may take the executor's
//! rendered-string key fallback (`iql.keys.rendered`): a silent fallback
//! fails here instead of showing up as a slower benchmark.

use darshan::log::{Log, LogReader, LogWriter};
use extractor::{decode_table, encode_table, extract_tables, Table, TableSet, Value};
use ion::pipeline::IonPipeline;
use ion_llm::iql::{parse_program, Interpreter};
use ion_store::digest_bytes;
use std::path::PathBuf;
use workloads::e2e::{E2e, E2eVariant};
use workloads::ior::{
    ior_easy_1mb_fpp, ior_easy_1mb_shared, ior_easy_2kb_shared, ior_hard, ior_rnd4k,
};
use workloads::mdworkbench::MdWorkbench;
use workloads::openpmd::{OpenPmd, OpenPmdVariant};
use workloads::Workload;

/// The ten golden traces, at the scales `report_golden.rs` renders.
fn golden_traces() -> Vec<(&'static str, Box<dyn Workload>)> {
    vec![
        ("ior-easy-2k", Box::new(ior_easy_2kb_shared(0.25))),
        ("ior-easy-1m", Box::new(ior_easy_1mb_shared(0.25))),
        ("ior-easy-1m-fpp", Box::new(ior_easy_1mb_fpp(0.25))),
        ("ior-hard", Box::new(ior_hard(0.01))),
        ("ior-rnd4k", Box::new(ior_rnd4k(0.05))),
        ("mdworkbench", Box::new(MdWorkbench::scaled(0.5))),
        (
            "openpmd",
            Box::new(OpenPmd::scaled(OpenPmdVariant::Baseline, 0.02)),
        ),
        (
            "openpmd-opt",
            Box::new(OpenPmd::scaled(OpenPmdVariant::Optimized, 0.05)),
        ),
        ("e2e", Box::new(E2e::scaled(E2eVariant::Baseline, 0.03))),
        (
            "e2e-opt",
            Box::new(E2e::scaled(E2eVariant::Optimized, 0.25)),
        ),
    ]
}

/// The trace as every ingest path sees it: serialized, then decoded.
fn decoded(workload: &dyn Workload) -> (Vec<u8>, Log) {
    let bytes = LogWriter::from_log(workload.generate()).finish().unwrap();
    let log = LogReader::read(&bytes).unwrap();
    (bytes, log)
}

#[test]
fn table_artifacts_match_pinned_digests() {
    let pinned_file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables.sha256");
    let pinned = std::fs::read_to_string(&pinned_file)
        .unwrap_or_else(|e| panic!("reading {}: {e}", pinned_file.display()));
    let mut actual = String::new();
    for (name, workload) in golden_traces() {
        let (_, log) = decoded(workload.as_ref());
        for (table, t) in extract_tables(&log).iter() {
            let digest = digest_bytes(&encode_table(t)).hex();
            actual.push_str(&format!("{name} {table} {digest}\n"));
        }
    }
    assert!(
        actual == pinned,
        "table artifacts differ from {}\n--- pinned\n{pinned}+++ actual\n{actual}",
        pinned_file.display()
    );
}

#[test]
fn expert_programs_never_key_rows_by_rendered_strings() {
    let counter = |name: &str| ion_obs::snapshot().counter(name);
    ion_obs::enable();
    let before = counter("iql.keys.rendered");
    let mut queries = counter("iql.queries_evaluated");
    for (name, workload) in golden_traces() {
        let (bytes, log) = decoded(workload.as_ref());
        let pipeline = IonPipeline::new();
        let report = pipeline.run_bytes(&bytes).unwrap().render_text();
        let mut stored = TableSet::default();
        for (_, table) in extract_tables(&log).iter() {
            stored.insert(decode_table(&encode_table(table)).unwrap());
        }
        let stored_report = pipeline.run_tables(&stored, &pipeline.params_for(&log));
        assert_eq!(stored_report.render_text(), report, "{name}");
        assert_eq!(
            counter("iql.keys.rendered"),
            before,
            "{name}: rows keyed by rendered strings"
        );
        assert!(
            counter("iql.queries_evaluated") > queries,
            "{name}: no query ran"
        );
        queries = counter("iql.queries_evaluated");
    }
    // The counter does count: a GROUP over a Mixed column renders each row.
    let mut mixed = Table::new("M", &["m"]);
    for v in [Value::Int(5), Value::from("5"), Value::Float(0.5)] {
        mixed.push_row(vec![v]);
    }
    let mut tables = TableSet::default();
    tables.insert(mixed);
    let program = parse_program("LOAD M\nGROUP m AGG c = count()").unwrap();
    let out = Interpreter::new(&tables).run(&program).unwrap();
    assert_eq!(out.table.map(|t| t.len()), Some(2));
    assert_eq!(counter("iql.keys.rendered"), before + 3);
}
