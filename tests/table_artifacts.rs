//! The table artifacts of the Figure 2 and Figure 3 traces, pinned by
//! content digest, and the IQL key path the expert runs over them.
//!
//! Every table of the ten golden traces must encode (`encode_table`) to
//! the bytes whose SHA-256 `tests/golden/tables.sha256` lists, whichever
//! ingest path built it: the batch extractor over the decoded log
//! (`table_artifacts_match_pinned_digests`), or the streaming extractor
//! over the bytes at 1, 7 and 65,536 rows per chunk
//! (`every_ingest_path_yields_byte_identical_table_artifacts`).
//! Comparing with a committed list rather than path against path also
//! catches a change made to every path at once. The list was recorded
//! once and is never re-recorded to make a change pass; a change to the
//! artifact format is a change to every store on disk.
//!
//! The expert's programs GROUP, `distinct` and JOIN only on typed key
//! columns, and every expression they evaluate resolves into the
//! executor's expression kernel, so over these tables no row may take
//! the rendered-string key fallback (`iql.keys.rendered`) or the
//! row-at-a-time expression tier (`iql.rows.generic`), and no computed
//! column may be built `Mixed` (`iql.columns.mixed`): a silent fallback
//! fails here instead of showing up as a slower benchmark.

use darshan::log::{Log, LogReader, LogWriter};
use extractor::{decode_table, encode_table, extract_stream, extract_tables, Table, TableSet};
use extractor::{Value, DEFAULT_CHUNK_ROWS};
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

/// `tests/golden/tables.sha256` and its contents.
fn pinned_digests() -> (PathBuf, String) {
    let pinned_file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables.sha256");
    let pinned = std::fs::read_to_string(&pinned_file)
        .unwrap_or_else(|e| panic!("reading {}: {e}", pinned_file.display()));
    (pinned_file, pinned)
}

/// Checks every named ingest path against the pinned digests. `paths`
/// builds, for one trace's bytes and decoded log, each path's tables.
fn assert_paths_match_pinned<const N: usize>(
    names: [&str; N],
    paths: impl Fn(&[u8], &Log) -> [TableSet; N],
) {
    let (pinned_file, pinned) = pinned_digests();
    let mut actual = names.map(|_| String::new());
    for (name, workload) in golden_traces() {
        let (bytes, log) = decoded(workload.as_ref());
        for (listing, tables) in actual.iter_mut().zip(paths(&bytes, &log)) {
            for (table, t) in tables.iter() {
                let digest = digest_bytes(&encode_table(t)).hex();
                listing.push_str(&format!("{name} {table} {digest}\n"));
            }
        }
    }
    for (path, listing) in names.iter().zip(&actual) {
        assert!(
            *listing == pinned,
            "{path}: table artifacts differ from {}\n--- pinned\n{pinned}+++ actual\n{listing}",
            pinned_file.display()
        );
    }
}

#[test]
fn table_artifacts_match_pinned_digests() {
    assert_paths_match_pinned(["batch"], |_, log| [extract_tables(log)]);
}

#[test]
fn every_ingest_path_yields_byte_identical_table_artifacts() {
    let stream = |bytes: &[u8], rows| extract_stream(bytes, rows).unwrap().tables;
    assert_paths_match_pinned(
        [
            "stream, 1-row chunks",
            "stream, 7-row chunks",
            "stream, default chunks",
        ],
        |bytes, _| {
            [
                stream(bytes, 1),
                stream(bytes, 7),
                stream(bytes, DEFAULT_CHUNK_ROWS),
            ]
        },
    );
}

#[test]
fn expert_programs_never_key_rows_by_rendered_strings() {
    let counter = |name: &str| ion_obs::snapshot().counter(name);
    ion_obs::enable();
    let before = counter("iql.keys.rendered");
    let generic = counter("iql.rows.generic");
    let mixed_columns = counter("iql.columns.mixed");
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
        assert_eq!(
            counter("iql.rows.generic"),
            generic,
            "{name}: rows evaluated by the row tier"
        );
        assert_eq!(
            counter("iql.columns.mixed"),
            mixed_columns,
            "{name}: computed columns built Mixed"
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
    // The row tier counts too: an expression over a Mixed column
    // evaluates each of its rows there, once.
    assert_eq!(counter("iql.rows.generic"), generic);
    let program = parse_program("LOAD M\nDERIVE d = m != 0").unwrap();
    let out = Interpreter::new(&tables).run(&program).unwrap();
    assert_eq!(out.table.map(|t| t.len()), Some(3));
    assert_eq!(counter("iql.rows.generic"), generic + 3);
    // So does the Mixed-column counter. An integer literal keeps an `Int`
    // column `Int`, a float literal makes it `Float`; rows that disagree
    // in type (`Int / Int` is `Int` only when exact) make it Mixed.
    let mut ints = Table::new("N", &["n"]);
    for n in [1, 2, 3] {
        ints.push_row(vec![Value::Int(n)]);
    }
    tables.insert(ints);
    for (derive, cells) in [
        ("if(n > 1, n, 0)", [Value::Int(0), Value::Int(2)]),
        ("if(n > 1, n, 0.5)", [Value::Float(0.5), Value::Float(2.0)]),
    ] {
        let program = parse_program(&format!("LOAD N\nDERIVE d = {derive}")).unwrap();
        let t = Interpreter::new(&tables)
            .run(&program)
            .unwrap()
            .table
            .unwrap();
        assert_eq!(
            [t.cell(0, "d"), t.cell(1, "d")],
            cells.map(Some),
            "{derive}"
        );
    }
    assert_eq!(counter("iql.columns.mixed"), mixed_columns);
    let program = parse_program("LOAD N\nDERIVE d = n / 2").unwrap();
    let t = Interpreter::new(&tables)
        .run(&program)
        .unwrap()
        .table
        .unwrap();
    assert_eq!(t.cell(1, "d"), Some(Value::Int(1)));
    assert_eq!(counter("iql.columns.mixed"), mixed_columns + 1);
}
