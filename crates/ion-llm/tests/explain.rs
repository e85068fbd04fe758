//! Exact `EXPLAIN` texts: the plan rendering (`Interpreter::explain`) and
//! the one-line summary (`Plan::summary`) for programs that cover every
//! statement kind, a `JOIN` name collision, `GROUP` and what follows it,
//! an unresolvable statement followed by a fresh `LOAD`, and programs
//! with no `LOAD` at all.

use extractor::{Table, TableSet, Value};
use ion_llm::iql::{parse_program, Interpreter};

fn tables() -> TableSet {
    let mut dxt = Table::new("DXT", &["rank", "op", "offset", "length"]);
    dxt.push_row(vec![
        Value::Int(0),
        Value::from("write"),
        Value::Int(0),
        Value::Int(100),
    ]);
    // Shares `rank` (the join key) and `length` (dropped on a join).
    let mut meta = Table::new("META", &["rank", "host", "length"]);
    meta.push_row(vec![Value::Int(0), Value::from("n0"), Value::Int(7)]);
    let mut set = TableSet::default();
    set.insert(dxt);
    set.insert(meta);
    set
}

/// The full rendering followed by the summary line.
fn explain(src: &str) -> String {
    let tables = tables();
    let program = parse_program(src).unwrap();
    let interp = Interpreter::new(&tables);
    format!(
        "{}summary: {}\n",
        interp.explain(&program),
        interp.plan(&program).summary()
    )
}

#[test]
fn every_statement_kind() {
    assert_eq!(
        explain(
            "EXPLAIN\nLOAD DXT\nFILTER op == 'write' && length > 0\nDERIVE end = offset + length\n\
             SELECT rank, end, length\nSORT end DESC\nLIMIT 5\nJOIN META ON rank\n\
             GROUP host AGG n = count(), b = sum(length)\nAGG groups = count(), top = max(b)\n\
             LET g2 = -groups * 2\nEMIT g2, top\n"
        ),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  filter ((op == \"write\") && (length > 0))     cols=[rank, op, offset, length]
  derive end = (offset + length)               cols=[rank, op, offset, length, end]
  select rank, end, length                     cols=[rank, end, length]
  sort end desc                                cols=[rank, end, length]
  limit 5                                      cols=[rank, end, length]
  join META on rank                            cols=[rank, end, length, host]
  group host agg n = count(), b = sum(length)  cols=[host, n, b]
  agg groups = count(), top = max(b)
  let g2 = (-(groups) * 2)
  emit g2, top
summary: scan DXT → filter → derive → select → sort → limit → join → group → agg → let → emit
"
    );
}

#[test]
fn join_name_collision_keeps_left_columns() {
    assert_eq!(
        explain("LOAD DXT\nJOIN META ON rank\nSELECT host, length\n"),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  join META on rank                            cols=[rank, op, offset, length, host]
  select host, length                          cols=[host, length]
summary: scan DXT → join → select
"
    );
}

#[test]
fn group_and_a_statement_after_it() {
    assert_eq!(
        explain(
            "LOAD DXT\nGROUP rank, op AGG n = count(), p = pct(length, 50)\n\
             DERIVE m = n * 2\nSORT m DESC\n"
        ),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  group rank, op agg n = count(), p = pct(length, 50) cols=[rank, op, n, p]
  derive m = (n * 2)                           cols=[rank, op, n, p, m]
  sort m desc                                  cols=[rank, op, n, p, m]
summary: scan DXT → group → derive → sort
"
    );
}

#[test]
fn unknown_select_column_then_a_second_load() {
    assert_eq!(
        explain("LOAD DXT\nSELECT nope\nLOAD DXT\nFILTER rank == 0\nGROUP rank AGG n = count()\n"),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  select nope
  scan DXT                                     cols=[rank, op, offset, length]
  filter (rank == 0)                           cols=[rank, op, offset, length]
  group rank agg n = count()                   cols=[rank, n]
summary: scan DXT → select → scan DXT → filter → group
"
    );
}

#[test]
fn program_without_load() {
    assert_eq!(
        explain("LET x = 1 + 2\nEMIT x\n"),
        "\
plan:
  let x = (1 + 2)
  emit x
summary: let → emit
"
    );
    assert_eq!(
        explain("FILTER rank > 0\nAGG n = count()\nEMIT n\n"),
        "\
plan:
  filter (rank > 0)
  agg n = count()
  emit n
summary: filter → agg → emit
"
    );
}

#[test]
fn unknown_table_and_unknown_join_key() {
    assert_eq!(
        explain("LOAD NOPE\nFILTER a > 0\nLOAD META\n"),
        "\
plan:
  scan NOPE
  filter (a > 0)
  scan META                                    cols=[rank, host, length]
summary: scan NOPE → filter → scan META
"
    );
    assert_eq!(
        explain("LOAD DXT\nJOIN META ON op\nLIMIT 1\n"),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  join META on op
  limit 1
summary: scan DXT → join → limit
"
    );
    assert_eq!(
        explain("LOAD DXT\nJOIN NOPE ON rank\nLIMIT 1\n"),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  join NOPE on rank
  limit 1
summary: scan DXT → join → limit
"
    );
}

#[test]
fn derive_of_an_existing_column() {
    assert_eq!(
        explain("LOAD META\nDERIVE host = 1\nSELECT rank\n"),
        "\
plan:
  scan META                                    cols=[rank, host, length]
  derive host = 1
  select rank
summary: scan META → derive → select
"
    );
}

#[test]
fn unknown_group_key() {
    assert_eq!(
        explain("LOAD DXT\nGROUP nope AGG n = count()\nSORT n\n"),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  group nope agg n = count()
  sort n asc
summary: scan DXT → group → sort
"
    );
}

#[test]
fn a_statement_that_fails_prints_no_columns() {
    assert_eq!(
        explain("LOAD DXT\nSORT nope\nLIMIT 1\n"),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  sort nope asc
  limit 1
summary: scan DXT → sort → limit
"
    );
    assert_eq!(
        explain("LOAD DXT\nSELECT rank, rank\nLOAD META\nGROUP rank AGG rank = count()\n"),
        "\
plan:
  scan DXT                                     cols=[rank, op, offset, length]
  select rank, rank
  scan META                                    cols=[rank, host, length]
  group rank agg rank = count()
summary: scan DXT → select → scan META → group
"
    );
}
