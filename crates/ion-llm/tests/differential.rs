//! Differential test: the planned, vectorized IQL engine versus the
//! original tree-walking interpreter (compiled behind `legacy-eval`,
//! enabled here through the crate's self-dev-dependency).
//!
//! Random programs over random tables must produce bit-for-bit identical
//! results from both engines: same `Ok`/`Err`, same error, same emitted
//! scalars (floats compared by `to_bits`), same final table cells, same
//! `rows_scanned` accounting. A deterministic corpus pins the trickiest
//! legacy semantics (division by zero, NULL handling, empty inputs,
//! nearest-rank percentile, join column collisions) explicitly.

use extractor::{ChunkedTableBuilder, ColumnData, Table, TableSet, Value};
use ion_llm::iql::legacy::LegacyInterpreter;
use ion_llm::iql::{lower, parse_program, Interpreter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Random generation
// ---------------------------------------------------------------------------

const STR_POOL: [&str; 5] = ["read", "write", "", "aa", "bb"];

/// Column layout shared by the generated tables: a join key plus one
/// column per storage class (typed int/float/str, nullable, mixed).
const COLS: [&str; 6] = ["k", "a", "x", "s", "n", "m"];

fn random_cell(rng: &mut SmallRng, col: &str) -> Value {
    match col {
        // Join key: tiny domain so joins actually match (and collide).
        "k" => Value::Int(rng.gen_range(0..3_i64)),
        // Dense int column; includes zero to exercise `/ 0 == 0`.
        "a" => Value::Int(rng.gen_range(-3..4_i64)),
        // Dense float column, `-0.0` included: it renders apart from
        // `0.0` but compares equal to it.
        "x" => match rng.gen_range(-20..22_i32) {
            21 => Value::Float(-0.0),
            q => Value::Float(f64::from(q) / 4.0),
        },
        // Dense string column.
        "s" => Value::from(STR_POOL[rng.gen_range(0..STR_POOL.len())]),
        // Nullable int column: typed storage with a validity bitmap.
        "n" => {
            if rng.gen_range(0..4_u8) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..5_i64))
            }
        }
        // Mixed column: heterogeneous cells force the fallback storage.
        "m" => match rng.gen_range(0..4_u8) {
            0 => Value::Int(rng.gen_range(-2..3_i64)),
            1 => Value::Float(f64::from(rng.gen_range(0..8_i32)) / 2.0),
            2 => Value::from(STR_POOL[rng.gen_range(0..STR_POOL.len())]),
            _ => Value::Null,
        },
        other => unreachable!("unknown column {other}"),
    }
}

fn random_table(rng: &mut SmallRng, name: &str) -> Table {
    let mut t = Table::new(name, &COLS);
    let rows = rng.gen_range(0..9_usize); // zero-row tables included
    for _ in 0..rows {
        t.push_row(COLS.iter().map(|c| random_cell(rng, c)).collect());
    }
    t
}

fn random_tables(rng: &mut SmallRng) -> TableSet {
    let mut set = TableSet::default();
    set.insert(random_table(rng, "T0"));
    set.insert(random_table(rng, "T1"));
    set
}

/// Like [`random_table`] but cells repeat in short runs, so the typed
/// columns frequently clear the Dict/RLE compression thresholds.
fn random_runs_table(rng: &mut SmallRng, name: &str) -> Table {
    let rows = rng.gen_range(0..40_usize);
    let cols = COLS
        .iter()
        .map(|c| {
            let mut vals: Vec<Value> = Vec::with_capacity(rows);
            while vals.len() < rows {
                let v = random_cell(rng, c);
                let run = rng.gen_range(1..6_usize).min(rows - vals.len());
                for _ in 0..run {
                    vals.push(v.clone());
                }
            }
            ((*c).to_owned(), Arc::new(ColumnData::from_values(vals)))
        })
        .collect();
    Table::from_columns(name, cols)
}

fn random_runs_tables(rng: &mut SmallRng) -> TableSet {
    let mut set = TableSet::default();
    set.insert(random_runs_table(rng, "T0"));
    set.insert(random_runs_table(rng, "T1"));
    set
}

/// Rebuild every table with each column passed through
/// [`ColumnData::compressed`]: same logical cells, Dict/RLE storage
/// wherever the thresholds allow.
fn compress_tables(set: &TableSet) -> TableSet {
    let mut out = TableSet::default();
    for (_, t) in set.iter() {
        let cols = t
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let data = t.column(i).expect("column index in range").clone();
                (c.name.clone(), Arc::new(data.compressed()))
            })
            .collect();
        out.insert(Table::from_columns(&t.name, cols));
    }
    out
}

/// Rebuild every table through [`ChunkedTableBuilder`] with a small row
/// budget, exactly as the streaming extractor does: rows are sealed into
/// compressed chunks and re-assembled via `ColumnData::append`.
fn chunk_rebuild_tables(set: &TableSet, chunk_rows: usize) -> TableSet {
    let mut out = TableSet::default();
    for (_, t) in set.iter() {
        let names: Vec<&str> = t.column_names();
        let mut b = ChunkedTableBuilder::new(&t.name, &names, chunk_rows);
        for row in t.iter_rows() {
            for (c, v) in row.values().enumerate() {
                b.cells().value(c, v);
            }
            b.end_row().expect("in-memory builder is infallible");
        }
        out.insert(b.finish().expect("in-memory builder is infallible"));
    }
    out
}

/// Identifier pool for expressions: columns, a LET-bound scalar, and an
/// unknown name (exercising `NoSuchColumn` / `NoSuchVariable`).
fn random_ident(rng: &mut SmallRng) -> &'static str {
    const IDENTS: [&str; 8] = ["k", "a", "x", "s", "n", "m", "v0", "zz"];
    IDENTS[rng.gen_range(0..IDENTS.len())]
}

fn random_expr(rng: &mut SmallRng, depth: u32) -> String {
    let leaf = depth == 0 || rng.gen_range(0..3_u8) == 0;
    if leaf {
        return match rng.gen_range(0..4_u8) {
            0 => rng.gen_range(-3..4_i32).to_string(),
            1 => format!("{:.2}", f64::from(rng.gen_range(0..10_i32)) / 4.0),
            2 => format!("\"{}\"", STR_POOL[rng.gen_range(0..STR_POOL.len())]),
            _ => random_ident(rng).to_string(),
        };
    }
    match rng.gen_range(0..10_u8) {
        // Binary operators, all precedence levels.
        0..=5 => {
            const OPS: [&str; 13] = [
                "||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
            ];
            format!(
                "({} {} {})",
                random_expr(rng, depth - 1),
                OPS[rng.gen_range(0..OPS.len())],
                random_expr(rng, depth - 1)
            )
        }
        6 => format!("(-{})", random_expr(rng, depth - 1)),
        7 => format!("(!{})", random_expr(rng, depth - 1)),
        // Scalar calls — sometimes with the wrong arity or an unknown
        // name, which must fail identically in both engines.
        8 => {
            const FNS: [&str; 9] = [
                "abs", "sqrt", "floor", "ceil", "round", "min", "max", "if", "nope",
            ];
            let name = FNS[rng.gen_range(0..FNS.len())];
            let argc = rng.gen_range(1..4_usize);
            let args: Vec<String> = (0..argc).map(|_| random_expr(rng, depth - 1)).collect();
            format!("{}({})", name, args.join(", "))
        }
        _ => format!(
            "contains({}, {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
    }
}

fn random_agg_call(rng: &mut SmallRng) -> String {
    const AGGS: [&str; 8] = [
        "sum", "count", "mean", "min", "max", "std", "distinct", "pct",
    ];
    let name = AGGS[rng.gen_range(0..AGGS.len())];
    match name {
        "count" => "count()".to_owned(),
        "pct" => format!(
            "pct({}, {})",
            random_expr(rng, 1),
            [0, 25, 50, 95, 100][rng.gen_range(0..5_usize)]
        ),
        _ => format!("{}({})", name, random_expr(rng, 1)),
    }
}

/// Generate a random program as source text. Names introduced by DERIVE /
/// AGG / LET are drawn from dedicated fresh pools (`d0…`, `g0…`, `v0…`)
/// so the duplicate-column panic — identical in both engines but not
/// comparable through `Result` — cannot fire.
fn random_program(rng: &mut SmallRng) -> String {
    let mut lines = Vec::new();
    // Usually start with a valid LOAD; sometimes skip it or load an
    // unknown table to pin the error paths.
    match rng.gen_range(0..10_u8) {
        0 => {}
        1 => lines.push("LOAD NOPE".to_owned()),
        _ => lines.push(format!("LOAD T{}", rng.gen_range(0..2_u8))),
    }
    let mut derives = 0_u32;
    let mut lets = 0_u32;
    let mut emittable: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..7_usize) {
        match rng.gen_range(0..9_u8) {
            0 => {
                // Half the filters are kept fast-path shaped
                // (`col op literal`) so the vectorized comparison /
                // contains kernels are exercised, not just the generic
                // row-at-a-time fallback.
                let pred = if rng.gen_range(0..2_u8) == 0 {
                    const CMPS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];
                    let rhs = match rng.gen_range(0..3_u8) {
                        0 => rng.gen_range(-2..3_i32).to_string(),
                        1 => format!("\"{}\"", STR_POOL[rng.gen_range(0..STR_POOL.len())]),
                        _ => random_ident(rng).to_string(),
                    };
                    format!(
                        "{} {} {}",
                        random_ident(rng),
                        CMPS[rng.gen_range(0..CMPS.len())],
                        rhs
                    )
                } else {
                    random_expr(rng, 2)
                };
                lines.push(format!("FILTER {pred}"));
            }
            1 => {
                lines.push(format!("DERIVE d{derives} = {}", random_expr(rng, 2)));
                derives += 1;
            }
            2 => {
                // Distinct SELECT list (duplicates would panic, identically,
                // in both engines — not comparable through Result).
                let mut pool: Vec<&str> = COLS.to_vec();
                let keep = rng.gen_range(1..4_usize).min(pool.len());
                let mut list = Vec::new();
                for _ in 0..keep {
                    list.push(pool.swap_remove(rng.gen_range(0..pool.len())));
                }
                if rng.gen_range(0..6_u8) == 0 {
                    list.push("zz"); // unknown column → NoSuchColumn
                }
                lines.push(format!("SELECT {}", list.join(", ")));
            }
            3 => {
                let dir = ["", " ASC", " DESC"][rng.gen_range(0..3_usize)];
                lines.push(format!("SORT {}{dir}", random_ident(rng)));
            }
            4 => lines.push(format!("LIMIT {}", rng.gen_range(0..5_u32))),
            5 => lines.push(format!(
                "JOIN T1 ON {}",
                ["k", "a", "zz"][rng.gen_range(0..3_usize)]
            )),
            6 => {
                let keys = ["k", "s", "a"];
                let nkeys = rng.gen_range(1..3_usize);
                let aggs: Vec<String> = (0..rng.gen_range(1..3_usize))
                    .map(|i| {
                        let name = format!("g{derives}_{i}");
                        emittable.push(name.clone());
                        format!("{name} = {}", random_agg_call(rng))
                    })
                    .collect();
                lines.push(format!(
                    "GROUP {} AGG {}",
                    keys[..nkeys].join(", "),
                    aggs.join(", ")
                ));
                derives += 1;
            }
            7 => {
                let aggs: Vec<String> = (0..rng.gen_range(1..3_usize))
                    .map(|i| {
                        let name = format!("ag{derives}_{i}");
                        emittable.push(name.clone());
                        format!("{name} = {}", random_agg_call(rng))
                    })
                    .collect();
                lines.push(format!("AGG {}", aggs.join(", ")));
                derives += 1;
            }
            _ => {
                let name = format!("v{lets}");
                emittable.push(name.clone());
                lines.push(format!("LET {name} = {}", random_expr(rng, 2)));
                lets += 1;
            }
        }
    }
    if !emittable.is_empty() && rng.gen_range(0..2_u8) == 0 {
        if rng.gen_range(0..6_u8) == 0 {
            emittable.push("zz".to_owned()); // unknown → NoSuchVariable
        }
        lines.push(format!("EMIT {}", emittable.join(", ")));
    }
    lines.join("\n")
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Value equality with floats compared bit-for-bit (NaN == NaN, and no
/// tolerance: the engines must agree on the exact fold order).
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_same_run(src: &str, tables: &TableSet, ctx: &str) {
    assert_same_run_on(src, tables, tables, ctx);
}

/// Run the vectorized engine on `fast_tables` and the legacy oracle on
/// `slow_tables` (logically identical relations, possibly in different
/// physical encodings) and demand bit-for-bit agreement.
fn assert_same_run_on(src: &str, fast_tables: &TableSet, slow_tables: &TableSet, ctx: &str) {
    let program = match parse_program(src) {
        Ok(p) => p,
        Err(_) => return, // both engines share the parser; nothing to compare
    };
    // The executed plan is the program as written: one op per statement.
    assert_eq!(
        Interpreter::new(fast_tables).plan(&program),
        lower(&program),
        "{ctx}: plan is not the 1:1 lowering\nprogram:\n{src}"
    );
    let fast = Interpreter::new(fast_tables).run(&program);
    let slow = LegacyInterpreter::new(slow_tables).run(&program);
    match (fast, slow) {
        (Err(a), Err(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{ctx}: engines disagree on the error\nprogram:\n{src}"
            );
        }
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.rows_scanned, b.rows_scanned,
                "{ctx}: rows_scanned diverged\nprogram:\n{src}"
            );
            assert_eq!(
                a.emitted.len(),
                b.emitted.len(),
                "{ctx}: emitted arity diverged\nprogram:\n{src}"
            );
            for ((an, av), (bn, bv)) in a.emitted.iter().zip(b.emitted.iter()) {
                assert_eq!(an, bn, "{ctx}: emitted name diverged\nprogram:\n{src}");
                assert!(
                    value_eq(av, bv),
                    "{ctx}: emitted {an} diverged: {av:?} vs {bv:?}\nprogram:\n{src}"
                );
            }
            match (&a.table, &b.table) {
                (None, None) => {}
                (Some(at), Some(bt)) => {
                    assert_eq!(at.name, bt.name, "{ctx}: table name\nprogram:\n{src}");
                    let acols: Vec<&str> = at.columns.iter().map(|c| c.name.as_str()).collect();
                    let bcols: Vec<&str> = bt.columns.iter().map(|c| c.name.as_str()).collect();
                    assert_eq!(acols, bcols, "{ctx}: table schema\nprogram:\n{src}");
                    assert_eq!(at.len(), bt.len(), "{ctx}: table length\nprogram:\n{src}");
                    for (i, (ar, br)) in at.iter_rows().zip(bt.iter_rows()).enumerate() {
                        for (j, (av, bv)) in ar.values().zip(br.values()).enumerate() {
                            assert!(
                                value_eq(&av, &bv),
                                "{ctx}: cell ({i},{j}) diverged: {av:?} vs {bv:?}\nprogram:\n{src}"
                            );
                        }
                    }
                }
                (a, b) => panic!(
                    "{ctx}: one engine produced a table, the other did not \
                     ({a:?} vs {b:?})\nprogram:\n{src}"
                ),
            }
        }
        (a, b) => panic!(
            "{ctx}: engines disagree on success\nvectorized: {a:?}\nlegacy: {b:?}\nprogram:\n{src}"
        ),
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn random_programs_match_legacy_engine() {
    for seed in 0..400_u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tables = random_tables(&mut rng);
        let src = random_program(&mut rng);
        assert_same_run(&src, &tables, &format!("seed {seed}"));
    }
}

#[test]
fn random_programs_match_legacy_on_compressed_relations() {
    for seed in 0..300_u64 {
        let mut rng = SmallRng::seed_from_u64(0x1CE0_0000 ^ seed);
        let plain = random_runs_tables(&mut rng);
        let src = random_program(&mut rng);
        let compressed = compress_tables(&plain);
        assert_same_run_on(
            &src,
            &compressed,
            &plain,
            &format!("compressed seed {seed}"),
        );
        let chunked = chunk_rebuild_tables(&plain, 7);
        assert_same_run_on(&src, &chunked, &plain, &format!("chunked seed {seed}"));
    }
}

#[test]
fn compressed_relation_corpus_matches_legacy_on_plain() {
    // Run-heavy fixture: every typed column clears its compression
    // threshold (asserted below), so these programs genuinely scan
    // Dict/RLE storage in the vectorized engine while the legacy oracle
    // sees the same cells in dense columns.
    let mut t0 = Table::new("T0", &COLS);
    for i in 0..24_i64 {
        t0.push_row(vec![
            Value::Int(i / 8),                                      // k: runs of 8
            Value::Int(if i < 12 { 0 } else { 5 }),                 // a: two runs
            Value::Float(0.25 * ((i / 6) as f64)),                  // x: runs of 6
            Value::from(if i % 12 < 6 { "read" } else { "write" }), // s: 2-entry dict
            if i % 7 == 0 {
                Value::Null // n: nullable — must stay dense
            } else {
                Value::Int(i % 3)
            },
            Value::from("const"), // m: single-entry dict
        ]);
    }
    let mut t1 = Table::new("T1", &COLS);
    for i in 0..8_i64 {
        t1.push_row(vec![
            Value::Int(i / 4),
            Value::Int(7),
            Value::Float(2.0),
            Value::from("bb"),
            Value::Int(1),
            Value::from("const"),
        ]);
    }
    let mut plain = TableSet::default();
    plain.insert(t0);
    plain.insert(t1);

    let compressed = compress_tables(&plain);
    let ct = compressed.get("T0").unwrap();
    assert!(matches!(ct.column(0), Some(ColumnData::RleInt { .. })));
    assert!(matches!(ct.column(1), Some(ColumnData::RleInt { .. })));
    assert!(matches!(ct.column(2), Some(ColumnData::RleFloat { .. })));
    assert!(matches!(ct.column(3), Some(ColumnData::Dict { .. })));
    assert!(matches!(ct.column(4), Some(ColumnData::Int { .. })));
    assert!(matches!(ct.column(5), Some(ColumnData::Dict { .. })));
    let chunked = chunk_rebuild_tables(&plain, 5);

    let corpus: &[&str] = &[
        // RLE column vs constant, both operand orders, every comparison.
        "LOAD T0\nFILTER a > 2\nSELECT k, a",
        "LOAD T0\nFILTER a <= 0\nSELECT k, a",
        "LOAD T0\nFILTER 2 <= k\nSELECT k",
        "LOAD T0\nFILTER a == 5 || a != 0\nSELECT k, a",
        "LOAD T0\nFILTER x == 0.25\nSELECT k, x",
        "LOAD T0\nFILTER x < 0.75 && x >= 0.25\nSELECT k, x",
        // Dict column through the string mask and contains kernels.
        "LOAD T0\nFILTER s == \"read\"\nAGG c = count()\nEMIT c",
        "LOAD T0\nFILTER \"read\" <= s\nSELECT k, s",
        "LOAD T0\nFILTER contains(s, \"ea\")\nAGG c = count()\nEMIT c",
        // Sorting through dictionary order and RLE float keys.
        "LOAD T0\nSORT s DESC\nSELECT s, k",
        "LOAD T0\nSORT x\nSELECT x",
        "LOAD T0\nSORT k DESC\nLIMIT 5",
        // Order-sensitive numeric folds over run-expanded values.
        "LOAD T0\nAGG t = sum(x), m = mean(x), sd = std(x), lo = min(a), hi = max(a)\nEMIT t, m, sd, lo, hi",
        "LOAD T0\nAGG p = pct(x, 50), u = distinct(s)\nEMIT p, u",
        // Grouping and joining on RLE keys.
        "LOAD T0\nGROUP k AGG c = count(), t = sum(x)",
        "LOAD T0\nGROUP s AGG c = count()",
        "LOAD T0\nJOIN T1 ON k\nSORT a DESC\nLIMIT 6",
        // Arithmetic compilation over RLE inputs.
        "LOAD T0\nDERIVE d0 = a * 2 + k\nSELECT d0",
        "LOAD T0\nDERIVE d0 = x / 0.5\nAGG t = sum(d0)\nEMIT t",
        // Nullable column stays dense but must still agree.
        "LOAD T0\nFILTER n == 1\nSELECT k, n",
        "LOAD T0\nAGG c = count(n), t = sum(n)\nEMIT c, t",
        // Single-entry dictionary passthrough.
        "LOAD T0\nSELECT m\nLIMIT 3",
        "LOAD T0\nFILTER m == \"const\"\nAGG c = count()\nEMIT c",
    ];
    for (i, src) in corpus.iter().enumerate() {
        assert_same_run_on(src, &compressed, &plain, &format!("compressed corpus[{i}]"));
        assert_same_run_on(src, &chunked, &plain, &format!("chunked corpus[{i}]"));
    }
}

#[test]
fn edge_case_corpus_matches_legacy_engine() {
    let mut t0 = Table::new("T0", &COLS);
    t0.push_row(vec![
        Value::Int(0),
        Value::Int(0),
        Value::Float(1.5),
        Value::from("write"),
        Value::Null,
        Value::from("aa"),
    ]);
    t0.push_row(vec![
        Value::Int(1),
        Value::Int(-2),
        Value::Float(f64::NAN),
        Value::from(""),
        Value::Int(3),
        Value::Float(0.5),
    ]);
    t0.push_row(vec![
        Value::Int(1),
        Value::Int(2),
        Value::Float(-0.25),
        Value::from("read"),
        Value::Int(0),
        Value::Null,
    ]);
    let mut t1 = Table::new("T1", &COLS);
    t1.push_row(vec![
        Value::Int(1),
        Value::Int(7),
        Value::Float(2.0),
        Value::from("bb"),
        Value::Null,
        Value::Int(1),
    ]);
    let empty = Table::new("E", &["a", "b"]);
    let mut tables = TableSet::default();
    tables.insert(t0);
    tables.insert(t1);
    tables.insert(empty);

    let corpus: &[&str] = &[
        // Division and remainder by zero evaluate to 0, not an error.
        "LOAD T0\nDERIVE d0 = a / 0\nDERIVE d1 = a % 0\nAGG s0 = sum(d0), s1 = sum(d1)\nEMIT s0, s1",
        // NULL semantics: falsy in filters, skipped by numeric aggregates,
        // counted by count().
        "LOAD T0\nFILTER n\nAGG c = count()\nEMIT c",
        "LOAD T0\nAGG c = count(), s = sum(n), m = mean(n)\nEMIT c, s, m",
        // Aggregates over an empty table (min/max/mean of nothing → 0).
        "LOAD E\nAGG c = count(), lo = min(a), hi = max(a), m = mean(a)\nEMIT c, lo, hi, m",
        // Nearest-rank percentile at the boundaries.
        "LOAD T0\nAGG p0 = pct(a, 0), p50 = pct(a, 50), p100 = pct(a, 100)\nEMIT p0, p50, p100",
        // Population std and distinct over a mixed column.
        "LOAD T0\nAGG sd = std(a), u = distinct(m)\nEMIT sd, u",
        // Join with collision handling (every shared column beyond the key
        // is dropped from the right side).
        "LOAD T0\nJOIN T1 ON k\nSORT a DESC\nLIMIT 2",
        // Stable sort with equal keys, then projection pruning.
        "LOAD T0\nSORT k\nSELECT k, s",
        // A filter after a sort reports the first failing row in sorted
        // order.
        "LOAD T0\nSORT x DESC\nFILTER s + 1 > 0",
        // GROUP over two keys with every aggregate kind.
        "LOAD T0\nGROUP k, s AGG c = count(), t = sum(x), u = distinct(a)",
        // Scalars: LET before FILTER, identifier shadowing (column wins in
        // row context), EMIT of both.
        "LOAD T0\nLET a = 100\nLET lim = 1\nFILTER a >= lim\nAGG c = count()\nEMIT c, lim",
        // Error paths: unknown table, column, variable, function, arity.
        "LOAD NOPE",
        "FILTER a > 0",
        "LOAD T0\nFILTER zz > 0",
        "LOAD T0\nAGG c = nope(a)",
        "LOAD T0\nDERIVE d0 = sqrt(a, x)",
        "LOAD T0\nEMIT zz",
        // Duplicate column names from DERIVE, SELECT and GROUP.
        "LOAD T0\nDERIVE k = 1",
        "LOAD T0\nSELECT k, k",
        "LOAD T0\nGROUP k AGG k = count()",
        // String comparison both content-wise and coerced.
        "LOAD T0\nFILTER s == \"write\" || s != m\nAGG c = count()\nEMIT c",
        // Every comparison operator through the vectorized mask kernels:
        // numeric column vs constant, float column, string column vs
        // string constant (both directions), and And/Or/Not composition.
        "LOAD T0\nFILTER a < 1\nSELECT k, a",
        "LOAD T0\nFILTER a <= 0\nSELECT k, a",
        "LOAD T0\nFILTER a > 0\nSELECT k, a",
        "LOAD T0\nFILTER a >= 2\nSELECT k, a",
        "LOAD T0\nFILTER a == 2 || a != 0\nSELECT k, a",
        "LOAD T0\nFILTER x < 1.0 && x >= -0.25\nSELECT k, x",
        "LOAD T0\nFILTER s < \"write\"\nSELECT k, s",
        "LOAD T0\nFILTER \"read\" <= s\nSELECT k, s",
        "LOAD T0\nFILTER !(a == 2) && !(s == \"\")\nSELECT k, s",
        "LOAD T0\nFILTER k + 1 < a * 2\nSELECT k, a",
        // contains() over a dense string column and a non-string operand.
        "LOAD T0\nFILTER contains(s, \"r\")\nAGG c = count()\nEMIT c",
        "LOAD T0\nFILTER contains(a, \"r\")",
        // Arithmetic type rule: Int op Int stays Int, / widens via fract.
        "LOAD T0\nDERIVE half = a / 2\nDERIVE dbl = a * 2\nSELECT half, dbl",
    ];
    for (i, src) in corpus.iter().enumerate() {
        assert_same_run(src, &tables, &format!("corpus[{i}]"));
    }
}

/// A column whose cells are given one per row.
fn column(cells: Vec<Value>) -> Arc<ColumnData> {
    Arc::new(ColumnData::from_values(cells))
}

#[test]
fn key_classes_follow_rendered_equality_like_legacy() {
    // Every key column below holds cells whose typed equality and
    // rendered equality (the legacy GROUP/distinct/JOIN key) disagree.
    const E15: i64 = 1_000_000_000_000_000;
    let other_nan = f64::from_bits(0x7ff8_0000_0000_0001);
    let k = Table::from_columns(
        "K",
        vec![
            // Runs, so the compressed copy scans RLE storage.
            (
                "k".into(),
                column((0..8).map(|i| Value::Int(i / 4)).collect()),
            ),
            // Null and "" both render empty.
            (
                "nv".into(),
                column(
                    [
                        None,
                        Some(""),
                        Some("x"),
                        None,
                        Some(""),
                        Some("x"),
                        Some(""),
                        None,
                    ]
                    .iter()
                    .map(|c| c.map_or(Value::Null, Value::from))
                    .collect(),
                ),
            ),
            // Int(10^15) and Float(1e15) both render 1000000000000000;
            // Int(1) renders like Str("1"), not like Float(1.0).
            (
                "mx".into(),
                column(vec![
                    Value::Int(E15),
                    Value::Float(1e15),
                    Value::Int(1),
                    Value::Float(1.0),
                    Value::Int(E15),
                    Value::Float(1e15),
                    Value::Null,
                    Value::from("1"),
                ]),
            ),
            // Three NaN bit patterns, all rendered NaN.
            (
                "nan".into(),
                column(
                    [
                        f64::NAN,
                        -f64::NAN,
                        other_nan,
                        1.0,
                        f64::NAN,
                        1.0,
                        other_nan,
                        -f64::NAN,
                    ]
                    .map(Value::Float)
                    .to_vec(),
                ),
            ),
            // -0.0 and 0.0 compare equal but render apart; runs again.
            (
                "z".into(),
                column(
                    [0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0]
                        .map(Value::Float)
                        .to_vec(),
                ),
            ),
            // Str("5") renders like Int(5).
            (
                "sv".into(),
                column(vec![
                    Value::from("5"),
                    Value::Int(5),
                    Value::from("5"),
                    Value::Int(6),
                    Value::from("6"),
                    Value::Int(5),
                    Value::from("x"),
                    Value::Int(5),
                ]),
            ),
            // A dictionary with a duplicated entry: codes 0 and 1 are the
            // same string.
            (
                "d".into(),
                Arc::new(ColumnData::Dict {
                    codes: vec![0, 1, 2, 0, 1, 2, 1, 0],
                    dict: vec![Arc::from("a"), Arc::from("a"), Arc::from("b")],
                    validity: None,
                }),
            ),
            // Null (-1 here) never meets 0, the placeholder under it.
            (
                "ni".into(),
                column(
                    [-1, 0, -1, 1, 0, -1, 1, 0]
                        .map(|c| if c < 0 { Value::Null } else { Value::Int(c) })
                        .to_vec(),
                ),
            ),
            // Join key, Int.
            (
                "key".into(),
                column([5, E15, 1, 2, 5, 7, 1, 0].map(Value::Int).to_vec()),
            ),
        ],
    );
    // Join partners whose key kind differs from K's Int key.
    let partner = |name: &str, keys: Vec<Value>| {
        let n = keys.len() as i64;
        Table::from_columns(
            name,
            vec![
                ("key".into(), column(keys)),
                ("w".into(), column((0..n).map(Value::Int).collect())),
            ],
        )
    };
    let mut plain = TableSet::default();
    plain.insert(k);
    plain.insert(partner(
        "JS",
        vec![
            Value::from("5"),
            Value::from("1000000000000000"),
            Value::from("1"),
            Value::from("9"),
        ],
    ));
    plain.insert(partner(
        "JF",
        [5.0, 1e15, 1.0, 2.5].map(Value::Float).to_vec(),
    ));
    plain.insert(partner("JI", [5, 1, 1].map(Value::Int).to_vec()));
    plain.insert(partner(
        "JM",
        vec![
            Value::Float(1e15),
            Value::from("7"),
            Value::Null,
            Value::Int(0),
        ],
    ));
    let compressed = compress_tables(&plain);
    let ck = compressed.get("K").unwrap();
    assert!(matches!(ck.column(0), Some(ColumnData::RleInt { .. })));
    assert!(matches!(ck.column(4), Some(ColumnData::RleFloat { .. })));
    let chunked = chunk_rebuild_tables(&plain, 3);

    let corpus: &[&str] = &[
        "LOAD K\nGROUP nv AGG c = count(), u = distinct(k)",
        "LOAD K\nGROUP mx AGG c = count(), u = distinct(sv)",
        "LOAD K\nGROUP nan AGG c = count(), u = distinct(z)",
        "LOAD K\nGROUP z AGG c = count(), u = distinct(nan)",
        "LOAD K\nGROUP sv AGG c = count(), u = distinct(mx)",
        "LOAD K\nGROUP d AGG c = count(), u = distinct(nv)",
        "LOAD K\nGROUP ni AGG c = count(), u = distinct(d)",
        "LOAD K\nFILTER k == 0\nAGG u = distinct(ni)\nEMIT u",
        "LOAD K\nGROUP k, d, z AGG c = count()",
        "LOAD K\nAGG a = distinct(nv), b = distinct(mx), c = distinct(nan), e = distinct(z), f = distinct(sv), g = distinct(d)\nEMIT a, b, c, e, f, g",
        // distinct over expressions: typed, and mixed Int/Float results.
        "LOAD K\nAGG a = distinct(k * 0.5), b = distinct(k + z), c = distinct(-z)\nEMIT a, b, c",
        // Through a FILTER selection vector, and a SORT permutation.
        "LOAD K\nFILTER k >= 1\nGROUP d, z AGG c = count(), u = distinct(sv)",
        "LOAD K\nFILTER z == 0\nGROUP z, nan AGG c = count(), u = distinct(d)",
        "LOAD K\nSORT key DESC\nGROUP z, k AGG c = count(), u = distinct(nan)",
        "LOAD K\nSORT key\nFILTER key > 0\nAGG u = distinct(k), v = distinct(z)\nEMIT u, v",
        // JOIN keys of every kind pairing.
        "LOAD K\nJOIN JS ON key",
        "LOAD K\nJOIN JF ON key",
        "LOAD K\nJOIN JI ON key",
        "LOAD K\nJOIN JM ON key",
        "LOAD K\nFILTER k == 1\nJOIN JI ON key\nJOIN JS ON w",
        "LOAD K\nGROUP key AGG c = count()\nJOIN JS ON key",
        "LOAD JS\nJOIN K ON key",
    ];
    for (i, src) in corpus.iter().enumerate() {
        assert_same_run(src, &plain, &format!("key corpus[{i}]"));
        assert_same_run_on(
            src,
            &compressed,
            &plain,
            &format!("compressed key corpus[{i}]"),
        );
        assert_same_run_on(src, &chunked, &plain, &format!("chunked key corpus[{i}]"));
    }
}
