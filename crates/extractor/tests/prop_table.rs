//! Property tests for the columnar [`Table`] invariants under hostile
//! inputs: validity bitmaps always track column length, the `Mixed`
//! fallback never loses cells, and degenerate tables (zero-row, all-null)
//! encode to the same table artifact whichever way they were built.

use extractor::csv::to_csv;
use extractor::table::{ColumnData, Table, Value};
use extractor::{decode_table, encode_table};
use proptest::prelude::*;
use std::sync::Arc;

/// Arbitrary cell values, including the extremes hostile logs produce.
/// Floats stay non-NaN so cells can be compared with `==`.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN)),
        (-1.0e300f64..1.0e300).prop_map(Value::Float),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        "[ -~]{0,20}".prop_map(|s| Value::Str(Arc::from(s.as_str()))),
        Just(Value::Str(Arc::from("λ\u{0}🦀"))),
    ]
}

/// The validity bitmap (when present) must be exactly as long as the
/// value vector, whatever push sequence produced the column.
fn assert_bitmap_invariant(c: &ColumnData) {
    match c {
        ColumnData::Int { values, validity } => {
            if let Some(b) = validity {
                assert_eq!(b.len(), values.len());
            }
        }
        ColumnData::Float { values, validity } => {
            if let Some(b) = validity {
                assert_eq!(b.len(), values.len());
            }
        }
        ColumnData::Str { values, validity } => {
            if let Some(b) = validity {
                assert_eq!(b.len(), values.len());
            }
        }
        ColumnData::Dict {
            codes,
            dict,
            validity,
        } => {
            if let Some(b) = validity {
                assert_eq!(b.len(), codes.len());
            }
            for (&code, i) in codes.iter().zip(0..) {
                assert!(
                    c.is_null(i) || (code as usize) < dict.len(),
                    "code {code} out of dictionary range {}",
                    dict.len()
                );
            }
        }
        ColumnData::RleInt { values, ends } => {
            assert_eq!(values.len(), ends.len());
            assert!(ends.windows(2).all(|w| w[0] < w[1]), "ends not increasing");
        }
        ColumnData::RleFloat { values, ends } => {
            assert_eq!(values.len(), ends.len());
            assert!(ends.windows(2).all(|w| w[0] < w[1]), "ends not increasing");
        }
        ColumnData::Mixed(_) => {}
    }
}

proptest! {
    // Any push sequence: bitmap length == column length, and every cell
    // reads back exactly as pushed (promotion to Mixed loses nothing).
    #[test]
    fn pushes_preserve_cells_and_bitmap_length(values in proptest::collection::vec(arb_value(), 0..50)) {
        let col = ColumnData::from_values(values.clone());
        prop_assert_eq!(col.len(), values.len());
        assert_bitmap_invariant(&col);
        let nulls = values.iter().filter(|v| v.is_null()).count();
        prop_assert_eq!(col.null_count(), nulls);
        for (i, expected) in values.iter().enumerate() {
            prop_assert_eq!(&col.value(i), expected, "cell {}", i);
            prop_assert_eq!(col.is_null(i), expected.is_null());
        }
    }

    // A column forced through every representation (ints, then floats,
    // then strings, with nulls sprinkled in) ends Mixed without dropping
    // or reordering a single cell.
    #[test]
    fn mixed_fallback_never_loses_cells(
        ints in proptest::collection::vec(any::<i64>(), 1..10),
        floats in proptest::collection::vec(-1.0e12f64..1.0e12, 1..10),
        strs in proptest::collection::vec("[a-z]{0,6}", 1..10),
        null_every in 2usize..5,
    ) {
        let mut expected = Vec::new();
        for (i, v) in ints.iter().enumerate() {
            expected.push(Value::Int(*v));
            if i % null_every == 0 {
                expected.push(Value::Null);
            }
        }
        for v in &floats {
            expected.push(Value::Float(*v));
        }
        for s in &strs {
            expected.push(Value::Str(Arc::from(s.as_str())));
        }
        let col = ColumnData::from_values(expected.clone());
        prop_assert!(matches!(col, ColumnData::Mixed(_)), "got {:?}", col);
        prop_assert_eq!(col.len(), expected.len());
        let materialized: Vec<Value> = col.iter().collect();
        prop_assert_eq!(materialized, expected);
    }

    // Gathering any subset of rows preserves cells and the bitmap
    // invariant in the gathered column.
    #[test]
    fn gather_preserves_cells(
        values in proptest::collection::vec(arb_value(), 1..40),
        picks in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let col = ColumnData::from_values(values.clone());
        #[allow(clippy::cast_possible_truncation)]
        let indices: Vec<u32> = picks.iter().map(|p| p % values.len() as u32).collect();
        let gathered = col.gather(&indices);
        prop_assert_eq!(gathered.len(), indices.len());
        assert_bitmap_invariant(&gathered);
        for (out, &src) in indices.iter().enumerate() {
            prop_assert_eq!(gathered.value(out), col.value(src as usize));
        }
    }

    // Compression is invisible: any column compares equal to its
    // compressed form, reads back cell-for-cell, and decompresses to the
    // original representation's cells.
    #[test]
    fn compression_round_trips(values in proptest::collection::vec(arb_value(), 0..60)) {
        let col = ColumnData::from_values(values.clone());
        let comp = col.clone().compressed();
        prop_assert_eq!(&comp, &col);
        assert_bitmap_invariant(&comp);
        prop_assert_eq!(comp.null_count(), col.null_count());
        for i in 0..values.len() {
            prop_assert_eq!(comp.value(i), col.value(i), "cell {}", i);
            prop_assert_eq!(comp.f64_at(i), col.f64_at(i), "f64 {}", i);
            prop_assert_eq!(comp.is_null(i), col.is_null(i), "null {}", i);
        }
        prop_assert_eq!(comp.clone().decompressed(), col);
    }

    // Appending columns (in any mix of compressed/dense representations)
    // equals building the concatenation by pushes.
    #[test]
    fn append_equals_concatenation(
        a in proptest::collection::vec(arb_value(), 0..40),
        b in proptest::collection::vec(arb_value(), 0..40),
    ) {
        let expect = ColumnData::from_values(a.iter().cloned().chain(b.iter().cloned()));
        for (compress_left, compress_right) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            let mut l = ColumnData::from_values(a.clone());
            if compress_left {
                l = l.compressed();
            }
            let mut r = ColumnData::from_values(b.clone());
            if compress_right {
                r = r.compressed();
            }
            l.append(r);
            prop_assert_eq!(&l, &expect);
            assert_bitmap_invariant(&l);
        }
    }

    // All-null tables encode to the same artifact bytes regardless of
    // construction path — the digest-stability contract (ion-store
    // digests hash the artifact).
    #[test]
    fn all_null_tables_digest_stably(rows in 0usize..20, cols in 1usize..5) {
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();

        // Path 1: row-wise pushes.
        let mut by_rows = Table::new("t", &name_refs);
        for _ in 0..rows {
            by_rows.push_row(vec![Value::Null; cols]);
        }
        // Path 2: column-wise construction.
        let columns = names
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    Arc::new(ColumnData::from_values(vec![Value::Null; rows])),
                )
            })
            .collect();
        let by_cols = Table::from_columns("t", columns);

        prop_assert_eq!(to_csv(&by_rows), to_csv(&by_cols));
        let bytes = encode_table(&by_rows);
        prop_assert_eq!(&encode_table(&by_cols), &bytes);
        // And the canonical form is a fixpoint: decode → encode is stable.
        let decoded = decode_table(&bytes).unwrap();
        prop_assert_eq!(&decoded, &by_rows);
        prop_assert_eq!(encode_table(&decoded), bytes);
    }
}

#[test]
fn zero_row_table_artifacts_encode_stably() {
    let a = Table::new("t", &["x", "y"]);
    let b = Table::from_columns(
        "t",
        vec![
            ("x".into(), Arc::new(ColumnData::empty())),
            ("y".into(), Arc::new(ColumnData::empty())),
        ],
    );
    assert_eq!(to_csv(&a), to_csv(&b));
    assert_eq!(encode_table(&a), encode_table(&b));
    let decoded = decode_table(&encode_table(&a)).unwrap();
    assert!(decoded.is_empty());
    assert_eq!(decoded, a);
    assert_eq!(encode_table(&decoded), encode_table(&a));
}

/// Hostile cells must never panic the read paths.
#[test]
fn hostile_cells_never_panic_reads() {
    let mut t = Table::new("t", &["a", "b"]);
    t.push_row(vec![Value::Int(i64::MAX), Value::Float(f64::NAN)]);
    t.push_row(vec![Value::Null, Value::Str(Arc::from("\u{0}\u{ffff}"))]);
    t.push_row(vec![Value::Float(f64::INFINITY), Value::Int(i64::MIN)]);
    for row in t.iter_rows() {
        for v in row.values() {
            let _ = v.as_f64();
            let _ = v.as_i64();
            let _ = v.truthy();
            let _ = v.to_string();
        }
    }
    for col in 0..2 {
        let c = t.column(col).unwrap();
        for i in 0..t.len() {
            let _ = c.f64_at(i);
            let _ = c.is_null(i);
        }
        assert_eq!(c.len(), t.len());
    }
    let csv = to_csv(&t);
    assert!(!csv.is_empty());
}
