//! Property-based tests for the store's keying primitives: a stored
//! table reads back as the table that was written, and dependency
//! digests notice every change that matters (any cell of a table, any
//! visible byte of a context, any byte of an artifact).

use extractor::{decode_table, encode_table, Table, Value};
use ion::context::ContextRevision;
use ion_store::digest::digest_bytes;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1e15f64..1e15).prop_map(Value::Float),
        "[a-zA-Z][a-zA-Z0-9 /._-]{0,16}".prop_map(|s: String| Value::Str(s.into())),
        Just(Value::Null),
    ]
}

fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (1usize..5).prop_flat_map(|ncols| {
        proptest::collection::vec(proptest::collection::vec(arb_value(), ncols), 0..12)
    })
}

fn table_from(rows: &[Vec<Value>]) -> Table {
    let ncols = rows.first().map_or(1, Vec::len);
    let cols: Vec<String> = (0..ncols).map(|i| format!("col{i}")).collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new("T", &col_refs);
    for row in rows {
        t.push_row(row.clone());
    }
    t
}

proptest! {
    // A table artifact decodes to the table that was encoded (NaN-free
    // cells, so `==` is the right comparison).
    #[test]
    fn table_artifact_round_trips(rows in arb_rows()) {
        let table = table_from(&rows);
        prop_assert_eq!(decode_table(&encode_table(&table)).unwrap(), table);
    }

    // Changing one cell, or dropping one row, always changes the artifact
    // digest (multiplicity matters: a missing duplicate is a different
    // table).
    #[test]
    fn artifact_digest_sees_a_changed_or_dropped_cell(
        first in proptest::collection::vec(arb_value(), 1..5),
        rest in arb_rows(),
        at in 0usize..12,
        col in 0usize..5,
        cell in arb_value(),
    ) {
        // At least one row, all the same width as `first`.
        let mut rows = vec![first.clone()];
        rows.extend(
            rest.into_iter()
                .map(|r| (0..first.len()).map(|i| r.get(i).cloned().unwrap_or(Value::Null)).collect()),
        );
        let digest = |rows: &[Vec<Value>]| digest_bytes(&encode_table(&table_from(rows)));
        let base = digest(&rows);
        let row = at % rows.len();
        let mut fewer = rows.clone();
        fewer.remove(row);
        prop_assert_ne!(digest(&fewer), base);
        let mut changed = rows.clone();
        let slot = &mut changed[row][col % first.len()];
        if *slot != cell {
            *slot = cell;
            prop_assert_ne!(digest(&changed), base);
        }
    }

    // Any visible insertion into a context text changes its revision —
    // this is what invalidates exactly the edited issue's analyses.
    #[test]
    fn context_revision_sees_any_visible_edit(
        text in "[ -~\n]{0,120}",
        at in 0usize..121,
        ch in 0u8..26,
    ) {
        let mut edited = text.clone();
        edited.insert(at.min(text.len()), (b'a' + ch) as char);
        prop_assert_ne!(ContextRevision::of(&edited), ContextRevision::of(&text));
    }

    // Cosmetic whitespace (trailing spaces, CRLF, surrounding blank
    // lines) never changes a revision: formatting a context file must
    // not invalidate its cached analyses.
    #[test]
    fn context_revision_ignores_cosmetic_whitespace(
        lines in proptest::collection::vec("[ -~]{0,24}", 1..6),
        pad in 0usize..3,
    ) {
        let clean = lines.join("\n");
        let messy = format!(
            "{}{}{}",
            "\n".repeat(pad),
            lines.iter().map(|l| format!("{l}   \r\n")).collect::<String>(),
            "\n".repeat(pad)
        );
        prop_assert_eq!(ContextRevision::of(&messy), ContextRevision::of(&clean));
    }

    // Content addressing: flipping any byte of an artifact changes its
    // object digest.
    #[test]
    fn byte_flip_changes_digest(bytes in proptest::collection::vec(any::<u8>(), 1..256),
                                at in 0usize..256, bit in 0u8..8) {
        let mut flipped = bytes.clone();
        let i = at % bytes.len();
        flipped[i] ^= 1 << bit;
        prop_assert_ne!(digest_bytes(&flipped), digest_bytes(&bytes));
    }
}
