//! Typed, column-oriented table model shared by the CSV codec and IQL.
//!
//! # Storage contract
//!
//! A [`Table`] stores one [`ColumnData`] per column: a typed vector
//! (`Int`/`Float`/`Str`) plus an optional validity bitmap for nulls, with a
//! [`ColumnData::Mixed`] fallback when a column holds heterogeneous cell
//! types. Columns are `Arc`-shared, so cloning a table — or projecting a
//! subset of its columns into a new table — copies pointers, not data.
//!
//! Row access is provided by a view adapter ([`Table::iter_rows`] /
//! [`RowView`]) that materializes cells on demand; the observable cell
//! values are identical to the old row-major representation, which keeps
//! CSV round-trips and `ion-store` content digests byte-stable.
//!
//! ```
//! use extractor::{Table, Value};
//!
//! let mut t = Table::new("T", &["a", "b"]);
//! t.push_row(vec![Value::Int(1), Value::from("x")]);
//! t.push_row(vec![Value::Null, Value::from("y")]);
//!
//! // Column access: typed, nulls tracked by a validity bitmap.
//! let col = t.column(0).unwrap();
//! assert_eq!(col.value(0), Value::Int(1));
//! assert_eq!(col.value(1), Value::Null);
//! assert_eq!(col.null_count(), 1);
//!
//! // Row access: a view that materializes cells on demand.
//! let first: Vec<Value> = t.iter_rows().next().unwrap().to_vec();
//! assert_eq!(first, vec![Value::Int(1), Value::from("x")]);
//!
//! // Column slices are zero-copy: the Arc is shared, not the data.
//! let shared = t.column_arc(1).unwrap();
//! assert_eq!(shared.value(1), Value::from("y"));
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (cheaply clonable: tables copy rows constantly during
    /// query evaluation, so strings are shared, not reallocated).
    Str(Arc<str>),
    /// Missing value.
    Null,
}

impl Value {
    /// Numeric view of the value (`Int` and `Float` coerce; `Str`/`Null`
    /// do not).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// String view of the value (only for `Str`).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is `Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Parse a CSV field into the most specific type: empty → `Null`,
    /// integer, float, then string.
    #[must_use]
    pub fn parse(field: &str) -> Value {
        if field.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = field.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = field.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Str(Arc::from(field))
    }

    /// Truthiness used by IQL predicates: non-zero numbers and non-empty
    /// strings are true.
    #[must_use]
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Null => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Null => Ok(()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

/// A named column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (header row in CSV).
    pub name: String,
}

/// Validity bitmap: one bit per row, `true` = the row holds a real value,
/// `false` = null. Trailing bits of the last word are kept zero so the
/// derived equality is semantic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set to `bit`.
    #[must_use]
    pub fn filled(len: usize, bit: bool) -> Self {
        let mut b = Bitmap::default();
        for _ in 0..len {
            b.push(bit);
        }
        b
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit at `i` (`false` when out of range).
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (valid) bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Typed storage for one column.
///
/// `Int`/`Float`/`Str` keep a dense typed vector; rows whose validity bit
/// is unset are null and their slot holds an ignored placeholder. A
/// validity of `None` means every row is valid. `Mixed` is the fallback
/// for columns whose cells do not share one type (e.g. an `Int` column
/// that later receives a `Float` — the distinction is observable because
/// `Int(1)` and `Float(1.0)` render differently).
///
/// `Dict`/`RleInt`/`RleFloat` are compressed encodings produced by
/// [`ColumnData::compressed`]. They answer the same row-level API
/// (`value`, `f64_at`, `push`, `gather`, …) as the dense variants and
/// compare equal to their uncompressed form, so the rest of the pipeline
/// never needs to know which physical representation a column uses.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int {
        /// Cell payloads (placeholder `0` where invalid).
        values: Vec<i64>,
        /// `None` = all rows valid.
        validity: Option<Bitmap>,
    },
    /// 64-bit floats.
    Float {
        /// Cell payloads (placeholder `0.0` where invalid).
        values: Vec<f64>,
        /// `None` = all rows valid.
        validity: Option<Bitmap>,
    },
    /// Shared strings.
    Str {
        /// Cell payloads (placeholder `""` where invalid).
        values: Vec<Arc<str>>,
        /// `None` = all rows valid.
        validity: Option<Bitmap>,
    },
    /// Dictionary-encoded strings: row `i` holds `dict[codes[i]]`.
    Dict {
        /// One dictionary index per row (placeholder `0` where invalid).
        codes: Vec<u32>,
        /// Distinct strings in first-occurrence order.
        dict: Vec<Arc<str>>,
        /// `None` = all rows valid.
        validity: Option<Bitmap>,
    },
    /// Run-length-encoded integers. Only null-free columns use this
    /// encoding, so there is no validity bitmap.
    RleInt {
        /// One payload per run.
        values: Vec<i64>,
        /// Cumulative row count at the end of each run; the last entry is
        /// the column length. Strictly increasing.
        ends: Vec<u64>,
    },
    /// Run-length-encoded floats (runs grouped by bit pattern, so NaN
    /// runs compress and `-0.0`/`0.0` stay distinct). Null-free only.
    RleFloat {
        /// One payload per run.
        values: Vec<f64>,
        /// Cumulative row count at the end of each run.
        ends: Vec<u64>,
    },
    /// Heterogeneous fallback: one boxed [`Value`] per row.
    Mixed(Vec<Value>),
}

/// Index of the run containing row `i` (`ends` is cumulative).
fn run_index(ends: &[u64], i: usize) -> usize {
    ends.partition_point(|&e| e <= i as u64)
}

impl Default for ColumnData {
    fn default() -> Self {
        ColumnData::Int {
            values: Vec::new(),
            validity: None,
        }
    }
}

impl ColumnData {
    /// An empty column (untyped until the first non-null push).
    #[must_use]
    pub fn empty() -> Self {
        ColumnData::default()
    }

    /// Build a column from cell values, inferring the densest
    /// representation (same promotion rules as repeated [`push`]).
    ///
    /// [`push`]: ColumnData::push
    #[must_use]
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        let mut c = ColumnData::empty();
        for v in values {
            c.push(v);
        }
        c
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Str { values, .. } => values.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::RleInt { ends, .. } | ColumnData::RleFloat { ends, .. } => {
                ends.last().map_or(0, |&e| e as usize)
            }
            ColumnData::Mixed(values) => values.len(),
        }
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null cells.
    #[must_use]
    pub fn null_count(&self) -> usize {
        match self {
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Str { validity, .. }
            | ColumnData::Dict { validity, .. } => {
                validity.as_ref().map_or(0, |b| b.len() - b.count_ones())
            }
            ColumnData::RleInt { .. } | ColumnData::RleFloat { .. } => 0,
            ColumnData::Mixed(values) => values.iter().filter(|v| v.is_null()).count(),
        }
    }

    /// Whether row `i` holds a null.
    #[must_use]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Str { validity, .. }
            | ColumnData::Dict { validity, .. } => validity.as_ref().is_some_and(|b| !b.get(i)),
            ColumnData::RleInt { .. } | ColumnData::RleFloat { .. } => false,
            ColumnData::Mixed(values) => values[i].is_null(),
        }
    }

    /// Materialize the cell at row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::Int { values, validity } => {
                if validity.as_ref().is_some_and(|b| !b.get(i)) {
                    assert!(i < values.len(), "row {i} out of range");
                    Value::Null
                } else {
                    Value::Int(values[i])
                }
            }
            ColumnData::Float { values, validity } => {
                if validity.as_ref().is_some_and(|b| !b.get(i)) {
                    assert!(i < values.len(), "row {i} out of range");
                    Value::Null
                } else {
                    Value::Float(values[i])
                }
            }
            ColumnData::Str { values, validity } => {
                if validity.as_ref().is_some_and(|b| !b.get(i)) {
                    assert!(i < values.len(), "row {i} out of range");
                    Value::Null
                } else {
                    Value::Str(values[i].clone())
                }
            }
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => {
                if validity.as_ref().is_some_and(|b| !b.get(i)) {
                    assert!(i < codes.len(), "row {i} out of range");
                    Value::Null
                } else {
                    Value::Str(dict[codes[i] as usize].clone())
                }
            }
            ColumnData::RleInt { values, ends } => Value::Int(values[run_index(ends, i)]),
            ColumnData::RleFloat { values, ends } => Value::Float(values[run_index(ends, i)]),
            ColumnData::Mixed(values) => values[i].clone(),
        }
    }

    /// Numeric view of row `i` without materializing a [`Value`].
    #[must_use]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            ColumnData::Int { values, validity } => {
                if validity.as_ref().is_some_and(|b| !b.get(i)) {
                    None
                } else {
                    Some(values[i] as f64)
                }
            }
            ColumnData::Float { values, validity } => {
                if validity.as_ref().is_some_and(|b| !b.get(i)) {
                    None
                } else {
                    Some(values[i])
                }
            }
            ColumnData::Str { .. } | ColumnData::Dict { .. } => None,
            ColumnData::RleInt { values, ends } => Some(values[run_index(ends, i)] as f64),
            ColumnData::RleFloat { values, ends } => Some(values[run_index(ends, i)]),
            ColumnData::Mixed(values) => values[i].as_f64(),
        }
    }

    /// Append a cell, promoting the representation when the type of `v`
    /// does not match (`Mixed` once a column is genuinely heterogeneous).
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColumnData::Int { values, validity }, Value::Int(i)) => {
                values.push(i);
                if let Some(b) = validity {
                    b.push(true);
                }
            }
            (ColumnData::Float { values, validity }, Value::Float(f)) => {
                values.push(f);
                if let Some(b) = validity {
                    b.push(true);
                }
            }
            (ColumnData::Str { values, validity }, Value::Str(s)) => {
                values.push(s);
                if let Some(b) = validity {
                    b.push(true);
                }
            }
            (ColumnData::Int { values, validity }, Value::Null) => {
                let b = validity.get_or_insert_with(|| Bitmap::filled(values.len(), true));
                values.push(0);
                b.push(false);
            }
            (ColumnData::Float { values, validity }, Value::Null) => {
                let b = validity.get_or_insert_with(|| Bitmap::filled(values.len(), true));
                values.push(0.0);
                b.push(false);
            }
            (ColumnData::Str { values, validity }, Value::Null) => {
                let b = validity.get_or_insert_with(|| Bitmap::filled(values.len(), true));
                values.push(Arc::from(""));
                b.push(false);
            }
            (
                ColumnData::Dict {
                    codes,
                    dict,
                    validity,
                },
                Value::Str(s),
            ) => {
                // Linear dictionary probe: pushes into an already-built
                // Dict are rare (bulk building goes through `compressed`).
                let code = dict.iter().position(|d| **d == *s).unwrap_or_else(|| {
                    dict.push(s);
                    dict.len() - 1
                });
                codes.push(u32::try_from(code).expect("dictionary fits u32"));
                if let Some(b) = validity {
                    b.push(true);
                }
            }
            (
                ColumnData::Dict {
                    codes, validity, ..
                },
                Value::Null,
            ) => {
                let b = validity.get_or_insert_with(|| Bitmap::filled(codes.len(), true));
                codes.push(0);
                b.push(false);
            }
            (ColumnData::RleInt { values, ends }, Value::Int(i)) => {
                if values.last() == Some(&i) {
                    *ends.last_mut().expect("non-empty runs") += 1;
                } else {
                    let len = ends.last().copied().unwrap_or(0);
                    values.push(i);
                    ends.push(len + 1);
                }
            }
            (ColumnData::RleFloat { values, ends }, Value::Float(f)) => {
                if values.last().map(|v| v.to_bits()) == Some(f.to_bits()) {
                    *ends.last_mut().expect("non-empty runs") += 1;
                } else {
                    let len = ends.last().copied().unwrap_or(0);
                    values.push(f);
                    ends.push(len + 1);
                }
            }
            (ColumnData::Mixed(values), v) => values.push(v),
            (slot, v) => {
                let old = std::mem::take(slot);
                *slot = old.promoted(v);
            }
        }
    }

    /// Called on a type clash: if every existing cell is null the column
    /// adopts the new value's type (the placeholders carried no payload);
    /// otherwise it degrades to `Mixed`.
    fn promoted(self, v: Value) -> ColumnData {
        let n = self.len();
        if self.null_count() == n {
            let mut fresh = match &v {
                Value::Int(_) => ColumnData::Int {
                    values: Vec::new(),
                    validity: None,
                },
                Value::Float(_) => ColumnData::Float {
                    values: Vec::new(),
                    validity: None,
                },
                Value::Str(_) => ColumnData::Str {
                    values: Vec::new(),
                    validity: None,
                },
                Value::Null => unreachable!("null never causes a type clash"),
            };
            for _ in 0..n {
                fresh.push(Value::Null);
            }
            fresh.push(v);
            fresh
        } else {
            let mut vals: Vec<Value> = (0..n).map(|i| self.value(i)).collect();
            vals.push(v);
            ColumnData::Mixed(vals)
        }
    }

    /// Iterate the column's cells as materialized values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// New column holding `indices`-selected rows, in order. Keeps the
    /// typed representation (canonicalizing away an all-true validity).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[must_use]
    pub fn gather(&self, indices: &[u32]) -> ColumnData {
        fn gathered_validity(validity: Option<&Bitmap>, indices: &[u32]) -> Option<Bitmap> {
            let b = validity?;
            if indices.iter().all(|&i| b.get(i as usize)) {
                return None;
            }
            let mut out = Bitmap::default();
            for &i in indices {
                out.push(b.get(i as usize));
            }
            Some(out)
        }
        match self {
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                validity: gathered_validity(validity.as_ref(), indices),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                validity: gathered_validity(validity.as_ref(), indices),
            },
            ColumnData::Str { values, validity } => ColumnData::Str {
                values: indices
                    .iter()
                    .map(|&i| values[i as usize].clone())
                    .collect(),
                validity: gathered_validity(validity.as_ref(), indices),
            },
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => ColumnData::Dict {
                codes: indices.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
                validity: gathered_validity(validity.as_ref(), indices),
            },
            ColumnData::RleInt { values, ends } => ColumnData::Int {
                values: indices
                    .iter()
                    .map(|&i| {
                        assert!(
                            (i as u64) < ends.last().copied().unwrap_or(0),
                            "row {i} out of range"
                        );
                        values[run_index(ends, i as usize)]
                    })
                    .collect(),
                validity: None,
            },
            ColumnData::RleFloat { values, ends } => ColumnData::Float {
                values: indices
                    .iter()
                    .map(|&i| {
                        assert!(
                            (i as u64) < ends.last().copied().unwrap_or(0),
                            "row {i} out of range"
                        );
                        values[run_index(ends, i as usize)]
                    })
                    .collect(),
                validity: None,
            },
            ColumnData::Mixed(values) => {
                ColumnData::from_values(indices.iter().map(|&i| values[i as usize].clone()))
            }
        }
    }

    /// Re-encode the column into the most compact representation this
    /// model knows: strings dictionary-encode when the dictionary is at
    /// most half the row count, and null-free `Int`/`Float` columns
    /// run-length-encode when the run count is at most half the row
    /// count. Columns that would not shrink are returned unchanged, and
    /// every cell observable through [`value`](ColumnData::value) stays
    /// identical — compression never changes table equality or digests.
    #[must_use]
    pub fn compressed(self) -> ColumnData {
        match self {
            ColumnData::Str { values, validity } => {
                let mut dict: Vec<Arc<str>> = Vec::new();
                let mut map: std::collections::HashMap<Arc<str>, u32> =
                    std::collections::HashMap::new();
                let codes: Vec<u32> = values
                    .iter()
                    .map(|s| {
                        *map.entry(Arc::clone(s)).or_insert_with(|| {
                            dict.push(Arc::clone(s));
                            u32::try_from(dict.len() - 1).expect("dictionary fits u32")
                        })
                    })
                    .collect();
                if !values.is_empty() && dict.len() * 2 <= values.len() {
                    ColumnData::Dict {
                        codes,
                        dict,
                        validity,
                    }
                } else {
                    ColumnData::Str { values, validity }
                }
            }
            ColumnData::Int {
                values,
                validity: None,
            } => {
                let runs = count_runs(&values, |a, b| a == b);
                if runs * 2 <= values.len() && !values.is_empty() {
                    let (rv, ends) = encode_runs(&values, |a, b| a == b);
                    ColumnData::RleInt { values: rv, ends }
                } else {
                    ColumnData::Int {
                        values,
                        validity: None,
                    }
                }
            }
            ColumnData::Float {
                values,
                validity: None,
            } => {
                let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
                let runs = count_runs(&values, same);
                if runs * 2 <= values.len() && !values.is_empty() {
                    let (rv, ends) = encode_runs(&values, same);
                    ColumnData::RleFloat { values: rv, ends }
                } else {
                    ColumnData::Float {
                        values,
                        validity: None,
                    }
                }
            }
            other => other,
        }
    }

    /// Expand a compressed encoding back into its dense typed form.
    /// Identity for columns that are already dense.
    #[must_use]
    pub fn decompressed(self) -> ColumnData {
        match self {
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => ColumnData::Str {
                values: codes
                    .iter()
                    .map(|&c| Arc::clone(&dict[c as usize]))
                    .collect(),
                validity,
            },
            ColumnData::RleInt { values, ends } => ColumnData::Int {
                values: expand_runs(&values, &ends),
                validity: None,
            },
            ColumnData::RleFloat { values, ends } => ColumnData::Float {
                values: expand_runs(&values, &ends),
                validity: None,
            },
            other => other,
        }
    }

    /// Append every cell of `other` to this column, preserving compressed
    /// representations when both sides share one (RLE runs merge across
    /// the boundary; dictionary codes are remapped). Mismatched
    /// representations fall back to cell-by-cell [`push`], which applies
    /// the usual promotion rules.
    ///
    /// [`push`]: ColumnData::push
    pub fn append(&mut self, other: ColumnData) {
        if self.is_empty() {
            *self = other;
            return;
        }
        match (&mut *self, other) {
            (
                ColumnData::RleInt { values, ends },
                ColumnData::RleInt {
                    values: ov,
                    ends: oe,
                },
            ) => {
                let base = ends.last().copied().unwrap_or(0);
                for (v, e) in ov.into_iter().zip(oe) {
                    if values.last() == Some(&v) {
                        *ends.last_mut().expect("non-empty runs") = base + e;
                    } else {
                        values.push(v);
                        ends.push(base + e);
                    }
                }
            }
            (
                ColumnData::RleFloat { values, ends },
                ColumnData::RleFloat {
                    values: ov,
                    ends: oe,
                },
            ) => {
                let base = ends.last().copied().unwrap_or(0);
                for (v, e) in ov.into_iter().zip(oe) {
                    if values.last().map(|p| p.to_bits()) == Some(v.to_bits()) {
                        *ends.last_mut().expect("non-empty runs") = base + e;
                    } else {
                        values.push(v);
                        ends.push(base + e);
                    }
                }
            }
            (
                ColumnData::Dict {
                    codes,
                    dict,
                    validity,
                },
                ColumnData::Dict {
                    codes: oc,
                    dict: od,
                    validity: ov,
                },
            ) => {
                let map: std::collections::HashMap<Arc<str>, u32> = dict
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (Arc::clone(s), i as u32))
                    .collect();
                let remap: Vec<u32> = od
                    .iter()
                    .map(|s| {
                        map.get(&**s).copied().unwrap_or_else(|| {
                            let code = u32::try_from(dict.len()).expect("dictionary fits u32");
                            dict.push(Arc::clone(s));
                            code
                        })
                    })
                    .collect();
                let before = codes.len();
                codes.extend(oc.iter().map(|&c| remap[c as usize]));
                merge_validity(validity, before, ov.as_ref(), oc.len());
            }
            (
                ColumnData::Int { values, validity },
                ColumnData::Int {
                    values: ov,
                    validity: o_validity,
                },
            ) => {
                let before = values.len();
                values.extend_from_slice(&ov);
                merge_validity(validity, before, o_validity.as_ref(), ov.len());
            }
            (
                ColumnData::Float { values, validity },
                ColumnData::Float {
                    values: ov,
                    validity: o_validity,
                },
            ) => {
                let before = values.len();
                values.extend_from_slice(&ov);
                merge_validity(validity, before, o_validity.as_ref(), ov.len());
            }
            (
                ColumnData::Str { values, validity },
                ColumnData::Str {
                    values: ov,
                    validity: o_validity,
                },
            ) => {
                let before = values.len();
                let added = ov.len();
                values.extend(ov);
                merge_validity(validity, before, o_validity.as_ref(), added);
            }
            (_, other) => {
                for v in other.iter() {
                    self.push(v);
                }
            }
        }
    }
}

/// Number of runs under the given equality.
fn count_runs<T, F: Fn(&T, &T) -> bool>(values: &[T], same: F) -> usize {
    let mut runs = 0;
    let mut prev: Option<&T> = None;
    for v in values {
        if prev.is_none_or(|p| !same(p, v)) {
            runs += 1;
        }
        prev = Some(v);
    }
    runs
}

/// Run-length encode `values` into (run payloads, cumulative ends).
fn encode_runs<T: Copy, F: Fn(&T, &T) -> bool>(values: &[T], same: F) -> (Vec<T>, Vec<u64>) {
    let mut rv = Vec::new();
    let mut ends = Vec::new();
    for (i, v) in values.iter().enumerate() {
        if rv.last().is_none_or(|p| !same(p, v)) {
            rv.push(*v);
            ends.push(i as u64 + 1);
        } else {
            *ends.last_mut().expect("non-empty runs") = i as u64 + 1;
        }
    }
    (rv, ends)
}

/// Expand (run payloads, cumulative ends) back into a dense vector.
fn expand_runs<T: Copy>(values: &[T], ends: &[u64]) -> Vec<T> {
    let total = ends.last().copied().unwrap_or(0) as usize;
    let mut out = Vec::with_capacity(total);
    let mut start = 0u64;
    for (v, &e) in values.iter().zip(ends) {
        out.extend(std::iter::repeat_n(*v, (e - start) as usize));
        start = e;
    }
    out
}

/// Extend `validity` (covering `before` rows) with `added` rows whose
/// validity comes from `other` (`None` = all valid), keeping the
/// `None` ⇔ all-valid canonical form.
fn merge_validity(
    validity: &mut Option<Bitmap>,
    before: usize,
    other: Option<&Bitmap>,
    added: usize,
) {
    match (validity.as_mut(), other) {
        (None, None) => {}
        (Some(b), o) => {
            for i in 0..added {
                b.push(o.is_none_or(|ob| ob.get(i)));
            }
        }
        (None, Some(ob)) => {
            if ob.count_ones() == ob.len() {
                return;
            }
            let mut b = Bitmap::filled(before, true);
            for i in 0..added {
                b.push(ob.get(i));
            }
            *validity = Some(b);
        }
    }
}

impl PartialEq for ColumnData {
    /// Semantic equality: same cell values, regardless of representation
    /// (an all-`Int` `Mixed` column equals the dense `Int` column).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.value(i) == other.value(i))
    }
}

/// An in-memory table: named, typed columns of equal length.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (e.g. `POSIX`); becomes the CSV file stem.
    pub name: String,
    /// Columns, in order.
    pub columns: Vec<Column>,
    cols: Vec<Arc<ColumnData>>,
    nrows: usize,
}

impl Table {
    /// Create an empty table with the given column names.
    ///
    /// # Panics
    ///
    /// Panics when column names are not unique — a table with duplicate
    /// headers is unusable downstream.
    #[must_use]
    pub fn new(name: &str, columns: &[&str]) -> Self {
        let mut seen = std::collections::HashSet::new();
        for c in columns {
            assert!(seen.insert(*c), "duplicate column name {c}");
        }
        Table {
            name: name.to_owned(),
            columns: columns
                .iter()
                .map(|c| Column {
                    name: (*c).to_owned(),
                })
                .collect(),
            cols: columns
                .iter()
                .map(|_| Arc::new(ColumnData::empty()))
                .collect(),
            nrows: 0,
        }
    }

    /// Assemble a table directly from column data (zero-copy: the `Arc`s
    /// are stored as-is). This is the constructor the vectorized IQL
    /// executor uses to materialize results.
    ///
    /// # Panics
    ///
    /// Panics on duplicate column names or unequal column lengths.
    #[must_use]
    pub fn from_columns(name: &str, columns: Vec<(String, Arc<ColumnData>)>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for (c, _) in &columns {
            assert!(seen.insert(c.as_str()), "duplicate column name {c}");
        }
        let nrows = columns.first().map_or(0, |(_, d)| d.len());
        for (c, d) in &columns {
            assert_eq!(
                d.len(),
                nrows,
                "column {c} length {} != {} in table {name}",
                d.len(),
                nrows
            );
        }
        let (names, cols): (Vec<_>, Vec<_>) = columns.into_iter().unzip();
        Table {
            name: name.to_owned(),
            columns: names.into_iter().map(|name| Column { name }).collect(),
            cols,
            nrows,
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics when the row width does not match the column count.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {} in table {}",
            row.len(),
            self.columns.len(),
            self.name
        );
        for (col, v) in self.cols.iter_mut().zip(row) {
            Arc::make_mut(col).push(v);
        }
        self.nrows += 1;
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Index of a column by name.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Typed storage of column `idx`.
    #[must_use]
    pub fn column(&self, idx: usize) -> Option<&ColumnData> {
        self.cols.get(idx).map(Arc::as_ref)
    }

    /// Zero-copy shared handle to column `idx` (pointer clone, no data
    /// copy).
    #[must_use]
    pub fn column_arc(&self, idx: usize) -> Option<Arc<ColumnData>> {
        self.cols.get(idx).cloned()
    }

    /// Every column's name and zero-copy shared handle, in order.
    pub fn named_columns(&self) -> impl Iterator<Item = (&str, &Arc<ColumnData>)> {
        self.columns.iter().map(|c| c.name.as_str()).zip(&self.cols)
    }

    /// Materialize the cell at `(row, column idx)`.
    #[must_use]
    pub fn value(&self, row: usize, col: usize) -> Option<Value> {
        if row >= self.nrows {
            return None;
        }
        self.cols.get(col).map(|c| c.value(row))
    }

    /// Materialize the cell at `(row, column name)`.
    #[must_use]
    pub fn cell(&self, row: usize, column: &str) -> Option<Value> {
        let idx = self.column_index(column)?;
        self.value(row, idx)
    }

    /// Iterate rows as on-demand views (no row materialization).
    pub fn iter_rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.nrows).map(move |row| RowView { table: self, row })
    }

    /// Iterate one column's values.
    pub fn column_values<'a>(&'a self, name: &str) -> Option<impl Iterator<Item = Value> + 'a> {
        let idx = self.column_index(name)?;
        Some(self.cols[idx].iter())
    }

    /// Column names as a `Vec<&str>`.
    #[must_use]
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Keep only rows satisfying the predicate (used by tests and IQL).
    pub fn retain_rows<F: FnMut(RowView<'_>) -> bool>(&mut self, mut f: F) {
        let kept: Vec<u32> = (0..self.nrows)
            .filter(|&row| f(RowView { table: self, row }))
            .map(|row| u32::try_from(row).expect("row index fits u32"))
            .collect();
        self.cols = self
            .cols
            .iter()
            .map(|c| Arc::new(c.gather(&kept)))
            .collect();
        self.nrows = kept.len();
    }
}

impl PartialEq for Table {
    /// Semantic equality: same name, headers, and cell values, regardless
    /// of the physical column representation.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.nrows == other.nrows
            && self.cols.iter().zip(&other.cols).all(|(a, b)| a == b)
    }
}

/// On-demand view of one table row; cells materialize only when read.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    table: &'a Table,
    row: usize,
}

impl RowView<'_> {
    /// Cell at column `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range (like slice indexing did).
    #[must_use]
    pub fn get(&self, idx: usize) -> Value {
        self.table.cols[idx].value(self.row)
    }

    /// Number of cells (== column count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.cols.len()
    }

    /// Whether the row has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.cols.is_empty()
    }

    /// Row ordinal within the table.
    #[must_use]
    pub fn index(&self) -> usize {
        self.row
    }

    /// Iterate the row's cells.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Materialize the row as a vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Value> {
        self.values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parse_infers_types() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
        assert_eq!(Value::parse("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse("abc"), Value::Str("abc".into()));
        assert_eq!(Value::parse(""), Value::Null);
        // Leading zeros / whitespace are not integers in Rust's parser,
        // and fall through consistently.
        assert_eq!(Value::parse("1e3"), Value::Float(1000.0));
    }

    #[test]
    fn value_display_round_trips_through_parse() {
        for v in [
            Value::Int(5),
            Value::Float(2.25),
            Value::Str("x,y".into()),
            Value::Null,
        ] {
            let shown = v.to_string();
            match &v {
                Value::Float(_) => assert!(Value::parse(&shown).as_f64().is_some()),
                Value::Null => assert_eq!(Value::parse(&shown), Value::Null),
                other => assert_eq!(&Value::parse(&shown), other),
            }
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::Str(Arc::from("")).truthy());
    }

    #[test]
    fn table_basic_accessors() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec![Value::Int(1), Value::Str("x".into())]);
        t.push_row(vec![Value::Int(2), Value::Str("y".into())]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.cell(0, "a"), Some(Value::Int(1)));
        assert_eq!(t.cell(1, "b"), Some(Value::Str("y".into())));
        assert_eq!(t.cell(5, "a"), None);
        assert_eq!(t.cell(0, "nope"), None);
        let col: Vec<i64> = t
            .column_values("a")
            .unwrap()
            .filter_map(|v| v.as_i64())
            .collect();
        assert_eq!(col, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec![Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Table::new("T", &["a", "a"]);
    }

    #[test]
    fn retain_rows_filters() {
        let mut t = Table::new("T", &["a"]);
        for i in 0..10 {
            t.push_row(vec![Value::Int(i)]);
        }
        t.retain_rows(|r| r.get(0).as_i64().unwrap() % 2 == 0);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn typed_columns_promote_and_track_nulls() {
        let mut c = ColumnData::empty();
        c.push(Value::Int(1));
        c.push(Value::Null);
        c.push(Value::Int(3));
        assert!(matches!(c, ColumnData::Int { .. }));
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.f64_at(2), Some(3.0));
        assert_eq!(c.f64_at(1), None);

        // A float lands in an int column -> Mixed (Display differs: 1 vs 1.0).
        c.push(Value::Float(2.5));
        assert!(matches!(c, ColumnData::Mixed(_)));
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(3), Value::Float(2.5));
    }

    #[test]
    fn all_null_column_adopts_first_real_type() {
        let mut c = ColumnData::empty();
        c.push(Value::Null);
        c.push(Value::Null);
        c.push(Value::Str("w".into()));
        assert!(matches!(c, ColumnData::Str { .. }));
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(2), Value::Str("w".into()));
    }

    #[test]
    fn gather_keeps_values_and_canonicalizes_validity() {
        let c = ColumnData::from_values(vec![
            Value::Int(0),
            Value::Null,
            Value::Int(2),
            Value::Int(3),
        ]);
        let no_nulls = c.gather(&[0, 2, 3]);
        assert!(matches!(no_nulls, ColumnData::Int { validity: None, .. }));
        let with_null = c.gather(&[1, 3]);
        assert_eq!(with_null.value(0), Value::Null);
        assert_eq!(with_null.value(1), Value::Int(3));
        assert_eq!(with_null.null_count(), 1);
    }

    #[test]
    fn semantic_equality_ignores_representation() {
        let dense = ColumnData::from_values(vec![Value::Int(1), Value::Int(2)]);
        let mixed = ColumnData::Mixed(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(dense, mixed);
    }

    #[test]
    fn column_slices_are_shared_not_copied() {
        let mut t = Table::new("T", &["a"]);
        for i in 0..4 {
            t.push_row(vec![Value::Int(i)]);
        }
        let shared = t.column_arc(0).unwrap();
        let t2 = t.clone();
        assert!(Arc::ptr_eq(&shared, &t2.column_arc(0).unwrap()));
        assert_eq!(t, t2);
    }

    #[test]
    fn compressed_round_trips_losslessly() {
        let ints = ColumnData::from_values((0..100).map(|i| Value::Int(i / 10)));
        let rle = ints.clone().compressed();
        assert!(matches!(rle, ColumnData::RleInt { .. }));
        assert_eq!(rle, ints);
        assert_eq!(rle.clone().decompressed(), ints);

        let floats = ColumnData::from_values((0..100).map(|i| Value::Float(f64::from(i / 25))));
        let rle_f = floats.clone().compressed();
        assert!(matches!(rle_f, ColumnData::RleFloat { .. }));
        assert_eq!(rle_f, floats);

        let strs =
            ColumnData::from_values((0..100).map(|i| Value::Str(Arc::from(["a", "b"][i % 2]))));
        let dict = strs.clone().compressed();
        assert!(matches!(dict, ColumnData::Dict { .. }));
        assert_eq!(dict, strs);
        assert_eq!(dict.clone().decompressed(), strs);
    }

    #[test]
    fn incompressible_columns_stay_dense() {
        let ints = ColumnData::from_values((0..100).map(Value::Int));
        assert!(matches!(ints.clone().compressed(), ColumnData::Int { .. }));
        let strs = ColumnData::from_values((0..100).map(|i| Value::from(format!("s{i}"))));
        assert!(matches!(strs.compressed(), ColumnData::Str { .. }));
        // Nullable int columns never RLE-encode.
        let mut nullable = ColumnData::from_values(vec![Value::Int(1); 10]);
        nullable.push(Value::Null);
        assert!(matches!(
            nullable.compressed(),
            ColumnData::Int {
                validity: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn rle_float_runs_group_by_bit_pattern() {
        let mut vals = vec![Value::Float(f64::NAN); 4];
        vals.extend(vec![Value::Float(0.0); 4]);
        vals.extend(vec![Value::Float(-0.0); 4]);
        let c = ColumnData::from_values(vals).compressed();
        let ColumnData::RleFloat { values, ends } = &c else {
            panic!("expected RleFloat, got {c:?}");
        };
        assert_eq!(ends, &[4, 8, 12]);
        assert!(values[0].is_nan());
        assert!(values[1].is_sign_positive());
        assert!(values[2].is_sign_negative());
    }

    #[test]
    fn push_into_compressed_extends_or_promotes() {
        let mut rle = ColumnData::from_values(vec![Value::Int(7); 8]).compressed();
        rle.push(Value::Int(7));
        rle.push(Value::Int(9));
        assert!(matches!(&rle, ColumnData::RleInt { values, .. } if values.len() == 2));
        assert_eq!(rle.len(), 10);
        assert_eq!(rle.value(9), Value::Int(9));
        // A type clash degrades exactly like the dense column would.
        rle.push(Value::Float(1.5));
        assert!(matches!(rle, ColumnData::Mixed(_)));
        assert_eq!(rle.value(0), Value::Int(7));

        let mut dict =
            ColumnData::from_values((0..10).map(|i| Value::Str(Arc::from(["x", "y"][i % 2]))))
                .compressed();
        dict.push(Value::Str("z".into()));
        dict.push(Value::Null);
        assert_eq!(dict.value(10), Value::Str("z".into()));
        assert_eq!(dict.value(11), Value::Null);
        assert_eq!(dict.null_count(), 1);
    }

    #[test]
    fn gather_on_compressed_matches_dense_gather() {
        let dense = ColumnData::from_values((0..50).map(|i| Value::Int(i / 7)));
        let rle = dense.clone().compressed();
        let idx = [0u32, 13, 13, 49, 7];
        assert_eq!(rle.gather(&idx), dense.gather(&idx));

        let strs =
            ColumnData::from_values((0..50).map(|i| Value::Str(Arc::from(["p", "q"][i % 2]))));
        let dict = strs.clone().compressed();
        let g = dict.gather(&idx);
        assert!(matches!(g, ColumnData::Dict { .. }));
        assert_eq!(g, strs.gather(&idx));
    }

    #[test]
    fn append_merges_runs_and_remaps_dicts() {
        let mut a = ColumnData::from_values(vec![Value::Int(1); 6]).compressed();
        let b = ColumnData::from_values([1, 1, 2, 2, 2, 2].map(Value::Int).to_vec()).compressed();
        a.append(b);
        let ColumnData::RleInt { values, ends } = &a else {
            panic!("expected RleInt, got {a:?}");
        };
        assert_eq!(values, &[1, 2]);
        assert_eq!(ends, &[8, 12]);

        let mut d1 =
            ColumnData::from_values((0..8).map(|i| Value::Str(Arc::from(["a", "b"][i % 2]))))
                .compressed();
        let d2 = ColumnData::from_values((0..8).map(|i| Value::Str(Arc::from(["b", "c"][i % 2]))))
            .compressed();
        let expect = ColumnData::from_values(
            (0..8)
                .map(|i| Value::Str(Arc::from(["a", "b"][i % 2])))
                .chain((0..8).map(|i| Value::Str(Arc::from(["b", "c"][i % 2])))),
        );
        d1.append(d2);
        assert!(matches!(&d1, ColumnData::Dict { dict, .. } if dict.len() == 3));
        assert_eq!(d1, expect);
    }

    #[test]
    fn append_mismatched_representations_falls_back_to_push() {
        let mut a = ColumnData::from_values(vec![Value::Int(1), Value::Int(2)]);
        let b = ColumnData::from_values(vec![Value::Int(3); 4]).compressed();
        a.append(b);
        assert_eq!(
            a,
            ColumnData::from_values([1, 2, 3, 3, 3, 3].map(Value::Int).to_vec())
        );
        // Appending into an empty column adopts the incoming representation.
        let mut e = ColumnData::empty();
        e.append(ColumnData::from_values(vec![Value::Int(5); 4]).compressed());
        assert!(matches!(e, ColumnData::RleInt { .. }));
    }

    #[test]
    fn append_merges_validity() {
        let mut a = ColumnData::from_values(vec![Value::Int(1), Value::Null]);
        a.append(ColumnData::from_values(vec![Value::Int(2), Value::Null]));
        assert_eq!(a.null_count(), 2);
        assert_eq!(a.value(3), Value::Null);
        let mut b = ColumnData::from_values(vec![Value::Int(1)]);
        b.append(ColumnData::from_values(vec![Value::Null, Value::Int(4)]));
        assert_eq!(b.null_count(), 1);
        assert_eq!(b.value(1), Value::Null);
        assert_eq!(b.value(2), Value::Int(4));
    }

    #[test]
    fn row_views_materialize_on_demand() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec![Value::Int(1), Value::Null]);
        t.push_row(vec![Value::Int(2), Value::Float(0.5)]);
        let rows: Vec<Vec<Value>> = t.iter_rows().map(|r| r.to_vec()).collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Float(0.5)],
            ]
        );
        assert_eq!(t.iter_rows().nth(1).unwrap().index(), 1);
    }
}
