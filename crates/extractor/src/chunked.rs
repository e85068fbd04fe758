//! Chunked table building: fixed-row-budget chunks, compressed as they
//! seal, and the table codec.
//!
//! The streaming extractor appends rows to a [`ChunkedTableBuilder`]
//! instead of a dense table. Every `chunk_rows` rows the builder seals the
//! open chunk: each column is re-encoded via [`ColumnData::compressed`]
//! and appended to the compressed accumulator, so only the open chunk is
//! ever held uncompressed. [`ChunkedTableBuilder::finish`] returns a
//! [`Table`] that compares equal — cell for cell — to the one the batch
//! extractor would have built.
//!
//! [`encode_table`] writes a small header (table name, column names) and
//! one chunk over each column's canonical encoding, so equal tables
//! encode to equal bytes whichever path built them. `ion-store` keeps
//! every extracted table as such an artifact, addressed by the hash of
//! those bytes.

use crate::builder::ColumnBuilder;
use crate::table::{Bitmap, ColumnData, Table, Value};
use std::io;
use std::sync::Arc;

/// Builds one table from streamed rows under a fixed chunk-row budget.
#[derive(Clone)]
pub struct ChunkedTableBuilder {
    name: String,
    columns: Vec<String>,
    chunk_rows: usize,
    open: ColumnBuilder,
    open_rows: usize,
    acc: Vec<ColumnData>,
    total_rows: usize,
}

impl std::fmt::Debug for ChunkedTableBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedTableBuilder")
            .field("name", &self.name)
            .field("chunk_rows", &self.chunk_rows)
            .field("total_rows", &self.total_rows)
            .finish_non_exhaustive()
    }
}

impl ChunkedTableBuilder {
    /// A builder that accumulates sealed chunks in memory (compressed).
    ///
    /// # Panics
    ///
    /// Panics when `chunk_rows` is zero.
    #[must_use]
    pub fn new(name: &str, columns: &[&str], chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        ChunkedTableBuilder {
            name: name.to_owned(),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            chunk_rows,
            open: ColumnBuilder::new(columns.len()),
            open_rows: 0,
            acc: columns.iter().map(|_| ColumnData::empty()).collect(),
            total_rows: 0,
        }
    }

    /// Table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows closed so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.total_rows
    }

    /// The open row's columns: append one cell to each, then close the
    /// row with [`end_row`](Self::end_row).
    pub fn cells(&mut self) -> &mut ColumnBuilder {
        &mut self.open
    }

    /// Close the row whose cells were just appended; seals the open
    /// chunk when it reaches the budget.
    ///
    /// # Panics
    ///
    /// Panics at a seal when some column did not get exactly one cell
    /// per closed row.
    pub fn end_row(&mut self) {
        self.end_rows(1);
    }

    /// Rows the open chunk takes before it seals.
    pub(crate) fn room(&self) -> usize {
        self.chunk_rows - self.open_rows
    }

    /// Close the `n` rows whose cells were just appended, like `n` calls
    /// of [`end_row`](Self::end_row).
    ///
    /// # Panics
    ///
    /// Panics when `n` is more than the [`room`](Self::room) left, which
    /// would seal a chunk past the budget.
    pub(crate) fn end_rows(&mut self, n: usize) {
        assert!(n <= self.room(), "{n} rows overrun the open chunk");
        self.open_rows += n;
        self.total_rows += n;
        if self.open_rows == self.chunk_rows {
            self.seal();
        }
    }

    /// Seal the open chunk: compress its columns and fold them into the
    /// accumulator.
    fn seal(&mut self) {
        if self.open_rows == 0 {
            return;
        }
        let rows = self.open_rows;
        let chunk: Vec<ColumnData> = self
            .open
            .take_chunk()
            .into_iter()
            .map(ColumnData::compressed)
            .collect();
        assert!(
            chunk.iter().all(|c| c.len() == rows),
            "a row of table {} did not get one cell per column",
            self.name
        );
        self.open_rows = 0;
        for (dst, src) in self.acc.iter_mut().zip(chunk) {
            dst.append(src);
        }
    }

    /// Seal the remainder and assemble the final table.
    ///
    /// # Panics
    ///
    /// Panics, like [`end_row`](Self::end_row), when the last chunk has
    /// a row missing a cell.
    #[must_use]
    pub fn finish(mut self) -> Table {
        self.seal();
        let columns = self
            .columns
            .iter()
            .zip(self.acc)
            .map(|(name, data)| (name.clone(), Arc::new(data)))
            .collect();
        Table::from_columns(&self.name, columns)
    }
}

const CHUNK_MAGIC: u32 = u32::from_le_bytes(*b"ICK1");
const TABLE_MAGIC: u32 = u32::from_le_bytes(*b"ITB1");

const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DICT: u8 = 3;
const TAG_RLE_INT: u8 = 4;
const TAG_RLE_FLOAT: u8 = 5;
const TAG_MIXED: u8 = 6;

/// Append one chunk: its columns, each in its own physical encoding,
/// which [`decode_chunk`] restores exactly.
fn write_chunk(out: &mut Vec<u8>, cols: &[ColumnData]) {
    out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
    put_count(out, cols.len());
    for col in cols {
        encode_column(out, col);
    }
}

/// Serialize a whole table: a header (table name, column names) plus one
/// chunk holding every column in its canonical encoding. The canonical
/// form is a function of the cell values alone, so two equal tables
/// encode to the same bytes whether they were built row by row or
/// streamed through chunks — which lets the bytes' hash serve as the
/// table's content digest.
#[must_use]
pub fn encode_table(table: &Table) -> Vec<u8> {
    let cols: Vec<ColumnData> = (0..table.columns.len())
        .filter_map(|i| table.column(i))
        .map(canonical)
        .collect();
    write_table(&table.name, &table.column_names(), &cols)
}

fn write_table(name: &str, columns: &[&str], cols: &[ColumnData]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
    encode_str(&mut out, name);
    put_count(&mut out, columns.len());
    for c in columns {
        encode_str(&mut out, c);
    }
    write_chunk(&mut out, cols);
    out
}

/// Deserialize a table produced by [`encode_table`].
///
/// # Errors
///
/// Fails with `InvalidData` on a corrupt chunk body (see `decode_chunk`),
/// a bad header, duplicate column names, or a header that names a
/// different number of columns than the chunk holds.
pub fn decode_table(bytes: &[u8]) -> io::Result<Table> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.u32()? != TABLE_MAGIC {
        return Err(bad("bad table magic"));
    }
    let name = cur.str()?;
    let ncols = cur.u32()? as usize;
    let mut names: Vec<String> = Vec::new();
    for _ in 0..ncols {
        let column = cur.str()?;
        if names.iter().any(|n| **n == *column) {
            return Err(bad(format!("duplicate column {column} in table {name}")));
        }
        names.push(column.to_string());
    }
    let cols = decode_chunk(&bytes[cur.pos..])?;
    if cols.len() != names.len() {
        return Err(bad(format!(
            "table {name} names {} columns but holds {}",
            names.len(),
            cols.len()
        )));
    }
    Ok(Table::from_columns(
        &name,
        names
            .into_iter()
            .zip(cols.into_iter().map(Arc::new))
            .collect(),
    ))
}

/// The canonical physical form of a column, a function of its cells
/// alone. The column expands to its dense form; a null-free typed column
/// keeps it, anything else (nulls, `Mixed`, no rows) is rebuilt cell by
/// cell, which fixes the null placeholders and the type of an all-null
/// column. Either way [`ColumnData::compressed`] then picks the encoding.
fn canonical(col: &ColumnData) -> ColumnData {
    let dense = col.clone().decompressed();
    let dense = if dense.is_empty() || dense.null_count() > 0 {
        ColumnData::from_values(dense.iter())
    } else {
        match dense {
            ColumnData::Int { values, .. } => ColumnData::Int {
                values,
                validity: None,
            },
            ColumnData::Float { values, .. } => ColumnData::Float {
                values,
                validity: None,
            },
            ColumnData::Str { values, .. } => ColumnData::Str {
                values,
                validity: None,
            },
            mixed => ColumnData::from_values(mixed.iter()),
        }
    };
    dense.compressed()
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).expect("count fits u32").to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u64).to_le_bytes());
}

fn encode_validity(out: &mut Vec<u8>, validity: Option<&Bitmap>) {
    match validity {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_len(out, b.len());
            let mut byte = 0u8;
            for i in 0..b.len() {
                if b.get(i) {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if b.len() % 8 != 0 {
                out.push(byte);
            }
        }
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    put_count(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn encode_column(out: &mut Vec<u8>, col: &ColumnData) {
    match col {
        ColumnData::Int { values, validity } => {
            out.push(TAG_INT);
            put_len(out, values.len());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            encode_validity(out, validity.as_ref());
        }
        ColumnData::Float { values, validity } => {
            out.push(TAG_FLOAT);
            put_len(out, values.len());
            for v in values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            encode_validity(out, validity.as_ref());
        }
        ColumnData::Str { values, validity } => {
            out.push(TAG_STR);
            put_len(out, values.len());
            for v in values {
                encode_str(out, v);
            }
            encode_validity(out, validity.as_ref());
        }
        ColumnData::Dict {
            codes,
            dict,
            validity,
        } => {
            out.push(TAG_DICT);
            put_len(out, codes.len());
            for c in codes {
                out.extend_from_slice(&c.to_le_bytes());
            }
            put_len(out, dict.len());
            for d in dict {
                encode_str(out, d);
            }
            encode_validity(out, validity.as_ref());
        }
        ColumnData::RleInt { values, ends } => {
            out.push(TAG_RLE_INT);
            put_len(out, values.len());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for e in ends {
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        ColumnData::RleFloat { values, ends } => {
            out.push(TAG_RLE_FLOAT);
            put_len(out, values.len());
            for v in values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            for e in ends {
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        ColumnData::Mixed(values) => {
            out.push(TAG_MIXED);
            put_len(out, values.len());
            for v in values {
                match v {
                    Value::Int(i) => {
                        out.push(0);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        out.push(1);
                        out.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                    Value::Str(s) => {
                        out.push(2);
                        encode_str(out, s);
                    }
                    Value::Null => out.push(3),
                }
            }
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad(format!("chunk truncated at byte {}", self.pos)))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| bad("length overflows usize"))
    }

    fn str(&mut self) -> io::Result<Arc<str>> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        std::str::from_utf8(raw)
            .map(Arc::from)
            .map_err(|_| bad("invalid utf-8 in chunk string"))
    }
}

fn decode_validity(cur: &mut Cursor<'_>, rows: usize) -> io::Result<Option<Bitmap>> {
    match cur.u8()? {
        0 => Ok(None),
        1 => {
            let len = cur.len()?;
            if len != rows {
                return Err(bad(format!("validity length {len} != row count {rows}")));
            }
            let bytes = cur.take(len.div_ceil(8))?;
            let mut b = Bitmap::default();
            for i in 0..len {
                b.push(bytes[i / 8] >> (i % 8) & 1 == 1);
            }
            Ok(Some(b))
        }
        other => Err(bad(format!("bad validity flag {other}"))),
    }
}

/// Deserialize a chunk written by [`write_chunk`]. Fails with
/// `InvalidData` on truncation, bad magic, unknown column tags, malformed
/// UTF-8, dictionary codes out of range (null slots included),
/// non-increasing RLE run ends, or columns of unequal length — a store
/// returning corrupted bytes can never panic the caller, now or when it
/// later reads the columns.
fn decode_chunk(bytes: &[u8]) -> io::Result<Vec<ColumnData>> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.u32()? != CHUNK_MAGIC {
        return Err(bad("bad chunk magic"));
    }
    let ncols = cur.u32()? as usize;
    let mut cols: Vec<ColumnData> = Vec::new();
    for _ in 0..ncols {
        let col = decode_column(&mut cur)?;
        if let Some(first) = cols.first() {
            if col.len() != first.len() {
                return Err(bad(format!(
                    "column {} has {} rows, column 0 has {}",
                    cols.len(),
                    col.len(),
                    first.len()
                )));
            }
        }
        cols.push(col);
    }
    if cur.pos != bytes.len() {
        return Err(bad(format!(
            "{} trailing bytes after chunk",
            bytes.len() - cur.pos
        )));
    }
    Ok(cols)
}

fn decode_column(cur: &mut Cursor<'_>) -> io::Result<ColumnData> {
    match cur.u8()? {
        TAG_INT => {
            let n = cur.len()?;
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(cur.i64()?);
            }
            let validity = decode_validity(cur, n)?;
            Ok(ColumnData::Int { values, validity })
        }
        TAG_FLOAT => {
            let n = cur.len()?;
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(cur.f64()?);
            }
            let validity = decode_validity(cur, n)?;
            Ok(ColumnData::Float { values, validity })
        }
        TAG_STR => {
            let n = cur.len()?;
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(cur.str()?);
            }
            let validity = decode_validity(cur, n)?;
            Ok(ColumnData::Str { values, validity })
        }
        TAG_DICT => {
            let n = cur.len()?;
            let mut codes = Vec::new();
            for _ in 0..n {
                codes.push(cur.u32()?);
            }
            let dn = cur.len()?;
            let mut dict = Vec::new();
            for _ in 0..dn {
                dict.push(cur.str()?);
            }
            let validity = decode_validity(cur, n)?;
            // Null slots too: `decompressed` and `append` index the
            // dictionary with every code.
            if let Some(c) = codes.iter().find(|&&c| c as usize >= dn) {
                return Err(bad(format!("dictionary code {c} out of range {dn}")));
            }
            Ok(ColumnData::Dict {
                codes,
                dict,
                validity,
            })
        }
        TAG_RLE_INT => {
            let n = cur.len()?;
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(cur.i64()?);
            }
            let ends = decode_ends(cur, n)?;
            Ok(ColumnData::RleInt { values, ends })
        }
        TAG_RLE_FLOAT => {
            let n = cur.len()?;
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(cur.f64()?);
            }
            let ends = decode_ends(cur, n)?;
            Ok(ColumnData::RleFloat { values, ends })
        }
        TAG_MIXED => {
            let n = cur.len()?;
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(match cur.u8()? {
                    0 => Value::Int(cur.i64()?),
                    1 => Value::Float(cur.f64()?),
                    2 => Value::Str(cur.str()?),
                    3 => Value::Null,
                    other => return Err(bad(format!("bad value tag {other}"))),
                });
            }
            Ok(ColumnData::Mixed(values))
        }
        other => Err(bad(format!("bad column tag {other}"))),
    }
}

fn decode_ends(cur: &mut Cursor<'_>, runs: usize) -> io::Result<Vec<u64>> {
    let mut ends = Vec::new();
    let mut prev = 0u64;
    for _ in 0..runs {
        let e = cur.u64()?;
        if e <= prev {
            return Err(bad(format!("run end {e} not increasing past {prev}")));
        }
        ends.push(e);
        prev = e;
    }
    Ok(ends)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(i: usize) -> Vec<Value> {
        vec![
            Value::Int(i as i64 / 10),
            Value::Float(f64::from(u32::try_from(i / 25).unwrap())),
            Value::Str(Arc::from(["alpha", "beta"][i % 2])),
            Value::Int(i as i64),
        ]
    }

    const COLS: [&str; 4] = ["run", "grp", "name", "seq"];

    fn push(b: &mut ChunkedTableBuilder, row: Vec<Value>) {
        for (c, v) in row.into_iter().enumerate() {
            b.cells().value(c, v);
        }
        b.end_row();
    }

    fn encode_chunk(cols: &[ColumnData]) -> Vec<u8> {
        let mut out = Vec::new();
        write_chunk(&mut out, cols);
        out
    }

    fn plain_table(rows: usize) -> Table {
        let mut t = Table::new("T", &COLS);
        for i in 0..rows {
            t.push_row(sample_row(i));
        }
        t
    }

    #[test]
    fn chunked_builder_matches_plain_table_at_boundaries() {
        // 0, 1, budget-1, budget, budget+1, several chunks.
        for rows in [0usize, 1, 15, 16, 17, 100] {
            let mut b = ChunkedTableBuilder::new("T", &COLS, 16);
            for i in 0..rows {
                push(&mut b, sample_row(i));
            }
            assert_eq!(b.rows(), rows);
            let t = b.finish();
            assert_eq!(t, plain_table(rows), "rows={rows}");
        }
    }

    #[test]
    fn sealed_chunks_compress() {
        let mut b = ChunkedTableBuilder::new("T", &COLS, 50);
        for i in 0..100 {
            push(&mut b, sample_row(i));
        }
        let t = b.finish();
        assert!(matches!(t.column(0), Some(ColumnData::RleInt { .. })));
        assert!(matches!(t.column(1), Some(ColumnData::RleFloat { .. })));
        assert!(matches!(t.column(2), Some(ColumnData::Dict { .. })));
        // The strictly increasing column stays dense.
        assert!(matches!(t.column(3), Some(ColumnData::Int { .. })));
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn a_row_missing_a_cell_panics_at_the_seal() {
        let mut b = ChunkedTableBuilder::new("T", &COLS, 2);
        push(&mut b, sample_row(0));
        b.cells().value(0, Value::Int(1));
        b.end_row();
    }

    #[test]
    #[should_panic(expected = "overrun the open chunk")]
    fn a_bulk_close_past_the_open_chunk_panics() {
        let mut b = ChunkedTableBuilder::new("T", &COLS, 4);
        push(&mut b, sample_row(0));
        assert_eq!(b.room(), 3);
        b.end_rows(4);
    }

    #[test]
    fn every_encoding_round_trips_through_chunk_codec() {
        // Every column of a chunk has the same row count (12).
        let cycle = |cells: Vec<Value>| cells.into_iter().cycle().take(12);
        let cols = vec![
            ColumnData::from_values(cycle(vec![Value::Int(1), Value::Null, Value::Int(3)])),
            ColumnData::from_values(cycle(vec![
                Value::Float(0.5),
                Value::Null,
                Value::Float(-0.0),
            ])),
            ColumnData::from_values(cycle(vec![
                Value::Str("a".into()),
                Value::Null,
                Value::Str("".into()),
            ])),
            ColumnData::from_values((0..12).map(|i| Value::Str(Arc::from(["x", "y"][i % 2]))))
                .compressed(),
            ColumnData::from_values(vec![Value::Int(9); 12]).compressed(),
            ColumnData::from_values(vec![Value::Float(2.5); 12]).compressed(),
            ColumnData::Mixed(
                cycle(vec![
                    Value::Int(1),
                    Value::Float(f64::NAN),
                    Value::Str("s".into()),
                    Value::Null,
                ])
                .collect(),
            ),
        ];
        let bytes = encode_chunk(&cols);
        let back = decode_chunk(&bytes).unwrap();
        assert_eq!(back.len(), cols.len());
        for (a, b) in cols.iter().zip(&back) {
            // Physical representation survives (not just semantic equality).
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{a:?} vs {b:?}"
            );
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                match (a.value(i), b.value(i)) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    (x, y) => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn dict_null_slot_code_out_of_range_is_rejected() {
        let mut validity = Bitmap::default();
        validity.push(true);
        validity.push(false);
        let col = ColumnData::Dict {
            codes: vec![0, 7],
            dict: vec![Arc::from("a")],
            validity: Some(validity),
        };
        let err = decode_chunk(&encode_chunk(&[col])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unequal_column_lengths_are_rejected() {
        let cols = [
            ColumnData::from_values(vec![Value::Int(1)]),
            ColumnData::from_values(vec![Value::Int(1), Value::Int(2)]),
        ];
        let err = decode_chunk(&encode_chunk(&cols)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn duplicate_or_miscounted_column_names_are_rejected() {
        let cols = [
            ColumnData::from_values(vec![Value::Int(1)]),
            ColumnData::from_values(vec![Value::Int(2)]),
        ];
        assert!(decode_table(&write_table("T", &["a", "b"], &cols)).is_ok());
        for names in [&["a", "a"][..], &["a"], &["a", "b", "c"]] {
            let err = decode_table(&write_table("T", names, &cols)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{names:?}");
        }
    }

    #[test]
    fn table_bytes_depend_only_on_cell_values() {
        let plain = plain_table(100);
        let bytes = encode_table(&plain);
        let back = decode_table(&bytes).unwrap();
        assert_eq!(back, plain);
        assert_eq!(encode_table(&back), bytes);
        // Null placeholders and the type of an all-null column are not
        // cell values, so they do not reach the bytes.
        let mut a = Table::new("N", &["s", "z"]);
        a.push_row(vec![Value::from("x"), Value::Null]);
        a.push_row(vec![Value::Null, Value::Null]);
        let mut second_null = Bitmap::filled(1, true);
        second_null.push(false);
        let b = Table::from_columns(
            "N",
            vec![
                (
                    "s".into(),
                    Arc::new(ColumnData::Dict {
                        codes: vec![0, 0],
                        dict: vec![Arc::from("x")],
                        validity: Some(second_null),
                    }),
                ),
                (
                    "z".into(),
                    Arc::new(ColumnData::Float {
                        values: vec![1.5, -2.0],
                        validity: Some(Bitmap::filled(2, false)),
                    }),
                ),
            ],
        );
        assert_eq!(a, b);
        assert_eq!(encode_table(&a), encode_table(&b));
    }

    #[test]
    fn corrupt_chunks_error_without_panicking() {
        let cols = vec![ColumnData::from_values(vec![Value::Int(5); 8]).compressed()];
        let good = encode_chunk(&cols);
        assert!(decode_chunk(&good[..good.len() - 1]).is_err());
        assert!(decode_chunk(&[]).is_err());
        assert!(decode_chunk(b"nonsense bytes here").is_err());
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            // Any single-byte corruption either decodes to *something*
            // or errors — it must never panic.
            let _ = decode_chunk(&bad);
        }
    }
}
