//! Typed column builders: the way extracted rows enter a table.
//!
//! Both table sinks, the batch extractor's in-memory tables and the
//! streaming extractor's [`ChunkedTableBuilder`], append each row as one
//! typed cell per column into a [`ColumnBuilder`]; no row is ever a
//! `Vec<Value>`. Strings that repeat down a column (paths, DXT layer and
//! operation names) are dictionary-coded: the extractor interns a
//! string once per record (`ColumnBuilder::code`) and appends the
//! code for every row that carries it, so a DXT segment allocates no
//! string.
//!
//! [`ChunkedTableBuilder`]: crate::chunked::ChunkedTableBuilder

use crate::table::{ColumnData, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Typed cell appenders for the columns of one table under
/// construction. Cells go to columns by index; a sink closes each row
/// once every column has its cell.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    cols: Vec<ColumnData>,
    /// Per column: dictionary entry → code. Empty unless the column is
    /// dictionary-coded; then it indexes that column's whole dictionary,
    /// which outlives [`take_chunk`](ColumnBuilder::take_chunk).
    index: Vec<HashMap<Arc<str>, u32>>,
}

impl ColumnBuilder {
    /// Builders for `columns` empty columns.
    pub(crate) fn new(columns: usize) -> Self {
        ColumnBuilder {
            cols: vec![ColumnData::empty(); columns],
            index: vec![HashMap::new(); columns],
        }
    }

    /// Append an integer cell to column `c`.
    pub(crate) fn int(&mut self, c: usize, v: i64) {
        match &mut self.cols[c] {
            ColumnData::Int {
                values,
                validity: None,
            } => values.push(v),
            col => col.push(Value::Int(v)),
        }
    }

    /// Append a float cell to column `c`.
    pub(crate) fn float(&mut self, c: usize, v: f64) {
        match &mut self.cols[c] {
            ColumnData::Float {
                values,
                validity: None,
            } => values.push(v),
            col => col.push(Value::Float(v)),
        }
    }

    /// The dictionary code of `s` in column `c`, added on first use. An
    /// empty column becomes dictionary-coded at its first code.
    ///
    /// # Panics
    ///
    /// Panics when column `c` already holds cells that are not
    /// dictionary-coded: the extractor's schemas fix each column's kind.
    pub(crate) fn code(&mut self, c: usize, s: &str) -> u32 {
        let col = &mut self.cols[c];
        if col.is_empty() && !matches!(col, ColumnData::Dict { .. }) {
            *col = ColumnData::Dict {
                codes: Vec::new(),
                dict: Vec::new(),
                validity: None,
            };
            self.index[c].clear();
        }
        let ColumnData::Dict { dict, .. } = col else {
            panic!("column {c} holds cells that are not dictionary-coded");
        };
        if let Some(&code) = self.index[c].get(s) {
            return code;
        }
        let code = u32::try_from(dict.len()).expect("dictionary fits u32");
        let entry: Arc<str> = Arc::from(s);
        dict.push(Arc::clone(&entry));
        self.index[c].insert(entry, code);
        code
    }

    /// Append the string coded `code` (from [`code`](Self::code)) to
    /// column `c`.
    ///
    /// # Panics
    ///
    /// Panics when `code` is not a code of column `c`.
    pub(crate) fn coded(&mut self, c: usize, code: u32) {
        match &mut self.cols[c] {
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } if (code as usize) < dict.len() => {
                codes.push(code);
                if let Some(b) = validity {
                    b.push(true);
                }
            }
            _ => panic!("{code} is not a dictionary code of column {c}"),
        }
    }

    /// Append any cell to column `c`, with [`ColumnData::push`]'s type
    /// promotion. A string bound for a dictionary-coded column is coded.
    pub fn value(&mut self, c: usize, v: Value) {
        if let (ColumnData::Dict { .. }, Value::Str(s)) = (&self.cols[c], &v) {
            let code = self.code(c, s);
            self.coded(c, code);
        } else {
            self.cols[c].push(v);
        }
    }

    /// Move the rows appended so far out as standalone columns, leaving
    /// every column empty. A dictionary-coded column keeps its dictionary,
    /// so codes handed out stay valid for later rows, and gives the chunk
    /// only the entries its rows use, in first-use order.
    pub(crate) fn take_chunk(&mut self) -> Vec<ColumnData> {
        self.cols
            .iter_mut()
            .map(|col| match col {
                ColumnData::Dict {
                    codes,
                    dict,
                    validity,
                } => {
                    let mut local: HashMap<u32, u32> = HashMap::new();
                    let mut chunk_dict: Vec<Arc<str>> = Vec::new();
                    let chunk_codes = codes
                        .drain(..)
                        .map(|code| {
                            *local.entry(code).or_insert_with(|| {
                                chunk_dict.push(Arc::clone(&dict[code as usize]));
                                u32::try_from(chunk_dict.len() - 1).expect("dictionary fits u32")
                            })
                        })
                        .collect();
                    ColumnData::Dict {
                        codes: chunk_codes,
                        dict: chunk_dict,
                        validity: validity.take(),
                    }
                }
                col => std::mem::take(col),
            })
            .collect()
    }

    /// The finished columns.
    pub(crate) fn finish(self) -> Vec<ColumnData> {
        self.cols
    }
}
