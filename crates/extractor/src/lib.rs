//! ION Extractor: Darshan logs → per-module CSV tables.
//!
//! The first stage of the ION pipeline (paper §3) unpacks a Darshan log and
//! renders each module into a CSV file named after the module (`POSIX.csv`,
//! `MPIIO.csv`, `STDIO.csv`, `LUSTRE.csv`) plus `DXT.csv` with one row per
//! traced operation. The Analyzer later attaches these tables to prompts
//! and the code interpreter runs generated analysis programs against them.
//!
//! This crate provides:
//!
//! * [`csv`] — a minimal RFC-4180 CSV writer (quoting, escaping) for
//!   prompts and `ion_cli extract`, written in-repo to stay within the
//!   allowed dependency set.
//! * [`table`] — a typed, column-oriented table model ([`Table`],
//!   [`Value`]) that both the CSV layer and the IQL interpreter share.
//! * [`schema`] — prose descriptions of every column, used verbatim in ION
//!   prompts ("a description of the columns in the associated CSV files").
//! * [`extract`] — the extractor itself: [`extract::extract_tables`],
//!   and the one module → table fold both extraction paths run.
//! * [`builder`] — typed column builders, through which both table
//!   sinks take every extracted row, with repeated strings
//!   dictionary-coded.
//! * [`chunked`] — chunked table building: fixed-row chunks compressed
//!   as they seal, and the table codec ([`encode_table`]/[`decode_table`])
//!   the store keeps tables in.
//! * [`stream`] — streaming extraction ([`stream::extract_stream`]):
//!   the same fold, fed one decoded region at a time into chunked
//!   tables.
//! * [`stats`] — descriptive statistics over table columns.
//!
//! # Example
//!
//! ```
//! use extractor::extract::extract_tables;
//! # use darshan::{log::LogWriter, records::JobRecord, accum::PosixAccumulator};
//! # let mut w = LogWriter::new(JobRecord::new(0, 1, 1));
//! # let id = darshan::record_id("/f");
//! # w.register_name(id, "/f");
//! # let mut acc = PosixAccumulator::new(id, 0);
//! # acc.write(0, 10, 0.0, 0.1, true);
//! # w.add_posix_record(acc.finish());
//! # let log = w.into_log();
//! let tables = extract_tables(&log);
//! let posix = tables.get("POSIX").unwrap();
//! assert_eq!(posix.column_index("POSIX_WRITES").is_some(), true);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod chunked;
pub mod csv;
pub mod extract;
pub mod schema;
pub mod stats;
pub mod stream;
pub mod table;

pub use builder::ColumnBuilder;
pub use chunked::{decode_table, encode_table, ChunkedTableBuilder};
pub use extract::{extract_tables, TableSet};
pub use stream::{extract_stream, StreamExtracted, DEFAULT_CHUNK_ROWS};
pub use table::{Bitmap, Column, ColumnData, RowView, Table, Value};
