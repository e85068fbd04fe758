//! The extractor: Darshan [`Log`] → per-module [`Table`]s.

use crate::builder::ColumnBuilder;
use crate::chunked::ChunkedTableBuilder;
use crate::table::{Table, Value};
use darshan::counters::{
    LustreCounter, MpiioCounter, MpiioFCounter, PosixCounter, PosixFCounter, StdioCounter,
    StdioFCounter,
};
use darshan::dxt::{DxtRecord, OpKind};
use darshan::heatmap::HeatmapRecord;
use darshan::log::Log;
use darshan::records::LustreRecord;
use std::collections::HashMap;
use std::convert::Infallible;
use std::io;
use std::sync::Arc;

/// The set of tables the extractor produces for one log.
#[derive(Debug, Clone, Default)]
pub struct TableSet {
    tables: HashMap<String, Table>,
}

impl TableSet {
    /// Fetch a table by module name (`POSIX`, `MPIIO`, `STDIO`, `LUSTRE`,
    /// `DXT`).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Insert a table under its name.
    pub fn insert(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Names of tables present (sorted for determinism).
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Number of tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterate `(name, table)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        let mut v: Vec<(&str, &Table)> = self.tables.iter().map(|(k, t)| (k.as_str(), t)).collect();
        v.sort_by_key(|(k, _)| *k);
        v.into_iter()
    }
}

/// Column names common to every counter table.
const ID_COLUMNS: [&str; 3] = ["file_id", "file_name", "rank"];

/// `HEATMAP` table columns.
const HEATMAP_COLUMNS: [&str; 6] = [
    "rank",
    "bin",
    "bin_start",
    "bin_end",
    "read_bytes",
    "write_bytes",
];

/// `DXT` table columns.
const DXT_COLUMNS: [&str; 10] = [
    "file_id",
    "file_name",
    "rank",
    "module",
    "op",
    "segment",
    "offset",
    "length",
    "start_time",
    "end_time",
];

/// `POSIX` table columns.
fn posix_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(PosixCounter::ALL.iter().map(|c| c.name()));
    cols.extend(PosixFCounter::ALL.iter().map(|c| c.name()));
    cols
}

/// `MPIIO` table columns.
fn mpiio_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(MpiioCounter::ALL.iter().map(|c| c.name()));
    cols.extend(MpiioFCounter::ALL.iter().map(|c| c.name()));
    cols
}

/// `STDIO` table columns.
fn stdio_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(StdioCounter::ALL.iter().map(|c| c.name()));
    cols.extend(StdioFCounter::ALL.iter().map(|c| c.name()));
    cols
}

/// `LUSTRE` table columns.
fn lustre_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(LustreCounter::ALL.iter().map(|c| c.name()));
    cols.push("LUSTRE_OST_IDS");
    cols
}

/// `file_name` of a record whose id the name table does not list.
const UNKNOWN_PATH: &str = "<unknown>";

/// The `ID_COLUMNS` cells of a counter-table row.
fn id_cells(cells: &mut ColumnBuilder, path: Option<&str>, file_id: u64, rank: i32) {
    cells.int(0, file_id as i64);
    let path = cells.code(1, path.unwrap_or(UNKNOWN_PATH));
    cells.coded(1, path);
    cells.int(2, i64::from(rank));
}

/// One row of a counter table (`POSIX`/`MPIIO`/`STDIO`).
fn counter_row<S: TableSink>(
    t: &mut S,
    file_id: u64,
    rank: i32,
    path: Option<&str>,
    counters: &[i64],
    fcounters: &[f64],
) -> Result<(), S::Error> {
    let cells = t.cells();
    id_cells(cells, path, file_id, rank);
    let first = ID_COLUMNS.len();
    for (i, &c) in counters.iter().enumerate() {
        cells.int(first + i, c);
    }
    for (i, &f) in fcounters.iter().enumerate() {
        cells.float(first + counters.len() + i, f);
    }
    t.end_row()
}

/// One `LUSTRE` table row.
fn lustre_row<S: TableSink>(
    t: &mut S,
    r: &LustreRecord,
    path: Option<&str>,
) -> Result<(), S::Error> {
    let cells = t.cells();
    id_cells(cells, path, r.file_id, r.rank);
    let first = ID_COLUMNS.len();
    for (i, &c) in r.counters.iter().enumerate() {
        cells.int(first + i, c);
    }
    let ids: Vec<String> = r.ost_ids.iter().map(ToString::to_string).collect();
    cells.value(first + r.counters.len(), Value::Str(ids.join(" ").into()));
    t.end_row()
}

/// The `HEATMAP` table rows of a record, one per time bin.
fn heatmap_rows<S: TableSink>(t: &mut S, r: &HeatmapRecord) -> Result<(), S::Error> {
    for (bin, (&rd, &wr)) in r.read_bytes.iter().zip(&r.write_bytes).enumerate() {
        let cells = t.cells();
        cells.int(0, i64::from(r.rank));
        cells.int(1, bin as i64);
        cells.float(2, bin as f64 * r.bin_width);
        cells.float(3, (bin + 1) as f64 * r.bin_width);
        cells.int(4, rd as i64);
        cells.int(5, wr as i64);
        t.end_row()?;
    }
    Ok(())
}

/// The `DXT` table rows of a record, one per traced operation (writes
/// first, as [`DxtRecord::iter`] orders them). The record's path, layer
/// and operation names are coded once, not per segment.
fn dxt_rows<S: TableSink>(t: &mut S, r: &DxtRecord, path: Option<&str>) -> Result<(), S::Error> {
    if r.is_empty() {
        return Ok(());
    }
    let cells = t.cells();
    let path = cells.code(1, path.unwrap_or(UNKNOWN_PATH));
    let module = cells.code(3, r.layer.name());
    let mut seg_no = 0;
    for (kind, segments) in [(OpKind::Write, &r.writes), (OpKind::Read, &r.reads)] {
        if segments.is_empty() {
            continue;
        }
        let op = t.cells().code(4, kind.name());
        for s in segments {
            let cells = t.cells();
            cells.int(0, r.file_id as i64);
            cells.coded(1, path);
            cells.int(2, i64::from(r.rank));
            cells.coded(3, module);
            cells.coded(4, op);
            cells.int(5, seg_no);
            cells.int(6, s.offset as i64);
            cells.int(7, s.length as i64);
            cells.float(8, s.start_time);
            cells.float(9, s.end_time);
            t.end_row()?;
            seg_no += 1;
        }
    }
    Ok(())
}

/// A table under construction: a [`BatchTable`] for the batch
/// extractor, a [`ChunkedTableBuilder`] for the streaming one. Both take
/// a row as typed cells appended to their [`ColumnBuilder`].
pub(crate) trait TableSink {
    /// What closing a row or finishing the table can fail with.
    type Error;
    /// The open row's columns.
    fn cells(&mut self) -> &mut ColumnBuilder;
    /// Close the row whose cells were just appended.
    fn end_row(&mut self) -> Result<(), Self::Error>;
    /// The finished table.
    fn into_table(self) -> Result<Table, Self::Error>;
}

/// The batch extractor's table: every column whole, in memory.
pub(crate) struct BatchTable {
    name: String,
    columns: Vec<String>,
    cells: ColumnBuilder,
}

impl BatchTable {
    fn new(name: &str, columns: &[&str]) -> Self {
        BatchTable {
            name: name.to_owned(),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            cells: ColumnBuilder::new(columns.len()),
        }
    }
}

impl TableSink for BatchTable {
    type Error = Infallible;

    fn cells(&mut self) -> &mut ColumnBuilder {
        &mut self.cells
    }

    fn end_row(&mut self) -> Result<(), Infallible> {
        Ok(())
    }

    fn into_table(self) -> Result<Table, Infallible> {
        let columns = self
            .columns
            .into_iter()
            .zip(self.cells.finish().into_iter().map(Arc::new))
            .collect();
        Ok(Table::from_columns(&self.name, columns))
    }
}

impl TableSink for ChunkedTableBuilder {
    type Error = io::Error;

    fn cells(&mut self) -> &mut ColumnBuilder {
        ChunkedTableBuilder::cells(self)
    }

    fn end_row(&mut self) -> io::Result<()> {
        ChunkedTableBuilder::end_row(self)
    }

    fn into_table(self) -> io::Result<Table> {
        self.finish()
    }
}

/// Record id → path; the first registration of an id wins.
type Paths = HashMap<u64, String>;

fn path_of(paths: &Paths, id: u64) -> Option<&str> {
    paths.get(&id).map(String::as_str)
}

/// The module → table fold both extractors run: the batch extractor
/// folds a whole [`Log`] once, the streaming extractor one decoded
/// region at a time.
///
/// A table is created when its module's first record arrives, so an
/// absent module yields an absent table (module absence is a signal
/// downstream). Names must be folded before the records that use them;
/// the decoder rejects logs whose name table follows a module region.
pub(crate) struct ModuleTables<S, F> {
    new_table: F,
    tables: Vec<(&'static str, S)>,
    paths: Paths,
    first_lustre: Option<LustreRecord>,
}

impl<S: TableSink, F: Fn(&str, &[&str]) -> S> ModuleTables<S, F> {
    /// An empty fold creating each table with `new_table(name, columns)`.
    pub(crate) fn new(new_table: F) -> Self {
        // Counted (not just spanned) so cache layers can prove "zero
        // extractions happened" from a metrics snapshot alone.
        ion_obs::counter("extract.runs", 1);
        ModuleTables {
            new_table,
            tables: Vec::new(),
            paths: Paths::new(),
            first_lustre: None,
        }
    }

    /// Fold the names and every module record of `log` into the tables.
    pub(crate) fn fold(&mut self, log: &Log) -> Result<(), S::Error> {
        for n in &log.names {
            self.paths.entry(n.id).or_insert_with(|| n.path.clone());
        }
        let counters = |t: &mut S, paths: &Paths, id: u64, rank: i32, c: &[i64], f: &[f64]| {
            counter_row(t, id, rank, path_of(paths, id), c, f)
        };
        self.push("POSIX", posix_columns, &log.posix, |t, paths, r| {
            counters(t, paths, r.file_id, r.rank, &r.counters, &r.fcounters)
        })?;
        self.push("MPIIO", mpiio_columns, &log.mpiio, |t, paths, r| {
            counters(t, paths, r.file_id, r.rank, &r.counters, &r.fcounters)
        })?;
        self.push("STDIO", stdio_columns, &log.stdio, |t, paths, r| {
            counters(t, paths, r.file_id, r.rank, &r.counters, &r.fcounters)
        })?;
        self.push("LUSTRE", lustre_columns, &log.lustre, |t, paths, r| {
            lustre_row(t, r, path_of(paths, r.file_id))
        })?;
        self.push(
            "HEATMAP",
            || HEATMAP_COLUMNS.to_vec(),
            &log.heatmap,
            |t, _, r| heatmap_rows(t, r),
        )?;
        self.push(
            "DXT",
            || DXT_COLUMNS.to_vec(),
            &log.dxt,
            |t, paths, r| dxt_rows(t, r, path_of(paths, r.file_id)),
        )?;
        // Parameter derivation reads only the first Lustre record.
        if self.first_lustre.is_none() {
            self.first_lustre = log.lustre.first().cloned();
        }
        Ok(())
    }

    /// Push the rows of `records` into table `name`, creating it with
    /// `columns()` on the first record.
    fn push<R>(
        &mut self,
        name: &'static str,
        columns: fn() -> Vec<&'static str>,
        records: &[R],
        mut rows: impl FnMut(&mut S, &Paths, &R) -> Result<(), S::Error>,
    ) -> Result<(), S::Error> {
        if records.is_empty() {
            return Ok(());
        }
        let i = match self.tables.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.tables.push((name, (self.new_table)(name, &columns())));
                self.tables.len() - 1
            }
        };
        let table = &mut self.tables[i].1;
        for r in records {
            rows(table, &self.paths, r)?;
        }
        Ok(())
    }

    /// The finished tables (counted under `extract.rows.<name>`) and the
    /// first Lustre record folded.
    pub(crate) fn finish(self) -> Result<(TableSet, Option<LustreRecord>), S::Error> {
        let mut set = TableSet::default();
        for (_, table) in self.tables {
            set.insert(table.into_table()?);
        }
        if ion_obs::enabled() {
            for (name, table) in set.iter() {
                ion_obs::counter(&format!("extract.rows.{name}"), table.len() as u64);
            }
        }
        Ok((set, self.first_lustre))
    }
}

/// Extract every module of `log` into CSV-shaped tables.
///
/// Only modules that actually collected records appear in the result —
/// ION's module mapping later uses absence (e.g. no `MPIIO` table) as a
/// signal in itself. Numeric columns are dense; `file_name` and the DXT
/// `module` and `op` columns are dictionary-coded.
#[must_use]
pub fn extract_tables(log: &Log) -> TableSet {
    let mut span = ion_obs::span!("extract");
    let mut tables = ModuleTables::new(BatchTable::new);
    let Ok(()) = tables.fold(log);
    let Ok((set, _)) = tables.finish();
    span.attr("tables", set.len());
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnData;
    use darshan::accum::PosixAccumulator;
    use darshan::dxt::{DxtLayer, DxtRecord, DxtSegment, OpKind};
    use darshan::log::LogWriter;
    use darshan::record_id;
    use darshan::records::{JobRecord, LustreRecord};

    fn sample_log() -> Log {
        let mut w = LogWriter::new(JobRecord::new(0, 1, 2));
        let id = record_id("/scratch/x.h5");
        w.register_name(id, "/scratch/x.h5");
        for rank in 0..2 {
            let mut acc = PosixAccumulator::new(id, rank);
            acc.open(0.0, 0.01);
            acc.write(0, 1024, 0.01, 0.02, true);
            acc.write(1024, 1024, 0.02, 0.03, true);
            acc.close(0.03, 0.04);
            w.add_posix_record(acc.finish());
        }
        w.add_lustre_record(LustreRecord::new(id, 0, 1 << 20, vec![2, 4]));
        let mut d = DxtRecord::new(id, 0, DxtLayer::Posix, "nid0");
        d.push(
            OpKind::Write,
            DxtSegment {
                offset: 0,
                length: 1024,
                start_time: 0.01,
                end_time: 0.02,
            },
        );
        d.push(
            OpKind::Read,
            DxtSegment {
                offset: 0,
                length: 512,
                start_time: 0.05,
                end_time: 0.06,
            },
        );
        w.add_dxt_record(d);
        w.into_log()
    }

    #[test]
    fn extracts_only_present_modules() {
        let set = extract_tables(&sample_log());
        assert_eq!(set.names(), vec!["DXT", "LUSTRE", "POSIX"]);
        assert!(set.get("MPIIO").is_none());
    }

    #[test]
    fn posix_table_shape_and_values() {
        let set = extract_tables(&sample_log());
        let t = set.get("POSIX").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.columns.len(),
            3 + darshan::counters::PosixCounter::COUNT + darshan::counters::PosixFCounter::COUNT
        );
        assert_eq!(t.cell(0, "POSIX_WRITES"), Some(Value::Int(2)));
        assert_eq!(t.cell(0, "POSIX_BYTES_WRITTEN"), Some(Value::Int(2048)));
        assert_eq!(
            t.cell(0, "file_name"),
            Some(Value::Str("/scratch/x.h5".into()))
        );
    }

    #[test]
    fn dxt_table_one_row_per_operation() {
        let set = extract_tables(&sample_log());
        let t = set.get("DXT").unwrap();
        assert_eq!(t.len(), 2);
        // Writes come first (parser order).
        assert_eq!(t.cell(0, "op"), Some(Value::Str("write".into())));
        assert_eq!(t.cell(1, "op"), Some(Value::Str("read".into())));
        assert_eq!(t.cell(0, "length"), Some(Value::Int(1024)));
        assert_eq!(t.cell(0, "module"), Some(Value::Str("X_POSIX".into())));
    }

    #[test]
    fn batch_dxt_strings_are_dictionary_coded() {
        let mut w = LogWriter::new(JobRecord::new(0, 1, 2));
        let seg = |offset| DxtSegment {
            offset,
            length: 8,
            start_time: 0.0,
            end_time: 0.1,
        };
        for (path, rank, layer, ops) in [
            ("/x", 0, DxtLayer::Posix, &[OpKind::Write, OpKind::Read][..]),
            ("/x", 1, DxtLayer::Posix, &[OpKind::Write]),
            ("/y", 0, DxtLayer::MpiIo, &[OpKind::Read, OpKind::Read]),
            ("/unused", 1, DxtLayer::MpiIo, &[]),
        ] {
            let id = record_id(path);
            w.register_name(id, path);
            let mut d = DxtRecord::new(id, rank, layer, "nid0");
            for (i, &op) in ops.iter().enumerate() {
                d.push(op, seg(i as u64));
            }
            w.add_dxt_record(d);
        }
        let set = extract_tables(&w.into_log());
        let t = set.get("DXT").unwrap();
        assert_eq!(t.len(), 5);
        for (column, entries) in [("file_name", 2), ("module", 2), ("op", 2)] {
            let data = t.column(t.column_index(column).unwrap()).unwrap();
            let ColumnData::Dict { dict, .. } = data else {
                panic!("{column} is not dictionary-coded: {data:?}");
            };
            assert_eq!(dict.len(), entries, "{column}: {dict:?}");
        }
        for (i, c) in t.columns.iter().enumerate() {
            let data = t.column(i).unwrap();
            assert!(!matches!(data, ColumnData::Mixed(_)), "{} is Mixed", c.name);
            assert_eq!(data.null_count(), 0, "{}", c.name);
        }
        assert_eq!(t.cell(4, "file_name"), Some(Value::Str("/y".into())));
        assert_eq!(t.cell(4, "segment"), Some(Value::Int(1)));
    }

    #[test]
    fn lustre_table_carries_ost_list() {
        let set = extract_tables(&sample_log());
        let t = set.get("LUSTRE").unwrap();
        assert_eq!(t.cell(0, "LUSTRE_OST_IDS"), Some(Value::Str("2 4".into())));
        assert_eq!(t.cell(0, "LUSTRE_STRIPE_SIZE"), Some(Value::Int(1 << 20)));
    }

    #[test]
    fn counter_sums_match_log() {
        // CSV totals must equal counter totals in the log — the extractor
        // must not lose or duplicate information.
        let log = sample_log();
        let set = extract_tables(&log);
        let t = set.get("POSIX").unwrap();
        let csv_total: i64 = t
            .column_values("POSIX_BYTES_WRITTEN")
            .unwrap()
            .filter_map(|v| v.as_i64())
            .sum();
        let log_total: i64 = log
            .posix
            .iter()
            .map(|r| r.get(darshan::counters::PosixCounter::POSIX_BYTES_WRITTEN))
            .sum();
        assert_eq!(csv_total, log_total);
    }

    #[test]
    fn empty_log_yields_empty_set() {
        let log = Log::new(JobRecord::new(0, 1, 1));
        let set = extract_tables(&log);
        assert!(set.is_empty());
    }
}
