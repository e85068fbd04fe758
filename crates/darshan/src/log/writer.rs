//! Log serialization.

use super::varint::{put_f64, put_ivarint, put_string, put_uvarint};
use super::{Log, StreamWriter};
use crate::dxt::{DxtLayer, DxtRecord};
use crate::heatmap::HeatmapRecord;
use crate::records::{JobRecord, LustreRecord, MpiioRecord, PosixRecord, StdioRecord};
use crate::DarshanError;

/// Accumulates records and serializes them into the binary log format.
///
/// The writer mirrors how `darshan-core` assembles a log at MPI finalize
/// time: records are appended per module and [`LogWriter::finish`]
/// serializes the container in one pass.
#[derive(Debug, Clone)]
pub struct LogWriter {
    log: Log,
}

impl LogWriter {
    /// Start a log for the given job.
    #[must_use]
    pub fn new(job: JobRecord) -> Self {
        LogWriter { log: Log::new(job) }
    }

    /// Wrap an existing in-memory log for serialization.
    #[must_use]
    pub fn from_log(log: Log) -> Self {
        LogWriter { log }
    }

    /// Register a record id → path mapping.
    pub fn register_name(&mut self, id: u64, path: &str) {
        if !self.log.names.iter().any(|n| n.id == id) {
            self.log.names.push(crate::records::NameRecord {
                id,
                path: path.to_owned(),
            });
        }
    }

    /// Append a POSIX record.
    pub fn add_posix_record(&mut self, record: PosixRecord) {
        self.log.posix.push(record);
    }

    /// Append an MPI-IO record.
    pub fn add_mpiio_record(&mut self, record: MpiioRecord) {
        self.log.mpiio.push(record);
    }

    /// Append a STDIO record.
    pub fn add_stdio_record(&mut self, record: StdioRecord) {
        self.log.stdio.push(record);
    }

    /// Append a Lustre record.
    pub fn add_lustre_record(&mut self, record: LustreRecord) {
        self.log.lustre.push(record);
    }

    /// Append a DXT record.
    pub fn add_dxt_record(&mut self, record: DxtRecord) {
        self.log.dxt.push(record);
    }

    /// Append a heatmap record.
    pub fn add_heatmap_record(&mut self, record: HeatmapRecord) {
        self.log.heatmap.push(record);
    }

    /// Consume the writer and return the in-memory log without serializing.
    #[must_use]
    pub fn into_log(self) -> Log {
        self.log
    }

    /// Borrow the in-memory log.
    #[must_use]
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Serialize the log into bytes: the job region, the name table
    /// (always, even when empty), then one region per non-empty module,
    /// framed by a [`StreamWriter`] over a `Vec<u8>`.
    ///
    /// # Errors
    ///
    /// Fails only if a string field (path, hostname, exe) exceeds the
    /// format's 64 KiB string limit.
    pub fn finish(&mut self) -> Result<Vec<u8>, DarshanError> {
        let log = &self.log;
        let mut w = StreamWriter::new(Vec::with_capacity(4096), &log.job)?;
        w.write_names(&log.names)?;
        if !log.posix.is_empty() {
            w.write_posix(&log.posix)?;
        }
        if !log.mpiio.is_empty() {
            w.write_mpiio(&log.mpiio)?;
        }
        if !log.stdio.is_empty() {
            w.write_stdio(&log.stdio)?;
        }
        if !log.lustre.is_empty() {
            w.write_lustre(&log.lustre)?;
        }
        if !log.dxt.is_empty() {
            w.write_dxt(&log.dxt)?;
        }
        if !log.heatmap.is_empty() {
            w.write_heatmap(&log.heatmap)?;
        }
        w.finish()
    }
}

pub(super) fn encode_lustre_record(payload: &mut Vec<u8>, r: &LustreRecord) {
    put_uvarint(payload, r.file_id);
    put_ivarint(payload, i64::from(r.rank));
    put_uvarint(payload, r.counters.len() as u64);
    for &c in &r.counters {
        put_ivarint(payload, c);
    }
    put_uvarint(payload, r.ost_ids.len() as u64);
    for &o in &r.ost_ids {
        put_ivarint(payload, o);
    }
}

pub(super) fn encode_heatmap_record(payload: &mut Vec<u8>, r: &HeatmapRecord) {
    put_ivarint(payload, i64::from(r.rank));
    put_f64(payload, r.bin_width);
    put_uvarint(payload, r.read_bytes.len() as u64);
    for &b in &r.read_bytes {
        put_uvarint(payload, b);
    }
    for &b in &r.write_bytes {
        put_uvarint(payload, b);
    }
}

pub(super) fn encode_job(buf: &mut Vec<u8>, job: &JobRecord) -> Result<(), DarshanError> {
    put_uvarint(buf, u64::from(job.uid));
    put_uvarint(buf, job.job_id);
    put_uvarint(buf, u64::from(job.nprocs));
    put_f64(buf, job.start_time);
    put_f64(buf, job.end_time);
    put_string(buf, &job.exe)?;
    put_uvarint(buf, job.metadata.len() as u64);
    for (k, v) in &job.metadata {
        put_string(buf, k)?;
        put_string(buf, v)?;
    }
    Ok(())
}

pub(super) fn encode_counter_record(
    buf: &mut Vec<u8>,
    file_id: u64,
    rank: i32,
    counters: &[i64],
    fcounters: &[f64],
) {
    put_uvarint(buf, file_id);
    put_ivarint(buf, i64::from(rank));
    put_uvarint(buf, counters.len() as u64);
    for &c in counters {
        put_ivarint(buf, c);
    }
    put_uvarint(buf, fcounters.len() as u64);
    for &f in fcounters {
        put_f64(buf, f);
    }
}

pub(super) fn encode_dxt_record(buf: &mut Vec<u8>, r: &DxtRecord) -> Result<(), DarshanError> {
    put_uvarint(buf, r.file_id);
    put_ivarint(buf, i64::from(r.rank));
    buf.push(match r.layer {
        DxtLayer::Posix => 0,
        DxtLayer::MpiIo => 1,
    });
    put_string(buf, &r.hostname)?;
    for segs in [&r.writes, &r.reads] {
        put_uvarint(buf, segs.len() as u64);
        let mut prev_offset: i64 = 0;
        for s in segs {
            // Offsets delta-encode well for sequential workloads and cost
            // at most two extra bytes for random ones.
            put_ivarint(buf, s.offset as i64 - prev_offset);
            prev_offset = s.offset as i64;
            put_uvarint(buf, s.length);
            put_f64(buf, s.start_time);
            put_f64(buf, s.end_time);
        }
    }
    Ok(())
}
