//! Binary log format: a compact, checksummed container for Darshan records.
//!
//! Layout (all integers varint unless stated):
//!
//! ```text
//! magic  u32le  "DSHN"
//! version u16le
//! flags  u16le
//! region*            tag u8, payload_len uvarint, payload, crc32 u32le
//! end    tag 0xFF
//! ```
//!
//! Regions: `0x10` job record, `0x11` name table, and one region per module
//! (tag = [`crate::counters::ModuleId::code`]). Counter values are zigzag varints; DXT
//! offsets are delta-encoded against the previous segment to keep large
//! traces compact.

mod crc;
mod reader;
mod stream;
mod varint;
mod writer;

pub use crc::{crc32, Crc32};
pub use reader::{LogReader, PartialLog};
pub use stream::{RawRegion, StreamDecoder, StreamWriter};
pub use varint::{
    get_f64, get_ivarint, get_string, get_uvarint, put_f64, put_ivarint, put_string, put_uvarint,
};
pub use writer::LogWriter;

use crate::dxt::DxtRecord;
use crate::heatmap::HeatmapRecord;
use crate::records::{JobRecord, LustreRecord, MpiioRecord, NameRecord, PosixRecord, StdioRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Log magic: `"DSHN"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DSHN");
/// Current format version.
pub const VERSION: u16 = 1;

/// Region tag for the job record.
pub(crate) const TAG_JOB: u8 = 0x10;
/// Region tag for the name table.
pub(crate) const TAG_NAMES: u8 = 0x11;
/// End-of-log tag.
pub(crate) const TAG_END: u8 = 0xff;

/// A fully decoded Darshan log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Log {
    /// Job-level header record.
    pub job: JobRecord,
    /// Record-id → path mappings.
    pub names: Vec<NameRecord>,
    /// POSIX module records.
    pub posix: Vec<PosixRecord>,
    /// MPI-IO module records.
    pub mpiio: Vec<MpiioRecord>,
    /// STDIO module records.
    pub stdio: Vec<StdioRecord>,
    /// Lustre module records.
    pub lustre: Vec<LustreRecord>,
    /// DXT trace records.
    pub dxt: Vec<DxtRecord>,
    /// Heatmap records (per-rank temporal I/O volume).
    pub heatmap: Vec<HeatmapRecord>,
}

impl Log {
    /// An empty log with the given job record.
    #[must_use]
    pub fn new(job: JobRecord) -> Self {
        Log {
            job,
            names: Vec::new(),
            posix: Vec::new(),
            mpiio: Vec::new(),
            stdio: Vec::new(),
            lustre: Vec::new(),
            dxt: Vec::new(),
            heatmap: Vec::new(),
        }
    }

    /// Map record ids to paths.
    #[must_use]
    pub fn name_map(&self) -> HashMap<u64, &str> {
        self.names.iter().map(|n| (n.id, n.path.as_str())).collect()
    }

    /// Path for a record id, if registered.
    #[must_use]
    pub fn path_for(&self, id: u64) -> Option<&str> {
        self.names
            .iter()
            .find(|n| n.id == id)
            .map(|n| n.path.as_str())
    }

    /// Names of the modules that have at least one record.
    #[must_use]
    pub fn modules_present(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !self.posix.is_empty() {
            out.push("POSIX");
        }
        if !self.mpiio.is_empty() {
            out.push("MPI-IO");
        }
        if !self.stdio.is_empty() {
            out.push("STDIO");
        }
        if !self.lustre.is_empty() {
            out.push("LUSTRE");
        }
        if !self.dxt.is_empty() {
            out.push("DXT");
        }
        if !self.heatmap.is_empty() {
            out.push("HEATMAP");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::PosixAccumulator;
    use crate::dxt::{DxtLayer, DxtSegment, OpKind};
    use crate::record_id;

    fn sample_log() -> Log {
        let mut job = JobRecord::new(501, 777, 4).with_metadata("k", "v");
        job.start_time = 100.0;
        job.end_time = 130.0;
        job.exe = "ior -a POSIX".into();
        let mut writer = LogWriter::new(job);
        let fid = record_id("/scratch/file.dat");
        writer.register_name(fid, "/scratch/file.dat");
        for rank in 0..4 {
            let mut acc = PosixAccumulator::new(fid, rank);
            acc.open(0.0, 0.01);
            for i in 0..10u64 {
                acc.write(
                    i * 4096,
                    4096,
                    0.01 * i as f64,
                    0.01 * i as f64 + 0.005,
                    true,
                );
            }
            acc.close(0.2, 0.21);
            writer.add_posix_record(acc.finish());
            let mut dxt = DxtRecord::new(fid, rank, DxtLayer::Posix, "node01");
            for i in 0..10u64 {
                dxt.push(
                    OpKind::Write,
                    DxtSegment {
                        offset: i * 4096,
                        length: 4096,
                        start_time: 0.01 * i as f64,
                        end_time: 0.01 * i as f64 + 0.005,
                    },
                );
            }
            writer.add_dxt_record(dxt);
        }
        writer.add_lustre_record(LustreRecord::new(fid, 0, 1 << 20, vec![0, 1, 2, 3]));
        writer.into_log()
    }

    #[test]
    fn full_round_trip() {
        let log = sample_log();
        let mut w = LogWriter::from_log(log.clone());
        let bytes = w.finish().unwrap();
        let decoded = LogReader::read(&bytes).unwrap();
        assert_eq!(decoded, log);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let log = sample_log();
        let mut w = LogWriter::from_log(log);
        let mut bytes = w.finish().unwrap();
        // Flip a byte inside the payload area (past the 8-byte header).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = LogReader::read(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                crate::DarshanError::ChecksumMismatch { .. }
                    | crate::DarshanError::UnexpectedEof { .. }
                    | crate::DarshanError::Truncated { .. }
                    | crate::DarshanError::UnknownModule { .. }
                    | crate::DarshanError::InvalidName
                    | crate::DarshanError::VarintOverflow
                    | crate::DarshanError::Overflow { .. }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = [0u8; 16];
        assert!(matches!(
            LogReader::read(&bytes),
            Err(crate::DarshanError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_log_rejected() {
        let log = sample_log();
        let mut w = LogWriter::from_log(log);
        let bytes = w.finish().unwrap();
        let err = LogReader::read(&bytes[..bytes.len() - 10]).unwrap_err();
        assert!(matches!(
            err,
            crate::DarshanError::UnexpectedEof { .. } | crate::DarshanError::Truncated { .. }
        ));
    }

    #[test]
    fn modules_present_reflects_content() {
        let log = sample_log();
        let mods = log.modules_present();
        assert!(mods.contains(&"POSIX"));
        assert!(mods.contains(&"LUSTRE"));
        assert!(mods.contains(&"DXT"));
        assert!(!mods.contains(&"MPI-IO"));
    }

    #[test]
    fn name_lookup() {
        let log = sample_log();
        let fid = record_id("/scratch/file.dat");
        assert_eq!(log.path_for(fid), Some("/scratch/file.dat"));
        assert_eq!(log.path_for(12345), None);
        assert_eq!(log.name_map().len(), 1);
    }
}
