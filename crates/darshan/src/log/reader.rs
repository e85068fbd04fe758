//! Log deserialization with checksum verification.
//!
//! [`LogReader::read`] / [`LogReader::read_lenient`] are eager drivers
//! over the streaming frame reader ([`super::StreamDecoder`]): they pull
//! every region and consume it immediately. Out-of-core consumers use
//! the decoder directly and pay for only the regions they visit.

use super::stream::StreamDecoder;
use super::varint::{get_f64, get_ivarint, get_string, get_uvarint};
use super::{Log, TAG_JOB, TAG_NAMES};
use crate::counters::{
    LustreCounter, ModuleId, MpiioCounter, MpiioFCounter, PosixCounter, PosixFCounter,
    StdioCounter, StdioFCounter,
};
use crate::dxt::{DxtLayer, DxtRecord, DxtSegment};
use crate::heatmap::HeatmapRecord;
use crate::records::{JobRecord, LustreRecord, MpiioRecord, NameRecord, PosixRecord, StdioRecord};
use crate::DarshanError;

/// Decodes binary logs produced by [`super::LogWriter`].
#[derive(Debug)]
pub struct LogReader;

/// Result of a lenient decode: every region that survived framing, CRC and
/// record validation, plus the typed error for each region that did not.
///
/// Truncated logs keep their valid prefix: regions before the cut decode
/// normally and the truncation itself is reported as the final error.
#[derive(Debug, Clone)]
pub struct PartialLog {
    /// Records from every region that decoded cleanly.
    pub log: Log,
    /// One typed error per region that failed (empty = fully clean log).
    pub errors: Vec<DarshanError>,
}

impl PartialLog {
    /// Whether every region decoded cleanly.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }
}

impl LogReader {
    /// Decode a complete log from bytes, verifying every region checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`DarshanError`] describing the first structural problem:
    /// bad magic, unsupported version, CRC mismatch, truncation, or a
    /// malformed record. Truncation at a region boundary is reported as
    /// [`DarshanError::Truncated`] carrying the region name and the byte
    /// offset where the doomed region began.
    pub fn read(bytes: &[u8]) -> Result<Log, DarshanError> {
        let partial = Self::read_impl(bytes, false)?;
        match partial.errors.into_iter().next() {
            Some(err) => Err(err),
            None => Ok(partial.log),
        }
    }

    /// Decode as much of a log as possible: regions that fail framing,
    /// CRC, or record validation are skipped (with a typed error recorded
    /// per failure) and decoding continues at the next region boundary.
    ///
    /// A log truncated mid-region yields every region before the cut —
    /// the "valid prefix still yields partial results" half of the
    /// robustness contract.
    ///
    /// # Errors
    ///
    /// Only header-level problems (too short, bad magic, unsupported
    /// version) are fatal: with no trustworthy framing there is nothing
    /// to salvage.
    pub fn read_lenient(bytes: &[u8]) -> Result<PartialLog, DarshanError> {
        Self::read_impl(bytes, true)
    }

    fn read_impl(bytes: &[u8], lenient: bool) -> Result<PartialLog, DarshanError> {
        let mut decode_span = ion_obs::span!("decode");
        decode_span.attr("bytes", bytes.len());
        ion_obs::counter("darshan.decode.bytes", bytes.len() as u64);
        let mut decoder = StreamDecoder::new(bytes)?;

        let mut out = PartialLog {
            log: Log::new(JobRecord::new(0, 0, 0)),
            errors: Vec::new(),
        };
        let mut saw_job = false;
        loop {
            let region = match decoder.next_region() {
                Ok(Some(region)) => region,
                Ok(None) => break,
                Err(err) => {
                    // Framing failure: with no trustworthy frame boundary
                    // there is no next region to resynchronize on.
                    if lenient {
                        out.errors.push(err);
                        break;
                    }
                    return Err(err);
                }
            };
            match region.decode_into(&mut out.log) {
                Ok(job_seen) => saw_job |= job_seen,
                Err(err) => {
                    if lenient {
                        out.errors.push(err);
                        continue;
                    }
                    return Err(err);
                }
            }
        }
        if !saw_job {
            let err = DarshanError::UnexpectedEof {
                decoding: "job region",
            };
            if lenient {
                out.errors.push(err);
            } else {
                return Err(err);
            }
        }
        let records = out.log.names.len()
            + out.log.posix.len()
            + out.log.mpiio.len()
            + out.log.stdio.len()
            + out.log.lustre.len()
            + out.log.dxt.len()
            + out.log.heatmap.len();
        ion_obs::counter("darshan.decode.records", records as u64);
        decode_span.attr("records", records);
        Ok(out)
    }
}

/// Decode one CRC-verified region payload into `log`. Returns whether the
/// region was the job record. Partially decoded records are discarded on
/// error: the caller either aborts (strict) or skips the region (lenient).
pub(super) fn decode_region(log: &mut Log, tag: u8, payload: &[u8]) -> Result<bool, DarshanError> {
    let mut p = payload;
    match tag {
        TAG_JOB => {
            log.job = decode_job(&mut p)?;
            return Ok(true);
        }
        TAG_NAMES => log.names.extend(decode_records(&mut p, decode_name)?),
        t => match ModuleId::from_code(t) {
            Some(ModuleId::Posix) => log.posix.extend(decode_records(&mut p, decode_posix)?),
            Some(ModuleId::MpiIo) => log.mpiio.extend(decode_records(&mut p, decode_mpiio)?),
            Some(ModuleId::Stdio) => log.stdio.extend(decode_records(&mut p, decode_stdio)?),
            Some(ModuleId::Lustre) => log.lustre.extend(decode_records(&mut p, decode_lustre)?),
            Some(ModuleId::Dxt) => log.dxt.extend(decode_records(&mut p, decode_dxt)?),
            Some(ModuleId::Heatmap) => {
                log.heatmap.extend(decode_records(&mut p, decode_heatmap)?);
            }
            None => return Err(DarshanError::UnknownModule { id: t }),
        },
    }
    Ok(false)
}

/// A region payload: a record count, then that many records.
fn decode_records<T>(
    p: &mut &[u8],
    decode: impl Fn(&mut &[u8]) -> Result<T, DarshanError>,
) -> Result<Vec<T>, DarshanError> {
    let n = get_uvarint(p)? as usize;
    let mut records = Vec::new();
    for _ in 0..n {
        records.push(decode(p)?);
    }
    Ok(records)
}

fn decode_name(p: &mut &[u8]) -> Result<NameRecord, DarshanError> {
    let id = get_uvarint(p)?;
    let path = get_string(p)?;
    Ok(NameRecord { id, path })
}

fn decode_job(p: &mut &[u8]) -> Result<JobRecord, DarshanError> {
    let uid = get_uvarint(p)? as u32;
    let job_id = get_uvarint(p)?;
    let nprocs = get_uvarint(p)? as u32;
    let mut job = JobRecord::new(uid, job_id, nprocs);
    job.start_time = get_f64(p)?;
    job.end_time = get_f64(p)?;
    job.exe = get_string(p)?;
    let n = get_uvarint(p)? as usize;
    for _ in 0..n {
        let k = get_string(p)?;
        let v = get_string(p)?;
        job.metadata.push((k, v));
    }
    Ok(job)
}

fn decode_counter_arrays(
    p: &mut &[u8],
    module: &'static str,
    ccount: usize,
    fcount: usize,
) -> Result<(u64, i32, Vec<i64>, Vec<f64>), DarshanError> {
    let file_id = get_uvarint(p)?;
    let rank = get_ivarint(p)? as i32;
    let nc = get_uvarint(p)? as usize;
    if nc != ccount {
        return Err(DarshanError::CounterCountMismatch {
            module,
            expected: ccount,
            found: nc,
        });
    }
    let mut counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        counters.push(get_ivarint(p)?);
    }
    let nf = get_uvarint(p)? as usize;
    if nf != fcount {
        return Err(DarshanError::CounterCountMismatch {
            module,
            expected: fcount,
            found: nf,
        });
    }
    let mut fcounters = Vec::with_capacity(nf);
    for _ in 0..nf {
        fcounters.push(get_f64(p)?);
    }
    Ok((file_id, rank, counters, fcounters))
}

fn decode_posix(p: &mut &[u8]) -> Result<PosixRecord, DarshanError> {
    let (file_id, rank, counters, fcounters) =
        decode_counter_arrays(p, "POSIX", PosixCounter::COUNT, PosixFCounter::COUNT)?;
    Ok(PosixRecord {
        file_id,
        rank,
        counters,
        fcounters,
    })
}

fn decode_mpiio(p: &mut &[u8]) -> Result<MpiioRecord, DarshanError> {
    let (file_id, rank, counters, fcounters) =
        decode_counter_arrays(p, "MPI-IO", MpiioCounter::COUNT, MpiioFCounter::COUNT)?;
    Ok(MpiioRecord {
        file_id,
        rank,
        counters,
        fcounters,
    })
}

fn decode_stdio(p: &mut &[u8]) -> Result<StdioRecord, DarshanError> {
    let (file_id, rank, counters, fcounters) =
        decode_counter_arrays(p, "STDIO", StdioCounter::COUNT, StdioFCounter::COUNT)?;
    Ok(StdioRecord {
        file_id,
        rank,
        counters,
        fcounters,
    })
}

fn decode_lustre(p: &mut &[u8]) -> Result<LustreRecord, DarshanError> {
    let file_id = get_uvarint(p)?;
    let rank = get_ivarint(p)? as i32;
    let nc = get_uvarint(p)? as usize;
    if nc != LustreCounter::COUNT {
        return Err(DarshanError::CounterCountMismatch {
            module: "LUSTRE",
            expected: LustreCounter::COUNT,
            found: nc,
        });
    }
    let mut counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        counters.push(get_ivarint(p)?);
    }
    let no = get_uvarint(p)? as usize;
    if no > p.len() {
        return Err(DarshanError::UnexpectedEof {
            decoding: "lustre ost ids",
        });
    }
    let mut ost_ids = Vec::with_capacity(no);
    for _ in 0..no {
        ost_ids.push(get_ivarint(p)?);
    }
    Ok(LustreRecord {
        file_id,
        rank,
        counters,
        ost_ids,
    })
}

fn decode_heatmap(p: &mut &[u8]) -> Result<HeatmapRecord, DarshanError> {
    let rank = get_ivarint(p)? as i32;
    let bin_width = get_f64(p)?;
    let nbins = get_uvarint(p)? as usize;
    // A bin costs at least one byte each for reads and writes.
    if nbins > p.len() / 2 + 1 {
        return Err(DarshanError::UnexpectedEof {
            decoding: "heatmap bins",
        });
    }
    let mut read_bytes = Vec::with_capacity(nbins);
    for _ in 0..nbins {
        read_bytes.push(get_uvarint(p)?);
    }
    let mut write_bytes = Vec::with_capacity(nbins);
    for _ in 0..nbins {
        write_bytes.push(get_uvarint(p)?);
    }
    Ok(HeatmapRecord {
        rank,
        bin_width,
        read_bytes,
        write_bytes,
    })
}

fn decode_dxt(p: &mut &[u8]) -> Result<DxtRecord, DarshanError> {
    let file_id = get_uvarint(p)?;
    let rank = get_ivarint(p)? as i32;
    if p.is_empty() {
        return Err(DarshanError::UnexpectedEof {
            decoding: "dxt layer",
        });
    }
    let layer = match p[0] {
        0 => DxtLayer::Posix,
        1 => DxtLayer::MpiIo,
        other => return Err(DarshanError::UnknownModule { id: other }),
    };
    *p = &p[1..];
    let hostname = get_string(p)?;
    let mut record = DxtRecord::new(file_id, rank, layer, &hostname);
    for dest in [&mut record.writes, &mut record.reads] {
        let n = get_uvarint(p)? as usize;
        // A segment costs at least 18 bytes on the wire; reject counts that
        // cannot possibly fit so corrupt lengths fail fast instead of OOMing.
        if n > p.len() / 18 + 1 {
            return Err(DarshanError::UnexpectedEof {
                decoding: "dxt segments",
            });
        }
        dest.reserve(n);
        let mut prev_offset: i64 = 0;
        for _ in 0..n {
            let delta = get_ivarint(p)?;
            // Hostile delta chains can push the running offset past
            // i64::MAX; that is corrupt data, not a crash.
            let offset = prev_offset
                .checked_add(delta)
                .ok_or(DarshanError::Overflow {
                    what: "dxt segment offset",
                })?;
            prev_offset = offset;
            let length = get_uvarint(p)?;
            let start_time = get_f64(p)?;
            let end_time = get_f64(p)?;
            dest.push(DxtSegment {
                offset: offset as u64,
                length,
                start_time,
                end_time,
            });
        }
    }
    Ok(record)
}
