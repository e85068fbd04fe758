//! Streaming (out-of-core) log decode and encode.
//!
//! [`StreamDecoder`] pulls one region frame at a time from any
//! [`io::Read`] source, so a multi-gigabyte trace never has to sit in
//! memory at once: only the frame currently being consumed is buffered.
//! Decoding is *lazy* — [`StreamDecoder::next_region`] performs framing
//! only (tag, declared length, payload bytes, stored CRC); the CRC check
//! and record decode happen when the caller consumes the region via
//! [`RawRegion::decode_into`]. A region the caller skips costs its I/O
//! and nothing else — its CRC is never computed and its records are
//! never materialized, which is what lets selective consumers (the
//! chunked extractor, module-filtered tools) stay cheap.
//!
//! [`StreamWriter`] is the encode-side dual and the only region
//! framer: it frames regions to any [`io::Write`] sink as they are
//! handed in, so a producer can emit a log far larger than memory by
//! writing module records in chunks — the reader's region decoder
//! *extends* per-module vectors, so a log with fifty small DXT regions
//! decodes identically to one with a single huge one.
//! [`super::LogWriter::finish`] drives it over a `Vec<u8>`.
//!
//! The name table must precede every module region: a consumer that
//! folds regions as they arrive (the streaming extractor) resolves each
//! record's path on sight. The decoder marks a names region that
//! follows a module region, and consuming it fails with
//! [`DarshanError::NamesAfterModule`]. Every decode path goes through
//! [`RawRegion::decode_into`], so the strict reader, the lenient reader
//! (which skips just that region) and the streaming extractor all
//! treat such a log the same way.
//!
//! [`super::LogReader::read`] and [`super::LogReader::read_lenient`]
//! are thin drivers over [`StreamDecoder`] that consume every region
//! eagerly.
//!
//! One-byte header reads make unbuffered sources slow: wrap files in a
//! [`std::io::BufReader`] before handing them to [`StreamDecoder`].

use super::varint::{put_string, put_uvarint};
use super::writer::{
    encode_counter_record, encode_dxt_record, encode_heatmap_record, encode_job,
    encode_lustre_record,
};
use super::{crc32, Log, MAGIC, TAG_END, TAG_JOB, TAG_NAMES, VERSION};
use crate::counters::ModuleId;
use crate::dxt::DxtRecord;
use crate::heatmap::HeatmapRecord;
use crate::records::{JobRecord, LustreRecord, MpiioRecord, NameRecord, PosixRecord, StdioRecord};
use crate::DarshanError;
use std::io::{self, Read, Write};

fn io_error(action: &'static str, err: &io::Error) -> DarshanError {
    DarshanError::Io {
        action,
        message: err.to_string(),
    }
}

/// Incremental region-frame reader over any byte source.
///
/// Construction validates the 8-byte header; each
/// [`StreamDecoder::next_region`] call then frames exactly one region.
/// The decoder is forgiving about *payload* content by design — it
/// never looks inside a frame — so framing errors ([`DarshanError::Truncated`],
/// I/O failures) are the only errors it can return.
#[derive(Debug)]
pub struct StreamDecoder<R: Read> {
    src: R,
    /// Byte offset of the cursor from the start of the log (tracks the
    /// same positions the in-memory reader reported in
    /// [`DarshanError::Truncated`]).
    pos: usize,
    done: bool,
    /// Whether a module region has been framed yet.
    seen_module: bool,
}

impl<R: Read> StreamDecoder<R> {
    /// Open a decoder: reads and validates the 8-byte log header.
    ///
    /// # Errors
    ///
    /// [`DarshanError::UnexpectedEof`] when the source holds fewer than
    /// 8 bytes, [`DarshanError::BadMagic`] / [`DarshanError::UnsupportedVersion`]
    /// for a foreign or future container, [`DarshanError::Io`] when the
    /// source itself fails.
    pub fn new(mut src: R) -> Result<Self, DarshanError> {
        let mut header = [0u8; 8];
        match src.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(DarshanError::UnexpectedEof { decoding: "header" });
            }
            Err(e) => return Err(io_error("read log header", &e)),
        }
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if magic != MAGIC {
            return Err(DarshanError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(DarshanError::UnsupportedVersion { found: version });
        }
        Ok(StreamDecoder {
            src,
            pos: 8,
            done: false,
            seen_module: false,
        })
    }

    /// Total bytes consumed from the source so far.
    #[must_use]
    pub fn bytes_read(&self) -> usize {
        self.pos
    }

    /// Frame the next region: `Ok(None)` at the end-of-log tag.
    ///
    /// The returned region's payload is buffered but *unverified* —
    /// call [`RawRegion::decode_into`] (or [`RawRegion::verify`]) to pay
    /// for the CRC check, or drop the region to skip it for free.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Truncated`] when the source ends inside a frame
    /// (carrying the byte offset where the doomed region began), and
    /// [`DarshanError::Io`] when the source fails. Framing errors are
    /// not recoverable: the decoder refuses further reads.
    pub fn next_region(&mut self) -> Result<Option<RawRegion>, DarshanError> {
        if self.done {
            return Ok(None);
        }
        let region_start = self.pos;
        let Some(tag) = self.read_byte()? else {
            // The end tag itself is missing: the frame sequence was cut,
            // not any one region's payload.
            self.done = true;
            return Err(DarshanError::Truncated {
                region: "frame",
                offset: region_start,
            });
        };
        if tag == TAG_END {
            self.done = true;
            return Ok(None);
        }
        let truncated = DarshanError::Truncated {
            region: region_name(tag),
            offset: region_start,
        };
        let Some(len) = self.read_len_varint()? else {
            self.done = true;
            return Err(truncated);
        };
        // `len + 4` must not wrap: a declared length near usize::MAX
        // would otherwise defeat the short-read check below.
        let Some(framed) = len.checked_add(4) else {
            self.done = true;
            return Err(truncated);
        };
        // `take` + `read_to_end` grows the buffer as bytes actually
        // arrive, so a hostile declared length cannot force a giant
        // allocation up front.
        let mut buf = Vec::new();
        let got = (&mut self.src)
            .take(framed as u64)
            .read_to_end(&mut buf)
            .map_err(|e| io_error("read region payload", &e))?;
        self.pos += got;
        if got < framed {
            self.done = true;
            return Err(truncated);
        }
        let stored_crc = u32::from_le_bytes([buf[len], buf[len + 1], buf[len + 2], buf[len + 3]]);
        buf.truncate(len);
        let late_names = tag == TAG_NAMES && self.seen_module;
        self.seen_module |= tag != TAG_JOB && tag != TAG_NAMES;
        Ok(Some(RawRegion {
            tag,
            offset: region_start,
            payload: buf,
            stored_crc,
            late_names,
        }))
    }

    fn read_byte(&mut self) -> Result<Option<u8>, DarshanError> {
        let mut b = [0u8; 1];
        loop {
            match self.src.read(&mut b) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    self.pos += 1;
                    return Ok(Some(b[0]));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error("read region frame", &e)),
            }
        }
    }

    /// Read the region-length uvarint byte by byte. `None` = the value
    /// ran past EOF or overflowed 64 bits — both render the frame
    /// unusable and map to `Truncated`, exactly as the in-memory reader
    /// classified them.
    fn read_len_varint(&mut self) -> Result<Option<usize>, DarshanError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(byte) = self.read_byte()? else {
                return Ok(None);
            };
            if shift == 63 && byte > 1 {
                return Ok(None);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(Some(value as usize));
            }
            shift += 7;
            if shift > 63 {
                return Ok(None);
            }
        }
    }
}

/// One framed-but-unverified region: tag, buffered payload, stored CRC.
///
/// Consuming it ([`RawRegion::decode_into`]) verifies the CRC and
/// decodes the records; dropping it skips both.
#[derive(Debug, Clone)]
pub struct RawRegion {
    /// Region tag (job, names, or a module code).
    pub tag: u8,
    /// Byte offset of the region's tag byte from the start of the log.
    pub offset: usize,
    payload: Vec<u8>,
    stored_crc: u32,
    /// A names region framed after a module region.
    late_names: bool,
}

impl RawRegion {
    /// Human-readable region name (`job`, `names`, `posix`, …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        region_name(self.tag)
    }

    /// Payload size in bytes.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Verify the payload against the stored CRC (counted under
    /// `darshan.decode.crc_checks` / `crc_failures`, like the eager
    /// reader).
    ///
    /// # Errors
    ///
    /// [`DarshanError::ChecksumMismatch`] naming this region.
    pub fn verify(&self) -> Result<(), DarshanError> {
        let actual = crc32(&self.payload);
        ion_obs::counter("darshan.decode.crc_checks", 1);
        if actual != self.stored_crc {
            ion_obs::counter("darshan.decode.crc_failures", 1);
            return Err(DarshanError::ChecksumMismatch {
                region: region_name(self.tag),
                expected: self.stored_crc,
                actual,
            });
        }
        Ok(())
    }

    /// Consume the region: CRC check, ordering check, then record
    /// decode into `log` (module regions *extend* the per-module
    /// vectors). Returns whether this was the job region.
    ///
    /// # Errors
    ///
    /// [`DarshanError::ChecksumMismatch`],
    /// [`DarshanError::NamesAfterModule`] for a names region that
    /// follows a module region, or any record-level decode error; `log`
    /// keeps no partial records from a failed region.
    pub fn decode_into(&self, log: &mut Log) -> Result<bool, DarshanError> {
        let mut span = ion_obs::span!(region_span_name(self.tag));
        span.attr("bytes", self.payload.len());
        self.verify()?;
        if self.late_names {
            return Err(DarshanError::NamesAfterModule {
                offset: self.offset,
            });
        }
        super::reader::decode_region(log, self.tag, &self.payload)
    }
}

pub(super) fn region_name(tag: u8) -> &'static str {
    match tag {
        TAG_JOB => "job",
        TAG_NAMES => "names",
        t => ModuleId::from_code(t).map_or("unknown", ModuleId::name),
    }
}

/// Static span name for one region's decode timing (`decode.posix`, …).
pub(super) fn region_span_name(tag: u8) -> &'static str {
    match tag {
        TAG_JOB => "decode.job",
        TAG_NAMES => "decode.names",
        t => match ModuleId::from_code(t) {
            Some(ModuleId::Posix) => "decode.posix",
            Some(ModuleId::MpiIo) => "decode.mpiio",
            Some(ModuleId::Stdio) => "decode.stdio",
            Some(ModuleId::Lustre) => "decode.lustre",
            Some(ModuleId::Dxt) => "decode.dxt",
            Some(ModuleId::Heatmap) => "decode.heatmap",
            None => "decode.unknown",
        },
    }
}

/// Incremental log encoder: frames regions to a sink as they arrive.
///
/// A `StreamWriter` holds only the region currently being encoded.
/// Module writers may be called repeatedly — each call emits one
/// region, and the reader's extend-on-decode semantics reassemble them
/// — so a producer can emit arbitrarily large traces in bounded memory.
/// Call [`StreamWriter::write_names`] before any module writer: a names
/// region after a module region is rejected on decode.
/// [`super::LogWriter::finish`] is this writer over a `Vec<u8>`.
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    out: W,
    payload: Vec<u8>,
}

impl<W: Write> StreamWriter<W> {
    /// Start a log: writes the 8-byte header and the job region.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`] when the sink fails,
    /// [`DarshanError::StringTooLong`] for an over-long exe string.
    pub fn new(mut out: W, job: &JobRecord) -> Result<Self, DarshanError> {
        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.write_all(&header)
            .map_err(|e| io_error("write log header", &e))?;
        let mut w = StreamWriter {
            out,
            payload: Vec::new(),
        };
        encode_job(&mut w.payload, job)?;
        w.flush_region(TAG_JOB)?;
        Ok(w)
    }

    fn flush_region(&mut self, tag: u8) -> Result<(), DarshanError> {
        let mut frame = Vec::with_capacity(self.payload.len() + 16);
        frame.push(tag);
        put_uvarint(&mut frame, self.payload.len() as u64);
        self.out
            .write_all(&frame)
            .map_err(|e| io_error("write region frame", &e))?;
        self.out
            .write_all(&self.payload)
            .map_err(|e| io_error("write region payload", &e))?;
        self.out
            .write_all(&crc32(&self.payload).to_le_bytes())
            .map_err(|e| io_error("write region crc", &e))?;
        self.payload.clear();
        Ok(())
    }

    /// Encode `records` as one region: a count, then each record.
    fn write_region<T>(
        &mut self,
        tag: u8,
        records: &[T],
        encode: impl Fn(&mut Vec<u8>, &T) -> Result<(), DarshanError>,
    ) -> Result<(), DarshanError> {
        self.payload.clear();
        put_uvarint(&mut self.payload, records.len() as u64);
        for r in records {
            encode(&mut self.payload, r)?;
        }
        self.flush_region(tag)
    }

    /// Emit a name-table region.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`] / [`DarshanError::StringTooLong`].
    pub fn write_names(&mut self, names: &[NameRecord]) -> Result<(), DarshanError> {
        self.write_region(TAG_NAMES, names, |buf, n| {
            put_uvarint(buf, n.id);
            put_string(buf, &n.path)
        })
    }

    /// Emit one POSIX region holding `records`.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`].
    pub fn write_posix(&mut self, records: &[PosixRecord]) -> Result<(), DarshanError> {
        self.write_region(ModuleId::Posix.code(), records, |buf, r| {
            encode_counter_record(buf, r.file_id, r.rank, &r.counters, &r.fcounters);
            Ok(())
        })
    }

    /// Emit one MPI-IO region holding `records`.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`].
    pub fn write_mpiio(&mut self, records: &[MpiioRecord]) -> Result<(), DarshanError> {
        self.write_region(ModuleId::MpiIo.code(), records, |buf, r| {
            encode_counter_record(buf, r.file_id, r.rank, &r.counters, &r.fcounters);
            Ok(())
        })
    }

    /// Emit one STDIO region holding `records`.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`].
    pub fn write_stdio(&mut self, records: &[StdioRecord]) -> Result<(), DarshanError> {
        self.write_region(ModuleId::Stdio.code(), records, |buf, r| {
            encode_counter_record(buf, r.file_id, r.rank, &r.counters, &r.fcounters);
            Ok(())
        })
    }

    /// Emit one Lustre region holding `records`.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`].
    pub fn write_lustre(&mut self, records: &[LustreRecord]) -> Result<(), DarshanError> {
        self.write_region(ModuleId::Lustre.code(), records, |buf, r| {
            encode_lustre_record(buf, r);
            Ok(())
        })
    }

    /// Emit one DXT region holding `records`.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`] / [`DarshanError::StringTooLong`].
    pub fn write_dxt(&mut self, records: &[DxtRecord]) -> Result<(), DarshanError> {
        self.write_region(ModuleId::Dxt.code(), records, encode_dxt_record)
    }

    /// Emit one heatmap region holding `records`.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`].
    pub fn write_heatmap(&mut self, records: &[HeatmapRecord]) -> Result<(), DarshanError> {
        self.write_region(ModuleId::Heatmap.code(), records, |buf, r| {
            encode_heatmap_record(buf, r);
            Ok(())
        })
    }

    /// Terminate the log (end tag) and return the sink.
    ///
    /// # Errors
    ///
    /// [`DarshanError::Io`].
    pub fn finish(mut self) -> Result<W, DarshanError> {
        self.out
            .write_all(&[TAG_END])
            .map_err(|e| io_error("write end tag", &e))?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{LogReader, LogWriter};
    use super::*;
    use crate::dxt::{DxtLayer, DxtSegment, OpKind};

    fn sample_log() -> Log {
        let mut job = JobRecord::new(7, 42, 2).with_metadata("k", "v");
        job.start_time = 1.0;
        job.end_time = 5.0;
        let mut log = Log::new(job);
        log.names.push(NameRecord {
            id: 9,
            path: "/scratch/a".into(),
        });
        let mut d = DxtRecord::new(9, 0, DxtLayer::Posix, "nid1");
        for i in 0..4u64 {
            d.push(
                OpKind::Write,
                DxtSegment {
                    offset: i * 512,
                    length: 512,
                    start_time: 0.1 * i as f64,
                    end_time: 0.1 * i as f64 + 0.05,
                },
            );
        }
        log.dxt.push(d);
        log.lustre
            .push(LustreRecord::new(9, 0, 1 << 20, vec![1, 2]));
        log
    }

    /// `sample_log` plus one record in each of the other four modules.
    fn six_module_log() -> Log {
        let mut log = sample_log();
        log.posix.push(PosixRecord::new(9, 0));
        log.mpiio.push(MpiioRecord::new(9, 1));
        log.stdio.push(StdioRecord::new(9, 0));
        let mut hm = crate::heatmap::HeatmapAccumulator::new(1);
        hm.observe(true, 4096, 0.2, 0.3);
        log.heatmap.push(hm.finish());
        log
    }

    #[test]
    fn stream_writer_matches_batch_writer_bytes() {
        let mut unnamed = six_module_log();
        unnamed.names.clear();
        for log in [sample_log(), six_module_log(), unnamed] {
            let batch = LogWriter::from_log(log.clone()).finish().unwrap();

            let mut w = StreamWriter::new(Vec::new(), &log.job).unwrap();
            w.write_names(&log.names).unwrap();
            if !log.posix.is_empty() {
                w.write_posix(&log.posix).unwrap();
            }
            if !log.mpiio.is_empty() {
                w.write_mpiio(&log.mpiio).unwrap();
            }
            if !log.stdio.is_empty() {
                w.write_stdio(&log.stdio).unwrap();
            }
            w.write_lustre(&log.lustre).unwrap();
            w.write_dxt(&log.dxt).unwrap();
            if !log.heatmap.is_empty() {
                w.write_heatmap(&log.heatmap).unwrap();
            }
            let streamed = w.finish().unwrap();
            assert_eq!(streamed, batch);
            assert_eq!(LogReader::read(&streamed).unwrap(), log);
        }
    }

    #[test]
    fn names_after_a_module_region_are_rejected() {
        let log = sample_log();
        let mut w = StreamWriter::new(Vec::new(), &log.job).unwrap();
        w.write_dxt(&log.dxt).unwrap();
        w.write_names(&log.names).unwrap();
        let bytes = w.finish().unwrap();

        let err = LogReader::read(&bytes).unwrap_err();
        assert!(
            matches!(err, DarshanError::NamesAfterModule { .. }),
            "{err:?}"
        );
        // Lenient decode skips only the late names region.
        let partial = LogReader::read_lenient(&bytes).unwrap();
        assert_eq!(partial.errors, vec![err]);
        assert_eq!(partial.log.dxt, log.dxt);
        assert!(partial.log.names.is_empty());
    }

    #[test]
    fn chunked_module_regions_decode_to_one_log() {
        let log = sample_log();
        let mut w = StreamWriter::new(Vec::new(), &log.job).unwrap();
        w.write_names(&log.names).unwrap();
        w.write_lustre(&log.lustre).unwrap();
        // One region per DXT record: the reader must extend, not replace.
        let mut big = log.clone();
        let mut d2 = DxtRecord::new(9, 1, DxtLayer::MpiIo, "nid2");
        d2.push(
            OpKind::Read,
            DxtSegment {
                offset: 0,
                length: 64,
                start_time: 0.7,
                end_time: 0.8,
            },
        );
        big.dxt.push(d2);
        for r in &big.dxt {
            w.write_dxt(std::slice::from_ref(r)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let decoded = LogReader::read(&bytes).unwrap();
        assert_eq!(decoded, big);
    }

    #[test]
    fn skipped_regions_never_pay_crc_or_decode() {
        let log = sample_log();
        let mut bytes = LogWriter::from_log(log).finish().unwrap();
        // Corrupt a byte near the end (inside the last region's payload):
        // a consumer that skips that region must never notice.
        let n = bytes.len();
        bytes[n - 8] ^= 0xff;
        let mut dec = StreamDecoder::new(&bytes[..]).unwrap();
        let mut seen = Vec::new();
        while let Some(region) = dec.next_region().unwrap() {
            seen.push(region.name());
            if region.tag == TAG_JOB {
                let mut log = Log::new(JobRecord::new(0, 0, 0));
                assert!(region.decode_into(&mut log).unwrap());
            }
            // All other regions dropped unverified.
        }
        assert!(seen.contains(&"job"));
        assert_eq!(dec.bytes_read(), bytes.len());
    }

    #[test]
    fn framing_truncation_reports_region_start() {
        let log = sample_log();
        let bytes = LogWriter::from_log(log).finish().unwrap();
        let cut = &bytes[..bytes.len() - 6];
        let mut dec = StreamDecoder::new(cut).unwrap();
        let err = loop {
            match dec.next_region() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncated log reached end tag"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, DarshanError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn header_errors_match_eager_reader() {
        assert!(matches!(
            StreamDecoder::new(&b"DS"[..]),
            Err(DarshanError::UnexpectedEof { decoding: "header" })
        ));
        assert!(matches!(
            StreamDecoder::new(&[0u8; 16][..]),
            Err(DarshanError::BadMagic { .. })
        ));
    }
}
