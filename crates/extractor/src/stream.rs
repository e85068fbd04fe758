//! Streaming extraction: Darshan bytes → chunked tables, one region at
//! a time.
//!
//! [`extract_stream`] drives a [`StreamDecoder`] over any [`Read`]
//! source and feeds each decoded region to the same module → table fold
//! that [`extract_tables`](crate::extract::extract_tables) runs over a
//! whole log, with [`ChunkedTableBuilder`]s as the tables. The full
//! record vectors of a large log (most importantly DXT traces) never
//! exist in memory at once; the tables do, with every sealed chunk
//! compressed. The resulting [`TableSet`] is cell-for-cell
//! identical to the batch extractor's over the eagerly decoded log,
//! which keeps `ion-store` content digests byte-stable across ingest
//! modes. That relies on the name table arriving before any module
//! region; the decoder rejects logs where it does not.
//!
//! Alongside the tables the extractor returns a *skeleton* [`Log`]:
//! the job record, the name table, and the first Lustre record. That is
//! exactly the subset `ion`'s `SystemParams::from_log` reads, so callers
//! can derive analysis parameters without a full decode.

use crate::chunked::ChunkedTableBuilder;
use crate::extract::{ModuleTables, TableSet};
use darshan::log::{Log, StreamDecoder};
use darshan::records::JobRecord;
use darshan::DarshanError;
use std::io::Read;

/// Default rows per chunk: large enough that per-chunk overheads vanish,
/// small enough that an open chunk of the widest table stays in the
/// tens of megabytes.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Everything [`extract_stream`] produces.
#[derive(Debug)]
pub struct StreamExtracted {
    /// Per-module tables, identical to the batch extractor's output.
    pub tables: TableSet,
    /// Job record, name table, and first Lustre record — the subset of
    /// the log that parameter derivation reads. Module record vectors
    /// are intentionally left empty.
    pub skeleton: Log,
    /// Total table rows extracted.
    pub rows: u64,
    /// Bytes consumed from the source.
    pub bytes_read: u64,
}

/// Extract every module of a serialized log into tables without ever
/// materializing the full record vectors.
///
/// `chunk_rows` bounds the rows held uncompressed per table; sealed
/// chunks are compressed in place. Decoding is strict, like
/// `LogReader::read`: the first framing, checksum, ordering or record
/// error aborts the extraction.
///
/// # Errors
///
/// Log-level decode failures, including a missing job region.
pub fn extract_stream<R: Read>(src: R, chunk_rows: usize) -> Result<StreamExtracted, DarshanError> {
    let mut span = ion_obs::span!("extract.stream");
    let mut tables = ModuleTables::new(|name: &str, columns: &[&str]| {
        ChunkedTableBuilder::new(name, columns, chunk_rows)
    });

    let mut decoder = StreamDecoder::new(src)?;
    let mut skeleton = Log::new(JobRecord::new(0, 0, 0));
    // Holds one decoded region at a time; the job record carries over.
    let mut region_log = Log::new(JobRecord::new(0, 0, 0));
    let mut saw_job = false;
    while let Some(region) = decoder.next_region()? {
        saw_job |= region.decode_into(&mut region_log)?;
        tables.fold(&region_log);
        skeleton.names.append(&mut region_log.names);
        region_log = Log::new(region_log.job);
    }
    if !saw_job {
        return Err(DarshanError::UnexpectedEof {
            decoding: "job region",
        });
    }
    skeleton.job = region_log.job;

    let (tables, first_lustre) = tables.finish();
    skeleton.lustre.extend(first_lustre);
    let rows = tables.iter().map(|(_, t)| t.len() as u64).sum();
    let bytes_read = decoder.bytes_read() as u64;
    span.attr("tables", tables.len());
    span.attr("rows", rows);
    Ok(StreamExtracted {
        tables,
        skeleton,
        rows,
        bytes_read,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::encode_table;
    use crate::extract::extract_tables;
    use darshan::accum::PosixAccumulator;
    use darshan::dxt::{DxtLayer, DxtRecord, DxtSegment, OpKind};
    use darshan::heatmap::HeatmapAccumulator;
    use darshan::log::{LogReader, LogWriter, StreamWriter};
    use darshan::record_id;
    use darshan::records::{JobRecord, LustreRecord};

    fn sample_log() -> Log {
        let mut w = LogWriter::new(JobRecord::new(7, 42, 4));
        let id = record_id("/scratch/big.h5");
        w.register_name(id, "/scratch/big.h5");
        for rank in 0..4 {
            let mut acc = PosixAccumulator::new(id, rank);
            acc.open(0.0, 0.01);
            acc.write(0, 4096, 0.01, 0.02, true);
            acc.close(0.03, 0.04);
            w.add_posix_record(acc.finish());
            let mut d = DxtRecord::new(id, rank, DxtLayer::Posix, "nid0");
            for i in 0..10u64 {
                d.push(
                    OpKind::Write,
                    DxtSegment {
                        offset: i * 4096,
                        length: 4096,
                        start_time: 0.01 * i as f64,
                        end_time: 0.01 * i as f64 + 0.004,
                    },
                );
            }
            w.add_dxt_record(d);
        }
        w.add_lustre_record(LustreRecord::new(id, 0, 1 << 20, vec![1, 3]));
        let mut hm = HeatmapAccumulator::new(0);
        hm.observe(true, 4096, 0.02, 0.03);
        hm.observe(false, 512, 0.05, 0.06);
        w.add_heatmap_record(hm.finish());
        w.into_log()
    }

    #[test]
    fn stream_extract_matches_batch_extract() {
        let log = sample_log();
        let bytes = LogWriter::from_log(log.clone()).finish().unwrap();
        let batch = extract_tables(&log);
        // Chunk budget smaller than the row count to force sealing.
        let streamed = extract_stream(&bytes[..], 7).unwrap();
        assert_eq!(streamed.tables.names(), batch.names());
        for (name, t) in batch.iter() {
            assert_eq!(streamed.tables.get(name).unwrap(), t, "table {name}");
        }
        assert_eq!(streamed.bytes_read as usize, bytes.len());
    }

    #[test]
    fn dxt_runs_split_at_every_seal_and_match_batch() {
        // 20 writes and 13 reads in one record, then a second record:
        // chunk budgets of 1, 7, 8 and 33 rows seal inside the writes,
        // at the write/read turn, inside the reads and at the record
        // boundary.
        let mut w = LogWriter::new(JobRecord::new(1, 2, 2));
        let seg = |i: u64| DxtSegment {
            offset: i * 512,
            length: 512 + i,
            start_time: i as f64 * 0.5,
            end_time: i as f64 * 0.5 + 0.25,
        };
        for (path, rank, layer, writes, reads) in [
            ("/a", 0, DxtLayer::Posix, 0..20, 100..113),
            ("/b", 1, DxtLayer::MpiIo, 7..8, 0..5),
        ] {
            let id = record_id(path);
            w.register_name(id, path);
            let mut d = DxtRecord::new(id, rank, layer, "nid0");
            writes.for_each(|i| d.push(OpKind::Write, seg(i)));
            reads.for_each(|i| d.push(OpKind::Read, seg(i)));
            w.add_dxt_record(d);
        }
        let log = w.into_log();
        let bytes = LogWriter::from_log(log.clone()).finish().unwrap();
        let batch = extract_tables(&log);
        let dxt = batch.get("DXT").unwrap();
        assert_eq!(dxt.len(), 39);
        for rows in [1, 7, 8, 33, 65_536] {
            let streamed = extract_stream(&bytes[..], rows).unwrap().tables;
            assert_eq!(streamed.names(), batch.names(), "{rows} rows per chunk");
            let s = streamed.get("DXT").unwrap();
            assert_eq!(s.len(), dxt.len(), "{rows} rows per chunk");
            for (i, (want, got)) in dxt.iter_rows().zip(s.iter_rows()).enumerate() {
                let (want, got): (Vec<_>, Vec<_>) =
                    (want.values().collect(), got.values().collect());
                assert_eq!(got, want, "row {i} at {rows} rows per chunk");
            }
            assert_eq!(encode_table(s), encode_table(dxt), "{rows} rows per chunk");
        }
    }

    #[test]
    fn skeleton_carries_params_inputs() {
        let log = sample_log();
        let bytes = LogWriter::from_log(log.clone()).finish().unwrap();
        let s = extract_stream(&bytes[..], 1024).unwrap();
        assert_eq!(s.skeleton.job, log.job);
        assert_eq!(s.skeleton.names, log.names);
        assert_eq!(s.skeleton.lustre.first(), log.lustre.first());
        // Module vectors stay empty (except the single Lustre record).
        assert!(s.skeleton.posix.is_empty());
        assert!(s.skeleton.dxt.is_empty());
    }

    #[test]
    fn names_after_a_module_region_are_rejected_by_both_paths() {
        // A CRC-valid log whose name table follows its DXT region: a
        // streaming fold cannot resolve the DXT paths when the records
        // arrive, so both extractors must refuse the log alike.
        let log = sample_log();
        let mut w = StreamWriter::new(Vec::new(), &log.job).unwrap();
        w.write_dxt(&log.dxt).unwrap();
        w.write_names(&log.names).unwrap();
        let bytes = w.finish().unwrap();

        let batch = LogReader::read(&bytes).map(|log| extract_tables(&log));
        let streamed = extract_stream(&bytes[..], 7).map(|s| s.tables);
        let file_name = |t: &TableSet| t.get("DXT").unwrap().cell(0, "file_name");
        match (batch, streamed) {
            (Err(b), Err(s)) => {
                assert_eq!(b, s);
                assert!(matches!(b, DarshanError::NamesAfterModule { .. }), "{b:?}");
            }
            (Ok(b), Ok(s)) => panic!(
                "late names accepted: batch file_name {:?}, streamed {:?}",
                file_name(&b),
                file_name(&s)
            ),
            (b, s) => panic!("paths disagree: batch {b:?}, streamed {s:?}"),
        }
    }

    #[test]
    fn missing_job_region_is_strict_error() {
        let err = extract_stream(&b"DSHN\x01\x00\x00\x00\xff"[..], 16).unwrap_err();
        assert!(matches!(err, DarshanError::UnexpectedEof { .. }));
    }

    #[test]
    fn truncated_stream_is_strict_error() {
        let bytes = LogWriter::from_log(sample_log()).finish().unwrap();
        assert!(extract_stream(&bytes[..bytes.len() - 6], 16).is_err());
    }
}
