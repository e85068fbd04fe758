//! Drives one artifact through the pipeline, stage by stage, with a
//! panic trap around each stage.
//!
//! The stages mirror the production data path: strict decode, lenient
//! (valid-prefix) decode, table extraction, analysis. A panic in *any*
//! stage is a contract violation — the pipeline's own error handling
//! (typed [`darshan::DarshanError`]s, per-issue failed diagnoses) must
//! absorb everything hostile bytes can throw at it. The extract stage
//! also round-trips every table through the artifact codec the store
//! keeps tables in, and decodes seeded mutations of each artifact.

use crate::rng::FuzzRng;
use darshan::log::{Log, LogReader, StreamDecoder};
use darshan::records::JobRecord;
use extractor::csv::to_csv;
use extractor::{decode_table, encode_table, extract_stream, extract_tables, TableSet};
use ion::IonPipeline;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated copies of each table artifact decoded per driven input.
const ARTIFACT_MUTATIONS: usize = 4;

/// Pipeline stage an artifact reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Strict decode: `LogReader::read`.
    Decode,
    /// Streaming decode: `extractor::extract_stream` plus a lazy
    /// region walk over `darshan::StreamDecoder`; when strict decode
    /// accepted the bytes, the streamed tables must equal the batch
    /// extractor's.
    Stream,
    /// Lenient decode: `LogReader::read_lenient` (valid-prefix recovery).
    LenientDecode,
    /// Column extraction: `extractor::extract_tables`, then a round trip
    /// of every table through `encode_table`/`decode_table`.
    Extract,
    /// Analysis: `IonPipeline::run_tables` (mock LLM).
    Analyze,
}

impl Stage {
    /// Stable machine-readable name, used in corpus metadata.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Stream => "stream",
            Stage::LenientDecode => "lenient-decode",
            Stage::Extract => "extract",
            Stage::Analyze => "analyze",
        }
    }

    /// Inverse of [`Stage::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Stage> {
        [
            Stage::Decode,
            Stage::Stream,
            Stage::LenientDecode,
            Stage::Extract,
            Stage::Analyze,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// Outcome of driving one artifact through the full pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Both strict and lenient decode rejected the bytes with a typed
    /// error. The contract is satisfied: garbage in, typed error out.
    Rejected {
        /// The strict decoder's error.
        strict: String,
        /// The lenient decoder's (header-level) error.
        lenient: String,
    },
    /// The artifact was analyzed end to end. `recovered` is true when
    /// only the lenient decoder accepted it (valid-prefix path), and
    /// `failed_diagnoses` counts per-issue analyses that failed in a
    /// *contained* way.
    Analyzed {
        /// True when strict decode failed but the lenient path recovered
        /// a usable prefix.
        recovered: bool,
        /// Issues diagnosed.
        diagnoses: usize,
        /// Issues whose analysis failed but was contained to the report.
        failed_diagnoses: usize,
    },
    /// A panic escaped a pipeline stage: the bug the campaign exists to
    /// find.
    Crashed {
        /// Stage the panic escaped from.
        stage: Stage,
        /// Panic payload, when it was a string.
        message: String,
    },
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn trap<T>(stage: Stage, f: impl FnOnce() -> T) -> Result<T, Verdict> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| Verdict::Crashed {
        stage,
        message: panic_message(payload.as_ref()),
    })
}

/// Drive raw bytes through decode → extract → analyze and report where
/// they got and how. Never panics: every stage runs under a trap, and a
/// trapped panic is returned as [`Verdict::Crashed`].
#[must_use]
pub fn drive(bytes: &[u8]) -> Verdict {
    match drive_inner(bytes) {
        Ok(v) | Err(v) => v,
    }
}

/// Replay the bytes through the lazy streaming path.
///
/// Two probes: a full streaming extraction (chunk budget deliberately
/// small and odd, so chunk boundaries land mid-record-group), and a
/// region walk that rotates between verifying, decoding, and merely
/// inspecting each frame — corruption in a block the walk never
/// CRC-checks must surface as a typed error downstream or not at all,
/// never as a panic. When the strict batch decoder accepted the bytes,
/// the streaming extractor must accept them too (same CRC coverage),
/// and its tables are returned for comparison with the batch tables.
fn stream_check(bytes: &[u8], strict_ok: bool) -> Option<TableSet> {
    let streamed = extract_stream(bytes, 61);
    if let Ok(mut decoder) = StreamDecoder::new(bytes) {
        let mut scratch = Log::new(JobRecord::new(0, 0, 0));
        let mut i = 0_usize;
        while let Ok(Some(region)) = decoder.next_region() {
            match i % 3 {
                0 => drop(region.verify()),
                1 => drop(region.decode_into(&mut scratch)),
                _ => {
                    let _ = (region.name(), region.payload_len());
                }
            }
            i += 1;
        }
        let _ = decoder.bytes_read();
    }
    match streamed {
        Ok(s) if strict_ok => Some(s.tables),
        Err(e) if strict_ok => {
            panic!("strict decode accepted these bytes but streaming extract errored: {e}")
        }
        _ => None,
    }
}

/// The streaming and batch extractors must produce the same tables for
/// the same bytes. Cells are compared rendered, as CSV: `NaN` cells
/// never compare equal as values.
fn same_tables(batch: &TableSet, streamed: &TableSet) {
    assert_eq!(
        batch.names(),
        streamed.names(),
        "streaming extract produced different tables than batch extract"
    );
    for (name, table) in batch.iter() {
        let other = streamed.get(name).expect("same table names");
        assert!(
            to_csv(table) == to_csv(other),
            "streaming extract differs from batch extract in table {name}"
        );
    }
}

/// Every table must round-trip through its store artifact (cells
/// compared rendered, as in [`same_tables`]), and single-byte mutations
/// of the artifact must decode to a typed error or to a table that can
/// be re-encoded — which expands every column and reads every cell.
fn table_artifacts_round_trip(tables: &TableSet) {
    for (name, table) in tables.iter() {
        let bytes = encode_table(table);
        let back = decode_table(&bytes)
            .unwrap_or_else(|e| panic!("table {name} artifact does not decode: {e}"));
        assert!(
            to_csv(&back) == to_csv(table),
            "table {name} changed across its artifact round trip"
        );
        let mut rng = FuzzRng::new(bytes.len() as u64);
        for _ in 0..ARTIFACT_MUTATIONS {
            let mut mutated = bytes.clone();
            let at = rng.index(mutated.len());
            mutated[at] ^= 1 + rng.below(255) as u8;
            // A mutated run end may claim more rows than the bytes hold;
            // reading those back would only measure the allocator.
            if let Ok(decoded) = decode_table(&mutated) {
                if decoded.len() <= table.len() {
                    drop(encode_table(&decoded));
                }
            }
        }
    }
}

fn drive_inner(bytes: &[u8]) -> Result<Verdict, Verdict> {
    let strict = trap(Stage::Decode, || LogReader::read(bytes))?;
    let streamed = trap(Stage::Stream, || stream_check(bytes, strict.is_ok()))?;
    let (log, recovered) = match strict {
        Ok(log) => (log, false),
        Err(strict_err) => {
            let lenient = trap(Stage::LenientDecode, || LogReader::read_lenient(bytes))?;
            match lenient {
                Ok(partial) => (partial.log, true),
                Err(lenient_err) => {
                    return Ok(Verdict::Rejected {
                        strict: strict_err.to_string(),
                        lenient: lenient_err.to_string(),
                    });
                }
            }
        }
    };

    let pipeline = IonPipeline::new();
    let (tables, params) = trap(Stage::Extract, || {
        let tables = extract_tables(&log);
        table_artifacts_round_trip(&tables);
        (tables, pipeline.params_for(&log))
    })?;
    if let Some(streamed) = streamed {
        trap(Stage::Stream, || same_tables(&tables, &streamed))?;
    }
    let report = trap(Stage::Analyze, || pipeline.run_tables(&tables, &params))?;

    let failed_diagnoses = report
        .diagnoses
        .iter()
        .filter(|d| d.detection.is_none())
        .count();
    Ok(Verdict::Analyzed {
        recovered,
        diagnoses: report.diagnoses.len(),
        failed_diagnoses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_bytes;
    use crate::rng::FuzzRng;

    #[test]
    fn valid_log_is_analyzed() {
        let bytes = generate_bytes(&mut FuzzRng::new(11));
        match drive(&bytes) {
            Verdict::Analyzed { recovered, .. } => assert!(!recovered),
            other => panic!("valid log should analyze, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_rejected_not_crashed() {
        let verdict = drive(b"not a darshan log at all");
        match verdict {
            Verdict::Rejected { .. } => {}
            other => panic!("garbage should be rejected, got {other:?}"),
        }
    }

    #[test]
    fn truncated_tail_recovers_via_lenient_path() {
        let bytes = generate_bytes(&mut FuzzRng::new(11));
        // Cut inside the final CRC: strict fails, lenient keeps prefix.
        let cut = &bytes[..bytes.len() - 3];
        match drive(cut) {
            Verdict::Analyzed { recovered, .. } => assert!(recovered),
            Verdict::Rejected { .. } => {} // acceptable if cut hit the job region
            other => panic!("truncated log crashed: {other:?}"),
        }
    }
}
