//! Spill destination for out-of-core extraction: sealed chunks from
//! `extractor`'s [`ChunkedTableBuilder`](extractor::ChunkedTableBuilder)
//! land in a content-addressed [`ObjectDir`] and are reloaded on demand.
//!
//! The ticket key is the chunk's content digest, so identical chunks
//! (common in synthetic benchmarks and zero-filled regions) dedupe to a
//! single object on disk for free. Emits `store.chunks.spilled` and
//! `store.chunks.loaded` counters so the serve/CLI layers can report
//! how much of an ingest ran out of core.
//!
//! A spill directory can share a [`Store`]'s object directory
//! ([`SpillDir::in_store`]). Spilled chunks have no manifest binding of
//! their own, so without care `Store::gc` would see live chunks as
//! unreferenced and delete them out from under their tickets. The
//! store-backed mode therefore *pins* each spilled chunk under a
//! session-scoped manifest key (`spill/<session>/<digest>`); dropping
//! the spill (or calling [`SpillDir::release`]) removes the pins so the
//! next gc can reclaim the dead chunks instead of leaking them.

use crate::digest::Digest;
use crate::disk::ObjectDir;
use crate::store::Store;
use crate::StoreError;
use extractor::{ChunkPager, ChunkTicket};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic per-process spill session counter, so two concurrent
/// spills into one store pin under distinct prefixes.
static SPILL_SESSIONS: AtomicU64 = AtomicU64::new(0);

/// A [`ChunkPager`] over a content-addressed object directory.
///
/// Chunks are opaque blobs here; encoding and decoding stay in
/// `extractor::chunked`. The directory may be shared with other spills
/// (content addressing keeps writers from clobbering each other), and
/// is typically a throwaway under the analysis scratch dir — or, via
/// [`SpillDir::in_store`], the store's own object directory with
/// gc-visible pins.
#[derive(Debug)]
pub struct SpillDir {
    objects: ObjectDir,
    pins: Option<SpillPins>,
}

#[derive(Debug)]
struct SpillPins {
    store: Arc<Store>,
    prefix: String,
    released: AtomicBool,
}

impl SpillDir {
    /// Open (creating lazily on first write) a spill directory rooted
    /// at `root`.
    #[must_use]
    pub fn new(root: &Path) -> SpillDir {
        SpillDir {
            objects: ObjectDir::new(root),
            pins: None,
        }
    }

    /// Spill into `store`'s object directory, pinning every spilled
    /// chunk under a session-scoped manifest key so `Store::gc` treats
    /// live spilled chunks as referenced. Pins are removed when the
    /// spill is dropped or [`SpillDir::release`]d.
    #[must_use]
    pub fn in_store(store: &Arc<Store>) -> SpillDir {
        let session = format!(
            "{}-{}",
            std::process::id(),
            SPILL_SESSIONS.fetch_add(1, Ordering::Relaxed)
        );
        SpillDir {
            objects: ObjectDir::new(store.root()),
            pins: Some(SpillPins {
                store: Arc::clone(store),
                prefix: format!("spill/{session}/"),
                released: AtomicBool::new(false),
            }),
        }
    }

    /// The underlying object directory (e.g. for garbage collection).
    #[must_use]
    pub fn objects(&self) -> &ObjectDir {
        &self.objects
    }

    /// Drop this spill's gc pins (store-backed mode only): the chunks
    /// become unreferenced and the next `Store::gc` reclaims them. Safe
    /// to call more than once; a no-op for plain directory spills.
    pub fn release(&self) -> Result<usize, StoreError> {
        let Some(pins) = &self.pins else {
            return Ok(0);
        };
        if pins.released.swap(true, Ordering::SeqCst) {
            return Ok(0);
        }
        pins.store.unbind_prefix(&pins.prefix)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best-effort: a pin left behind by a failed unbind only delays
        // reclamation until a future session's gc, never corrupts.
        let _ = self.release();
    }
}

fn to_io(err: StoreError) -> io::Error {
    io::Error::other(err.to_string())
}

impl ChunkPager for SpillDir {
    fn spill(&self, _table: &str, _seq: usize, bytes: &[u8]) -> io::Result<ChunkTicket> {
        let digest = self.objects.put(bytes).map_err(to_io)?;
        if let Some(pins) = &self.pins {
            pins.store
                .bind(&format!("{}{}", pins.prefix, digest.hex()), digest)
                .map_err(to_io)?;
        }
        ion_obs::counter("store.chunks.spilled", 1);
        Ok(ChunkTicket {
            key: digest.hex(),
            rows: 0, // the builder stamps the row count
        })
    }

    fn load(&self, ticket: &ChunkTicket) -> io::Result<Vec<u8>> {
        let digest = Digest::from_hex(&ticket.key).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("spill ticket key is not a digest: {}", ticket.key),
            )
        })?;
        let bytes = self.objects.get(&digest).map_err(to_io)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("spilled chunk {} missing from object dir", ticket.key),
            )
        })?;
        ion_obs::counter("store.chunks.loaded", 1);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan::log::LogWriter;
    use extractor::{encode_table, extract_stream, extract_tables, ChunkedTableBuilder};
    use extractor::{Table, TableSet, Value, DEFAULT_CHUNK_ROWS};
    use std::sync::Arc;
    use workloads::Workload;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ion-spill-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_rows(n: i64) -> impl Iterator<Item = Vec<Value>> {
        (0..n).map(|i| {
            vec![
                Value::Int(i / 10),
                Value::Float(0.5 * ((i % 4) as f64)),
                Value::from(if i % 2 == 0 { "read" } else { "write" }),
            ]
        })
    }

    #[test]
    fn spilled_build_matches_in_memory_build() {
        let dir = scratch("roundtrip");
        let pager: Arc<dyn ChunkPager> = Arc::new(SpillDir::new(&dir));
        let cols = ["a", "x", "s"];
        let mut spilled = ChunkedTableBuilder::with_pager("T", &cols, 16, Arc::clone(&pager));
        let mut plain = Table::new("T", &cols);
        for row in sample_rows(100) {
            spilled.push_row(row.clone()).unwrap();
            plain.push_row(row);
        }
        let spilled = spilled.finish().unwrap();
        assert_eq!(spilled.len(), plain.len());
        for (a, b) in spilled.iter_rows().zip(plain.iter_rows()) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
        // Digest stability: a table rebuilt through compressed, spilled
        // chunks encodes to the same artifact, so warm stores stay warm.
        assert_eq!(encode_table(&spilled), encode_table(&plain));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The Figure 2 and Figure 3 traces at the scales of the golden
    /// report tests.
    fn figure_traces() -> Vec<(&'static str, Box<dyn Workload>)> {
        use workloads::e2e::{E2e, E2eVariant};
        use workloads::ior;
        use workloads::mdworkbench::MdWorkbench;
        use workloads::openpmd::{OpenPmd, OpenPmdVariant};
        vec![
            ("ior-easy-2k", Box::new(ior::ior_easy_2kb_shared(0.25))),
            ("ior-easy-1m", Box::new(ior::ior_easy_1mb_shared(0.25))),
            ("ior-easy-1m-fpp", Box::new(ior::ior_easy_1mb_fpp(0.25))),
            ("ior-hard", Box::new(ior::ior_hard(0.01))),
            ("ior-rnd4k", Box::new(ior::ior_rnd4k(0.05))),
            ("mdworkbench", Box::new(MdWorkbench::scaled(0.5))),
            (
                "openpmd",
                Box::new(OpenPmd::scaled(OpenPmdVariant::Baseline, 0.02)),
            ),
            (
                "openpmd-opt",
                Box::new(OpenPmd::scaled(OpenPmdVariant::Optimized, 0.05)),
            ),
            ("e2e", Box::new(E2e::scaled(E2eVariant::Baseline, 0.03))),
            (
                "e2e-opt",
                Box::new(E2e::scaled(E2eVariant::Optimized, 0.25)),
            ),
        ]
    }

    #[test]
    fn every_ingest_path_yields_byte_identical_table_artifacts() {
        let dir = scratch("figures");
        for (name, workload) in figure_traces() {
            let log = workload.generate();
            let bytes = LogWriter::from_log(log.clone()).finish().unwrap();
            let batch = extract_tables(&log);
            let stream = |rows, pager| extract_stream(&bytes[..], rows, pager).unwrap().tables;
            let pager: Arc<dyn ChunkPager> = Arc::new(SpillDir::new(&dir));
            let paths: [(&str, TableSet); 3] = [
                ("1-row chunks", stream(1, None)),
                ("default chunks", stream(DEFAULT_CHUNK_ROWS, None)),
                ("spilled 7-row chunks", stream(7, Some(pager))),
            ];
            for (path, tables) in &paths {
                assert_eq!(tables.names(), batch.names(), "{name} via {path}");
                for (module, table) in batch.iter() {
                    assert!(
                        encode_table(table) == encode_table(tables.get(module).unwrap()),
                        "{name} via {path}: {module} artifact differs from batch"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_chunks_dedupe_by_content() {
        let dir = scratch("dedupe");
        let spill = SpillDir::new(&dir);
        let t0 = spill.spill("T", 0, b"same bytes").unwrap();
        let t1 = spill.spill("T", 1, b"same bytes").unwrap();
        assert_eq!(t0.key, t1.key);
        assert_eq!(spill.objects().list().unwrap().len(), 1);
        assert_eq!(spill.load(&t0).unwrap(), b"same bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_malformed_tickets_error() {
        let dir = scratch("errors");
        let spill = SpillDir::new(&dir);
        let bogus = ChunkTicket {
            key: "not-a-digest".to_owned(),
            rows: 1,
        };
        assert_eq!(
            spill.load(&bogus).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        let gone = ChunkTicket {
            key: Digest([7; 32]).hex(),
            rows: 1,
        };
        assert_eq!(
            spill.load(&gone).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_spares_live_spilled_chunks_and_reclaims_released_ones() {
        // Regression: SpillDir sharing a store's object dir used to
        // leave chunks unreferenced, so gc deleted them while tickets
        // were still live (and, conversely, a throwaway binding would
        // have leaked them forever).
        let dir = scratch("gc-pins");
        let store = Arc::new(Store::open(&dir).unwrap());
        store.put("artifact", b"ordinary store artifact").unwrap();
        let spill = SpillDir::in_store(&store);
        let ticket = spill.spill("T", 0, b"paged-out chunk bytes").unwrap();

        // Live spill: gc must not touch the chunk.
        let report = store.gc(false).unwrap();
        assert!(
            report.unreferenced.is_empty(),
            "gc stole live spilled chunks: {:?}",
            report.unreferenced
        );
        assert_eq!(spill.load(&ticket).unwrap(), b"paged-out chunk bytes");

        // Released spill: the pin is gone, gc reclaims the chunk, and
        // ordinary artifacts survive.
        let released = spill.release().unwrap();
        assert_eq!(released, 1);
        assert_eq!(spill.release().unwrap(), 0, "release is idempotent");
        let report = store.gc(false).unwrap();
        assert_eq!(report.unreferenced.len(), 1);
        assert!(spill.load(&ticket).is_err(), "dead chunk reclaimed");
        assert_eq!(
            &*store.get("artifact").unwrap().unwrap(),
            b"ordinary store artifact"
        );
        drop(spill);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_store_backed_spill_unpins_its_chunks() {
        let dir = scratch("gc-drop");
        let store = Arc::new(Store::open(&dir).unwrap());
        {
            let spill = SpillDir::in_store(&store);
            spill.spill("T", 0, b"short-lived chunk").unwrap();
            assert_eq!(store.gc(false).unwrap().unreferenced.len(), 0);
        }
        let report = store.gc(false).unwrap();
        assert_eq!(report.unreferenced.len(), 1, "drop released the pins");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
