//! The store façade: dependency-keyed lookup over an in-memory LRU, the
//! content-addressed object directory and the versioned manifest.
//!
//! Reads check the manifest (authoritative), then the byte-capped LRU,
//! then disk (promoting hits into memory). Writes go to disk first, then
//! the manifest, then memory, so a crash can lose at most a manifest
//! binding — never produce a dangling one pointing at missing bytes
//! (dangling bindings from external deletion are surfaced as misses).
//!
//! Everything is instrumented through `ion-obs`:
//! `store.hit` / `store.miss` / `store.mem_hit` / `store.disk_hit` /
//! `store.put` / `store.evict` counters and a `store.get` span per
//! lookup.

use crate::digest::Digest;
use crate::disk::{Manifest, ObjectDir};
use crate::lru::ByteLru;
use crate::singleflight::{FlightRole, Singleflight};
use crate::StoreError;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default in-memory cache capacity (64 MiB).
pub const DEFAULT_MEMORY_CAPACITY: usize = 64 << 20;

/// What `gc` found (and, unless dry-run, deleted).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Objects referenced by the manifest.
    pub live: usize,
    /// Unreferenced object digests (pruned unless dry-run).
    pub unreferenced: Vec<Digest>,
    /// Whether the unreferenced objects were actually deleted.
    pub deleted: bool,
}

/// The manifest plus its persistence bookkeeping, guarded together: a
/// positive `defer_depth` routes binding changes to the `dirty` flag
/// instead of an immediate save (see [`Store::with_deferred_saves`]).
#[derive(Debug)]
struct ManifestState {
    map: Manifest,
    defer_depth: u32,
    dirty: bool,
}

/// A shared, thread-safe artifact store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    objects: ObjectDir,
    manifest: Mutex<ManifestState>,
    memory: Mutex<ByteLru>,
    flights: Singleflight<Result<Arc<[u8]>, String>>,
}

/// Panic-safe depth decrement for [`Store::with_deferred_saves`]: if the
/// scope unwinds, the store falls back to save-per-put rather than
/// deferring forever, and any deferred-but-unsaved bindings are
/// persisted best-effort by the next binding change.
struct DeferGuard<'a> {
    store: &'a Store,
}

impl Drop for DeferGuard<'_> {
    fn drop(&mut self) {
        self.store.manifest.lock().defer_depth -= 1;
    }
}

impl Store {
    /// Open (or initialize) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        Store::open_with_capacity(root, DEFAULT_MEMORY_CAPACITY)
    }

    /// Open with an explicit in-memory byte cap.
    pub fn open_with_capacity(
        root: impl Into<PathBuf>,
        memory_capacity: usize,
    ) -> Result<Store, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io {
            action: "create store root".into(),
            path: root.display().to_string(),
            message: e.to_string(),
        })?;
        let manifest = Manifest::load(&root)?;
        Ok(Store {
            objects: ObjectDir::new(&root),
            manifest: Mutex::new(ManifestState {
                map: manifest,
                defer_depth: 0,
                dirty: false,
            }),
            memory: Mutex::new(ByteLru::new(memory_capacity)),
            flights: Singleflight::new(),
            root,
        })
    }

    /// Run `f` with manifest persistence deferred: binding changes made
    /// inside the scope (by this or any thread sharing the store) update
    /// the in-memory manifest immediately — readers never see stale
    /// bindings — but the on-disk `MANIFEST` is rewritten once at scope
    /// exit instead of once per `put`. A driver analyzing one trace
    /// touches a dozen keys; batching turns that from a dozen
    /// whole-manifest rewrites into one.
    ///
    /// Durability: a process crash inside the scope loses the scope's
    /// bindings (the objects themselves are already on disk and are
    /// re-bound by recomputation), which widens the documented
    /// crash-loss window from one binding to one scope. Scopes nest;
    /// the save happens when the outermost scope exits.
    pub fn with_deferred_saves<T>(
        &self,
        f: impl FnOnce() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        self.manifest.lock().defer_depth += 1;
        let guard = DeferGuard { store: self };
        let out = f()?;
        // Flush before the depth drops so save errors surface to the
        // caller; the guard's decrement then finds a clean state. An
        // inner scope (depth still > 1 counting our own increment)
        // leaves the dirty flag for the outermost scope to flush.
        {
            let mut state = self.manifest.lock();
            if state.defer_depth == 1 && state.dirty {
                state.map.save(&self.root)?;
                state.dirty = false;
                ion_obs::counter("store.manifest_save", 1);
            }
        }
        drop(guard);
        Ok(out)
    }

    /// Persist a binding change: immediately, or by marking the state
    /// dirty when inside a [`Store::with_deferred_saves`] scope.
    fn persist_manifest(&self, state: &mut ManifestState) -> Result<(), StoreError> {
        if state.defer_depth > 0 {
            state.dirty = true;
            return Ok(());
        }
        state.map.save(&self.root)?;
        state.dirty = false;
        ion_obs::counter("store.manifest_save", 1);
        Ok(())
    }

    /// Number of callers so far that attached to an already in-flight
    /// identical computation in [`Store::get_or_compute`] (cross-client
    /// singleflight dedup). Monotonic — `ion-serve`'s dedup tests use it
    /// for barrier-style handshakes instead of sleeping, and a daemon can
    /// export it as a sharing-rate signal.
    #[must_use]
    pub fn follower_joins(&self) -> usize {
        self.flights.follower_joins()
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of manifest bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.manifest.lock().map.len()
    }

    /// Whether the manifest has no bindings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.manifest.lock().map.is_empty()
    }

    /// Fetch the artifact bound to `key`, if present and readable.
    ///
    /// A manifest binding whose object was deleted externally counts as
    /// a miss (the binding is left for `gc`-style repair by the next
    /// `put`), so the store self-heals rather than erroring.
    pub fn get(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        let mut span = ion_obs::span!("store.get");
        span.attr("key", key);
        let out = self.lookup(key, true);
        if let Ok(found) = &out {
            ion_obs::event!("store.lookup", key = key, hit = found.is_some());
        }
        out
    }

    /// The lookup ladder. `counted` distinguishes a caller-visible
    /// lookup from internal re-checks (the singleflight path), which
    /// must not inflate hit/miss rates.
    fn lookup(&self, key: &str, counted: bool) -> Result<Option<Arc<[u8]>>, StoreError> {
        let tally = |name| {
            if counted {
                ion_obs::counter(name, 1);
            }
        };
        let Some(digest) = self.manifest.lock().map.get(key).copied() else {
            tally("store.miss");
            return Ok(None);
        };
        let mem_key = digest.hex();
        if let Some(bytes) = self.memory.lock().get(&mem_key) {
            tally("store.hit");
            tally("store.mem_hit");
            return Ok(Some(bytes));
        }
        match self.objects.get(&digest)? {
            Some(bytes) => {
                let bytes: Arc<[u8]> = bytes.into();
                self.cache_in_memory(&mem_key, &bytes);
                tally("store.hit");
                tally("store.disk_hit");
                Ok(Some(bytes))
            }
            None => {
                tally("store.miss");
                Ok(None)
            }
        }
    }

    /// Bind `key` to `bytes`: object write, manifest update + save,
    /// memory promotion. Returns the artifact digest.
    pub fn put(&self, key: &str, bytes: &[u8]) -> Result<Digest, StoreError> {
        let digest = self.objects.put(bytes)?;
        {
            let mut state = self.manifest.lock();
            let changed = state.map.insert(key, digest) != Some(digest);
            if changed {
                self.persist_manifest(&mut state)?;
            }
        }
        let arc: Arc<[u8]> = bytes.to_vec().into();
        self.cache_in_memory(&digest.hex(), &arc);
        ion_obs::counter("store.put", 1);
        Ok(digest)
    }

    /// Fetch `key`, or compute, store and return it. Concurrent calls
    /// for the same key share one computation (singleflight).
    pub fn get_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<Vec<u8>, StoreError>,
    ) -> Result<Arc<[u8]>, StoreError> {
        if let Some(hit) = self.get(key)? {
            return Ok(hit);
        }
        let (result, role) = self.flights.run(key, || {
            // Re-check under the flight: a just-finished leader may have
            // populated the store between our miss and our takeoff.
            match self.lookup(key, false) {
                Ok(Some(hit)) => return Ok(hit),
                Ok(None) => {}
                Err(e) => return Err(e.to_string()),
            }
            let bytes = compute().map_err(|e| e.to_string())?;
            let arc: Arc<[u8]> = bytes.into();
            self.put(key, &arc).map_err(|e| e.to_string())?;
            Ok(arc)
        });
        if role == FlightRole::Follower {
            ion_obs::counter("store.singleflight_shared", 1);
        }
        result.map_err(StoreError::Compute)
    }

    /// Remove every manifest binding whose key starts with `prefix`,
    /// returning how many were removed. The objects themselves stay on
    /// disk until the next [`Store::gc`] — this only drops references
    /// (e.g. every binding of one trace under `trace/<hex>/`).
    pub fn unbind_prefix(&self, prefix: &str) -> Result<usize, StoreError> {
        let mut state = self.manifest.lock();
        let doomed: Vec<String> = state
            .map
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.to_owned())
            .collect();
        for key in &doomed {
            state.map.remove(key);
        }
        if !doomed.is_empty() {
            self.persist_manifest(&mut state)?;
        }
        Ok(doomed.len())
    }

    /// Prune objects not referenced by the manifest. With `dry_run` the
    /// report lists what *would* be deleted and nothing is touched.
    pub fn gc(&self, dry_run: bool) -> Result<GcReport, StoreError> {
        let _span = ion_obs::span!("store.gc");
        let referenced = self.manifest.lock().map.referenced();
        let mut report = GcReport {
            live: 0,
            unreferenced: Vec::new(),
            deleted: !dry_run,
        };
        for digest in self.objects.list()? {
            if referenced.contains(&digest) {
                report.live += 1;
            } else {
                report.unreferenced.push(digest);
            }
        }
        if !dry_run {
            for digest in &report.unreferenced {
                self.objects.remove(digest)?;
                ion_obs::counter("store.gc_pruned", 1);
            }
        }
        Ok(report)
    }

    /// Snapshot of `(key, digest)` bindings (sorted by key).
    #[must_use]
    pub fn bindings(&self) -> Vec<(String, Digest)> {
        self.manifest
            .lock()
            .map
            .iter()
            .map(|(k, d)| (k.to_owned(), *d))
            .collect()
    }

    fn cache_in_memory(&self, mem_key: &str, bytes: &Arc<[u8]>) {
        let mut memory = self.memory.lock();
        let before = memory.evictions();
        memory.put(mem_key, Arc::clone(bytes));
        let evicted = memory.evictions() - before;
        if evicted > 0 {
            ion_obs::counter("store.evict", evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "ion-store-test-{tag}-{}-{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn cleanup(store: Store) {
        let root = store.root().to_path_buf();
        drop(store);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn put_get_round_trip() {
        let store = tmp_store("rt");
        store.put("k", b"value").unwrap();
        assert_eq!(&*store.get("k").unwrap().unwrap(), b"value");
        assert!(store.get("other").unwrap().is_none());
        cleanup(store);
    }

    #[test]
    fn reopen_sees_persisted_bindings() {
        let store = tmp_store("reopen");
        let root = store.root().to_path_buf();
        store.put("k", b"persisted").unwrap();
        drop(store);
        let reopened = Store::open(&root).unwrap();
        assert_eq!(&*reopened.get("k").unwrap().unwrap(), b"persisted");
        cleanup(reopened);
    }

    #[test]
    fn rebinding_a_key_changes_what_get_returns() {
        let store = tmp_store("rebind");
        store.put("k", b"v1").unwrap();
        store.put("k", b"v2").unwrap();
        assert_eq!(&*store.get("k").unwrap().unwrap(), b"v2");
        cleanup(store);
    }

    #[test]
    fn get_or_compute_computes_once() {
        let store = tmp_store("memo");
        let mut calls = 0;
        let v = store
            .get_or_compute("k", || {
                calls += 1;
                Ok(b"computed".to_vec())
            })
            .unwrap();
        assert_eq!(&*v, b"computed");
        let v2 = store
            .get_or_compute("k", || {
                calls += 1;
                Ok(b"recomputed".to_vec())
            })
            .unwrap();
        assert_eq!(&*v2, b"computed");
        assert_eq!(calls, 1);
        cleanup(store);
    }

    #[test]
    fn gc_dry_run_then_prune() {
        let store = tmp_store("gc");
        store.put("keep", b"live bytes").unwrap();
        // Orphan an object by writing it without keeping a binding.
        let orphan = store.objects.put(b"orphan bytes").unwrap();
        let dry = store.gc(true).unwrap();
        assert_eq!(dry.live, 1);
        assert_eq!(dry.unreferenced, vec![orphan]);
        assert!(!dry.deleted);
        assert!(store.objects.get(&orphan).unwrap().is_some());
        let real = store.gc(false).unwrap();
        assert_eq!(real.unreferenced, vec![orphan]);
        assert!(real.deleted);
        assert!(store.objects.get(&orphan).unwrap().is_none());
        assert_eq!(&*store.get("keep").unwrap().unwrap(), b"live bytes");
        cleanup(store);
    }

    #[test]
    fn externally_deleted_object_is_a_miss_not_an_error() {
        let store = tmp_store("heal");
        let digest = store.put("k", b"gone soon").unwrap();
        // Drain the memory cache by reopening from disk.
        let root = store.root().to_path_buf();
        drop(store);
        let store = Store::open(&root).unwrap();
        store.objects.remove(&digest).unwrap();
        assert!(store.get("k").unwrap().is_none());
        cleanup(store);
    }
}
