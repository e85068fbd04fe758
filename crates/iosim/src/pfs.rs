//! Striped parallel file system: layout, data placement and service timing.

use crate::cost::CostModel;
use crate::lock::{ExtentId, LockManager};
use crate::mds::{Mds, MetaOp};
use crate::ost::Ost;
use crate::SimError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Striping policy for a file, set at creation (Lustre semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeLayout {
    /// Stripe size in bytes.
    pub stripe_size: u64,
    /// Number of OSTs the file is striped over.
    pub stripe_width: u32,
    /// First OST index (round-robin start).
    pub ost_offset: u32,
}

impl Default for StripeLayout {
    fn default() -> Self {
        StripeLayout {
            stripe_size: 1 << 20,
            stripe_width: 4,
            ost_offset: 0,
        }
    }
}

impl StripeLayout {
    /// Stripe index containing byte `offset`.
    #[must_use]
    pub fn stripe_index(&self, offset: u64) -> u64 {
        offset / self.stripe_size
    }

    /// OST (within the cluster's `ost_count`) serving byte `offset`.
    #[must_use]
    pub fn ost_for(&self, offset: u64, ost_count: u32) -> u32 {
        let within = (self.stripe_index(offset) % u64::from(self.stripe_width.max(1))) as u32;
        (self.ost_offset + within) % ost_count.max(1)
    }

    /// Split an extent into per-stripe chunks `(stripe_index, chunk_offset,
    /// chunk_len)`.
    #[must_use]
    pub fn split_extent(&self, offset: u64, len: u64) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let stripe = self.stripe_index(cur);
            let stripe_end = (stripe + 1) * self.stripe_size;
            let chunk_end = stripe_end.min(end);
            out.push((stripe, cur, chunk_end - cur));
            cur = chunk_end;
        }
        out
    }

    /// OST ids a file of `size` bytes actually touches, in stripe order.
    #[must_use]
    pub fn ost_ids(&self, ost_count: u32) -> Vec<i64> {
        (0..self.stripe_width.max(1))
            .map(|i| i64::from((self.ost_offset + i) % ost_count.max(1)))
            .collect()
    }
}

/// A file stored in the simulated file system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimFile {
    /// Internal file key (dense, unlike the Darshan record id).
    pub key: u64,
    /// Path of the file.
    pub path: String,
    /// Striping policy.
    pub layout: StripeLayout,
    /// Current size (highest byte written + 1).
    pub size: u64,
    /// Total bytes ever written (conservation accounting).
    pub bytes_written: u64,
    /// Total bytes ever read.
    pub bytes_read: u64,
}

/// Opaque handle to an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FileHandle(pub(crate) u64);

impl FileHandle {
    /// The internal file key the handle refers to.
    #[must_use]
    pub fn key(self) -> u64 {
        self.0
    }
}

/// Outcome of a data operation, fed back to the client layer and the
/// instrumentation shim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoOutcome {
    /// Virtual completion time of the operation.
    pub end_time: f64,
    /// Lock transfers the operation caused.
    pub lock_conflicts: u64,
    /// RPCs issued.
    pub rpcs: u64,
    /// Whether the file offset was stripe-aligned.
    pub aligned: bool,
}

/// The striped parallel file system: namespace, placement, locks and
/// storage targets.
#[derive(Debug, Clone)]
pub struct FileSystem {
    files: HashMap<u64, SimFile>,
    by_path: HashMap<String, u64>,
    osts: Vec<Ost>,
    mds: Mds,
    locks: LockManager,
    cost: CostModel,
    default_layout: StripeLayout,
    next_key: u64,
}

impl FileSystem {
    /// Create a file system with `ost_count` targets and the given cost
    /// model and default layout.
    #[must_use]
    pub fn new(ost_count: u32, cost: CostModel, default_layout: StripeLayout) -> Self {
        FileSystem {
            files: HashMap::new(),
            by_path: HashMap::new(),
            osts: (0..ost_count.max(1)).map(|_| Ost::new()).collect(),
            mds: Mds::new(),
            locks: LockManager::new(),
            cost,
            default_layout,
            next_key: 1,
        }
    }

    /// The cost model in force.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The metadata server (for load inspection).
    #[must_use]
    pub fn mds(&self) -> &Mds {
        &self.mds
    }

    /// The lock manager (for conflict inspection).
    #[must_use]
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The storage targets (for accounting inspection).
    #[must_use]
    pub fn osts(&self) -> &[Ost] {
        &self.osts
    }

    /// Look a file up by key.
    #[must_use]
    pub fn file(&self, handle: FileHandle) -> Option<&SimFile> {
        self.files.get(&handle.0)
    }

    /// Open `path` at virtual time `t` on behalf of `rank`, creating it with
    /// the default layout when absent. Returns the handle and completion
    /// time of the metadata operation.
    pub fn open(
        &mut self,
        path: &str,
        _rank: u32,
        t: f64,
        create: bool,
    ) -> Result<(FileHandle, f64), SimError> {
        if let Some(&key) = self.by_path.get(path) {
            let end = self.mds.service(MetaOp::Open, t, self.cost.meta_latency);
            return Ok((FileHandle(key), end));
        }
        if !create {
            return Err(SimError::NoSuchFile { path: path.into() });
        }
        let key = self.next_key;
        self.next_key += 1;
        let layout = StripeLayout {
            ost_offset: (key % u64::from(self.osts.len() as u32)) as u32,
            ..self.default_layout
        };
        self.files.insert(
            key,
            SimFile {
                key,
                path: path.to_owned(),
                layout,
                size: 0,
                bytes_written: 0,
                bytes_read: 0,
            },
        );
        self.by_path.insert(path.to_owned(), key);
        let end = self.mds.service(MetaOp::Create, t, self.cost.meta_latency);
        Ok((FileHandle(key), end))
    }

    /// `stat` a path at time `t`.
    pub fn stat(&mut self, path: &str, t: f64) -> Result<f64, SimError> {
        if !self.by_path.contains_key(path) {
            return Err(SimError::NoSuchFile { path: path.into() });
        }
        Ok(self.mds.service(MetaOp::Stat, t, self.cost.meta_latency))
    }

    /// Remove a path at time `t`.
    pub fn unlink(&mut self, path: &str, t: f64) -> Result<f64, SimError> {
        let key = self
            .by_path
            .remove(path)
            .ok_or_else(|| SimError::NoSuchFile { path: path.into() })?;
        self.files.remove(&key);
        self.locks.release_file(key);
        Ok(self.mds.service(MetaOp::Unlink, t, self.cost.meta_latency))
    }

    /// Release a handle at time `t` (close is a metadata op).
    pub fn close(&mut self, _handle: FileHandle, t: f64) -> f64 {
        self.mds.service(MetaOp::Close, t, self.cost.meta_latency)
        // The handle's locks persist; Lustre clients cache extent locks past
        // close. `unlink` is what releases them.
    }

    /// Write `len` bytes at `offset` on behalf of `rank` starting at `t`.
    pub fn write(
        &mut self,
        handle: FileHandle,
        rank: u32,
        offset: u64,
        len: u64,
        t: f64,
        mem_aligned: bool,
    ) -> Result<IoOutcome, SimError> {
        self.data_op(handle, rank, offset, len, t, mem_aligned, true)
    }

    /// Read `len` bytes at `offset` on behalf of `rank` starting at `t`.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::ReadPastEof`] when the extent is not fully
    /// populated.
    pub fn read(
        &mut self,
        handle: FileHandle,
        rank: u32,
        offset: u64,
        len: u64,
        t: f64,
        mem_aligned: bool,
    ) -> Result<IoOutcome, SimError> {
        {
            let f = self
                .files
                .get(&handle.0)
                .ok_or(SimError::BadHandle { handle: handle.0 })?;
            if offset + len > f.size {
                return Err(SimError::ReadPastEof {
                    offset,
                    length: len,
                    size: f.size,
                });
            }
        }
        self.data_op(handle, rank, offset, len, t, mem_aligned, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn data_op(
        &mut self,
        handle: FileHandle,
        rank: u32,
        offset: u64,
        len: u64,
        t: f64,
        mem_aligned: bool,
        is_write: bool,
    ) -> Result<IoOutcome, SimError> {
        let (layout, key) = {
            let f = self
                .files
                .get(&handle.0)
                .ok_or(SimError::BadHandle { handle: handle.0 })?;
            (f.layout, f.key)
        };
        let ost_count = self.osts.len() as u32;
        let aligned = offset.is_multiple_of(layout.stripe_size);
        let mut latest = t;
        let mut conflicts = 0u64;
        let mut rpcs = 0u64;
        for (stripe, chunk_offset, chunk_len) in layout.split_extent(offset, len) {
            let mut start = t;
            if self.locks.acquire(ExtentId { file: key, stripe }, rank) {
                conflicts += 1;
                start += self.cost.lock_latency;
            }
            if !aligned {
                start += self.cost.misalign_penalty;
            }
            if !mem_aligned {
                start += self.cost.mem_misalign_penalty;
            }
            let ost = layout.ost_for(chunk_offset, ost_count) as usize;
            let service = self.cost.transfer_time(chunk_len);
            let end = self.osts[ost].service(start, service);
            if is_write {
                self.osts[ost].account(0, chunk_len);
            } else {
                self.osts[ost].account(chunk_len, 0);
            }
            rpcs += self.cost.rpc_count(chunk_len);
            latest = latest.max(end);
        }
        if len == 0 {
            // Zero-byte ops still cost one RPC round trip.
            latest = t + self.cost.rpc_latency;
            rpcs = 1;
        }
        let f = self.files.get_mut(&handle.0).expect("checked above");
        if is_write {
            f.bytes_written += len;
            f.size = f.size.max(offset + len);
        } else {
            f.bytes_read += len;
        }
        Ok(IoOutcome {
            end_time: latest,
            lock_conflicts: conflicts,
            rpcs,
            aligned,
        })
    }

    /// Degrade one storage target by a service-time factor (fault
    /// injection). No-op for an out-of-range index.
    pub fn set_ost_slowdown(&mut self, ost: usize, factor: f64) {
        if let Some(o) = self.osts.get_mut(ost) {
            o.set_slowdown(factor);
        }
    }

    /// Total bytes stored across all OSTs (conservation check).
    #[must_use]
    pub fn total_ost_bytes_written(&self) -> u64 {
        self.osts.iter().map(|o| o.bytes_written).sum()
    }

    /// Total bytes written through the namespace (conservation check).
    #[must_use]
    pub fn total_file_bytes_written(&self) -> u64 {
        self.files.values().map(|f| f.bytes_written).sum()
    }

    /// Number of files in the namespace.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FileSystem {
        FileSystem::new(
            8,
            CostModel::default(),
            StripeLayout {
                stripe_size: 1 << 20,
                stripe_width: 4,
                ost_offset: 0,
            },
        )
    }

    #[test]
    fn split_extent_respects_stripe_boundaries() {
        let l = StripeLayout {
            stripe_size: 100,
            stripe_width: 2,
            ost_offset: 0,
        };
        let chunks = l.split_extent(50, 200);
        assert_eq!(chunks, vec![(0, 50, 50), (1, 100, 100), (2, 200, 50)]);
        assert_eq!(l.split_extent(0, 0), vec![]);
        assert_eq!(l.split_extent(100, 100), vec![(1, 100, 100)]);
    }

    #[test]
    fn ost_round_robin_over_width() {
        let l = StripeLayout {
            stripe_size: 100,
            stripe_width: 3,
            ost_offset: 2,
        };
        assert_eq!(l.ost_for(0, 8), 2);
        assert_eq!(l.ost_for(100, 8), 3);
        assert_eq!(l.ost_for(200, 8), 4);
        assert_eq!(l.ost_for(300, 8), 2); // wraps at width
    }

    #[test]
    fn open_creates_then_reuses() {
        let mut f = fs();
        let (h1, _) = f.open("/a", 0, 0.0, true).unwrap();
        let (h2, _) = f.open("/a", 1, 1.0, true).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(f.file_count(), 1);
        assert_eq!(f.mds().creates, 1);
        assert_eq!(f.mds().opens, 1);
    }

    #[test]
    fn open_missing_without_create_fails() {
        let mut f = fs();
        assert!(matches!(
            f.open("/nope", 0, 0.0, false),
            Err(SimError::NoSuchFile { .. })
        ));
    }

    #[test]
    fn write_then_read_round_trips_and_conserves_bytes() {
        let mut f = fs();
        let (h, _) = f.open("/a", 0, 0.0, true).unwrap();
        f.write(h, 0, 0, 4096, 0.0, true).unwrap();
        f.write(h, 0, 4096, 4096, 0.1, true).unwrap();
        let out = f.read(h, 0, 0, 8192, 0.2, true).unwrap();
        assert!(out.end_time > 0.2);
        assert_eq!(f.file(h).unwrap().size, 8192);
        assert_eq!(f.total_ost_bytes_written(), 8192);
        assert_eq!(f.total_file_bytes_written(), 8192);
    }

    #[test]
    fn read_past_eof_rejected() {
        let mut f = fs();
        let (h, _) = f.open("/a", 0, 0.0, true).unwrap();
        f.write(h, 0, 0, 100, 0.0, true).unwrap();
        assert!(matches!(
            f.read(h, 0, 50, 100, 0.1, true),
            Err(SimError::ReadPastEof { .. })
        ));
    }

    #[test]
    fn interleaved_shared_stripe_writes_cause_lock_conflicts() {
        let mut f = fs();
        let (h, _) = f.open("/shared", 0, 0.0, true).unwrap();
        // Two ranks alternate within the same 1 MiB stripe.
        let mut conflicts = 0;
        for i in 0..10u64 {
            let rank = (i % 2) as u32;
            let out = f.write(h, rank, i * 1000, 1000, i as f64, true).unwrap();
            conflicts += out.lock_conflicts;
        }
        assert!(conflicts >= 8, "alternating ranks must ping-pong the lock");
    }

    #[test]
    fn per_rank_stripes_cause_no_conflicts() {
        let mut f = fs();
        let (h, _) = f.open("/shared", 0, 0.0, true).unwrap();
        let stripe = 1 << 20;
        let mut conflicts = 0;
        for rank in 0..4u32 {
            let base = u64::from(rank) * stripe;
            for i in 0..8u64 {
                let out = f.write(h, rank, base + i * 1024, 1024, 0.0, true).unwrap();
                conflicts += out.lock_conflicts;
            }
        }
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn misaligned_write_reports_unaligned() {
        let mut f = fs();
        let (h, _) = f.open("/a", 0, 0.0, true).unwrap();
        let aligned = f.write(h, 0, 0, 100, 0.0, true).unwrap();
        let misaligned = f.write(h, 0, 47, 100, 1.0, true).unwrap();
        assert!(aligned.aligned);
        assert!(!misaligned.aligned);
    }

    #[test]
    fn large_write_spans_multiple_osts() {
        let mut f = fs();
        let (h, _) = f.open("/big", 0, 0.0, true).unwrap();
        f.write(h, 0, 0, 4 << 20, 0.0, true).unwrap(); // 4 stripes
        let used = f.osts().iter().filter(|o| o.bytes_written > 0).count();
        assert_eq!(used, 4);
    }

    #[test]
    fn unlink_removes_file_and_locks() {
        let mut f = fs();
        let (h, _) = f.open("/a", 0, 0.0, true).unwrap();
        f.write(h, 0, 0, 10, 0.0, true).unwrap();
        f.unlink("/a", 1.0).unwrap();
        assert_eq!(f.file_count(), 0);
        assert_eq!(f.locks().locked_extents(), 0);
        assert!(f.stat("/a", 2.0).is_err());
    }

    #[test]
    fn zero_length_op_costs_one_rpc() {
        let mut f = fs();
        let (h, _) = f.open("/a", 0, 0.0, true).unwrap();
        let out = f.write(h, 0, 0, 0, 5.0, true).unwrap();
        assert_eq!(out.rpcs, 1);
        assert!(out.end_time > 5.0);
        assert_eq!(f.file(h).unwrap().size, 0);
    }
}
