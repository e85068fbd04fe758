//! Instrumentation accumulators: from operation streams to counter records.
//!
//! The Darshan runtime library intercepts I/O calls and folds them into the
//! per-file counter records on the fly. The accumulators in this module
//! reproduce that logic: sequential/consecutive classification, alignment
//! counters, size histograms, common access sizes, stride detection,
//! read/write switches, and operation timing, plus the cross-rank *reduction*
//! that produces shared (`rank == -1`) records with fastest/slowest-rank and
//! variance counters.

use crate::counters::{
    size_bin, MpiioCounter, MpiioFCounter, PosixCounter, PosixFCounter, StdioCounter, StdioFCounter,
};
use crate::records::{MpiioRecord, PosixRecord, StdioRecord, SHARED_RANK};
use std::collections::HashMap;

/// Tracks the four most common values of a quantity (access sizes, strides).
///
/// Darshan reports the four most frequently observed access sizes per file
/// (`*_ACCESS{1..4}_ACCESS` / `_COUNT`) and likewise for strides.
#[derive(Debug, Clone, Default)]
pub struct CommonValueTracker {
    counts: HashMap<u64, u64>,
}

impl CommonValueTracker {
    /// Create an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
    }

    /// The four most common `(value, count)` pairs, most frequent first.
    /// Ties are broken by smaller value for determinism.
    #[must_use]
    pub fn top4(&self) -> [(u64, u64); 4] {
        let mut pairs: Vec<(u64, u64)> = self.counts.iter().map(|(&v, &c)| (v, c)).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = [(0u64, 0u64); 4];
        for (slot, pair) in out.iter_mut().zip(pairs) {
            *slot = pair;
        }
        out
    }

    /// Number of distinct values observed.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }
}

/// Common parameters the runtime needs to classify operations.
#[derive(Debug, Clone, Copy)]
pub struct AlignmentSpec {
    /// File alignment in bytes (Lustre stripe size on Lustre systems).
    pub file_alignment: u64,
    /// Memory buffer alignment in bytes.
    pub mem_alignment: u64,
}

impl Default for AlignmentSpec {
    fn default() -> Self {
        AlignmentSpec {
            file_alignment: 1 << 20,
            mem_alignment: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastOp {
    None,
    Read,
    Write,
}

/// Accumulates POSIX-layer operations for one `(file, rank)` pair.
#[derive(Debug, Clone)]
pub struct PosixAccumulator {
    record: PosixRecord,
    alignment: AlignmentSpec,
    last_read_end: Option<u64>,
    last_write_end: Option<u64>,
    last_offset: Option<u64>,
    last_op: LastOp,
    accesses: CommonValueTracker,
    strides: CommonValueTracker,
    max_read_time: f64,
    max_read_size: u64,
    max_write_time: f64,
    max_write_size: u64,
    first_read_start: Option<f64>,
    first_write_start: Option<f64>,
    first_open_start: Option<f64>,
    first_close_start: Option<f64>,
}

impl PosixAccumulator {
    /// Start accumulating for `file_id` on `rank` with default alignment.
    #[must_use]
    pub fn new(file_id: u64, rank: i32) -> Self {
        Self::with_alignment(file_id, rank, AlignmentSpec::default())
    }

    /// Start accumulating with an explicit alignment specification.
    #[must_use]
    pub fn with_alignment(file_id: u64, rank: i32, alignment: AlignmentSpec) -> Self {
        let mut record = PosixRecord::new(file_id, rank);
        record.set(PosixCounter::POSIX_MODE, 0o644);
        record.set(
            PosixCounter::POSIX_FILE_ALIGNMENT,
            alignment.file_alignment as i64,
        );
        record.set(
            PosixCounter::POSIX_MEM_ALIGNMENT,
            alignment.mem_alignment as i64,
        );
        record.set(PosixCounter::POSIX_FASTEST_RANK, -1);
        record.set(PosixCounter::POSIX_SLOWEST_RANK, -1);
        PosixAccumulator {
            record,
            alignment,
            last_read_end: None,
            last_write_end: None,
            last_offset: None,
            last_op: LastOp::None,
            accesses: CommonValueTracker::new(),
            strides: CommonValueTracker::new(),
            max_read_time: 0.0,
            max_read_size: 0,
            max_write_time: 0.0,
            max_write_size: 0,
            first_read_start: None,
            first_write_start: None,
            first_open_start: None,
            first_close_start: None,
        }
    }

    /// Record an `open` call.
    pub fn open(&mut self, start: f64, end: f64) {
        self.record.add(PosixCounter::POSIX_OPENS, 1);
        self.meta(start, end);
        if self.first_open_start.is_none() {
            self.first_open_start = Some(start);
            self.record
                .fset(PosixFCounter::POSIX_F_OPEN_START_TIMESTAMP, start);
        }
        self.record
            .fset(PosixFCounter::POSIX_F_OPEN_END_TIMESTAMP, end);
    }

    /// Record a `close` call.
    pub fn close(&mut self, start: f64, end: f64) {
        self.meta(start, end);
        if self.first_close_start.is_none() {
            self.first_close_start = Some(start);
            self.record
                .fset(PosixFCounter::POSIX_F_CLOSE_START_TIMESTAMP, start);
        }
        self.record
            .fset(PosixFCounter::POSIX_F_CLOSE_END_TIMESTAMP, end);
    }

    /// Record an explicit seek.
    pub fn seek(&mut self, start: f64, end: f64) {
        self.record.add(PosixCounter::POSIX_SEEKS, 1);
        self.meta(start, end);
    }

    /// Record a `stat`-family call.
    pub fn stat(&mut self, start: f64, end: f64) {
        self.record.add(PosixCounter::POSIX_STATS, 1);
        self.meta(start, end);
    }

    /// Record an `fsync` call.
    pub fn fsync(&mut self, start: f64, end: f64) {
        self.record.add(PosixCounter::POSIX_FSYNCS, 1);
        self.meta(start, end);
    }

    /// Record a read of `size` bytes at `offset`.
    ///
    /// `mem_aligned` reports whether the user buffer met the memory
    /// alignment requirement (instrumentation knows the pointer; callers of
    /// the simulator decide).
    pub fn read(&mut self, offset: u64, size: u64, start: f64, end: f64, mem_aligned: bool) {
        self.record.add(PosixCounter::POSIX_READS, 1);
        self.record.add(PosixCounter::POSIX_BYTES_READ, size as i64);
        let max_byte = offset.saturating_add(size).saturating_sub(1);
        if size > 0 && max_byte as i64 > self.record.get(PosixCounter::POSIX_MAX_BYTE_READ) {
            self.record
                .set(PosixCounter::POSIX_MAX_BYTE_READ, max_byte as i64);
        }
        if let Some(last_end) = self.last_read_end {
            if offset == last_end {
                self.record.add(PosixCounter::POSIX_CONSEC_READS, 1);
            }
            if offset >= last_end {
                self.record.add(PosixCounter::POSIX_SEQ_READS, 1);
            }
        }
        self.last_read_end = Some(offset.saturating_add(size));
        self.common(offset, size, mem_aligned, LastOp::Read);
        let hist_base = PosixCounter::POSIX_SIZE_READ_0_100.index() + size_bin(size);
        self.record.counters[hist_base] = self.record.counters[hist_base].saturating_add(1);
        let dur = (end - start).max(0.0);
        self.record.fadd(PosixFCounter::POSIX_F_READ_TIME, dur);
        if dur > self.max_read_time {
            self.max_read_time = dur;
            self.max_read_size = size;
        }
        if self.first_read_start.is_none() {
            self.first_read_start = Some(start);
            self.record
                .fset(PosixFCounter::POSIX_F_READ_START_TIMESTAMP, start);
        }
        let prev = self.record.fget(PosixFCounter::POSIX_F_READ_END_TIMESTAMP);
        if end > prev {
            self.record
                .fset(PosixFCounter::POSIX_F_READ_END_TIMESTAMP, end);
        }
    }

    /// Record a write of `size` bytes at `offset`.
    pub fn write(&mut self, offset: u64, size: u64, start: f64, end: f64, mem_aligned: bool) {
        self.record.add(PosixCounter::POSIX_WRITES, 1);
        self.record
            .add(PosixCounter::POSIX_BYTES_WRITTEN, size as i64);
        let max_byte = offset.saturating_add(size).saturating_sub(1);
        if size > 0 && max_byte as i64 > self.record.get(PosixCounter::POSIX_MAX_BYTE_WRITTEN) {
            self.record
                .set(PosixCounter::POSIX_MAX_BYTE_WRITTEN, max_byte as i64);
        }
        if let Some(last_end) = self.last_write_end {
            if offset == last_end {
                self.record.add(PosixCounter::POSIX_CONSEC_WRITES, 1);
            }
            if offset >= last_end {
                self.record.add(PosixCounter::POSIX_SEQ_WRITES, 1);
            }
        }
        self.last_write_end = Some(offset.saturating_add(size));
        self.common(offset, size, mem_aligned, LastOp::Write);
        let hist_base = PosixCounter::POSIX_SIZE_WRITE_0_100.index() + size_bin(size);
        self.record.counters[hist_base] = self.record.counters[hist_base].saturating_add(1);
        let dur = (end - start).max(0.0);
        self.record.fadd(PosixFCounter::POSIX_F_WRITE_TIME, dur);
        if dur > self.max_write_time {
            self.max_write_time = dur;
            self.max_write_size = size;
        }
        if self.first_write_start.is_none() {
            self.first_write_start = Some(start);
            self.record
                .fset(PosixFCounter::POSIX_F_WRITE_START_TIMESTAMP, start);
        }
        let prev = self.record.fget(PosixFCounter::POSIX_F_WRITE_END_TIMESTAMP);
        if end > prev {
            self.record
                .fset(PosixFCounter::POSIX_F_WRITE_END_TIMESTAMP, end);
        }
    }

    fn common(&mut self, offset: u64, size: u64, mem_aligned: bool, op: LastOp) {
        if !offset.is_multiple_of(self.alignment.file_alignment) {
            self.record.add(PosixCounter::POSIX_FILE_NOT_ALIGNED, 1);
        }
        if !mem_aligned {
            self.record.add(PosixCounter::POSIX_MEM_NOT_ALIGNED, 1);
        }
        if self.last_op != LastOp::None && self.last_op != op {
            self.record.add(PosixCounter::POSIX_RW_SWITCHES, 1);
        }
        self.last_op = op;
        self.accesses.observe(size);
        if let Some(last) = self.last_offset {
            let stride = offset.abs_diff(last);
            if stride > 0 {
                self.strides.observe(stride);
            }
        }
        self.last_offset = Some(offset);
    }

    fn meta(&mut self, start: f64, end: f64) {
        self.record
            .fadd(PosixFCounter::POSIX_F_META_TIME, (end - start).max(0.0));
    }

    /// Finalize the record: fill in top-4 access sizes / strides and max
    /// operation times.
    #[must_use]
    pub fn finish(mut self) -> PosixRecord {
        let top_access = self.accesses.top4();
        let top_stride = self.strides.top4();
        use PosixCounter::*;
        let access_slots = [
            (POSIX_ACCESS1_ACCESS, POSIX_ACCESS1_COUNT),
            (POSIX_ACCESS2_ACCESS, POSIX_ACCESS2_COUNT),
            (POSIX_ACCESS3_ACCESS, POSIX_ACCESS3_COUNT),
            (POSIX_ACCESS4_ACCESS, POSIX_ACCESS4_COUNT),
        ];
        for ((a, c), (value, count)) in access_slots.iter().zip(top_access) {
            self.record.set(*a, value as i64);
            self.record.set(*c, count as i64);
        }
        let stride_slots = [
            (POSIX_STRIDE1_STRIDE, POSIX_STRIDE1_COUNT),
            (POSIX_STRIDE2_STRIDE, POSIX_STRIDE2_COUNT),
            (POSIX_STRIDE3_STRIDE, POSIX_STRIDE3_COUNT),
            (POSIX_STRIDE4_STRIDE, POSIX_STRIDE4_COUNT),
        ];
        for ((s, c), (value, count)) in stride_slots.iter().zip(top_stride) {
            self.record.set(*s, value as i64);
            self.record.set(*c, count as i64);
        }
        self.record
            .set(POSIX_MAX_READ_TIME_SIZE, self.max_read_size as i64);
        self.record
            .set(POSIX_MAX_WRITE_TIME_SIZE, self.max_write_size as i64);
        self.record
            .fset(PosixFCounter::POSIX_F_MAX_READ_TIME, self.max_read_time);
        self.record
            .fset(PosixFCounter::POSIX_F_MAX_WRITE_TIME, self.max_write_time);
        self.record
    }
}

/// Accumulates MPI-IO-layer operations for one `(file, rank)` pair.
#[derive(Debug, Clone)]
pub struct MpiioAccumulator {
    record: MpiioRecord,
    accesses: CommonValueTracker,
    last_op: LastOp,
    max_read_time: f64,
    max_read_size: u64,
    max_write_time: f64,
    max_write_size: u64,
    first_read_start: Option<f64>,
    first_write_start: Option<f64>,
}

impl MpiioAccumulator {
    /// Start accumulating for `file_id` on `rank`.
    #[must_use]
    pub fn new(file_id: u64, rank: i32) -> Self {
        let mut record = MpiioRecord::new(file_id, rank);
        record.set(MpiioCounter::MPIIO_FASTEST_RANK, -1);
        record.set(MpiioCounter::MPIIO_SLOWEST_RANK, -1);
        MpiioAccumulator {
            record,
            accesses: CommonValueTracker::new(),
            last_op: LastOp::None,
            max_read_time: 0.0,
            max_read_size: 0,
            max_write_time: 0.0,
            max_write_size: 0,
            first_read_start: None,
            first_write_start: None,
        }
    }

    /// Record a collective or independent open.
    pub fn open(&mut self, collective: bool, start: f64, end: f64) {
        if collective {
            self.record.add(MpiioCounter::MPIIO_COLL_OPENS, 1);
        } else {
            self.record.add(MpiioCounter::MPIIO_INDEP_OPENS, 1);
        }
        self.record
            .fadd(MpiioFCounter::MPIIO_F_META_TIME, (end - start).max(0.0));
        if self
            .record
            .fget(MpiioFCounter::MPIIO_F_OPEN_START_TIMESTAMP)
            == 0.0
        {
            self.record
                .fset(MpiioFCounter::MPIIO_F_OPEN_START_TIMESTAMP, start);
        }
        self.record
            .fset(MpiioFCounter::MPIIO_F_OPEN_END_TIMESTAMP, end);
    }

    /// Record a close.
    pub fn close(&mut self, start: f64, end: f64) {
        self.record
            .fadd(MpiioFCounter::MPIIO_F_META_TIME, (end - start).max(0.0));
        if self
            .record
            .fget(MpiioFCounter::MPIIO_F_CLOSE_START_TIMESTAMP)
            == 0.0
        {
            self.record
                .fset(MpiioFCounter::MPIIO_F_CLOSE_START_TIMESTAMP, start);
        }
        self.record
            .fset(MpiioFCounter::MPIIO_F_CLOSE_END_TIMESTAMP, end);
    }

    /// Record a read; `collective` selects `MPIIO_COLL_READS` vs
    /// `MPIIO_INDEP_READS`.
    pub fn read(&mut self, size: u64, collective: bool, start: f64, end: f64) {
        if collective {
            self.record.add(MpiioCounter::MPIIO_COLL_READS, 1);
        } else {
            self.record.add(MpiioCounter::MPIIO_INDEP_READS, 1);
        }
        self.record.add(MpiioCounter::MPIIO_BYTES_READ, size as i64);
        let hist = MpiioCounter::MPIIO_SIZE_READ_AGG_0_100.index() + size_bin(size);
        self.record.counters[hist] = self.record.counters[hist].saturating_add(1);
        self.rw_common(size, LastOp::Read);
        let dur = (end - start).max(0.0);
        self.record.fadd(MpiioFCounter::MPIIO_F_READ_TIME, dur);
        if dur > self.max_read_time {
            self.max_read_time = dur;
            self.max_read_size = size;
        }
        if self.first_read_start.is_none() {
            self.first_read_start = Some(start);
            self.record
                .fset(MpiioFCounter::MPIIO_F_READ_START_TIMESTAMP, start);
        }
        let prev = self.record.fget(MpiioFCounter::MPIIO_F_READ_END_TIMESTAMP);
        if end > prev {
            self.record
                .fset(MpiioFCounter::MPIIO_F_READ_END_TIMESTAMP, end);
        }
    }

    /// Record a write; `collective` selects the collective counters.
    pub fn write(&mut self, size: u64, collective: bool, start: f64, end: f64) {
        if collective {
            self.record.add(MpiioCounter::MPIIO_COLL_WRITES, 1);
        } else {
            self.record.add(MpiioCounter::MPIIO_INDEP_WRITES, 1);
        }
        self.record
            .add(MpiioCounter::MPIIO_BYTES_WRITTEN, size as i64);
        let hist = MpiioCounter::MPIIO_SIZE_WRITE_AGG_0_100.index() + size_bin(size);
        self.record.counters[hist] = self.record.counters[hist].saturating_add(1);
        self.rw_common(size, LastOp::Write);
        let dur = (end - start).max(0.0);
        self.record.fadd(MpiioFCounter::MPIIO_F_WRITE_TIME, dur);
        if dur > self.max_write_time {
            self.max_write_time = dur;
            self.max_write_size = size;
        }
        if self.first_write_start.is_none() {
            self.first_write_start = Some(start);
            self.record
                .fset(MpiioFCounter::MPIIO_F_WRITE_START_TIMESTAMP, start);
        }
        let prev = self.record.fget(MpiioFCounter::MPIIO_F_WRITE_END_TIMESTAMP);
        if end > prev {
            self.record
                .fset(MpiioFCounter::MPIIO_F_WRITE_END_TIMESTAMP, end);
        }
    }

    /// Record an `MPI_File_set_view` call.
    pub fn set_view(&mut self) {
        self.record.add(MpiioCounter::MPIIO_VIEWS, 1);
    }

    /// Record hint application at open time.
    pub fn hint(&mut self) {
        self.record.add(MpiioCounter::MPIIO_HINTS, 1);
    }

    fn rw_common(&mut self, size: u64, op: LastOp) {
        if self.last_op != LastOp::None && self.last_op != op {
            self.record.add(MpiioCounter::MPIIO_RW_SWITCHES, 1);
        }
        self.last_op = op;
        self.accesses.observe(size);
    }

    /// Finalize the record.
    #[must_use]
    pub fn finish(mut self) -> MpiioRecord {
        use MpiioCounter::*;
        let slots = [
            (MPIIO_ACCESS1_ACCESS, MPIIO_ACCESS1_COUNT),
            (MPIIO_ACCESS2_ACCESS, MPIIO_ACCESS2_COUNT),
            (MPIIO_ACCESS3_ACCESS, MPIIO_ACCESS3_COUNT),
            (MPIIO_ACCESS4_ACCESS, MPIIO_ACCESS4_COUNT),
        ];
        for ((a, c), (value, count)) in slots.iter().zip(self.accesses.top4()) {
            self.record.set(*a, value as i64);
            self.record.set(*c, count as i64);
        }
        self.record
            .set(MPIIO_MAX_READ_TIME_SIZE, self.max_read_size as i64);
        self.record
            .set(MPIIO_MAX_WRITE_TIME_SIZE, self.max_write_size as i64);
        self.record
            .fset(MpiioFCounter::MPIIO_F_MAX_READ_TIME, self.max_read_time);
        self.record
            .fset(MpiioFCounter::MPIIO_F_MAX_WRITE_TIME, self.max_write_time);
        self.record
    }
}

/// Accumulates STDIO-layer operations for one `(file, rank)` pair.
#[derive(Debug, Clone)]
pub struct StdioAccumulator {
    record: StdioRecord,
}

impl StdioAccumulator {
    /// Start accumulating for `file_id` on `rank`.
    #[must_use]
    pub fn new(file_id: u64, rank: i32) -> Self {
        let mut record = StdioRecord::new(file_id, rank);
        record.set(StdioCounter::STDIO_FASTEST_RANK, -1);
        record.set(StdioCounter::STDIO_SLOWEST_RANK, -1);
        StdioAccumulator { record }
    }

    /// Record an `fopen`.
    pub fn open(&mut self, start: f64, end: f64) {
        self.record.add(StdioCounter::STDIO_OPENS, 1);
        self.record
            .fadd(StdioFCounter::STDIO_F_META_TIME, (end - start).max(0.0));
        if self
            .record
            .fget(StdioFCounter::STDIO_F_OPEN_START_TIMESTAMP)
            == 0.0
        {
            self.record
                .fset(StdioFCounter::STDIO_F_OPEN_START_TIMESTAMP, start);
        }
        self.record
            .fset(StdioFCounter::STDIO_F_OPEN_END_TIMESTAMP, end);
    }

    /// Record an `fclose`.
    pub fn close(&mut self, start: f64, end: f64) {
        self.record
            .fadd(StdioFCounter::STDIO_F_META_TIME, (end - start).max(0.0));
        if self
            .record
            .fget(StdioFCounter::STDIO_F_CLOSE_START_TIMESTAMP)
            == 0.0
        {
            self.record
                .fset(StdioFCounter::STDIO_F_CLOSE_START_TIMESTAMP, start);
        }
        self.record
            .fset(StdioFCounter::STDIO_F_CLOSE_END_TIMESTAMP, end);
    }

    /// Record an `fread` ending at byte `offset + size - 1`.
    pub fn read(&mut self, offset: u64, size: u64, start: f64, end: f64) {
        self.record.add(StdioCounter::STDIO_READS, 1);
        self.record.add(StdioCounter::STDIO_BYTES_READ, size as i64);
        let max_byte = offset.saturating_add(size).saturating_sub(1);
        if size > 0 && max_byte as i64 > self.record.get(StdioCounter::STDIO_MAX_BYTE_READ) {
            self.record
                .set(StdioCounter::STDIO_MAX_BYTE_READ, max_byte as i64);
        }
        let dur = (end - start).max(0.0);
        self.record.fadd(StdioFCounter::STDIO_F_READ_TIME, dur);
        if self
            .record
            .fget(StdioFCounter::STDIO_F_READ_START_TIMESTAMP)
            == 0.0
        {
            self.record
                .fset(StdioFCounter::STDIO_F_READ_START_TIMESTAMP, start);
        }
        self.record
            .fset(StdioFCounter::STDIO_F_READ_END_TIMESTAMP, end);
    }

    /// Record an `fwrite` ending at byte `offset + size - 1`.
    pub fn write(&mut self, offset: u64, size: u64, start: f64, end: f64) {
        self.record.add(StdioCounter::STDIO_WRITES, 1);
        self.record
            .add(StdioCounter::STDIO_BYTES_WRITTEN, size as i64);
        let max_byte = offset.saturating_add(size).saturating_sub(1);
        if size > 0 && max_byte as i64 > self.record.get(StdioCounter::STDIO_MAX_BYTE_WRITTEN) {
            self.record
                .set(StdioCounter::STDIO_MAX_BYTE_WRITTEN, max_byte as i64);
        }
        let dur = (end - start).max(0.0);
        self.record.fadd(StdioFCounter::STDIO_F_WRITE_TIME, dur);
        if self
            .record
            .fget(StdioFCounter::STDIO_F_WRITE_START_TIMESTAMP)
            == 0.0
        {
            self.record
                .fset(StdioFCounter::STDIO_F_WRITE_START_TIMESTAMP, start);
        }
        self.record
            .fset(StdioFCounter::STDIO_F_WRITE_END_TIMESTAMP, end);
    }

    /// Record an `fseek`.
    pub fn seek(&mut self, start: f64, end: f64) {
        self.record.add(StdioCounter::STDIO_SEEKS, 1);
        self.record
            .fadd(StdioFCounter::STDIO_F_META_TIME, (end - start).max(0.0));
    }

    /// Record an `fflush`.
    pub fn flush(&mut self, start: f64, end: f64) {
        self.record.add(StdioCounter::STDIO_FLUSHES, 1);
        self.record
            .fadd(StdioFCounter::STDIO_F_META_TIME, (end - start).max(0.0));
    }

    /// Finalize the record.
    #[must_use]
    pub fn finish(self) -> StdioRecord {
        self.record
    }
}

fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
}

/// Reduce per-rank POSIX records for one file into a shared record
/// (`rank == -1`) with fastest/slowest-rank and variance counters, the way
/// `darshan-core` reduces shared file records at shutdown.
///
/// Counter sums saturate at the `i64` bounds, so records decoded from
/// hostile logs (e.g. `i64::MAX` counters) reduce without panicking; use
/// [`try_reduce_posix`] when the overflow itself must be reported.
///
/// Returns `None` when `records` is empty.
#[must_use]
pub fn reduce_posix(records: &[PosixRecord]) -> Option<PosixRecord> {
    reduce_posix_impl(records, false).expect("saturating reduction cannot overflow")
}

/// [`reduce_posix`] with checked counter sums: the first overflowing
/// counter aborts the reduction with a typed
/// [`crate::DarshanError::Overflow`] naming the counter.
///
/// # Errors
///
/// Returns [`crate::DarshanError::Overflow`] when any summed counter
/// (or the per-rank byte total) exceeds `i64::MAX` in magnitude.
pub fn try_reduce_posix(
    records: &[PosixRecord],
) -> Result<Option<PosixRecord>, crate::DarshanError> {
    reduce_posix_impl(records, true)
}

fn reduce_posix_impl(
    records: &[PosixRecord],
    checked: bool,
) -> Result<Option<PosixRecord>, crate::DarshanError> {
    let Some(first) = records.first() else {
        return Ok(None);
    };
    let mut out = PosixRecord::new(first.file_id, SHARED_RANK);
    use PosixCounter::*;
    // Counters that are summed across ranks.
    let summed: Vec<usize> = PosixCounter::ALL
        .iter()
        .filter(|c| {
            !matches!(
                **c,
                POSIX_MODE
                    | POSIX_MEM_ALIGNMENT
                    | POSIX_FILE_ALIGNMENT
                    | POSIX_MAX_BYTE_READ
                    | POSIX_MAX_BYTE_WRITTEN
                    | POSIX_MAX_READ_TIME_SIZE
                    | POSIX_MAX_WRITE_TIME_SIZE
                    | POSIX_STRIDE1_STRIDE
                    | POSIX_STRIDE2_STRIDE
                    | POSIX_STRIDE3_STRIDE
                    | POSIX_STRIDE4_STRIDE
                    | POSIX_ACCESS1_ACCESS
                    | POSIX_ACCESS2_ACCESS
                    | POSIX_ACCESS3_ACCESS
                    | POSIX_ACCESS4_ACCESS
                    | POSIX_FASTEST_RANK
                    | POSIX_FASTEST_RANK_BYTES
                    | POSIX_SLOWEST_RANK
                    | POSIX_SLOWEST_RANK_BYTES
            )
        })
        .map(|c| c.index())
        .collect();
    out.set(POSIX_MODE, first.get(POSIX_MODE));
    out.set(POSIX_MEM_ALIGNMENT, first.get(POSIX_MEM_ALIGNMENT));
    out.set(POSIX_FILE_ALIGNMENT, first.get(POSIX_FILE_ALIGNMENT));
    let mut rank_times: Vec<f64> = Vec::with_capacity(records.len());
    let mut rank_bytes: Vec<f64> = Vec::with_capacity(records.len());
    let mut fastest: Option<(i32, f64, i64)> = None;
    let mut slowest: Option<(i32, f64, i64)> = None;
    for r in records {
        for &i in &summed {
            out.counters[i] = if checked {
                out.counters[i]
                    .checked_add(r.counters[i])
                    .ok_or(crate::DarshanError::Overflow {
                        what: PosixCounter::ALL[i].name(),
                    })?
            } else {
                out.counters[i].saturating_add(r.counters[i])
            };
        }
        for c in [POSIX_MAX_BYTE_READ, POSIX_MAX_BYTE_WRITTEN] {
            if r.get(c) > out.get(c) {
                out.set(c, r.get(c));
            }
        }
        let time = r.fget(PosixFCounter::POSIX_F_READ_TIME)
            + r.fget(PosixFCounter::POSIX_F_WRITE_TIME)
            + r.fget(PosixFCounter::POSIX_F_META_TIME);
        let bytes = if checked {
            r.get(POSIX_BYTES_READ)
                .checked_add(r.get(POSIX_BYTES_WRITTEN))
                .ok_or(crate::DarshanError::Overflow {
                    what: "per-rank byte total",
                })?
        } else {
            r.get(POSIX_BYTES_READ)
                .saturating_add(r.get(POSIX_BYTES_WRITTEN))
        };
        rank_times.push(time);
        rank_bytes.push(bytes as f64);
        if fastest.is_none_or(|(_, t, _)| time < t) {
            fastest = Some((r.rank, time, bytes));
        }
        if slowest.is_none_or(|(_, t, _)| time > t) {
            slowest = Some((r.rank, time, bytes));
        }
        for (fc, agg_max) in [
            (PosixFCounter::POSIX_F_MAX_READ_TIME, true),
            (PosixFCounter::POSIX_F_MAX_WRITE_TIME, true),
            (PosixFCounter::POSIX_F_READ_END_TIMESTAMP, true),
            (PosixFCounter::POSIX_F_WRITE_END_TIMESTAMP, true),
            (PosixFCounter::POSIX_F_CLOSE_END_TIMESTAMP, true),
            (PosixFCounter::POSIX_F_OPEN_END_TIMESTAMP, true),
        ] {
            debug_assert!(agg_max);
            if r.fget(fc) > out.fget(fc) {
                out.fset(fc, r.fget(fc));
            }
        }
        for fc in [
            PosixFCounter::POSIX_F_READ_TIME,
            PosixFCounter::POSIX_F_WRITE_TIME,
            PosixFCounter::POSIX_F_META_TIME,
        ] {
            out.fadd(fc, r.fget(fc));
        }
        for fc in [
            PosixFCounter::POSIX_F_OPEN_START_TIMESTAMP,
            PosixFCounter::POSIX_F_READ_START_TIMESTAMP,
            PosixFCounter::POSIX_F_WRITE_START_TIMESTAMP,
            PosixFCounter::POSIX_F_CLOSE_START_TIMESTAMP,
        ] {
            let v = r.fget(fc);
            let cur = out.fget(fc);
            if v > 0.0 && (cur == 0.0 || v < cur) {
                out.fset(fc, v);
            }
        }
    }
    if let Some((rank, time, bytes)) = fastest {
        out.set(POSIX_FASTEST_RANK, i64::from(rank));
        out.set(POSIX_FASTEST_RANK_BYTES, bytes);
        out.fset(PosixFCounter::POSIX_F_FASTEST_RANK_TIME, time);
    }
    if let Some((rank, time, bytes)) = slowest {
        out.set(POSIX_SLOWEST_RANK, i64::from(rank));
        out.set(POSIX_SLOWEST_RANK_BYTES, bytes);
        out.fset(PosixFCounter::POSIX_F_SLOWEST_RANK_TIME, time);
    }
    out.fset(
        PosixFCounter::POSIX_F_VARIANCE_RANK_TIME,
        variance(&rank_times),
    );
    out.fset(
        PosixFCounter::POSIX_F_VARIANCE_RANK_BYTES,
        variance(&rank_bytes),
    );
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_top4_orders_by_count_then_value() {
        let mut t = CommonValueTracker::new();
        for _ in 0..5 {
            t.observe(4096);
        }
        for _ in 0..5 {
            t.observe(1024);
        }
        for _ in 0..2 {
            t.observe(8);
        }
        let top = t.top4();
        assert_eq!(top[0], (1024, 5)); // tie broken by smaller value
        assert_eq!(top[1], (4096, 5));
        assert_eq!(top[2], (8, 2));
        assert_eq!(top[3], (0, 0));
        assert_eq!(t.distinct(), 3);
    }

    #[test]
    fn consecutive_and_sequential_classification() {
        let mut a = PosixAccumulator::new(1, 0);
        a.write(0, 100, 0.0, 0.1, true);
        a.write(100, 100, 0.1, 0.2, true); // consecutive (and sequential)
        a.write(300, 100, 0.2, 0.3, true); // sequential only
        a.write(50, 100, 0.3, 0.4, true); // backwards: neither
        let r = a.finish();
        assert_eq!(r.get(PosixCounter::POSIX_WRITES), 4);
        assert_eq!(r.get(PosixCounter::POSIX_CONSEC_WRITES), 1);
        assert_eq!(r.get(PosixCounter::POSIX_SEQ_WRITES), 2);
    }

    #[test]
    fn alignment_counters() {
        let spec = AlignmentSpec {
            file_alignment: 1024,
            mem_alignment: 8,
        };
        let mut a = PosixAccumulator::with_alignment(1, 0, spec);
        a.write(0, 512, 0.0, 0.1, true); // aligned
        a.write(512, 512, 0.1, 0.2, false); // misaligned offset + mem
        a.write(1024, 512, 0.2, 0.3, true); // aligned
        let r = a.finish();
        assert_eq!(r.get(PosixCounter::POSIX_FILE_NOT_ALIGNED), 1);
        assert_eq!(r.get(PosixCounter::POSIX_MEM_NOT_ALIGNED), 1);
        assert_eq!(r.get(PosixCounter::POSIX_FILE_ALIGNMENT), 1024);
    }

    #[test]
    fn size_histogram_binning() {
        let mut a = PosixAccumulator::new(1, 0);
        a.read(0, 50, 0.0, 0.1, true);
        a.read(50, 2048, 0.1, 0.2, true);
        a.read(4096, 2 << 20, 0.2, 0.3, true);
        let r = a.finish();
        assert_eq!(r.get(PosixCounter::POSIX_SIZE_READ_0_100), 1);
        assert_eq!(r.get(PosixCounter::POSIX_SIZE_READ_1K_10K), 1);
        assert_eq!(r.get(PosixCounter::POSIX_SIZE_READ_1M_4M), 1);
    }

    #[test]
    fn rw_switches_counted() {
        let mut a = PosixAccumulator::new(1, 0);
        a.write(0, 10, 0.0, 0.1, true);
        a.read(0, 10, 0.1, 0.2, true);
        a.read(10, 10, 0.2, 0.3, true);
        a.write(10, 10, 0.3, 0.4, true);
        let r = a.finish();
        assert_eq!(r.get(PosixCounter::POSIX_RW_SWITCHES), 2);
    }

    #[test]
    fn stride_detection() {
        let mut a = PosixAccumulator::new(1, 0);
        // Fixed stride of 1000 bytes between consecutive accesses.
        for i in 0..5u64 {
            a.read(i * 1000, 100, i as f64, i as f64 + 0.1, true);
        }
        let r = a.finish();
        assert_eq!(r.get(PosixCounter::POSIX_STRIDE1_STRIDE), 1000);
        assert_eq!(r.get(PosixCounter::POSIX_STRIDE1_COUNT), 4);
    }

    #[test]
    fn max_time_tracks_size_of_slowest_op() {
        let mut a = PosixAccumulator::new(1, 0);
        a.write(0, 100, 0.0, 0.1, true);
        a.write(100, 999, 0.1, 0.9, true); // slowest
        a.write(1099, 10, 0.9, 1.0, true);
        let r = a.finish();
        assert_eq!(r.get(PosixCounter::POSIX_MAX_WRITE_TIME_SIZE), 999);
        assert!((r.fget(PosixFCounter::POSIX_F_MAX_WRITE_TIME) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn meta_time_accumulates_open_close_seek() {
        let mut a = PosixAccumulator::new(1, 0);
        a.open(0.0, 0.5);
        a.seek(0.5, 0.6);
        a.stat(0.6, 0.7);
        a.fsync(0.7, 0.9);
        a.close(0.9, 1.0);
        let r = a.finish();
        assert!((r.fget(PosixFCounter::POSIX_F_META_TIME) - 1.0).abs() < 1e-9);
        assert_eq!(r.get(PosixCounter::POSIX_OPENS), 1);
        assert_eq!(r.get(PosixCounter::POSIX_SEEKS), 1);
        assert_eq!(r.get(PosixCounter::POSIX_STATS), 1);
        assert_eq!(r.get(PosixCounter::POSIX_FSYNCS), 1);
    }

    #[test]
    fn reduce_computes_fastest_slowest_and_variance() {
        let mut a0 = PosixAccumulator::new(1, 0);
        a0.write(0, 1000, 0.0, 1.0, true);
        let mut a1 = PosixAccumulator::new(1, 1);
        a1.write(1000, 3000, 0.0, 3.0, true);
        let shared = reduce_posix(&[a0.finish(), a1.finish()]).unwrap();
        assert_eq!(shared.rank, SHARED_RANK);
        assert_eq!(shared.get(PosixCounter::POSIX_WRITES), 2);
        assert_eq!(shared.get(PosixCounter::POSIX_BYTES_WRITTEN), 4000);
        assert_eq!(shared.get(PosixCounter::POSIX_FASTEST_RANK), 0);
        assert_eq!(shared.get(PosixCounter::POSIX_SLOWEST_RANK), 1);
        assert_eq!(shared.get(PosixCounter::POSIX_SLOWEST_RANK_BYTES), 3000);
        assert!(shared.fget(PosixFCounter::POSIX_F_VARIANCE_RANK_BYTES) > 0.0);
        assert_eq!(shared.get(PosixCounter::POSIX_MAX_BYTE_WRITTEN), 3999);
    }

    #[test]
    fn reduce_empty_returns_none() {
        assert!(reduce_posix(&[]).is_none());
    }

    #[test]
    fn mpiio_collective_vs_independent() {
        let mut a = MpiioAccumulator::new(1, 0);
        a.open(true, 0.0, 0.1);
        a.write(1 << 20, true, 0.1, 0.5);
        a.write(4096, false, 0.5, 0.6);
        a.read(1 << 20, true, 0.6, 0.9);
        a.close(0.9, 1.0);
        let r = a.finish();
        assert_eq!(r.get(MpiioCounter::MPIIO_COLL_OPENS), 1);
        assert_eq!(r.get(MpiioCounter::MPIIO_COLL_WRITES), 1);
        assert_eq!(r.get(MpiioCounter::MPIIO_INDEP_WRITES), 1);
        assert_eq!(r.get(MpiioCounter::MPIIO_COLL_READS), 1);
        assert_eq!(r.get(MpiioCounter::MPIIO_RW_SWITCHES), 1);
        assert_eq!(r.get(MpiioCounter::MPIIO_BYTES_WRITTEN), (1 << 20) + 4096);
        assert_eq!(r.get(MpiioCounter::MPIIO_SIZE_WRITE_AGG_1M_4M), 1);
    }

    #[test]
    fn stdio_accumulator_counts_and_times() {
        let mut a = StdioAccumulator::new(1, 0);
        a.open(0.0, 0.1);
        a.write(0, 100, 0.1, 0.2);
        a.read(0, 100, 0.2, 0.4);
        a.seek(0.4, 0.45);
        a.flush(0.45, 0.5);
        a.close(0.5, 0.6);
        let r = a.finish();
        assert_eq!(r.get(StdioCounter::STDIO_OPENS), 1);
        assert_eq!(r.get(StdioCounter::STDIO_WRITES), 1);
        assert_eq!(r.get(StdioCounter::STDIO_READS), 1);
        assert_eq!(r.get(StdioCounter::STDIO_SEEKS), 1);
        assert_eq!(r.get(StdioCounter::STDIO_FLUSHES), 1);
        assert_eq!(r.get(StdioCounter::STDIO_MAX_BYTE_READ), 99);
        assert!((r.fget(StdioFCounter::STDIO_F_READ_TIME) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }
}
