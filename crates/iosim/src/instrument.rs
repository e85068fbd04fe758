//! Darshan instrumentation shim: observes simulated calls, emits a [`Log`].

use darshan::accum::{AlignmentSpec, MpiioAccumulator, PosixAccumulator, StdioAccumulator};
use darshan::counters::ModuleId;
use darshan::dxt::{DxtLayer, DxtRecord, DxtSegment, OpKind};
use darshan::heatmap::HeatmapAccumulator;
use darshan::log::{Log, LogWriter};
use darshan::record_id;
use darshan::records::{JobRecord, LustreRecord};
use std::collections::HashMap;

/// Collects Darshan records during a simulated run.
///
/// The shim mirrors `darshan-runtime`: one accumulator per `(file, rank)`
/// per module, one DXT record per `(file, rank, layer)`, one Lustre record
/// per file, and a name table, all assembled into a [`Log`] at
/// [`DarshanShim::finish`].
#[derive(Debug)]
pub struct DarshanShim {
    alignment: AlignmentSpec,
    names: HashMap<u64, String>,
    posix: HashMap<(u64, i32), PosixAccumulator>,
    mpiio: HashMap<(u64, i32), MpiioAccumulator>,
    stdio: HashMap<(u64, i32), StdioAccumulator>,
    dxt: HashMap<(u64, i32, DxtLayer), DxtRecord>,
    heatmap: HashMap<i32, HeatmapAccumulator>,
    lustre: HashMap<u64, LustreRecord>,
    hostnames: HashMap<i32, String>,
}

impl DarshanShim {
    /// Create a shim. `alignment` sets the `*_FILE_ALIGNMENT` counters and
    /// classification. Per-op DXT traces are always kept (Darshan's
    /// `DXT_ENABLE_IO_TRACE` set).
    #[must_use]
    pub fn new(alignment: AlignmentSpec) -> Self {
        DarshanShim {
            alignment,
            names: HashMap::new(),
            posix: HashMap::new(),
            mpiio: HashMap::new(),
            stdio: HashMap::new(),
            dxt: HashMap::new(),
            heatmap: HashMap::new(),
            lustre: HashMap::new(),
            hostnames: HashMap::new(),
        }
    }

    /// Register a file path, returning its Darshan record id.
    pub fn register(&mut self, path: &str) -> u64 {
        let id = record_id(path);
        self.names.entry(id).or_insert_with(|| path.to_owned());
        id
    }

    /// Register the hostname a rank runs on (for DXT records).
    pub fn register_host(&mut self, rank: i32, hostname: &str) {
        self.hostnames
            .entry(rank)
            .or_insert_with(|| hostname.to_owned());
    }

    /// Record Lustre striping for a file (captured at first open).
    pub fn record_lustre(&mut self, file: u64, stripe_size: i64, ost_ids: Vec<i64>) {
        self.lustre
            .entry(file)
            .or_insert_with(|| LustreRecord::new(file, 0, stripe_size, ost_ids));
    }

    fn posix_acc(&mut self, file: u64, rank: i32) -> &mut PosixAccumulator {
        let alignment = self.alignment;
        self.posix
            .entry((file, rank))
            .or_insert_with(|| PosixAccumulator::with_alignment(file, rank, alignment))
    }

    fn mpiio_acc(&mut self, file: u64, rank: i32) -> &mut MpiioAccumulator {
        self.mpiio
            .entry((file, rank))
            .or_insert_with(|| MpiioAccumulator::new(file, rank))
    }

    fn stdio_acc(&mut self, file: u64, rank: i32) -> &mut StdioAccumulator {
        self.stdio
            .entry((file, rank))
            .or_insert_with(|| StdioAccumulator::new(file, rank))
    }

    /// Record a POSIX open.
    pub fn posix_open(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.posix_acc(file, rank).open(start, end);
    }

    /// Record a POSIX close.
    pub fn posix_close(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.posix_acc(file, rank).close(start, end);
    }

    /// Record a POSIX seek.
    pub fn posix_seek(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.posix_acc(file, rank).seek(start, end);
    }

    /// Record a POSIX stat.
    pub fn posix_stat(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.posix_acc(file, rank).stat(start, end);
    }

    /// Record a POSIX fsync.
    pub fn posix_fsync(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.posix_acc(file, rank).fsync(start, end);
    }

    /// Record a POSIX read, including its DXT segment when tracing is on.
    #[allow(clippy::too_many_arguments)]
    pub fn posix_read(
        &mut self,
        file: u64,
        rank: i32,
        offset: u64,
        size: u64,
        start: f64,
        end: f64,
        mem_aligned: bool,
    ) {
        self.posix_acc(file, rank)
            .read(offset, size, start, end, mem_aligned);
        self.heatmap_observe(rank, false, size, start, end);
        self.dxt_push(
            file,
            rank,
            DxtLayer::Posix,
            OpKind::Read,
            offset,
            size,
            start,
            end,
        );
    }

    /// Record a POSIX write, including its DXT segment when tracing is on.
    #[allow(clippy::too_many_arguments)]
    pub fn posix_write(
        &mut self,
        file: u64,
        rank: i32,
        offset: u64,
        size: u64,
        start: f64,
        end: f64,
        mem_aligned: bool,
    ) {
        self.posix_acc(file, rank)
            .write(offset, size, start, end, mem_aligned);
        self.heatmap_observe(rank, true, size, start, end);
        self.dxt_push(
            file,
            rank,
            DxtLayer::Posix,
            OpKind::Write,
            offset,
            size,
            start,
            end,
        );
    }

    /// Record an MPI-IO open.
    pub fn mpiio_open(&mut self, file: u64, rank: i32, collective: bool, start: f64, end: f64) {
        self.mpiio_acc(file, rank).open(collective, start, end);
    }

    /// Record an MPI-IO close.
    pub fn mpiio_close(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.mpiio_acc(file, rank).close(start, end);
    }

    /// Record an MPI-IO read at the MPI layer.
    #[allow(clippy::too_many_arguments)]
    pub fn mpiio_read(
        &mut self,
        file: u64,
        rank: i32,
        offset: u64,
        size: u64,
        collective: bool,
        start: f64,
        end: f64,
    ) {
        self.mpiio_acc(file, rank)
            .read(size, collective, start, end);
        self.dxt_push(
            file,
            rank,
            DxtLayer::MpiIo,
            OpKind::Read,
            offset,
            size,
            start,
            end,
        );
    }

    /// Record an MPI-IO write at the MPI layer.
    #[allow(clippy::too_many_arguments)]
    pub fn mpiio_write(
        &mut self,
        file: u64,
        rank: i32,
        offset: u64,
        size: u64,
        collective: bool,
        start: f64,
        end: f64,
    ) {
        self.mpiio_acc(file, rank)
            .write(size, collective, start, end);
        self.dxt_push(
            file,
            rank,
            DxtLayer::MpiIo,
            OpKind::Write,
            offset,
            size,
            start,
            end,
        );
    }

    /// Record a STDIO open.
    pub fn stdio_open(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.stdio_acc(file, rank).open(start, end);
    }

    /// Record a STDIO write.
    pub fn stdio_write(
        &mut self,
        file: u64,
        rank: i32,
        offset: u64,
        size: u64,
        start: f64,
        end: f64,
    ) {
        self.stdio_acc(file, rank).write(offset, size, start, end);
        self.heatmap_observe(rank, true, size, start, end);
    }

    /// Record a STDIO read.
    pub fn stdio_read(
        &mut self,
        file: u64,
        rank: i32,
        offset: u64,
        size: u64,
        start: f64,
        end: f64,
    ) {
        self.stdio_acc(file, rank).read(offset, size, start, end);
        self.heatmap_observe(rank, false, size, start, end);
    }

    /// Record a STDIO close.
    pub fn stdio_close(&mut self, file: u64, rank: i32, start: f64, end: f64) {
        self.stdio_acc(file, rank).close(start, end);
    }

    /// Feed the per-rank temporal heatmap (POSIX/STDIO data ops only, so
    /// MPI-IO collectives are not double counted: their aggregator POSIX
    /// accesses carry the bytes).
    fn heatmap_observe(&mut self, rank: i32, is_write: bool, size: u64, start: f64, end: f64) {
        self.heatmap
            .entry(rank)
            .or_insert_with(|| HeatmapAccumulator::new(rank))
            .observe(is_write, size, start, end);
    }

    #[allow(clippy::too_many_arguments)]
    fn dxt_push(
        &mut self,
        file: u64,
        rank: i32,
        layer: DxtLayer,
        kind: OpKind,
        offset: u64,
        size: u64,
        start: f64,
        end: f64,
    ) {
        let hostname = self
            .hostnames
            .get(&rank)
            .cloned()
            .unwrap_or_else(|| "localhost".to_owned());
        let rec = self
            .dxt
            .entry((file, rank, layer))
            .or_insert_with(|| DxtRecord::new(file, rank, layer, &hostname));
        rec.push(
            kind,
            DxtSegment {
                offset,
                length: size,
                start_time: start,
                end_time: end,
            },
        );
    }

    /// Modules that have collected at least one record.
    #[must_use]
    pub fn active_modules(&self) -> Vec<ModuleId> {
        let mut out = Vec::new();
        if !self.posix.is_empty() {
            out.push(ModuleId::Posix);
        }
        if !self.mpiio.is_empty() {
            out.push(ModuleId::MpiIo);
        }
        if !self.stdio.is_empty() {
            out.push(ModuleId::Stdio);
        }
        if !self.lustre.is_empty() {
            out.push(ModuleId::Lustre);
        }
        if !self.dxt.is_empty() {
            out.push(ModuleId::Dxt);
        }
        if !self.heatmap.is_empty() {
            out.push(ModuleId::Heatmap);
        }
        out
    }

    /// Assemble the log. Records are sorted by `(file, rank)` so output is
    /// deterministic.
    #[must_use]
    pub fn finish(self, job: JobRecord) -> Log {
        let mut writer = LogWriter::new(job);
        let mut names: Vec<_> = self.names.into_iter().collect();
        names.sort();
        for (id, path) in names {
            writer.register_name(id, &path);
        }
        let mut posix: Vec<_> = self.posix.into_iter().collect();
        posix.sort_by_key(|((f, r), _)| (*f, *r));
        for (_, acc) in posix {
            writer.add_posix_record(acc.finish());
        }
        let mut mpiio: Vec<_> = self.mpiio.into_iter().collect();
        mpiio.sort_by_key(|((f, r), _)| (*f, *r));
        for (_, acc) in mpiio {
            writer.add_mpiio_record(acc.finish());
        }
        let mut stdio: Vec<_> = self.stdio.into_iter().collect();
        stdio.sort_by_key(|((f, r), _)| (*f, *r));
        for (_, acc) in stdio {
            writer.add_stdio_record(acc.finish());
        }
        let mut lustre: Vec<_> = self.lustre.into_iter().collect();
        lustre.sort_by_key(|(f, _)| *f);
        for (_, rec) in lustre {
            writer.add_lustre_record(rec);
        }
        let mut dxt: Vec<_> = self.dxt.into_iter().collect();
        dxt.sort_by_key(|((f, r, l), _)| (*f, *r, matches!(l, DxtLayer::MpiIo) as u8));
        for (_, rec) in dxt {
            writer.add_dxt_record(rec);
        }
        let mut heatmap: Vec<_> = self.heatmap.into_iter().collect();
        heatmap.sort_by_key(|(r, _)| *r);
        for (_, acc) in heatmap {
            writer.add_heatmap_record(acc.finish());
        }
        writer.into_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_collects_posix_and_dxt() {
        let mut shim = DarshanShim::new(AlignmentSpec::default());
        let f = shim.register("/data/a");
        shim.register_host(0, "nid00000");
        shim.posix_open(f, 0, 0.0, 0.001);
        shim.posix_write(f, 0, 0, 4096, 0.001, 0.002, true);
        shim.posix_close(f, 0, 0.002, 0.003);
        let log = shim.finish(JobRecord::new(1, 2, 1));
        assert_eq!(log.posix.len(), 1);
        assert_eq!(log.dxt.len(), 1);
        assert_eq!(log.dxt[0].writes.len(), 1);
        assert_eq!(log.dxt[0].hostname, "nid00000");
        assert_eq!(log.path_for(f), Some("/data/a"));
    }

    #[test]
    fn records_keyed_per_rank() {
        let mut shim = DarshanShim::new(AlignmentSpec::default());
        let f = shim.register("/data/a");
        for rank in 0..4 {
            shim.posix_write(f, rank, 0, 10, 0.0, 0.1, true);
        }
        let log = shim.finish(JobRecord::new(1, 2, 4));
        assert_eq!(log.posix.len(), 4);
        // Deterministic ordering by rank.
        let ranks: Vec<i32> = log.posix.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lustre_record_captured_once() {
        let mut shim = DarshanShim::new(AlignmentSpec::default());
        let f = shim.register("/data/a");
        shim.record_lustre(f, 1 << 20, vec![0, 1]);
        shim.record_lustre(f, 2 << 20, vec![5]); // ignored: already captured
        let log = shim.finish(JobRecord::new(1, 2, 1));
        assert_eq!(log.lustre.len(), 1);
        assert_eq!(log.lustre[0].stripe_size(), 1 << 20);
    }

    #[test]
    fn active_modules_tracks_usage() {
        let mut shim = DarshanShim::new(AlignmentSpec::default());
        let f = shim.register("/a");
        shim.mpiio_write(f, 0, 0, 100, true, 0.0, 0.1);
        let mods = shim.active_modules();
        assert!(mods.contains(&ModuleId::MpiIo));
        assert!(mods.contains(&ModuleId::Dxt));
        assert!(!mods.contains(&ModuleId::Posix));
    }
}
