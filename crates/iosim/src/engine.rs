//! The simulation engine: per-rank virtual clocks over the file system,
//! with Darshan instrumentation of every call.

use crate::cost::CostModel;
use crate::instrument::DarshanShim;
use crate::mpiio::{CollectivePlan, CollectiveRequest};
use crate::pfs::{FileHandle, FileSystem, StripeLayout};
use crate::topology::Topology;
use crate::SimError;
use darshan::accum::AlignmentSpec;
use darshan::log::Log;
use darshan::records::JobRecord;
use std::collections::HashMap;

/// Configuration for a simulated job.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster shape.
    pub topology: Topology,
    /// Cost parameters.
    pub cost: CostModel,
    /// Default striping for newly created files.
    pub layout: StripeLayout,
    /// User id recorded in the job header.
    pub uid: u32,
    /// Job id recorded in the job header.
    pub job_id: u64,
    /// Executable line recorded in the job header.
    pub exe: String,
    /// Aggregators per collective op (ROMIO `cb_nodes`); 0 = one per node.
    pub cb_nodes: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            topology: Topology::default(),
            cost: CostModel::default(),
            layout: StripeLayout::default(),
            uid: 1000,
            job_id: 1,
            exe: String::from("a.out"),
            cb_nodes: 0,
        }
    }
}

impl SimConfig {
    /// Set the number of ranks.
    #[must_use]
    pub fn with_ranks(mut self, nprocs: u32) -> Self {
        self.topology.nprocs = nprocs;
        self
    }

    /// Set the default stripe layout.
    #[must_use]
    pub fn with_layout(mut self, layout: StripeLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Set the recorded executable line.
    #[must_use]
    pub fn with_exe(mut self, exe: &str) -> Self {
        self.exe = exe.to_owned();
        self
    }
}

#[derive(Debug, Clone)]
struct OpenFile {
    record_id: u64,
}

/// A simulated MPI job issuing I/O through POSIX, STDIO and MPI-IO.
///
/// All operations take explicit rank arguments; the engine advances that
/// rank's virtual clock by the duration the file system charges. Collective
/// operations synchronize the participating clocks the way MPI does.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    fs: FileSystem,
    shim: DarshanShim,
    clocks: Vec<f64>,
    files: HashMap<FileHandle, OpenFile>,
    /// Simulated operations issued so far (every POSIX/STDIO/MPI-IO call).
    ops: u64,
    /// Real wall-clock start, for the simulated-vs-real elapsed gauges.
    started: std::time::Instant,
}

impl Simulation {
    /// Create a simulation from a config.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let alignment = AlignmentSpec {
            file_alignment: config.layout.stripe_size,
            mem_alignment: 8,
        };
        let mut shim = DarshanShim::new(alignment);
        for rank in 0..config.topology.nprocs {
            shim.register_host(rank as i32, &config.topology.hostname_of(rank));
        }
        let fs = FileSystem::new(
            config.topology.ost_count,
            config.cost.clone(),
            config.layout,
        );
        let clocks = vec![0.0; config.topology.nprocs as usize];
        Simulation {
            config,
            fs,
            shim,
            clocks,
            files: HashMap::new(),
            ops: 0,
            started: std::time::Instant::now(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The underlying file system (inspection).
    #[must_use]
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Virtual time on `rank`'s clock.
    #[must_use]
    pub fn time(&self, rank: u32) -> f64 {
        self.clocks[rank as usize]
    }

    /// Advance one rank's clock by `dt` seconds of compute.
    pub fn advance(&mut self, rank: u32, dt: f64) {
        self.clocks[rank as usize] += dt.max(0.0);
    }

    /// Inject a degraded storage target: all service on OST `ost` takes
    /// `factor`× as long from now on. Models the real-world cause of
    /// stragglers that ION's per-rank time analysis is meant to surface.
    pub fn inject_slow_ost(&mut self, ost: usize, factor: f64) {
        self.fs.set_ost_slowdown(ost, factor);
    }

    /// Synchronize all clocks to the latest (an `MPI_Barrier`).
    pub fn barrier(&mut self) {
        let max = self.clocks.iter().copied().fold(0.0f64, f64::max);
        for c in &mut self.clocks {
            *c = max;
        }
    }

    fn check_rank(&self, rank: u32) -> Result<(), SimError> {
        if rank >= self.config.topology.nprocs {
            return Err(SimError::BadRank {
                rank,
                nprocs: self.config.topology.nprocs,
            });
        }
        Ok(())
    }

    fn record_of(&self, handle: FileHandle) -> Result<u64, SimError> {
        self.files
            .get(&handle)
            .map(|f| f.record_id)
            .ok_or(SimError::BadHandle {
                handle: handle.key(),
            })
    }

    // ------------------------------------------------------------------
    // POSIX layer
    // ------------------------------------------------------------------

    /// Open (creating if needed) `path` on one rank through POSIX.
    pub fn posix_open(&mut self, rank: u32, path: &str) -> Result<FileHandle, SimError> {
        self.check_rank(rank)?;
        let t = self.clocks[rank as usize];
        let (handle, end) = self.fs.open(path, rank, t, true)?;
        let rid = self.shim.register(path);
        let layout = self.fs.file(handle).expect("just opened").layout;
        self.shim.record_lustre(
            rid,
            layout.stripe_size as i64,
            layout.ost_ids(self.config.topology.ost_count),
        );
        self.ops += 1;
        self.shim.posix_open(rid, rank as i32, t, end);
        self.clocks[rank as usize] = end;
        self.files.insert(handle, OpenFile { record_id: rid });
        Ok(handle)
    }

    /// Open `path` on every rank (each pays a metadata op), returning the
    /// shared handle.
    pub fn posix_open_all(&mut self, path: &str) -> Result<FileHandle, SimError> {
        let mut handle = None;
        for rank in 0..self.config.topology.nprocs {
            handle = Some(self.posix_open(rank, path)?);
        }
        Ok(handle.expect("nprocs >= 1"))
    }

    /// POSIX write with aligned client memory.
    pub fn posix_write(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<(), SimError> {
        self.posix_write_opts(rank, handle, offset, len, true)
    }

    /// POSIX write, controlling memory alignment of the client buffer.
    pub fn posix_write_opts(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
        mem_aligned: bool,
    ) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        let out = self.fs.write(handle, rank, offset, len, t, mem_aligned)?;
        self.ops += 1;
        self.shim
            .posix_write(rid, rank as i32, offset, len, t, out.end_time, mem_aligned);
        self.clocks[rank as usize] = out.end_time;
        Ok(())
    }

    /// POSIX read with aligned client memory.
    pub fn posix_read(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<(), SimError> {
        self.posix_read_opts(rank, handle, offset, len, true)
    }

    /// POSIX read, controlling memory alignment of the client buffer.
    pub fn posix_read_opts(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
        mem_aligned: bool,
    ) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        let out = self.fs.read(handle, rank, offset, len, t, mem_aligned)?;
        self.ops += 1;
        self.shim
            .posix_read(rid, rank as i32, offset, len, t, out.end_time, mem_aligned);
        self.clocks[rank as usize] = out.end_time;
        Ok(())
    }

    /// Explicit POSIX seek (costs a client-side call, no server round trip).
    pub fn posix_seek(&mut self, rank: u32, handle: FileHandle) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        let end = t + 1e-6;
        self.ops += 1;
        self.shim.posix_seek(rid, rank as i32, t, end);
        self.clocks[rank as usize] = end;
        Ok(())
    }

    /// POSIX `stat` on a path.
    pub fn posix_stat(&mut self, rank: u32, path: &str) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let t = self.clocks[rank as usize];
        let end = self.fs.stat(path, t)?;
        let rid = self.shim.register(path);
        self.ops += 1;
        self.shim.posix_stat(rid, rank as i32, t, end);
        self.clocks[rank as usize] = end;
        Ok(())
    }

    /// POSIX `fsync`.
    pub fn posix_fsync(&mut self, rank: u32, handle: FileHandle) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        // fsync flushes the client cache: charge one RPC latency.
        let end = t + self.config.cost.rpc_latency;
        self.ops += 1;
        self.shim.posix_fsync(rid, rank as i32, t, end);
        self.clocks[rank as usize] = end;
        Ok(())
    }

    /// Close on one rank.
    pub fn posix_close(&mut self, rank: u32, handle: FileHandle) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        let end = self.fs.close(handle, t);
        self.ops += 1;
        self.shim.posix_close(rid, rank as i32, t, end);
        self.clocks[rank as usize] = end;
        Ok(())
    }

    /// Close on every rank.
    pub fn posix_close_all(&mut self, handle: FileHandle) {
        for rank in 0..self.config.topology.nprocs {
            let _ = self.posix_close(rank, handle);
        }
    }

    /// Remove a path (rank 0 does the unlink).
    pub fn unlink(&mut self, path: &str) -> Result<(), SimError> {
        let t = self.clocks[0];
        let end = self.fs.unlink(path, t)?;
        self.clocks[0] = end;
        Ok(())
    }

    // ------------------------------------------------------------------
    // STDIO layer
    // ------------------------------------------------------------------

    /// `fopen` on one rank.
    pub fn stdio_open(&mut self, rank: u32, path: &str) -> Result<FileHandle, SimError> {
        self.check_rank(rank)?;
        let t = self.clocks[rank as usize];
        let (handle, end) = self.fs.open(path, rank, t, true)?;
        let rid = self.shim.register(path);
        self.ops += 1;
        self.shim.stdio_open(rid, rank as i32, t, end);
        self.clocks[rank as usize] = end;
        self.files.insert(handle, OpenFile { record_id: rid });
        Ok(handle)
    }

    /// `fwrite` on one rank (buffered: server cost amortized, small
    /// client-side cost per call).
    pub fn stdio_write(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        let out = self.fs.write(handle, rank, offset, len, t, true)?;
        self.ops += 1;
        self.shim
            .stdio_write(rid, rank as i32, offset, len, t, out.end_time);
        self.clocks[rank as usize] = out.end_time;
        Ok(())
    }

    /// `fread` on one rank.
    pub fn stdio_read(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        let out = self.fs.read(handle, rank, offset, len, t, true)?;
        self.ops += 1;
        self.shim
            .stdio_read(rid, rank as i32, offset, len, t, out.end_time);
        self.clocks[rank as usize] = out.end_time;
        Ok(())
    }

    /// `fclose` on one rank.
    pub fn stdio_close(&mut self, rank: u32, handle: FileHandle) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        let end = self.fs.close(handle, t);
        self.ops += 1;
        self.shim.stdio_close(rid, rank as i32, t, end);
        self.clocks[rank as usize] = end;
        Ok(())
    }

    // ------------------------------------------------------------------
    // MPI-IO layer
    // ------------------------------------------------------------------

    /// `MPI_File_open` on the whole communicator (collective). Every rank
    /// records an MPI-IO open and the underlying POSIX open.
    pub fn mpi_file_open(&mut self, path: &str) -> Result<FileHandle, SimError> {
        self.barrier();
        let mut handle = None;
        for rank in 0..self.config.topology.nprocs {
            let h = self.posix_open(rank, path)?;
            let rid = self.record_of(h)?;
            let t = self.clocks[rank as usize];
            self.ops += 1;
            self.shim.mpiio_open(rid, rank as i32, true, t, t);
            handle = Some(h);
        }
        self.barrier();
        Ok(handle.expect("nprocs >= 1"))
    }

    /// Independent `MPI_File_write_at`: one MPI-IO op plus the POSIX op
    /// ROMIO issues underneath.
    pub fn mpi_write_independent(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        self.posix_write(rank, handle, offset, len)?;
        let end = self.clocks[rank as usize];
        self.ops += 1;
        self.shim
            .mpiio_write(rid, rank as i32, offset, len, false, t, end);
        Ok(())
    }

    /// Independent `MPI_File_read_at`.
    pub fn mpi_read_independent(
        &mut self,
        rank: u32,
        handle: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<(), SimError> {
        self.check_rank(rank)?;
        let rid = self.record_of(handle)?;
        let t = self.clocks[rank as usize];
        self.posix_read(rank, handle, offset, len)?;
        let end = self.clocks[rank as usize];
        self.ops += 1;
        self.shim
            .mpiio_read(rid, rank as i32, offset, len, false, t, end);
        Ok(())
    }

    fn cb_nodes(&self) -> u32 {
        if self.config.cb_nodes > 0 {
            self.config.cb_nodes
        } else {
            self.config.topology.node_count()
        }
    }

    /// Collective `MPI_File_write_at_all` over all ranks.
    ///
    /// `requests[i]` is `(rank, offset, len)`. Two-phase I/O runs: data is
    /// exchanged to aggregators, aggregators issue large stripe-aligned
    /// POSIX writes, and every participant's clock advances to the
    /// collective's completion.
    pub fn mpi_write_collective(
        &mut self,
        handle: FileHandle,
        requests: &[(u32, u64, u64)],
    ) -> Result<(), SimError> {
        self.collective(handle, requests, true)
    }

    /// Collective `MPI_File_read_at_all` over all ranks.
    pub fn mpi_read_collective(
        &mut self,
        handle: FileHandle,
        requests: &[(u32, u64, u64)],
    ) -> Result<(), SimError> {
        self.collective(handle, requests, false)
    }

    fn collective(
        &mut self,
        handle: FileHandle,
        requests: &[(u32, u64, u64)],
        is_write: bool,
    ) -> Result<(), SimError> {
        let rid = self.record_of(handle)?;
        for &(rank, _, _) in requests {
            self.check_rank(rank)?;
        }
        self.barrier();
        let t0 = self.clocks.first().copied().unwrap_or(0.0);
        let reqs: Vec<CollectiveRequest> = requests
            .iter()
            .map(|&(rank, offset, length)| CollectiveRequest {
                rank,
                offset,
                length,
            })
            .collect();
        let stripe = self
            .fs
            .file(handle)
            .ok_or(SimError::BadHandle {
                handle: handle.key(),
            })?
            .layout
            .stripe_size;
        let plan = CollectivePlan::plan(&reqs, self.cb_nodes(), stripe);
        // Phase 1: exchange.
        let exchange_end = t0 + self.config.cost.exchange_time(plan.exchange_bytes);
        // Phase 2: aggregators hit the file system in parallel.
        let mut latest = exchange_end;
        for a in &plan.assignments {
            let out = if is_write {
                self.fs
                    .write(handle, a.aggregator, a.offset, a.length, exchange_end, true)?
            } else {
                self.fs
                    .read(handle, a.aggregator, a.offset, a.length, exchange_end, true)?
            };
            self.shim.register_host(
                a.aggregator as i32,
                &self.config.topology.hostname_of(a.aggregator),
            );
            if is_write {
                self.ops += 1;
                self.shim.posix_write(
                    rid,
                    a.aggregator as i32,
                    a.offset,
                    a.length,
                    exchange_end,
                    out.end_time,
                    true,
                );
            } else {
                self.ops += 1;
                self.shim.posix_read(
                    rid,
                    a.aggregator as i32,
                    a.offset,
                    a.length,
                    exchange_end,
                    out.end_time,
                    true,
                );
            }
            latest = latest.max(out.end_time);
        }
        // Every participant records its MPI-IO collective op spanning the
        // whole collective.
        for r in &reqs {
            if is_write {
                self.ops += 1;
                self.shim
                    .mpiio_write(rid, r.rank as i32, r.offset, r.length, true, t0, latest);
            } else {
                self.ops += 1;
                self.shim
                    .mpiio_read(rid, r.rank as i32, r.offset, r.length, true, t0, latest);
            }
        }
        for c in &mut self.clocks {
            *c = latest;
        }
        Ok(())
    }

    /// `MPI_File_close` (collective).
    pub fn mpi_file_close(&mut self, handle: FileHandle) -> Result<(), SimError> {
        self.barrier();
        let rid = self.record_of(handle)?;
        for rank in 0..self.config.topology.nprocs {
            let t = self.clocks[rank as usize];
            let end = self.fs.close(handle, t);
            self.ops += 1;
            self.shim.mpiio_close(rid, rank as i32, t, end);
            self.ops += 1;
            self.shim.posix_close(rid, rank as i32, t, end);
            self.clocks[rank as usize] = end;
        }
        self.barrier();
        Ok(())
    }

    /// End the job and assemble the Darshan log.
    #[must_use]
    pub fn finish(self) -> Log {
        let mut job = JobRecord::new(
            self.config.uid,
            self.config.job_id,
            self.config.topology.nprocs,
        );
        job.exe = self.config.exe.clone();
        job.start_time = 0.0;
        job.end_time = self.clocks.iter().copied().fold(0.0f64, f64::max);
        if ion_obs::enabled() {
            // Simulated ops and time versus the real wall clock spent
            // computing them — the simulator's speedup figure.
            let mut span = ion_obs::span!("iosim.finish");
            span.attr("ops", self.ops);
            ion_obs::counter("iosim.ops", self.ops);
            ion_obs::gauge("iosim.sim_seconds", job.end_time);
            ion_obs::gauge("iosim.real_seconds", self.started.elapsed().as_secs_f64());
        }
        let job = job
            .with_metadata(
                "lustre_stripe_size",
                &self.config.layout.stripe_size.to_string(),
            )
            .with_metadata("lustre_rpc_size", &self.config.cost.rpc_size.to_string())
            .with_metadata("ost_count", &self.config.topology.ost_count.to_string());
        self.shim.finish(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan::counters::{MpiioCounter, PosixCounter};

    fn sim(ranks: u32) -> Simulation {
        Simulation::new(SimConfig::default().with_ranks(ranks))
    }

    #[test]
    fn posix_roundtrip_produces_per_rank_records() {
        let mut s = sim(4);
        let h = s.posix_open_all("/f").unwrap();
        for rank in 0..4 {
            s.posix_write(rank, h, u64::from(rank) * 1024, 1024)
                .unwrap();
        }
        s.posix_close_all(h);
        let log = s.finish();
        assert_eq!(log.posix.len(), 4);
        assert_eq!(log.lustre.len(), 1);
        for r in &log.posix {
            assert_eq!(r.get(PosixCounter::POSIX_WRITES), 1);
            assert_eq!(r.get(PosixCounter::POSIX_OPENS), 1);
        }
        assert!(log.job.end_time > 0.0);
    }

    #[test]
    fn clocks_advance_monotonically() {
        let mut s = sim(2);
        let h = s.posix_open(0, "/f").unwrap();
        let t0 = s.time(0);
        s.posix_write(0, h, 0, 1 << 20).unwrap();
        assert!(s.time(0) > t0);
        assert_eq!(s.time(1), 0.0); // rank 1 did nothing
    }

    #[test]
    fn barrier_synchronizes() {
        let mut s = sim(2);
        s.advance(0, 5.0);
        s.barrier();
        assert_eq!(s.time(1), 5.0);
    }

    #[test]
    fn bad_rank_rejected() {
        let mut s = sim(2);
        assert!(matches!(
            s.posix_open(7, "/f"),
            Err(SimError::BadRank { .. })
        ));
    }

    #[test]
    fn independent_mpi_write_records_both_layers() {
        let mut s = sim(2);
        let h = s.mpi_file_open("/f").unwrap();
        s.mpi_write_independent(0, h, 0, 4096).unwrap();
        s.mpi_file_close(h).unwrap();
        let log = s.finish();
        let m0 = log.mpiio.iter().find(|r| r.rank == 0).unwrap();
        assert_eq!(m0.get(MpiioCounter::MPIIO_INDEP_WRITES), 1);
        assert_eq!(m0.get(MpiioCounter::MPIIO_COLL_OPENS), 1);
        let p0 = log.posix.iter().find(|r| r.rank == 0).unwrap();
        assert_eq!(p0.get(PosixCounter::POSIX_WRITES), 1);
    }

    #[test]
    fn collective_write_aggregates_to_few_large_posix_ops() {
        let mut s = Simulation::new(SimConfig::default().with_ranks(8));
        let h = s.mpi_file_open("/f").unwrap();
        let reqs: Vec<(u32, u64, u64)> = (0..8u32)
            .map(|r| (r, u64::from(r) * (128 << 10), 128 << 10))
            .collect();
        s.mpi_write_collective(h, &reqs).unwrap();
        s.mpi_file_close(h).unwrap();
        let log = s.finish();
        // Every rank has one collective MPI-IO write...
        let coll: i64 = log
            .mpiio
            .iter()
            .map(|r| r.get(MpiioCounter::MPIIO_COLL_WRITES))
            .sum();
        assert_eq!(coll, 8);
        // ...but the POSIX layer saw only the aggregators' large writes.
        let posix_writes: i64 = log
            .posix
            .iter()
            .map(|r| r.get(PosixCounter::POSIX_WRITES))
            .sum();
        assert!(posix_writes <= 2, "got {posix_writes} POSIX writes");
        let bytes: i64 = log
            .posix
            .iter()
            .map(|r| r.get(PosixCounter::POSIX_BYTES_WRITTEN))
            .sum();
        assert_eq!(bytes, 8 * (128 << 10));
    }

    #[test]
    fn collective_read_returns_written_data_extent() {
        let mut s = sim(4);
        let h = s.mpi_file_open("/f").unwrap();
        let reqs: Vec<(u32, u64, u64)> =
            (0..4u32).map(|r| (r, u64::from(r) * 1024, 1024)).collect();
        s.mpi_write_collective(h, &reqs).unwrap();
        s.mpi_read_collective(h, &reqs).unwrap();
        s.mpi_file_close(h).unwrap();
        let log = s.finish();
        let coll_reads: i64 = log
            .mpiio
            .iter()
            .map(|r| r.get(MpiioCounter::MPIIO_COLL_READS))
            .sum();
        assert_eq!(coll_reads, 4);
    }

    #[test]
    fn stdio_layer_records_stdio_module() {
        let mut s = sim(1);
        let h = s.stdio_open(0, "/log.txt").unwrap();
        s.stdio_write(0, h, 0, 128).unwrap();
        s.stdio_close(0, h).unwrap();
        let log = s.finish();
        assert_eq!(log.stdio.len(), 1);
        assert!(log.posix.is_empty());
    }

    #[test]
    fn conservation_bytes_written_match_ost_accounting() {
        let mut s = sim(4);
        let h = s.posix_open_all("/f").unwrap();
        for rank in 0..4u32 {
            for i in 0..16u64 {
                s.posix_write(rank, h, (u64::from(rank) * 16 + i) * 4096, 4096)
                    .unwrap();
            }
        }
        let fs_bytes = s.fs().total_ost_bytes_written();
        assert_eq!(fs_bytes, 4 * 16 * 4096);
        let log = s.finish();
        let logged: i64 = log
            .posix
            .iter()
            .map(|r| r.get(PosixCounter::POSIX_BYTES_WRITTEN))
            .sum();
        assert_eq!(logged as u64, fs_bytes);
    }

    #[test]
    fn slow_ost_creates_a_straggler_rank() {
        use crate::pfs::StripeLayout;
        // Single-stripe files so each rank's file lives on exactly one OST.
        let config = SimConfig::default()
            .with_ranks(4)
            .with_layout(StripeLayout {
                stripe_size: 1 << 20,
                stripe_width: 1,
                ost_offset: 0,
            });
        let mut s = Simulation::new(config);
        let handles: Vec<_> = (0..4u32)
            .map(|r| s.posix_open(r, &format!("/fpp/{r}")).unwrap())
            .collect();
        // Find the OST serving rank 2's file, then degrade it 20×.
        let victim_ost = s.fs().file(handles[2]).unwrap().layout.ost_offset as usize;
        s.inject_slow_ost(victim_ost, 20.0);
        for rank in 0..4u32 {
            for i in 0..32u64 {
                s.posix_write(rank, handles[rank as usize], i * 65536, 65536)
                    .unwrap();
            }
        }
        let healthy = s.time(0);
        let straggler = s.time(2);
        assert!(
            straggler > healthy * 5.0,
            "straggler {straggler} vs healthy {healthy}"
        );
    }

    #[test]
    fn job_metadata_carries_system_parameters() {
        let s = sim(1);
        let log = s.finish();
        assert!(log
            .job
            .metadata
            .iter()
            .any(|(k, v)| k == "lustre_rpc_size" && v == "4194304"));
    }
}
