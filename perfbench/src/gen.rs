//! Seeded trace generation for the three workloads.
//!
//! The workload seed varies trace parameters inside a narrow size band
//! (a fraction of a percent of the operation counts, plus the RNG seeds
//! of random access patterns), through the public fields of the
//! `workloads` generators. Two seeds therefore give different trace
//! bytes but nearly the same amount of work, so a result can be
//! re-checked on a held-out seed without moving the metrics.

use darshan::log::{Log, LogWriter};
use iosim::{SimConfig, Simulation};
use workloads::e2e::{E2e, E2eVariant};
use workloads::ior;
use workloads::mdworkbench::MdWorkbench;
use workloads::openpmd::{OpenPmd, OpenPmdVariant};
use workloads::{GroundTruth, Workload};

/// Scale of the OpenPMD-baseline trace analyzed by `openpmd_dxt`.
pub const OPENPMD_SCALE: f64 = 0.4;
/// Scale of the fig2 IOR-Easy and MD-Workbench traces in the fleet.
pub const FLEET_FIG2_SCALE: f64 = 0.25;
/// Scale of the fleet's IOR-Hard traces (its per-rank op count is 40x
/// IOR-Easy's, so it runs smaller to keep the fleet's bytes balanced).
pub const FLEET_HARD_SCALE: f64 = 0.02;
/// Scale of the fleet's IOR-Random-4K traces.
pub const FLEET_RND_SCALE: f64 = 0.05;
/// Scale of the E2E and OpenPMD-optimized traces in the fleet.
pub const FLEET_APP_SCALE: f64 = 0.05;
/// Traces in the `fleet_store` fleet (three seeded variants of eight kinds).
pub const FLEET_TRACES: usize = 24;

/// SplitMix64: a tiny deterministic stream of seed-derived values.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64, stream: u64) -> SeedRng {
        SeedRng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `base` moved by a seeded offset in `-spread..=spread`.
    pub fn jitter(&mut self, base: u64, spread: u64) -> u64 {
        let offset = self.next_u64() % (2 * spread + 1);
        base + offset - spread
    }

    /// `base` moved into variant `v`'s own slot `base + 3v + {0,1,2}`:
    /// seed-varied, yet never equal across the variants of one kind.
    pub fn slot(&mut self, base: u64, v: u64) -> u64 {
        base + 3 * v + self.next_u64() % 3
    }
}

/// One generated trace: serialized bytes plus what it is known to contain.
#[derive(Debug, Clone)]
pub struct Trace {
    pub name: String,
    pub bytes: Vec<u8>,
    /// Figure 2 ground truth, checked against the trace's report.
    pub truth: Option<GroundTruth>,
}

pub fn serialize(log: Log) -> Vec<u8> {
    LogWriter::from_log(log)
        .finish()
        .expect("serializing a generated log cannot fail")
}

fn trace(name: String, log: Log, truth: Option<GroundTruth>) -> Trace {
    Trace {
        name,
        bytes: serialize(log),
        truth,
    }
}

/// The OpenPMD-baseline trace at scale 0.4: ~11.4 MB, ~561k DXT rows.
/// The seed moves the per-rank write and read counts by at most 0.4%.
pub fn openpmd_dxt(seed: u64) -> Trace {
    let mut rng = SeedRng::new(seed, 1);
    let mut w = OpenPmd::scaled(OpenPmdVariant::Baseline, OPENPMD_SCALE);
    w.writes_per_rank = rng.jitter(w.writes_per_rank, 4);
    w.reads_per_rank = rng.jitter(w.reads_per_rank, 3);
    let name = format!(
        "openpmd-baseline-{}x{}+{}",
        w.nprocs, w.writes_per_rank, w.reads_per_rank
    );
    trace(name, w.generate(), Some(w.ground_truth()))
}

fn ior_variant(make: fn(f64) -> ior::IorWorkload, scale: f64, v: u64, rng: &mut SeedRng) -> Trace {
    let mut w = make(scale);
    w.config.ops_per_rank = rng.slot(w.config.ops_per_rank, v);
    w.config.seed ^= rng.next_u64();
    let name = format!("{}-{}", w.name(), w.config.ops_per_rank);
    trace(name, w.generate(), Some(w.ground_truth()))
}

/// The `fleet_store` fleet: three seeded variants each of the five fig2
/// IOR presets, MD-Workbench, E2E-baseline and OpenPMD-optimized.
pub fn fleet(seed: u64) -> Vec<Trace> {
    let mut rng = SeedRng::new(seed, 2);
    let mut out = Vec::with_capacity(FLEET_TRACES);
    for v in 0..(FLEET_TRACES / 8) as u64 {
        for (make, scale) in [
            (ior::ior_easy_2kb_shared as fn(f64) -> _, FLEET_FIG2_SCALE),
            (ior::ior_easy_1mb_shared, FLEET_FIG2_SCALE),
            (ior::ior_easy_1mb_fpp, FLEET_FIG2_SCALE),
            (ior::ior_hard, FLEET_HARD_SCALE),
            (ior::ior_rnd4k, FLEET_RND_SCALE),
        ] {
            out.push(ior_variant(make, scale, v, &mut rng));
        }
        let mut md = MdWorkbench::scaled(FLEET_FIG2_SCALE);
        md.config.iterations_per_rank = rng.slot(md.config.iterations_per_rank, v);
        let name = format!("md-workbench-{}", md.config.iterations_per_rank);
        out.push(trace(name, md.generate(), Some(md.ground_truth())));

        let mut e2e = E2e::scaled(E2eVariant::Baseline, FLEET_APP_SCALE);
        e2e.record_size = rng.slot(e2e.record_size, v);
        let name = format!("e2e-baseline-{}", e2e.record_size);
        out.push(trace(name, e2e.generate(), None));

        let mut opt = OpenPmd::scaled(OpenPmdVariant::Optimized, FLEET_APP_SCALE);
        opt.nprocs = u32::try_from(rng.slot(u64::from(opt.nprocs), v)).expect("small");
        let name = format!("openpmd-opt-{}", opt.nprocs);
        out.push(trace(name, opt.generate(), None));
    }
    out
}

/// One unique small trace for `serve_mixed`: two ranks of small
/// consecutive POSIX writes, its shape drawn from `(seed, client, n)` so
/// every submission has its own digest.
pub fn small(seed: u64, client: u64, n: u64) -> Vec<u8> {
    let mut rng = SeedRng::new(seed, 3 + (client << 32) + n);
    let ranks = 2;
    let size = rng.jitter(1024, 16);
    let ops = rng.jitter(24, 2);
    let mut sim = Simulation::new(
        SimConfig::default()
            .with_ranks(ranks)
            .with_exe(&format!("serve-mixed-{client}-{n}")),
    );
    let f = sim
        .posix_open_all("/scratch/serve-mixed.dat")
        .expect("open in a fresh simulation");
    for i in 0..ops {
        for rank in 0..ranks {
            let base = u64::from(rank) * (4 << 20);
            sim.posix_write(rank, f, base + i * size, size)
                .expect("write inside the opened file");
        }
    }
    sim.posix_close_all(f);
    serialize(sim.finish())
}
