//! Experiment: engineering scaling study — how trace size and pipeline
//! cost grow with rank count and operation count.
//!
//! ```sh
//! cargo run --release -p ion-bench --bin exp_scaling
//! cargo run --release -p ion-bench --bin exp_scaling -- --workers 1,2,4
//! ```
//!
//! Not a paper figure; this quantifies the reproduction's own substrate so
//! EXPERIMENTS.md can speak to feasibility at paper scale (the OpenPMD
//! baseline has ~700k traced operations). `--quick` runs only the
//! smallest scale.
//!
//! `--workers <w1,w2,...>` additionally sweeps the analyze stage across
//! those `ion-exec` pool widths.

use darshan::log::LogWriter;
use ion::analyzer::SystemParams;
use ion::pipeline::IonPipeline;
use std::time::Instant;
use workloads::openpmd::{OpenPmd, OpenPmdVariant};
use workloads::Workload;

fn main() -> Result<(), darshan::DarshanError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let workers_sweep: Vec<usize> = match args.iter().position(|a| a == "--workers") {
        Some(i) => {
            let list = args.get(i + 1).cloned().unwrap_or_default();
            let parsed: Option<Vec<usize>> =
                list.split(',').map(|w| w.parse::<usize>().ok()).collect();
            match parsed {
                Some(widths) if !widths.is_empty() => widths,
                _ => {
                    eprintln!("error: --workers needs a comma-separated width list, e.g. 1,2,4");
                    std::process::exit(1);
                }
            }
        }
        None => Vec::new(),
    };

    println!("═══ Scaling: OpenPMD baseline vs rank count ═══\n");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "ranks", "traced ops", "log bytes", "gen (ms)", "encode (ms)", "extract (ms)", "ion (ms)"
    );
    let scales: &[f64] = if quick {
        &[0.02]
    } else {
        &[0.02, 0.05, 0.1, 0.2]
    };
    for &scale in scales {
        let w = OpenPmd::scaled(OpenPmdVariant::Baseline, scale);
        let t0 = Instant::now();
        let log = w.generate();
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ops: usize = log.dxt.iter().map(darshan::dxt::DxtRecord::len).sum();
        let nprocs = log.job.nprocs;

        let t1 = Instant::now();
        let bytes = LogWriter::from_log(log.clone()).finish()?.len();
        let encode_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let tables = extractor::extract_tables(&log);
        let extract_ms = t2.elapsed().as_secs_f64() * 1e3;

        let t3 = Instant::now();
        let report = IonPipeline::new().run_tables(&tables, &SystemParams::from_log(&log));
        let ion_ms = t3.elapsed().as_secs_f64() * 1e3;
        assert!(!report.diagnoses.is_empty());

        println!(
            "{nprocs:<8} {ops:>10} {bytes:>12} {gen_ms:>12.1} {encode_ms:>12.1} {extract_ms:>12.1} {ion_ms:>12.1}"
        );
    }
    println!(
        "\nbytes per traced op stay roughly constant (varint+delta DXT encoding);\n\
         extraction and analysis scale linearly with trace size."
    );
    if !workers_sweep.is_empty() {
        println!("\n═══ Analyze stage vs ion-exec pool width ═══\n");
        println!("{:<8} {:>12}", "workers", "ion (ms)");
        let log = OpenPmd::scaled(OpenPmdVariant::Baseline, scales[0]).generate();
        let tables = extractor::extract_tables(&log);
        let params = SystemParams::from_log(&log);
        for &w in &workers_sweep {
            let t = Instant::now();
            let report = IonPipeline::new()
                .with_exec(ion_exec::Batch::new().with_width(w))
                .run_tables(&tables, &params);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(!report.diagnoses.is_empty());
            println!("{w:<8} {ms:>12.1}");
        }
    }
    Ok(())
}
