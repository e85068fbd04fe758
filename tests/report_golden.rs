//! Golden reports for the Figure 2 and Figure 3 traces.
//!
//! Each test generates one trace at the scale the figure tests use, runs
//! the full ION pipeline and compares `render_text()` byte for byte with
//! the committed file under `tests/golden/`. Refactors of the extractor,
//! the IQL engine, the model or the summarizer must leave every report
//! identical; a deliberate report change re-records the affected file.

use ion::pipeline::IonPipeline;
use std::path::PathBuf;
use workloads::e2e::{E2e, E2eVariant};
use workloads::ior::{
    ior_easy_1mb_fpp, ior_easy_1mb_shared, ior_easy_2kb_shared, ior_hard, ior_rnd4k,
};
use workloads::mdworkbench::MdWorkbench;
use workloads::openpmd::{OpenPmd, OpenPmdVariant};
use workloads::Workload;

fn check(name: &str, workload: &dyn Workload) {
    let report = IonPipeline::new().run(&workload.generate()).render_text();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if report == golden {
        return;
    }
    let line = report
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| report.lines().count().min(golden.lines().count()));
    panic!(
        "{name}: report differs from {} at line {}\n--- golden\n{}\n+++ report\n{}",
        path.display(),
        line + 1,
        golden.lines().nth(line).unwrap_or("<end of file>"),
        report.lines().nth(line).unwrap_or("<end of report>"),
    );
}

#[test]
fn ior_easy_2k() {
    check("ior-easy-2k", &ior_easy_2kb_shared(0.25));
}

#[test]
fn ior_easy_1m() {
    check("ior-easy-1m", &ior_easy_1mb_shared(0.25));
}

#[test]
fn ior_easy_1m_fpp() {
    check("ior-easy-1m-fpp", &ior_easy_1mb_fpp(0.25));
}

#[test]
fn ior_hard_report() {
    check("ior-hard", &ior_hard(0.01));
}

#[test]
fn ior_rnd4k_report() {
    check("ior-rnd4k", &ior_rnd4k(0.05));
}

#[test]
fn mdworkbench() {
    check("mdworkbench", &MdWorkbench::scaled(0.5));
}

#[test]
fn openpmd_baseline() {
    check("openpmd", &OpenPmd::scaled(OpenPmdVariant::Baseline, 0.02));
}

#[test]
fn openpmd_optimized() {
    check(
        "openpmd-opt",
        &OpenPmd::scaled(OpenPmdVariant::Optimized, 0.05),
    );
}

#[test]
fn e2e_baseline() {
    check("e2e", &E2e::scaled(E2eVariant::Baseline, 0.03));
}

#[test]
fn e2e_optimized() {
    check("e2e-opt", &E2e::scaled(E2eVariant::Optimized, 0.25));
}
