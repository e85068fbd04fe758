//! Regression test for the panic-abort bug: before `ion-exec`, a panic in
//! one issue's analysis unwound through `thread::scope` and aborted the
//! whole `Analyzer::analyze` call. Now the panic is caught per task and
//! rendered as a failed diagnosis; every other issue still gets analyzed.
//! An IQL program that would repeat a column name likewise fails as a
//! typed error (exit 1), never a panic (exit 101).
//!
//! Fault injection uses the `ION_PANIC_ISSUE` env var (honored by
//! `Analyzer::run_one`), which is process-wide — this file stays the only
//! test binary that sets it.

use darshan::log::LogWriter;
use ion::pipeline::IonPipeline;
use iosim::{SimConfig, Simulation};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};

/// A trace whose misaligned writes make `misaligned-io` (the issue we
/// blow up) and several other issues applicable.
fn misaligned_trace_bytes() -> Vec<u8> {
    let mut sim = Simulation::new(SimConfig::default().with_ranks(2).with_exe("panic"));
    let f = sim.posix_open_all("/scratch/out.nc4").unwrap();
    for i in 0..64u64 {
        for rank in 0..2u32 {
            let base = u64::from(rank) * (32 << 20);
            sim.posix_write(rank, f, base + i * 4096 + 17, 4096)
                .unwrap();
        }
    }
    sim.posix_close_all(f);
    LogWriter::from_log(sim.finish()).finish().unwrap()
}

#[test]
fn panicking_issue_fails_alone_and_the_report_survives() {
    let bytes = misaligned_trace_bytes();
    let healthy = IonPipeline::new().run_bytes(&bytes).unwrap();
    assert!(healthy.diagnosis("misaligned-io").unwrap().is_detected());
    let n = healthy.diagnoses.len();
    assert!(n >= 2, "need other issues to prove they survive");

    std::env::set_var("ION_PANIC_ISSUE", "misaligned-io");
    let report = IonPipeline::new().run_bytes(&bytes).unwrap();
    std::env::remove_var("ION_PANIC_ISSUE");

    // Same issue set: the victim is present as a failed entry, not missing.
    assert_eq!(report.diagnoses.len(), n);
    let victim = report.diagnosis("misaligned-io").unwrap();
    assert!(
        victim.conclusion.contains("analysis panicked"),
        "{}",
        victim.conclusion
    );
    assert!(victim.raw.contains("ANALYSIS FAILED"), "{}", victim.raw);
    // Every other diagnosis is byte-identical to the healthy run.
    for d in &report.diagnoses {
        if d.issue != "misaligned-io" {
            assert_eq!(Some(d), healthy.diagnosis(&d.issue), "{}", d.issue);
        }
    }
    assert!(!report.summary.is_empty());
}

#[test]
fn cli_analyze_survives_a_panicking_issue() {
    let dir = std::env::temp_dir().join(format!("ion-panic-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.darshan");
    std::fs::write(&trace, misaligned_trace_bytes()).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ion_cli"))
        .arg("analyze")
        .arg(&trace)
        .env("ION_PANIC_ISSUE", "misaligned-io")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "analyze exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("ANALYSIS FAILED"), "{stdout}");
    assert!(stdout.contains("GLOBAL DIAGNOSIS SUMMARY"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_iql_rejects_duplicate_column_names_with_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("ion-iql-dup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.darshan");
    std::fs::write(&trace, misaligned_trace_bytes()).unwrap();
    for (i, stmt) in [
        "DERIVE rank = 1",
        "SELECT rank, rank",
        "GROUP rank AGG rank = count()",
    ]
    .iter()
    .enumerate()
    {
        let program = dir.join(format!("dup{i}.iql"));
        std::fs::write(&program, format!("LOAD DXT\n{stmt}\n")).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ion_cli"))
            .arg("iql")
            .arg(&trace)
            .arg(&program)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stmt}: {stderr}");
        assert!(
            stderr.contains("duplicate column name rank"),
            "{stmt}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_analyze_reports_an_undecodable_trace_without_usage() {
    let dir = std::env::temp_dir().join(format!("ion-garbage-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("garbage.darshan");
    std::fs::write(&trace, b"this is not a darshan log").unwrap();
    for command in ["analyze", "qa"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ion_cli"))
            .arg(command)
            .arg(&trace)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains("error:"), "{command}: {stderr}");
        assert!(
            !stderr.lines().any(|l| l.starts_with("usage:")),
            "{command}: an outcome failure printed usage\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Minimal HTTP GET against the telemetry endpoint (no client dep).
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    body
}

/// One trace panicking mid-batch must not take the others down: their
/// reports stay intact, the victim is a failed entry, and the panic shows
/// up as `exec.tasks.panicked == 1` on the live `/metrics` endpoint.
///
/// Runs `ion_cli batch` in a subprocess so the counter on `/metrics` is
/// exactly this batch's — in-process tests in this binary also panic
/// tasks and would pollute the global registry.
#[test]
fn batch_isolates_a_panicking_trace_and_counts_it_on_metrics() {
    let dir = std::env::temp_dir().join(format!("ion-panic-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("traces")).unwrap();
    std::fs::write(dir.join("traces/a.darshan"), misaligned_trace_bytes()).unwrap();
    std::fs::write(dir.join("traces/b.darshan"), misaligned_trace_bytes()).unwrap();
    std::fs::write(dir.join("traces/boom.darshan"), misaligned_trace_bytes()).unwrap();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ion_cli"))
        .arg("batch")
        .arg(dir.join("traces"))
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--jobs")
        .arg("2")
        .arg("--serve")
        .arg("127.0.0.1:0")
        .arg("--serve-hold-ms")
        .arg("10000")
        .env("ION_PANIC_TRACE", "boom.darshan")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // The CLI prints the bound ephemeral address before dispatching.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "no serve line");
        if let Some(rest) = line.trim().strip_prefix("serving telemetry on http://") {
            break rest.to_owned();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = stderr.read_to_string(&mut rest);
        rest
    });

    // Poll /metrics until the batch finishes (success + failure = 3).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let metrics = loop {
        assert!(std::time::Instant::now() < deadline, "batch never finished");
        let body = http_get(&addr, "/metrics");
        let done = ["ion_batch_completed 2", "ion_batch_failed 1"]
            .iter()
            .all(|needle| body.contains(needle));
        if done {
            break body;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    assert!(
        metrics.contains("ion_exec_tasks_panicked 1"),
        "exactly one panicked task expected:\n{metrics}"
    );

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let status = child.wait().unwrap();
    let _ = drain.join();
    // One failed trace makes the batch exit nonzero — that is the outcome
    // contract, not a crash (the report below proves the run completed).
    assert!(!status.success(), "expected outcome failure, got success");
    // The victim failed alone; both healthy traces produced reports.
    assert!(
        stdout.contains("boom.darshan: FAILED: batch worker panicked"),
        "{stdout}"
    );
    assert!(stdout.contains("2 analyzed, 1 failed"), "{stdout}");
    for healthy in ["a.darshan", "b.darshan"] {
        let line = stdout
            .lines()
            .find(|l| l.contains(healthy))
            .unwrap_or_else(|| panic!("no line for {healthy}: {stdout}"));
        assert!(line.contains("issue(s) detected"), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
