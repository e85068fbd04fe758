//! Live telemetry, end to end: the `/metrics`-`/progress`-`/healthz`
//! endpoint over a real batch run, the `--events` JSONL stream and the
//! `--metrics-json` snapshot.
//!
//! Library-level tests drive `MetricsServer` + `analyze_dir` in-process
//! (deterministic); process-level tests spawn the actual binaries the CI
//! smoke step and human users run.

use ion_obs::events::{Event, SCHEMA as EVENTS_SCHEMA};
use ion_obs::json;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use workloads::ior::ior_easy_2kb_shared;
use workloads::Workload;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ion-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a few distinct small traces (plus one duplicate for cache hits).
fn write_traces(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    for (name, scale) in [("a", 0.02), ("b", 0.03), ("a-again", 0.02)] {
        let log = ior_easy_2kb_shared(scale).generate();
        let bytes = darshan::log::LogWriter::from_log(log).finish().unwrap();
        std::fs::write(dir.join(format!("{name}.darshan")), bytes).unwrap();
    }
}

/// One plain-std HTTP GET; returns (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.lines().next().unwrap().to_owned(), body.to_owned())
}

/// Parse the events JSONL file: checked header, then the event lines.
fn read_events(path: &Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let header = json::parse(lines.next().expect("header line")).unwrap();
    assert_eq!(header.get("schema").unwrap().as_str(), Some(EVENTS_SCHEMA));
    lines
        .map(|line| Event::from_json(&json::parse(line).unwrap()).expect("event line"))
        .collect()
}

/// The whole telemetry stack in-process: a live endpoint over a real
/// batch run against a real store, with the event stream attached.
#[test]
fn live_batch_is_observable_end_to_end() {
    // The global sink and event stream are process-wide; serialize with
    // any other test in this binary that might touch them.
    static SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tmp_dir("lib");
    write_traces(&dir.join("traces"));

    ion_obs::reset();
    ion_obs::enable();
    let ring = Arc::new(ion_obs::events::EventRing::new(
        ion_obs::events::DEFAULT_CAPACITY,
    ));
    ion_obs::events::install(Arc::clone(&ring));
    let server = ion_obs::serve::MetricsServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let store = Arc::new(ion_store::Store::open(dir.join("store")).unwrap());
    let driver = ion_store::StoredPipeline::new(store);
    let report = std::thread::scope(|scope| {
        let batch = scope.spawn(|| ion_store::analyze_dir(&driver, &dir.join("traces"), 2));
        // Scrape while the batch runs; progress counts only ever grow.
        let mut last_done = 0;
        while !batch.is_finished() {
            let (status, body) = http_get(&addr, "/progress");
            assert_eq!(status, "HTTP/1.1 200 OK");
            let doc = json::parse(body.trim()).unwrap();
            // The batch thread may not have registered its totals yet;
            // only assert once the run has actually started.
            if doc.get("total").unwrap().as_u64() == Some(0) {
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            assert_eq!(doc.get("total").unwrap().as_u64(), Some(3));
            let done = doc.get("completed").unwrap().as_u64().unwrap()
                + doc.get("failed").unwrap().as_u64().unwrap();
            assert!(done >= last_done, "progress never goes backwards");
            last_done = done;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        batch.join().unwrap().unwrap()
    });
    assert_eq!(report.succeeded(), 3);

    // Re-analyze one trace against the now-warm store: red-green
    // revalidation serves everything from cache and its counters
    // surface on the same endpoint.
    let warm_trace = std::fs::read(dir.join("traces").join("a.darshan")).unwrap();
    driver.analyze_bytes(&warm_trace).unwrap();

    // Final state through every route.
    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!(
        (status.as_str(), body.as_str()),
        ("HTTP/1.1 200 OK", "ok\n")
    );
    let (_, body) = http_get(&addr, "/progress");
    let doc = json::parse(body.trim()).unwrap();
    assert_eq!(doc.get("completed").unwrap().as_u64(), Some(3));
    assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("in_flight").unwrap().as_u64(), Some(0));
    let (_, metrics) = http_get(&addr, "/metrics");
    assert!(metrics.contains("ion_batch_total 3"), "{metrics}");
    assert!(metrics.contains("ion_batch_completed 3"), "{metrics}");
    assert!(
        metrics.contains("# TYPE ion_store_hit counter"),
        "{metrics}"
    );
    assert!(metrics.contains("# TYPE ion_llm_runs counter"), "{metrics}");
    // The warm re-run above revalidated every memoized issue green.
    assert!(
        metrics.contains("# TYPE ion_store_revalidate_green counter"),
        "{metrics}"
    );
    let green = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ion_store_revalidate_green "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        green > 0,
        "warm re-analysis must revalidate green:\n{metrics}"
    );
    assert!(
        metrics.contains("# TYPE ion_store_revalidate_red counter"),
        "registered at zero so absence of red runs is provable: {metrics}"
    );
    // The batch dispatched through the ion-exec pool, whose gauges and
    // counters surface on the same endpoint.
    assert!(metrics.contains("ion_exec_width"), "{metrics}");
    assert!(metrics.contains("ion_exec_queue_depth 0"), "{metrics}");
    assert!(
        metrics.contains("# TYPE ion_exec_tasks counter"),
        "{metrics}"
    );

    // The event stream saw the batch: per-trace outcomes, span lifecycle,
    // store lookups and model runs all flowed through one ordered ring.
    server.shutdown();
    ion_obs::events::uninstall();
    let events = ring.drain();
    let kind_count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(kind_count("batch.trace.completed"), 3);
    assert_eq!(kind_count("batch.trace.failed"), 0);
    assert!(kind_count("span.open") > 0);
    assert!(kind_count("span.close") > 0);
    assert!(kind_count("store.lookup") > 0);
    assert!(kind_count("llm.run.started") > 0);
    assert!(kind_count("llm.run.completed") > 0);
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "stream is seq-ordered");
    }
    assert_eq!(ring.dropped(), 0, "default capacity absorbs a small batch");

    ion_obs::disable();
    ion_obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

fn ion_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ion_cli"))
}

/// `ion_cli batch --serve --events`: the process serves all three routes
/// while it runs (the `--serve-hold-ms` window keeps the endpoint up long
/// enough for a scrape even when the batch finishes quickly) and leaves a
/// valid JSONL event stream behind.
#[test]
fn cli_batch_serves_and_streams() {
    let dir = tmp_dir("cli-batch");
    write_traces(&dir.join("traces"));
    let events_path = dir.join("events.jsonl");

    let mut child = ion_cli()
        .args([
            "--store",
            dir.join("store").to_str().unwrap(),
            "--serve",
            "127.0.0.1:0",
            "--serve-hold-ms",
            "4000",
            "--events",
            events_path.to_str().unwrap(),
            "batch",
            dir.join("traces").to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // The bound address is announced on stderr before dispatch.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "stderr closed before the serve line"
        );
        if let Some(rest) = line.trim().strip_prefix("serving telemetry on http://") {
            break rest.to_owned();
        }
    };

    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!(
        (status.as_str(), body.as_str()),
        ("HTTP/1.1 200 OK", "ok\n")
    );
    // The batch may not have recorded its first metric yet; the
    // --serve-hold-ms window exists exactly so a scrape can land.
    let metrics = loop {
        let (status, metrics) = http_get(&addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        if metrics.contains("# TYPE ") {
            break metrics;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert!(metrics.contains("counter\n"), "{metrics}");
    let (status, body) = http_get(&addr, "/progress");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = json::parse(body.trim()).unwrap();
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("ion-obs/progress/1")
    );

    let mut remaining_err = String::new();
    stderr.read_to_string(&mut remaining_err).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "stderr: {remaining_err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 analyzed, 0 failed"), "{stdout}");
    assert!(
        remaining_err.contains("event(s) to") && remaining_err.contains("(0 dropped)"),
        "writer accounting on stderr: {remaining_err}"
    );

    let events = read_events(&events_path);
    assert!(!events.is_empty());
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == "batch.trace.completed")
            .count(),
        3
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `analyze --events --metrics-json` feeds the CI smoke step: the JSONL
/// stream parses, and the written snapshot is an `ion-obs/1` document.
#[test]
fn cli_analyze_writes_events_and_snapshot() {
    let dir = tmp_dir("cli-analyze");
    let trace = dir.join("t.darshan");
    let events_path = dir.join("events.jsonl");
    let snap_path = dir.join("snap.json");

    let out = ion_cli()
        .env("IONREPRO_SCALE", "0.02")
        .args(["generate", "ior-easy-2k", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = ion_cli()
        .args([
            "--events",
            events_path.to_str().unwrap(),
            "--metrics-json",
            snap_path.to_str().unwrap(),
            "analyze",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let events = read_events(&events_path);
    assert!(events.iter().any(|e| e.kind == "span.open"));
    assert!(events.iter().any(|e| e.kind == "span.close"));
    assert!(events.iter().any(|e| e.kind == "counter.add"));
    assert!(events.iter().any(|e| e.kind == "llm.run.completed"));
    assert!(events.iter().any(|e| e.kind == "pipeline.completed"));

    let snap = json::parse(&std::fs::read_to_string(&snap_path).unwrap()).unwrap();
    assert_eq!(snap.get("schema").unwrap().as_str(), Some("ion-obs/1"));
    assert!(snap.get("stages").unwrap().get("pipeline").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
