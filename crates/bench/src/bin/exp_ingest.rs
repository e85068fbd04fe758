//! Experiment: streaming ingest — streaming decode into compressed
//! chunked tables under a fixed peak-RSS budget.
//!
//! ```sh
//! cargo run --release -p ion-bench --bin exp_ingest
//! cargo run --release -p ion-bench --bin exp_ingest -- --quick
//! cargo run --release -p ion-bench --bin exp_ingest -- --segments 200000000
//! ```
//!
//! Generates a synthetic DXT trace of `--segments` traced operations
//! (default 100 M) as an `impl Read` that frames regions on demand — the
//! serialized log never exists in memory — and feeds it to
//! `extractor::extract_stream`, which seals fixed-row chunks into
//! Dict/RLE-compressed columns held in memory. The decoded records never
//! all exist at once; the compressed table does. The resulting DXT table
//! is then analyzed in place by the full detector battery, whose IQL
//! filters and aggregates scan the compressed runs directly.
//!
//! The acceptance gate is a peak-RSS ceiling read from `VmHWM` in
//! `/proc/self/status`: the run must stay under `--rss-budget-mb`
//! (default 8192 MB for the 100 M-segment trace). For scale: a batch
//! decode of the same log would hold ~3.2 GB of segment structs before
//! the first table row existed, the dense ten-column table another
//! ~9 GB next to it, and the analyzer's sorts/derives would then
//! materialize over those dense columns — >20 GB end to end, where the
//! streaming path peaks under 6 GB (the one honest dense column, the
//! per-record segment ordinal, accounts for 0.8 GB; analysis-stage
//! materializations for the rest). Extract throughput is printed in
//! rows/s.
//!
//! `--quick` shrinks the trace to 1 M segments (and the budget to
//! 512 MB) for CI smoke.

use darshan::dxt::{DxtLayer, DxtRecord, DxtSegment, OpKind};
use darshan::log::StreamWriter;
use darshan::records::{JobRecord, NameRecord};
use extractor::{extract_stream, DEFAULT_CHUNK_ROWS};
use ion::pipeline::IonPipeline;
use std::cell::RefCell;
use std::io::{Read, Write};
use std::rc::Rc;
use std::time::Instant;

/// Segments per generated DXT record: long enough that the constant
/// per-record columns (file, rank, offset, length, times) form runs the
/// chunk compressor collapses, short enough that the per-region scratch
/// stays a few megabytes.
const SEGS_PER_RECORD: u64 = 1 << 17;

/// Distinct file paths in the trace (dictionary-encoded downstream).
const NFILES: u64 = 32;

/// `Write` half of the generator: regions are framed into this shared
/// buffer and drained by the `Read` half.
#[derive(Clone)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams a synthetic DXT log of `remaining` segments, one region at a
/// time. Only the frame currently being drained is resident.
struct SyntheticDxt {
    writer: Option<StreamWriter<SharedBuf>>,
    buf: Rc<RefCell<Vec<u8>>>,
    pos: usize,
    remaining: u64,
    record_no: u64,
}

impl SyntheticDxt {
    fn new(segments: u64) -> Self {
        let buf = Rc::new(RefCell::new(Vec::new()));
        let job = JobRecord::new(1000, 4242, 64).with_metadata("exe", "exp-ingest");
        let mut writer =
            StreamWriter::new(SharedBuf(Rc::clone(&buf)), &job).expect("in-memory write");
        let names: Vec<NameRecord> = (0..NFILES)
            .map(|i| NameRecord {
                id: i + 1,
                path: format!("/scratch/run/out.{i:02}.dat"),
            })
            .collect();
        writer.write_names(&names).expect("in-memory write");
        SyntheticDxt {
            writer: Some(writer),
            buf,
            pos: 0,
            remaining: segments,
            record_no: 0,
        }
    }

    /// Frame the next region (or the end tag) into the buffer.
    fn pump(&mut self) {
        self.buf.borrow_mut().clear();
        self.pos = 0;
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        if self.remaining == 0 {
            self.writer
                .take()
                .unwrap()
                .finish()
                .expect("in-memory write");
            return;
        }
        let n = self.remaining.min(SEGS_PER_RECORD);
        let rec = next_record(self.record_no, n);
        writer
            .write_dxt(std::slice::from_ref(&rec))
            .expect("in-memory write");
        self.remaining -= n;
        self.record_no += 1;
    }
}

/// One record: every segment identical, so all columns but the
/// per-record segment ordinal compress into runs. Writes and reads
/// split the record into two runs of the `op` column.
fn next_record(r: u64, n: u64) -> DxtRecord {
    let mut rec = DxtRecord::new(
        r % NFILES + 1,
        (r % 64) as i32,
        if r.is_multiple_of(2) {
            DxtLayer::Posix
        } else {
            DxtLayer::MpiIo
        },
        &format!("node{:02}", r % 64 / 8),
    );
    #[allow(clippy::cast_precision_loss)]
    let start = r as f64 * 1e-3;
    let seg = DxtSegment {
        offset: r * 4096 % (1 << 30),
        length: 4096,
        start_time: start,
        end_time: start + 1e-4,
    };
    for i in 0..n {
        rec.push(
            if i * 2 < n {
                OpKind::Write
            } else {
                OpKind::Read
            },
            seg,
        );
    }
    rec
}

impl Read for SyntheticDxt {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.borrow().len() {
            self.pump();
        }
        let buf = self.buf.borrow();
        let n = out.len().min(buf.len() - self.pos);
        out[..n].copy_from_slice(&buf[self.pos..self.pos + n]);
        drop(buf);
        self.pos += n;
        Ok(n)
    }
}

/// Peak resident set size (`VmHWM`) in megabytes.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            std::process::exit(1);
        })
    })
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let segments: u64 = arg_value(&args, "--segments")
        .map(|s| s.parse().expect("--segments takes an integer"))
        .unwrap_or(if quick { 1_000_000 } else { 100_000_000 });
    let rss_budget_mb: u64 = arg_value(&args, "--rss-budget-mb")
        .map(|s| s.parse().expect("--rss-budget-mb takes an integer"))
        .unwrap_or(if quick { 512 } else { 8192 });
    // Record spans and metrics the way an observed run does, so the RSS
    // ceiling covers the span store and registry too.
    ion_obs::enable();

    println!(
        "═══ streaming ingest: {segments} DXT segments, peak-RSS budget {rss_budget_mb} MB ═══\n"
    );

    let t0 = Instant::now();
    let source = SyntheticDxt::new(segments);
    let extracted = extract_stream(source, DEFAULT_CHUNK_ROWS).expect("synthetic trace extracts");
    let extract_s = t0.elapsed().as_secs_f64();
    let extract_peak_mb = peak_rss_mb().expect("VmHWM readable on linux");
    assert_eq!(
        extracted.rows, segments,
        "every segment must land as exactly one DXT row"
    );

    let rows_per_sec = extracted.rows as f64 / extract_s;
    println!(
        "extract   {:>12.1}s  {:>14.0} rows/s  {:>10} bytes read",
        extract_s, rows_per_sec, extracted.bytes_read
    );

    let t1 = Instant::now();
    let pipeline = IonPipeline::new();
    let params = pipeline.params_for(&extracted.skeleton);
    let report = pipeline.run_tables(&extracted.tables, &params);
    let analyze_s = t1.elapsed().as_secs_f64();
    println!(
        "analyze   {:>12.1}s  {:>14} diagnoses",
        analyze_s,
        report.diagnoses.len()
    );

    let peak_mb = peak_rss_mb().expect("VmHWM readable on linux");
    println!(
        "peak RSS  {peak_mb:>12} MB  (extract phase {extract_peak_mb} MB, budget {rss_budget_mb} MB)"
    );

    // Acceptance gates.
    let mut gate_ok = true;
    let mut fail = |msg: String| {
        gate_ok = false;
        eprintln!("FAIL: {msg}");
    };
    if peak_mb > rss_budget_mb {
        fail(format!(
            "peak RSS {peak_mb} MB exceeds the {rss_budget_mb} MB budget"
        ));
    }
    if report.diagnoses.is_empty() {
        fail("analysis produced no diagnoses — the gate measured an empty pipeline".into());
    }
    if !gate_ok {
        std::process::exit(1);
    }
}
