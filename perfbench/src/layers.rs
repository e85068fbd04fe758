//! The layer ledger: each crate's public calls composed and timed from
//! the outside, the way `IonPipeline::run_bytes` composes them inside.
//!
//! Nothing here reaches into the program: a delegating
//! [`LanguageModel`] times the model's steps, IQL is timed by replaying
//! each recorded tool call through `parse_program`, `Interpreter::plan`
//! and `Interpreter::run`, and every other layer is one timed call.

use crate::stats::{median, timed, Outcome};
use darshan::log::{Log, LogReader};
use extractor::{extract_tables, TableSet};
use ion::analyzer::{applicable_contexts, Analyzer};
use ion::context::builtin_contexts;
use ion::pipeline::{IonPipeline, IonReport};
use ion::prompt::build_issue_prompt;
use ion::report::Diagnosis;
use ion_llm::iql::{parse_program, Interpreter, RunOutput};
use ion_llm::{
    DeterministicExpert, LanguageModel, Message, ModelAction, Runtime, Thread, ToolOutput,
};
use std::sync::Mutex;
use std::time::Instant;

/// Model steps seen by a [`TimingModel`] since the last `take`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepTally {
    pub step_ns: u64,
    pub steps: u64,
    pub tool_calls: u64,
}

/// The deterministic expert behind a wrapper that times every `step`.
/// It reports the inner model's id, so store and dedup keys are the
/// ones the unwrapped model would use.
#[derive(Debug, Default)]
pub struct TimingModel {
    inner: DeterministicExpert,
    tally: Mutex<StepTally>,
}

impl TimingModel {
    pub fn take(&self) -> StepTally {
        std::mem::take(&mut *self.tally.lock().expect("tally lock"))
    }
}

impl LanguageModel for TimingModel {
    fn step(&self, thread: &Thread) -> ModelAction {
        let start = Instant::now();
        let action = self.inner.step(thread);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut tally = self.tally.lock().expect("tally lock");
        tally.step_ns += ns;
        tally.steps += 1;
        if matches!(action, ModelAction::Call(_)) {
            tally.tool_calls += 1;
        }
        action
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }
}

/// One trace through the composed layer calls.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub bytes: f64,
    pub decode_ms: f64,
    pub extract_ms: f64,
    pub analyze_ms: f64,
    pub teardown_ms: f64,
    /// Decode through teardown, as one wall-clock interval.
    pub composed_ms: f64,
    pub records: f64,
    pub rows: f64,
    pub dxt_rows: f64,
    pub step_ms: f64,
    pub steps: f64,
    pub tool_calls: f64,
    pub applicable: f64,
    pub width: f64,
}

impl Ledger {
    /// Field-wise median of repeated ledgers of one trace.
    pub fn median_of(ledgers: &[Ledger]) -> Ledger {
        let m = |f: fn(&Ledger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
        Ledger {
            bytes: m(|l| l.bytes),
            decode_ms: m(|l| l.decode_ms),
            extract_ms: m(|l| l.extract_ms),
            analyze_ms: m(|l| l.analyze_ms),
            teardown_ms: m(|l| l.teardown_ms),
            composed_ms: m(|l| l.composed_ms),
            records: m(|l| l.records),
            rows: m(|l| l.rows),
            dxt_rows: m(|l| l.dxt_rows),
            step_ms: m(|l| l.step_ms),
            steps: m(|l| l.steps),
            tool_calls: m(|l| l.tool_calls),
            applicable: m(|l| l.applicable),
            width: m(|l| l.width),
        }
    }

    /// Time the layers `run_bytes` runs: decode, extract, analyze.
    pub fn layer_sum_ms(&self) -> f64 {
        self.decode_ms + self.extract_ms + self.analyze_ms
    }
}

fn records(log: &Log) -> usize {
    log.posix.len()
        + log.mpiio.len()
        + log.stdio.len()
        + log.lustre.len()
        + log.dxt.len()
        + log.heatmap.len()
}

fn rows(tables: &TableSet) -> (usize, usize) {
    let all = tables.iter().map(|(_, t)| t.len()).sum();
    let dxt = tables.get("DXT").map_or(0, extractor::Table::len);
    (all, dxt)
}

/// Analyze `bytes` through the composed public calls of `darshan`,
/// `extractor` and `ion` (the same steps as `IonPipeline::run_bytes`,
/// with the same worker width), returning the ledger and the report.
pub fn composed(bytes: &[u8], model: &TimingModel) -> (Ledger, String) {
    model.take();
    let start = Instant::now();
    let (log, decode_ms) = timed(|| LogReader::read(bytes).expect("generated traces decode"));
    let (tables, extract_ms) = timed(|| extract_tables(&log));
    let pipeline = IonPipeline::new();
    let params = pipeline.params_for(&log);
    let analyzer = Analyzer::with_model(model).with_exec(ion_exec::Batch::new());
    let (applicable, _) = applicable_contexts(analyzer.contexts(), &tables);
    let applicable = applicable.len();
    let width = ion_exec::Batch::new().effective_width(applicable);
    let (result, analyze_ms) = timed(|| analyzer.analyze(&tables, &params));
    let (records, (rows, dxt_rows)) = (records(&log), rows(&tables));
    let ((), teardown_ms) = timed(|| {
        drop(tables);
        drop(log);
    });
    let composed_ms = crate::stats::ms(start.elapsed());
    let steps = model.take();
    let report = IonReport {
        diagnoses: result.diagnoses,
        summary: result.summary,
        skipped: result.skipped,
        params: Some(params),
    };
    let ledger = Ledger {
        bytes: bytes.len() as f64,
        decode_ms,
        extract_ms,
        analyze_ms,
        teardown_ms,
        composed_ms,
        records: records as f64,
        rows: rows as f64,
        dxt_rows: dxt_rows as f64,
        step_ms: steps.step_ns as f64 / 1e6,
        steps: steps.steps as f64,
        tool_calls: steps.tool_calls as f64,
        applicable: applicable as f64,
        width: width as f64,
    };
    (ledger, report.render_text())
}

/// Per-issue and IQL costs of one trace, measured one issue at a time.
#[derive(Debug, Default, Clone)]
pub struct IssueProfile {
    pub issue_ms: Vec<f64>,
    /// Prompt building and completion parsing, timed directly.
    pub other_ms: f64,
    pub summarize_ms: f64,
    pub parse_ms: f64,
    pub plan_ms: f64,
    pub exec_ms: f64,
    pub exec_max_ms: f64,
}

impl IssueProfile {
    pub fn issue_sum_ms(&self) -> f64 {
        self.issue_ms.iter().sum()
    }
}

/// `Analyzer::analyze_issue` per applicable issue, then `summarize`.
/// Then each issue runs again as its parts: `build_issue_prompt`, the
/// model run, `Diagnosis::parse`, and every recorded tool call replayed
/// through IQL. A replayed output that differs from the recorded
/// `ToolOutput.output` is a mismatch.
pub fn issue_profile(bytes: &[u8], model: &TimingModel, out: &mut Outcome) -> IssueProfile {
    let log = LogReader::read(bytes).expect("generated traces decode");
    let tables = extract_tables(&log);
    let params = IonPipeline::new().params_for(&log);
    let contexts = builtin_contexts();
    let (applicable, _) = applicable_contexts(&contexts, &tables);
    let analyzer = Analyzer::with_model(model).sequential();
    let mut profile = IssueProfile::default();

    let mut diagnoses = Vec::new();
    for context in &applicable {
        let (d, took) = timed(|| analyzer.analyze_issue(context, &tables, &params));
        profile.issue_ms.push(took);
        diagnoses.push(d);
    }
    profile.summarize_ms = timed(|| analyzer.summarize(&diagnoses, &tables)).1;

    for context in &applicable {
        let (prompt, prompt_ms) = timed(|| build_issue_prompt(context, &tables, &params));
        let completion = Runtime::new(model, &tables)
            .run(Thread::new().with(Message::user(prompt)))
            .expect("the expert finishes within its step budget");
        profile.other_ms += prompt_ms + timed(|| Diagnosis::parse(&completion.text)).1;
        for call in &completion.tool_outputs {
            replay(call, &tables, &mut profile, out);
        }
    }
    model.take();
    profile
}

fn replay(recorded: &ToolOutput, tables: &TableSet, profile: &mut IssueProfile, out: &mut Outcome) {
    let (program, parse_ms) = timed(|| parse_program(&recorded.call.input));
    profile.parse_ms += parse_ms;
    let text = match program {
        Err(e) => format!("ERROR: {e}"),
        Ok(program) => {
            let interp = Interpreter::new(tables);
            let (plan, plan_ms) = timed(|| interp.plan(&program));
            profile.plan_ms += plan_ms;
            if program.explain {
                format!("{}\n", plan.summary())
            } else {
                let (result, exec_ms) = timed(|| interp.run(&program));
                profile.exec_ms += exec_ms;
                profile.exec_max_ms = profile.exec_max_ms.max(exec_ms);
                match result {
                    Ok(run) => render_output(&run),
                    Err(e) => format!("ERROR: {e}"),
                }
            }
        }
    };
    if text != recorded.output {
        out.mismatch(format!(
            "IQL replay differs from the recorded tool output for `{}`",
            recorded.call.input.lines().next().unwrap_or_default()
        ));
    }
}

/// A run's tool-output text, as the code-interpreter tool renders it:
/// emitted scalars, else a ten-row preview of the result table.
fn render_output(run: &RunOutput) -> String {
    let mut text = String::new();
    for (name, value) in &run.emitted {
        text.push_str(&format!("{name} = {value}\n"));
    }
    if let (Some(t), true) = (&run.table, run.emitted.is_empty()) {
        text.push_str(&t.column_names().join(","));
        text.push('\n');
        for row in t.iter_rows().take(10) {
            let cells: Vec<String> = row.values().map(|v| v.to_string()).collect();
            text.push_str(&cells.join(","));
            text.push('\n');
        }
        if t.len() > 10 {
            text.push_str(&format!("... ({} more rows)\n", t.len() - 10));
        }
    }
    if text.is_empty() {
        text.push_str("(no output)\n");
    }
    text
}

/// The layer profile of a trace set: one representative ledger, the
/// `run_bytes` wall time and the issue profile per trace.
#[derive(Debug, Default)]
pub struct Profile {
    pub ledgers: Vec<Ledger>,
    pub run_bytes_ms: Vec<f64>,
    pub issues: Vec<IssueProfile>,
}

impl Profile {
    /// Profile every trace once, checking the composed report against
    /// `IonPipeline::run_bytes` on the same bytes.
    pub fn of(traces: &[&[u8]], model: &TimingModel, out: &mut Outcome) -> Profile {
        let pipeline = IonPipeline::new();
        let mut profile = Profile::default();
        for bytes in traces {
            let (report, run_ms) = timed(|| pipeline.run_bytes(bytes).expect("decodes"));
            let (ledger, text) = composed(bytes, model);
            out.check_op(text == report.render_text(), || {
                "composed layer calls disagree with IonPipeline::run_bytes".to_owned()
            });
            profile.run_bytes_ms.push(run_ms);
            profile.ledgers.push(ledger);
            profile.issues.push(issue_profile(bytes, model, out));
        }
        profile
    }

    /// Per-layer metrics, each per report (averaged over the trace set)
    /// unless its name says otherwise, plus the printed ledger.
    pub fn emit(&self, out: &mut Outcome) {
        let n = self.ledgers.len().max(1) as f64;
        let sum = |f: fn(&Ledger) -> f64| self.ledgers.iter().map(f).sum::<f64>();
        let per = |f: fn(&Ledger) -> f64| sum(f) / n;
        let isum = |f: fn(&IssueProfile) -> f64| self.issues.iter().map(f).sum::<f64>();
        let run_bytes_ms: f64 = self.run_bytes_ms.iter().sum();

        out.metric("darshan.decode_ms", per(|l| l.decode_ms), "ms");
        out.metric(
            "darshan.decode_mb_per_s",
            sum(|l| l.bytes) / 1e6 / (sum(|l| l.decode_ms) / 1e3),
            "MB/s",
        );
        out.metric("darshan.records", per(|l| l.records), "count");
        out.metric("extractor.extract_ms", per(|l| l.extract_ms), "ms");
        out.metric("extractor.rows", per(|l| l.rows), "count");
        out.metric("extractor.dxt_rows", per(|l| l.dxt_rows), "count");
        out.metric(
            "extractor.rows_per_s",
            sum(|l| l.rows) / (sum(|l| l.extract_ms) / 1e3),
            "1/s",
        );
        out.metric("extractor.teardown_ms", per(|l| l.teardown_ms), "ms");
        out.metric("llm.model_step_ms", per(|l| l.step_ms), "ms");
        out.metric("llm.steps", per(|l| l.steps), "count");
        out.metric("llm.tool_calls", per(|l| l.tool_calls), "count");
        out.metric("iql.parse_ms", isum(|p| p.parse_ms) / n, "ms");
        out.metric("iql.plan_ms", isum(|p| p.plan_ms) / n, "ms");
        out.metric("iql.exec_ms", isum(|p| p.exec_ms) / n, "ms");
        out.metric(
            "iql.exec_max_ms",
            self.issues
                .iter()
                .map(|p| p.exec_max_ms)
                .fold(0.0, f64::max),
            "ms",
        );
        out.metric(
            "ion.issue_ms_sum",
            isum(IssueProfile::issue_sum_ms) / n,
            "ms",
        );
        out.metric(
            "ion.issue_max_ms",
            isum(|p| p.issue_ms.iter().copied().fold(0.0, f64::max)) / n,
            "ms",
        );
        out.metric("ion.issue_other_ms", isum(|p| p.other_ms) / n, "ms");
        out.metric("ion.summarize_ms", isum(|p| p.summarize_ms) / n, "ms");
        out.metric("ion.issues_applicable", per(|l| l.applicable), "count");
        out.metric("exec.analyze_ms", per(|l| l.analyze_ms), "ms");
        out.metric(
            "exec.parallel_eff",
            isum(IssueProfile::issue_sum_ms) / sum(|l| l.width * l.analyze_ms),
            "ratio",
        );
        out.metric("pipeline.run_bytes_ms", run_bytes_ms / n, "ms");
        out.metric(
            "pipeline.unattributed_frac",
            1.0 - sum(Ledger::layer_sum_ms) / run_bytes_ms,
            "ratio",
        );

        println!(
            "layer ledger (per report, {} trace(s)):",
            self.ledgers.len()
        );
        for (layer, value) in [
            ("darshan   LogReader::read", per(|l| l.decode_ms)),
            ("extractor extract_tables", per(|l| l.extract_ms)),
            ("exec+ion  Analyzer::analyze", per(|l| l.analyze_ms)),
            ("  llm     model steps (summed)", per(|l| l.step_ms)),
            (
                "  iql     replayed (one at a time)",
                isum(|p| p.parse_ms + p.plan_ms + p.exec_ms) / n,
            ),
            ("layer sum", per(Ledger::layer_sum_ms)),
            ("extractor teardown (drop)", per(|l| l.teardown_ms)),
            ("IonPipeline::run_bytes wall", run_bytes_ms / n),
        ] {
            println!("  {layer:<30} {value:>10.2} ms");
        }
        println!(
            "  unattributed {:.1}% of run_bytes wall ({:.2} ms), teardown {:.2} ms",
            100.0 * (1.0 - sum(Ledger::layer_sum_ms) / run_bytes_ms),
            (run_bytes_ms - sum(Ledger::layer_sum_ms)) / n,
            per(|l| l.teardown_ms),
        );
    }
}
