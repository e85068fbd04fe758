//! End-to-end pipeline: Darshan log bytes → diagnoses + summary + Q&A.

use crate::analyzer::{AnalysisResult, Analyzer, SystemParams};
use crate::report::Diagnosis;
use crate::session::InteractiveSession;
use darshan::log::{Log, LogReader};
use darshan::DarshanError;
use extractor::{extract_tables, TableSet};

/// The full ION report for one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IonReport {
    /// Per-issue diagnoses.
    pub diagnoses: Vec<Diagnosis>,
    /// Global summary.
    pub summary: String,
    /// Issues skipped for lack of module data.
    pub skipped: Vec<String>,
    /// System parameters used during analysis.
    pub params: Option<SystemParams>,
}

impl IonReport {
    /// Diagnosis for one issue, if analyzed.
    #[must_use]
    pub fn diagnosis(&self, issue: &str) -> Option<&Diagnosis> {
        self.diagnoses.iter().find(|d| d.issue == issue)
    }

    /// Issues that were detected (including mitigated), most severe first.
    #[must_use]
    pub fn detected(&self) -> Vec<&Diagnosis> {
        let mut v: Vec<&Diagnosis> = self.diagnoses.iter().filter(|d| d.is_detected()).collect();
        v.sort_by_key(|d| std::cmp::Reverse(d.severity));
        v
    }

    /// Start an interactive Q&A session over this report.
    #[must_use]
    pub fn session(&self) -> InteractiveSession {
        InteractiveSession::new(&self.diagnoses, &self.summary)
    }

    /// Run the cross-diagnosis consistency checker over this report.
    #[must_use]
    pub fn consistency(&self) -> Vec<crate::consistency::ConsistencyIssue> {
        crate::consistency::check(&self.diagnoses)
    }

    /// Render the report as human-readable text (the paper's front-end
    /// modals, flattened).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.summary);
        out.push('\n');
        for d in &self.diagnoses {
            out.push_str("════════════════════════════════════════\n");
            out.push_str(&d.raw);
            if !d.context_revision.is_empty() {
                let short = &d.context_revision[..d.context_revision.len().min(12)];
                out.push_str(&format!("(context revision {short})\n"));
            }
        }
        if !self.skipped.is_empty() {
            out.push_str(&format!(
                "(skipped for lack of module data: {})\n",
                self.skipped.join(", ")
            ));
        }
        out
    }
}

/// The end-to-end ION pipeline (Figure 1): Extractor then Analyzer.
#[derive(Debug, Default)]
pub struct IonPipeline {
    retrieval_k: Option<usize>,
    contexts_override: Option<Vec<crate::context::IssueContext>>,
    exec: ion_exec::Batch,
}

impl IonPipeline {
    /// Pipeline with parameters derived from each log.
    #[must_use]
    pub fn new() -> Self {
        IonPipeline {
            retrieval_k: None,
            contexts_override: None,
            exec: ion_exec::Batch::new(),
        }
    }

    /// Replace the execution policy (worker width, deadline, cancellation)
    /// the analyzer dispatches per-issue analyses under.
    #[must_use]
    pub fn with_exec(mut self, exec: ion_exec::Batch) -> Self {
        self.exec = exec;
        self
    }

    /// Enable retrieval-based context selection: analyze only the `k`
    /// contexts most relevant to the trace (the paper's RAG direction).
    #[must_use]
    pub fn with_retrieval(mut self, k: usize) -> Self {
        self.retrieval_k = Some(k.max(1));
        self
    }

    /// Analyze with these issue contexts instead of the builtin library —
    /// how edited or user-authored knowledge enters the pipeline.
    /// Retrieval selection, when configured, applies on top.
    #[must_use]
    pub fn with_contexts(mut self, contexts: Vec<crate::context::IssueContext>) -> Self {
        self.contexts_override = Some(contexts);
        self
    }

    /// Run on an in-memory log.
    #[must_use]
    pub fn run(&self, log: &Log) -> IonReport {
        let _pipeline_span = ion_obs::span!("pipeline");
        self.run_log(log)
    }

    /// Run on serialized log bytes.
    ///
    /// # Errors
    ///
    /// Returns the decoding error if the bytes are not a valid log.
    pub fn run_bytes(&self, bytes: &[u8]) -> Result<IonReport, DarshanError> {
        // One pipeline span covers decode through summarization, so the
        // reader's decode span lands inside it.
        let _pipeline_span = ion_obs::span!("pipeline");
        let log = LogReader::read(bytes)?;
        Ok(self.run_log(&log))
    }

    fn run_log(&self, log: &Log) -> IonReport {
        let tables = extract_tables(log);
        let params = self.params_for(log);
        self.run_tables(&tables, &params)
    }

    /// The system parameters this pipeline would analyze `log` with,
    /// derived from the log.
    #[must_use]
    pub fn params_for(&self, log: &Log) -> SystemParams {
        SystemParams::from_log(log)
    }

    /// Whether retrieval-based context selection is configured.
    /// Incremental drivers that avoid materializing tables on warm paths
    /// must load them before selecting contexts when this is set
    /// (retrieval scores contexts against table *contents*).
    #[must_use]
    pub fn retrieval_enabled(&self) -> bool {
        self.retrieval_k.is_some()
    }

    /// Whether this pipeline analyzes with the builtin context library
    /// (no [`IonPipeline::with_contexts`] override). Builtin contexts
    /// are compiled into the binary, so incremental drivers may treat
    /// them as high-durability inputs: their revisions cannot change
    /// within a process, and revalidation can skip re-hashing them.
    #[must_use]
    pub fn uses_builtin_contexts(&self) -> bool {
        self.contexts_override.is_none()
    }

    /// The issue contexts this pipeline would analyze `tables` with,
    /// applying retrieval-based selection when configured.
    #[must_use]
    pub fn contexts_for(&self, tables: &TableSet) -> Vec<crate::context::IssueContext> {
        let contexts = self
            .contexts_override
            .clone()
            .unwrap_or_else(crate::context::builtin_contexts);
        match self.retrieval_k {
            Some(k) => crate::retrieval::select_contexts(contexts, tables, k),
            None => contexts,
        }
    }

    /// Run on already-extracted tables.
    #[must_use]
    pub fn run_tables(&self, tables: &TableSet, params: &SystemParams) -> IonReport {
        let mut analyzer = Analyzer::new().with_exec(self.exec.clone());
        if self.retrieval_k.is_some() || self.contexts_override.is_some() {
            analyzer = analyzer.with_contexts(self.contexts_for(tables));
        }
        let AnalysisResult {
            diagnoses,
            summary,
            skipped,
            failed,
        } = analyzer.analyze(tables, params);
        let report = IonReport {
            diagnoses,
            summary,
            skipped,
            params: Some(*params),
        };
        ion_obs::event!(
            "pipeline.completed",
            diagnoses = report.diagnoses.len(),
            detected = report.detected().len(),
            skipped = report.skipped.len(),
            failed = failed.len(),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim::{SimConfig, Simulation};

    fn misaligned_log() -> Log {
        let mut sim = Simulation::new(SimConfig::default().with_ranks(2).with_exe("e2e"));
        let f = sim.posix_open_all("/scratch/out.nc4").unwrap();
        for i in 0..64u64 {
            for rank in 0..2u32 {
                // Offsets deliberately not stripe-aligned.
                let base = u64::from(rank) * (32 << 20);
                sim.posix_write(rank, f, base + i * 4096 + 17, 4096)
                    .unwrap();
            }
        }
        sim.posix_close_all(f);
        sim.finish()
    }

    #[test]
    fn end_to_end_from_log() {
        let log = misaligned_log();
        let report = IonPipeline::new().run(&log);
        assert!(!report.diagnoses.is_empty());
        let mis = report.diagnosis("misaligned-io").unwrap();
        assert!(mis.is_detected(), "{}", mis.raw);
        assert!(report.summary.contains("GLOBAL DIAGNOSIS SUMMARY"));
    }

    #[test]
    fn end_to_end_from_bytes() {
        let log = misaligned_log();
        let mut w = darshan::log::LogWriter::from_log(log);
        let bytes = w.finish().unwrap();
        let report = IonPipeline::new().run_bytes(&bytes).unwrap();
        assert!(report.diagnosis("misaligned-io").unwrap().is_detected());
    }

    #[test]
    fn bad_bytes_surface_decode_error() {
        assert!(IonPipeline::new().run_bytes(&[0u8; 32]).is_err());
    }

    #[test]
    fn detected_sorted_by_severity() {
        let log = misaligned_log();
        let report = IonPipeline::new().run(&log);
        let det = report.detected();
        for w in det.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
    }

    #[test]
    fn session_built_from_report() {
        let log = misaligned_log();
        let report = IonPipeline::new().run(&log);
        let mut session = report.session();
        let answer = session.ask("why did you flag misaligned io?");
        assert!(!answer.is_empty());
    }

    #[test]
    fn render_text_contains_summary_and_diagnoses() {
        let log = misaligned_log();
        let report = IonPipeline::new().run(&log);
        let text = report.render_text();
        assert!(text.contains("GLOBAL DIAGNOSIS SUMMARY"));
        assert!(text.contains("ISSUE: misaligned-io"));
    }
}
