//! ION — I/O Navigator: LLM-based diagnosis of HPC I/O performance issues
//! from Darshan traces.
//!
//! This crate is the paper's primary contribution: a framework that takes a
//! recorded Darshan trace, extracts it into per-module CSV tables, and
//! queries a language model — one prompt per I/O-issue type, constructed
//! from a curated *I/O performance issue context* — to produce per-issue
//! chain-of-thought diagnoses, a global summary, and an interactive Q&A
//! session.
//!
//! ```text
//!  Darshan log ─► Extractor ─► CSV tables ─┐
//!                                          ▼
//!  issue contexts ─► prompts ─► LLM (parallel, one run per issue)
//!                                          │ CoT steps + generated code
//!                                          ▼
//!                        diagnoses ─► summary ─► interactive Q&A
//! ```
//!
//! # Quickstart
//!
//! ```
//! use ion::pipeline::IonPipeline;
//! # use iosim::{Simulation, SimConfig};
//! # let mut sim = Simulation::new(SimConfig::default().with_ranks(2));
//! # let f = sim.posix_open_all("/scratch/data.dat").unwrap();
//! # for r in 0..2 { sim.posix_write(r, f, r as u64 * 2048, 2048).unwrap(); }
//! # sim.posix_close_all(f);
//! # let log = sim.finish();
//! let report = IonPipeline::new().run(&log);
//! println!("{}", report.summary);
//! for d in &report.diagnoses {
//!     println!("{}: {:?}", d.issue, d.detection);
//! }
//! ```
//!
//! The LLM backend is pluggable through [`ion_llm::LanguageModel`]; the
//! default is the deterministic in-context-learning expert, which makes
//! every experiment in this repository reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod compare;
pub mod consistency;
pub mod context;
pub mod pipeline;
pub mod prompt;
pub mod report;
pub mod retrieval;
pub mod session;
pub mod statements;

pub use analyzer::{Analyzer, SystemParams};
pub use consistency::{check as check_consistency, ConsistencyIssue, ConsistencyLevel};
pub use context::{builtin_contexts, IssueContext};
pub use pipeline::{IonPipeline, IonReport};
pub use report::{Detection, Diagnosis, Severity};
pub use session::InteractiveSession;
pub use statements::{ContextStatements, Statement, StatementRevision};
