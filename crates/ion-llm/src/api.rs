//! Assistants-style runtime: threads, messages, runs and tool calls.
//!
//! The OpenAI Assistants API that ION uses has one essential contract: a
//! *run* over a message thread repeatedly asks the model for its next
//! action — either a **tool call** (here: the IQL code interpreter) whose
//! output is appended to the thread, or the **final message**. This module
//! reproduces that loop with a pluggable [`LanguageModel`].

use crate::iql::{parse_program, Interpreter, IqlError};
use extractor::TableSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Who authored a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// System/context message.
    System,
    /// End-user (or pipeline) message.
    User,
    /// Model output.
    Assistant,
    /// Tool result fed back to the model.
    Tool,
}

/// One message in a thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Author role.
    pub role: Role,
    /// Text content.
    pub content: String,
}

impl Message {
    /// Construct a system message.
    #[must_use]
    pub fn system(content: impl Into<String>) -> Self {
        Message {
            role: Role::System,
            content: content.into(),
        }
    }

    /// Construct a user message.
    #[must_use]
    pub fn user(content: impl Into<String>) -> Self {
        Message {
            role: Role::User,
            content: content.into(),
        }
    }

    /// Construct an assistant message.
    #[must_use]
    pub fn assistant(content: impl Into<String>) -> Self {
        Message {
            role: Role::Assistant,
            content: content.into(),
        }
    }
}

/// A conversation thread with attached tables (the Assistants API's file
/// attachments).
#[derive(Debug, Clone, Default)]
pub struct Thread {
    /// Messages in order.
    pub messages: Vec<Message>,
}

impl Thread {
    /// Create an empty thread.
    #[must_use]
    pub fn new() -> Self {
        ion_obs::event!("llm.thread.created");
        Self::default()
    }

    /// Append a message, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, message: Message) -> Self {
        self.messages.push(message);
        self
    }

    /// Append a message in place.
    pub fn push(&mut self, message: Message) {
        self.messages.push(message);
    }
}

/// A tool invocation requested by the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToolCall {
    /// Tool name (currently only `code_interpreter`).
    pub tool: String,
    /// Tool input — for the code interpreter, IQL source.
    pub input: String,
}

/// A tool result returned to the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToolOutput {
    /// The call this answers.
    pub call: ToolCall,
    /// Rendered output (emitted scalars or error text).
    pub output: String,
    /// Whether the tool failed.
    pub is_error: bool,
    /// Rendered execution plan of an `EXPLAIN` program; `None` for every
    /// other call.
    ///
    /// Kept out of [`ToolOutput::output`] on purpose: the thread content
    /// is what the model parses for `name = value` result lines, and plan
    /// text would pollute it. Transcript renderers read this side-channel.
    pub plan: Option<String>,
}

/// The model's next step in a run.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelAction {
    /// Invoke a tool and resume with its output.
    Call(ToolCall),
    /// Finish the run with this assistant message.
    Final(String),
}

/// A language model that can drive a run.
///
/// Implementations must be deterministic functions of the thread content
/// for the reproduction's experiments to be repeatable; the trait itself
/// does not require it.
pub trait LanguageModel: Send + Sync {
    /// Decide the next action given the thread so far (tool outputs appear
    /// as [`Role::Tool`] messages).
    fn step(&self, thread: &Thread) -> ModelAction;

    /// Model identifier recorded in completions (e.g. a model name).
    fn model_id(&self) -> &str {
        "deterministic-expert-v1"
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Final assistant text.
    pub text: String,
    /// Every tool call made during the run, with outputs, in order.
    pub tool_outputs: Vec<ToolOutput>,
    /// Model identifier that produced the completion.
    pub model_id: String,
    /// Number of model steps taken (tool calls + final).
    pub steps: usize,
}

impl Completion {
    /// Render the full run as a human-readable transcript: each tool call
    /// with its program, its `EXPLAIN` plan if it asked for one, and its
    /// output, then the final assistant message.
    #[must_use]
    pub fn render_transcript(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, t) in self.tool_outputs.iter().enumerate() {
            let _ = writeln!(out, "── tool call {} ({})", i + 1, t.call.tool);
            for line in t.call.input.trim_end().lines() {
                let _ = writeln!(out, "  | {line}");
            }
            if let Some(plan) = &t.plan {
                let _ = writeln!(out, "  plan:");
                for line in plan.trim_end().lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
            let _ = writeln!(out, "  {}:", if t.is_error { "error" } else { "output" });
            for line in t.output.trim_end().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        let _ = writeln!(out, "── final ({} steps, {})", self.steps, self.model_id);
        out.push_str(self.text.trim_end());
        out.push('\n');
        out
    }
}

/// Errors from the runtime itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The model exceeded the tool-call budget without finishing.
    Budget {
        /// The configured budget.
        max_steps: usize,
    },
    /// The model requested a tool this runtime does not provide.
    UnknownTool {
        /// Requested tool name.
        tool: String,
    },
    /// The run was cancelled or deadlined between tool-call steps (see
    /// [`Runtime::with_interrupt`]).
    Interrupted(ion_exec::Interrupted),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Budget { max_steps } => {
                write!(f, "model did not finish within {max_steps} steps")
            }
            RuntimeError::UnknownTool { tool } => write!(f, "unknown tool {tool}"),
            RuntimeError::Interrupted(why) => write!(f, "run {why} between tool-call steps"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Executes runs: loops model actions, dispatching code-interpreter calls
/// against the attached tables.
pub struct Runtime<'a> {
    model: &'a dyn LanguageModel,
    tables: &'a TableSet,
    max_steps: usize,
    interrupt: ion_exec::Interrupt,
}

impl fmt::Debug for Runtime<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("model", &self.model.model_id())
            .field("max_steps", &self.max_steps)
            .finish()
    }
}

impl<'a> Runtime<'a> {
    /// Create a runtime over a model and attached tables.
    #[must_use]
    pub fn new(model: &'a dyn LanguageModel, tables: &'a TableSet) -> Self {
        Runtime {
            model,
            tables,
            max_steps: 64,
            interrupt: ion_exec::Interrupt::none(),
        }
    }

    /// Override the tool-call budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps.max(1);
        self
    }

    /// Stop the run cooperatively: the interrupt is polled before every
    /// model step, so a cancelled or deadlined run ends between tool-call
    /// steps (tool calls themselves are never killed mid-flight) with
    /// [`RuntimeError::Interrupted`].
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: ion_exec::Interrupt) -> Self {
        self.interrupt = interrupt;
        self
    }

    /// Execute a run to completion.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Budget`] if the model never produces a final
    /// message, or [`RuntimeError::UnknownTool`] on an unsupported tool.
    pub fn run(&self, mut thread: Thread) -> Result<Completion, RuntimeError> {
        let mut run_span = ion_obs::span!("llm.run");
        run_span.attr("model", self.model.model_id());
        ion_obs::counter("llm.runs", 1);
        ion_obs::event!(
            "llm.run.started",
            model = self.model.model_id(),
            messages = thread.messages.len(),
        );
        // Token accounting (chars/4 heuristic, the usual ballpark for
        // English-plus-code): the model re-reads the whole thread each
        // step, so input tokens accumulate per step; output tokens are
        // what the model itself produced (tool-call programs + the final
        // message). Skipped entirely while the sink is off.
        let instrument = ion_obs::enabled();
        let mut tokens_in = 0u64;
        let mut tokens_out = 0u64;
        let mut thread_total = 0u64;
        let mut counted = 0usize;
        let mut tool_outputs = Vec::new();
        for step in 0..self.max_steps {
            if let Err(why) = self.interrupt.check() {
                ion_obs::event!(
                    "llm.run.failed",
                    reason = match why {
                        ion_exec::Interrupted::Cancelled => "cancelled",
                        ion_exec::Interrupted::Deadlined => "deadlined",
                    },
                    steps = step,
                );
                return Err(RuntimeError::Interrupted(why));
            }
            if instrument {
                // The thread is append-only: count only messages added
                // since the previous step, then charge the whole running
                // total once per step (the model re-reads everything).
                for msg in &thread.messages[counted..] {
                    thread_total += approx_tokens(&msg.content);
                }
                counted = thread.messages.len();
                tokens_in += thread_total;
            }
            match self.model.step(&thread) {
                ModelAction::Final(text) => {
                    run_span.attr("steps", step + 1);
                    if instrument {
                        tokens_out += approx_tokens(&text);
                        run_span.attr("tokens_in", tokens_in);
                        run_span.attr("tokens_out", tokens_out);
                        ion_obs::counter("llm.tokens.in", tokens_in);
                        ion_obs::counter("llm.tokens.out", tokens_out);
                    }
                    ion_obs::event!(
                        "llm.run.completed",
                        model = self.model.model_id(),
                        steps = step + 1,
                        tool_calls = tool_outputs.len(),
                        tokens_in = tokens_in,
                        tokens_out = tokens_out,
                    );
                    return Ok(Completion {
                        text,
                        tool_outputs,
                        model_id: self.model.model_id().to_owned(),
                        steps: step + 1,
                    });
                }
                ModelAction::Call(call) => {
                    if call.tool != "code_interpreter" {
                        ion_obs::event!("llm.run.failed", reason = "unknown tool");
                        return Err(RuntimeError::UnknownTool { tool: call.tool });
                    }
                    if instrument {
                        tokens_out += approx_tokens(&call.input);
                    }
                    ion_obs::counter("llm.tool_calls", 1);
                    let _tool_span = ion_obs::span!("llm.tool_call");
                    let output = execute_code(&call.input, self.tables);
                    let (text, plan, is_error) = match output {
                        Ok((t, plan)) => (t, plan, false),
                        Err(e) => (format!("ERROR: {e}"), None, true),
                    };
                    ion_obs::event!("llm.tool_call", tool = call.tool.as_str(), error = is_error,);
                    thread.push(Message {
                        role: Role::Tool,
                        content: text.clone(),
                    });
                    tool_outputs.push(ToolOutput {
                        call,
                        output: text,
                        is_error,
                        plan,
                    });
                }
            }
        }
        ion_obs::event!("llm.run.failed", reason = "step budget exceeded");
        Err(RuntimeError::Budget {
            max_steps: self.max_steps,
        })
    }
}

/// Rough token count for a piece of thread text (chars/4, rounded up).
fn approx_tokens(text: &str) -> u64 {
    (text.len() as u64).div_ceil(4)
}

/// Execute one IQL program against the tables, rendering emitted scalars
/// as `name = value` lines (what the model "sees" from the interpreter).
///
/// An `EXPLAIN`-prefixed program is planned but not executed: the thread
/// sees the one-line plan summary (safe against result-line parsing) and
/// the full rendering rides the [`ToolOutput::plan`] side-channel. Any
/// other program runs as written and carries no plan: its plan is the
/// program itself.
fn execute_code(src: &str, tables: &TableSet) -> Result<(String, Option<String>), IqlError> {
    let program = parse_program(src)?;
    let interp = Interpreter::new(tables);
    if program.explain {
        let plan = interp.plan(&program);
        let summary = plan.summary();
        ion_obs::event!("iql.plan", summary = summary.as_str(), explain = true);
        return Ok((format!("{summary}\n"), Some(plan.render())));
    }
    let out = interp.run(&program)?;
    let mut text = String::new();
    for (name, value) in &out.emitted {
        text.push_str(name);
        text.push_str(" = ");
        text.push_str(&value.to_string());
        text.push('\n');
    }
    if let Some(t) = &out.table {
        if out.emitted.is_empty() {
            // No scalars: show the (truncated) result table instead.
            text.push_str(&render_table_preview(t, 10));
        }
    }
    if text.is_empty() {
        text.push_str("(no output)\n");
    }
    Ok((text, None))
}

fn render_table_preview(t: &extractor::Table, max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(&t.column_names().join(","));
    out.push('\n');
    for row in t.iter_rows().take(max_rows) {
        let cells: Vec<String> = row.values().map(|v| v.to_string()).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    if t.len() > max_rows {
        out.push_str(&format!("... ({} more rows)\n", t.len() - max_rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractor::{Table, Value};

    struct ScriptedModel {
        program: String,
    }

    impl LanguageModel for ScriptedModel {
        fn step(&self, thread: &Thread) -> ModelAction {
            // Call the interpreter once, then summarize its output.
            let has_tool_result = thread.messages.iter().any(|m| m.role == Role::Tool);
            if has_tool_result {
                let result = thread
                    .messages
                    .iter()
                    .rev()
                    .find(|m| m.role == Role::Tool)
                    .unwrap();
                ModelAction::Final(format!("analysis complete: {}", result.content.trim()))
            } else {
                ModelAction::Call(ToolCall {
                    tool: "code_interpreter".into(),
                    input: self.program.clone(),
                })
            }
        }
    }

    fn tables() -> TableSet {
        let mut t = Table::new("DXT", &["rank", "length"]);
        t.push_row(vec![Value::Int(0), Value::Int(100)]);
        t.push_row(vec![Value::Int(1), Value::Int(300)]);
        let mut s = TableSet::default();
        s.insert(t);
        s
    }

    #[test]
    fn run_loops_tool_then_final() {
        let model = ScriptedModel {
            program: "LOAD DXT\nAGG total = sum(length)\nEMIT total\n".into(),
        };
        let tables = tables();
        let completion = Runtime::new(&model, &tables).run(Thread::new()).unwrap();
        assert_eq!(completion.steps, 2);
        assert_eq!(completion.tool_outputs.len(), 1);
        assert!(!completion.tool_outputs[0].is_error);
        assert!(completion.text.contains("total = 400"));
    }

    #[test]
    fn interpreter_errors_surface_as_tool_errors() {
        let model = ScriptedModel {
            program: "LOAD NOPE\n".into(),
        };
        let tables = tables();
        let completion = Runtime::new(&model, &tables).run(Thread::new()).unwrap();
        assert!(completion.tool_outputs[0].is_error);
        assert!(completion.tool_outputs[0]
            .output
            .contains("no attached table"));
    }

    #[test]
    fn budget_exceeded_is_error() {
        struct LoopForever;
        impl LanguageModel for LoopForever {
            fn step(&self, _thread: &Thread) -> ModelAction {
                ModelAction::Call(ToolCall {
                    tool: "code_interpreter".into(),
                    input: "LOAD DXT\n".into(),
                })
            }
        }
        let tables = tables();
        let err = Runtime::new(&LoopForever, &tables)
            .with_max_steps(3)
            .run(Thread::new())
            .unwrap_err();
        assert_eq!(err, RuntimeError::Budget { max_steps: 3 });
    }

    #[test]
    fn deadlined_run_stops_between_steps() {
        let model = ScriptedModel {
            program: "LOAD DXT\nAGG total = sum(length)\nEMIT total\n".into(),
        };
        let tables = tables();
        let expired = ion_exec::Interrupt::none()
            .with_deadline_at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = Runtime::new(&model, &tables)
            .with_interrupt(expired)
            .run(Thread::new())
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Interrupted(ion_exec::Interrupted::Deadlined)
        );
        assert!(err.to_string().contains("deadlined between tool-call"));
    }

    #[test]
    fn cancelled_run_stops_between_steps() {
        let model = ScriptedModel {
            program: "LOAD DXT\nAGG total = sum(length)\nEMIT total\n".into(),
        };
        let tables = tables();
        let token = ion_exec::CancelToken::new();
        // An unfired token leaves the run untouched …
        let runtime = Runtime::new(&model, &tables)
            .with_interrupt(ion_exec::Interrupt::none().with_cancel(token.clone()));
        assert!(runtime.run(Thread::new()).is_ok());
        // … and a fired one stops it before the next model step.
        token.cancel();
        let err = runtime.run(Thread::new()).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Interrupted(ion_exec::Interrupted::Cancelled)
        );
    }

    #[test]
    fn unknown_tool_rejected() {
        struct BadTool;
        impl LanguageModel for BadTool {
            fn step(&self, _thread: &Thread) -> ModelAction {
                ModelAction::Call(ToolCall {
                    tool: "web_search".into(),
                    input: String::new(),
                })
            }
        }
        let tables = tables();
        let err = Runtime::new(&BadTool, &tables)
            .run(Thread::new())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownTool { .. }));
    }

    #[test]
    fn table_preview_rendered_when_no_scalars() {
        let (out, plan) = execute_code("LOAD DXT\nSORT length DESC\n", &tables()).unwrap();
        assert!(out.starts_with("rank,length"));
        assert!(out.contains("1,300"));
        assert_eq!(plan, None, "only EXPLAIN programs carry a plan");
    }

    #[test]
    fn explain_programs_plan_without_executing() {
        let (out, plan) = execute_code(
            "EXPLAIN\nLOAD DXT\nSORT length DESC\nFILTER rank == 0\n",
            &tables(),
        )
        .unwrap();
        let plan = plan.unwrap();
        // Thread text is the compact summary; the full rendering (with
        // per-op schemas) stays on the side-channel.
        assert_eq!(out, "scan DXT → sort → filter\n");
        assert!(plan.contains("cols=["), "full plan: {plan}");
        assert!(!plan.contains("optimizer:"), "full plan: {plan}");
    }

    #[test]
    fn transcript_prints_the_plan_only_for_explain_calls() {
        let tables = tables();
        for (program, explain) in [
            ("LOAD DXT\nAGG total = sum(length)\nEMIT total\n", false),
            (
                "EXPLAIN\nLOAD DXT\nAGG total = sum(length)\nEMIT total\n",
                true,
            ),
        ] {
            let model = ScriptedModel {
                program: program.into(),
            };
            let completion = Runtime::new(&model, &tables).run(Thread::new()).unwrap();
            let transcript = completion.render_transcript();
            assert!(transcript.contains("tool call 1"));
            assert!(transcript.contains("  | LOAD DXT"));
            assert_eq!(completion.tool_outputs[0].plan.is_some(), explain);
            assert_eq!(transcript.contains("plan:"), explain, "{transcript}");
            // The plan never leaks into the model-visible tool message.
            assert!(!completion.tool_outputs[0].output.contains("plan:"));
            if !explain {
                assert!(transcript.contains("total = 400"));
            }
        }
    }

    #[test]
    fn thread_builders() {
        let t = Thread::new()
            .with(Message::system("ctx"))
            .with(Message::user("question"));
        assert_eq!(t.messages.len(), 2);
        assert_eq!(t.messages[0].role, Role::System);
    }
}
