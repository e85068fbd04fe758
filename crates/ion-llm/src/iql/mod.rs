//! IQL — the I/O Query Language the simulated model writes analysis in.
//!
//! IQL is a small, line-oriented query language over the extractor's
//! tables. A program is a pipeline of statements:
//!
//! ```text
//! LOAD POSIX
//! FILTER rank >= 0 && POSIX_WRITES > 0
//! DERIVE small = POSIX_SIZE_WRITE_0_100 + POSIX_SIZE_WRITE_100_1K
//! AGG total_writes = sum(POSIX_WRITES), small_writes = sum(small)
//! LET small_pct = 100 * small_writes / max(total_writes, 1)
//! EMIT small_pct
//! ```
//!
//! * `LOAD <table>` — start from one of the attached tables.
//! * `FILTER <expr>` — keep rows whose expression is truthy.
//! * `DERIVE <name> = <expr>` — append a computed column.
//! * `JOIN <table> ON <col>` — inner hash join with another attached
//!   table (left columns win on name collision).
//! * `GROUP <col>[, <col>…] AGG <name> = <agg>(…)` — group-by aggregate.
//! * `AGG <name> = <agg>(…)` — whole-table aggregates into scalars.
//! * `SORT <col> [ASC|DESC]`, `LIMIT <n>`, `SELECT <col>, …` — shaping.
//! * `LET <name> = <expr>` — scalar computation over previous scalars.
//! * `EMIT <name>[, <name>…]` — declare program outputs.
//!
//! Aggregate functions: `sum`, `count`, `mean`, `min`, `max`, `std`,
//! `distinct`, `pct(col, p)` (percentile). Scalar functions: `abs`, `min`,
//! `max`, `sqrt`, `floor`, `ceil`, `round`, `if(cond, a, b)`,
//! `contains(haystack, needle)`.
//!
//! A program may start with `EXPLAIN`, which asks the engine to render
//! its execution plan — each statement with the columns live after it —
//! instead of running the pipeline.
//!
//! Execution is resolved and vectorized: a program's statements are
//! resolved once against the attached tables into a [`Plan`] (`plan`
//! module) that records, per statement, the columns live after it and
//! the slots it reads, or the error it raises. A columnar executor runs
//! the statements in the order they were written, each expression through
//! one typed kernel or, where that could error or meets nulls, row at a
//! time. The original tree-walking interpreter survives behind the
//! `legacy-eval` feature purely as the oracle for differential tests.

mod ast;
mod eval;
mod exec;
#[cfg(feature = "legacy-eval")]
pub mod legacy;
mod lexer;
mod parser;
mod plan;
mod value_ops;

pub use ast::{AggCall, BinaryOp, Expr, Program, Stmt, UnaryOp};
pub use eval::{Interpreter, RunOutput};
pub use lexer::{tokenize, Token};
pub use parser::{parse_expression, parse_program};
pub use plan::Plan;
pub use value_ops::eval_with_scalars;

use std::fmt;

/// Errors from parsing or evaluating IQL.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IqlError {
    /// Lexical error: unexpected character.
    BadChar {
        /// Offending character.
        ch: char,
        /// Line (1-based).
        line: usize,
    },
    /// Unterminated string literal.
    UnterminatedString {
        /// Line (1-based).
        line: usize,
    },
    /// Parse error with context.
    Parse {
        /// Human-readable message.
        message: String,
        /// Line (1-based).
        line: usize,
    },
    /// A statement referenced a table that is not attached.
    NoSuchTable {
        /// Requested table name.
        table: String,
    },
    /// An expression referenced an unknown column.
    NoSuchColumn {
        /// Requested column name.
        column: String,
    },
    /// An expression referenced an unknown scalar variable.
    NoSuchVariable {
        /// Requested variable name.
        name: String,
    },
    /// A function was called that does not exist or got the wrong arity.
    BadCall {
        /// Function name.
        name: String,
        /// Explanation.
        message: String,
    },
    /// A statement needed a working table but none was loaded.
    NoTableLoaded,
    /// Type error during evaluation.
    Type {
        /// Explanation.
        message: String,
    },
    /// A statement would give the working table two columns of one name.
    DuplicateColumn {
        /// The repeated column name.
        column: String,
    },
}

impl fmt::Display for IqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IqlError::BadChar { ch, line } => {
                write!(f, "unexpected character {ch:?} on line {line}")
            }
            IqlError::UnterminatedString { line } => {
                write!(f, "unterminated string literal on line {line}")
            }
            IqlError::Parse { message, line } => write!(f, "parse error on line {line}: {message}"),
            IqlError::NoSuchTable { table } => write!(f, "no attached table named {table}"),
            IqlError::NoSuchColumn { column } => write!(f, "no column named {column}"),
            IqlError::NoSuchVariable { name } => write!(f, "no variable named {name}"),
            IqlError::BadCall { name, message } => write!(f, "bad call to {name}: {message}"),
            IqlError::NoTableLoaded => write!(f, "no table loaded; start the program with LOAD"),
            IqlError::Type { message } => write!(f, "type error: {message}"),
            IqlError::DuplicateColumn { column } => {
                write!(f, "duplicate column name {column}")
            }
        }
    }
}

impl std::error::Error for IqlError {}
