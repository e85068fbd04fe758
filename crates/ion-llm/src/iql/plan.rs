//! IQL logical plan: the typed IR between the AST and the vectorized
//! executor, plus `EXPLAIN` rendering.
//!
//! Lowering is 1:1 — one [`PlanOp`] per statement, in program order — so
//! the executor runs exactly the statements a program wrote, in the order
//! it wrote them. `EXPLAIN` prints each operator with the columns live
//! after it, resolved against the attached tables.

use super::ast::{AggCall, Expr, Program, Stmt};
use extractor::TableSet;
use std::fmt::Write as _;

/// One operator of the logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Load an attached table as the working relation.
    Scan {
        /// Attached table name.
        table: String,
    },
    /// Keep rows whose predicate is truthy.
    Filter {
        /// Row predicate.
        pred: Expr,
    },
    /// Append a computed column.
    Derive {
        /// New column name.
        name: String,
        /// Row expression.
        expr: Expr,
    },
    /// Project to the named columns, in order.
    Project {
        /// Kept columns.
        columns: Vec<String>,
    },
    /// Stable sort by one column.
    Sort {
        /// Sort key column.
        column: String,
        /// Descending order when true.
        descending: bool,
    },
    /// Keep the first `n` rows.
    Limit(usize),
    /// Inner hash join with another attached table.
    Join {
        /// Right-side attached table.
        table: String,
        /// Join column (present on both sides).
        on: String,
    },
    /// Group-by aggregate producing a new relation.
    Group {
        /// Grouping key columns.
        keys: Vec<String>,
        /// Per-group aggregates.
        aggs: Vec<AggCall>,
    },
    /// Whole-relation aggregates into scalars.
    Agg(Vec<AggCall>),
    /// Scalar binding.
    Let {
        /// Variable name.
        name: String,
        /// Scalar expression.
        expr: Expr,
    },
    /// Declare program outputs.
    Emit(Vec<String>),
}

/// A lowered IQL program: one operator per statement, in program order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Operators in execution order.
    pub ops: Vec<PlanOp>,
}

/// Lower a program into its plan.
#[must_use]
pub fn lower(program: &Program) -> Plan {
    let ops = program
        .statements
        .iter()
        .map(|stmt| match stmt {
            Stmt::Load(t) => PlanOp::Scan { table: t.clone() },
            Stmt::Filter(e) => PlanOp::Filter { pred: e.clone() },
            Stmt::Derive(n, e) => PlanOp::Derive {
                name: n.clone(),
                expr: e.clone(),
            },
            Stmt::Select(cols) => PlanOp::Project {
                columns: cols.clone(),
            },
            Stmt::Sort { column, descending } => PlanOp::Sort {
                column: column.clone(),
                descending: *descending,
            },
            Stmt::Limit(n) => PlanOp::Limit(*n),
            Stmt::Join { table, on } => PlanOp::Join {
                table: table.clone(),
                on: on.clone(),
            },
            Stmt::Group { keys, aggs } => PlanOp::Group {
                keys: keys.clone(),
                aggs: aggs.clone(),
            },
            Stmt::Agg(aggs) => PlanOp::Agg(aggs.clone()),
            Stmt::Let(n, e) => PlanOp::Let {
                name: n.clone(),
                expr: e.clone(),
            },
            Stmt::Emit(names) => PlanOp::Emit(names.clone()),
        })
        .collect();
    Plan { ops }
}

// ---------------------------------------------------------------------------
// Schema tracking
// ---------------------------------------------------------------------------

/// Column schema at a plan point; `None` = unknown (unknown table, an
/// operator that will error, or no table loaded yet).
type Schema = Option<Vec<String>>;

/// Schema of the working relation *before* each op (index `i` = input of
/// `ops[i]`), plus one trailing entry for the final schema.
fn schemas(ops: &[PlanOp], tables: &TableSet) -> Vec<Schema> {
    let mut out = Vec::with_capacity(ops.len() + 1);
    let mut cur: Schema = None;
    for op in ops {
        out.push(cur.clone());
        cur = step_schema(cur, op, tables);
    }
    out.push(cur);
    out
}

fn step_schema(cur: Schema, op: &PlanOp, tables: &TableSet) -> Schema {
    match op {
        PlanOp::Scan { table } => tables
            .get(table)
            .map(|t| t.columns.iter().map(|c| c.name.clone()).collect()),
        PlanOp::Filter { .. } | PlanOp::Sort { .. } | PlanOp::Limit(_) => cur,
        PlanOp::Derive { name, .. } => {
            let mut s = cur?;
            if s.iter().any(|c| c == name) {
                return None; // duplicate column: execution will error
            }
            s.push(name.clone());
            Some(s)
        }
        PlanOp::Project { columns, .. } => {
            let s = cur?;
            if columns.iter().all(|c| s.contains(c)) {
                Some(columns.clone())
            } else {
                None // projection will error at execution
            }
        }
        PlanOp::Join { table, on } => {
            let left = cur?;
            let right = tables.get(table)?;
            if !left.contains(on) || right.column_index(on).is_none() {
                return None;
            }
            let ri = right.column_index(on);
            let mut s = left.clone();
            for (i, c) in right.columns.iter().enumerate() {
                if Some(i) != ri && !left.contains(&c.name) {
                    s.push(c.name.clone());
                }
            }
            Some(s)
        }
        PlanOp::Group { keys, aggs } => {
            let s = cur?;
            if !keys.iter().all(|k| s.contains(k)) {
                return None;
            }
            let mut out: Vec<String> = keys.clone();
            out.extend(aggs.iter().map(|a| a.name.clone()));
            Some(out)
        }
        PlanOp::Agg(_) | PlanOp::Let { .. } | PlanOp::Emit(_) => cur,
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

impl PlanOp {
    /// Short operator mnemonic (used by the compact summary).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            PlanOp::Scan { .. } => "scan",
            PlanOp::Filter { .. } => "filter",
            PlanOp::Derive { .. } => "derive",
            PlanOp::Project { .. } => "select",
            PlanOp::Sort { .. } => "sort",
            PlanOp::Limit(_) => "limit",
            PlanOp::Join { .. } => "join",
            PlanOp::Group { .. } => "group",
            PlanOp::Agg(_) => "agg",
            PlanOp::Let { .. } => "let",
            PlanOp::Emit(_) => "emit",
        }
    }

    fn render_line(&self) -> String {
        fn aggs(list: &[AggCall]) -> String {
            list.iter()
                .map(|a| format!("{} = {}", a.name, a.expr))
                .collect::<Vec<_>>()
                .join(", ")
        }
        match self {
            PlanOp::Scan { table } => format!("scan {table}"),
            PlanOp::Filter { pred } => format!("filter {pred}"),
            PlanOp::Derive { name, expr } => format!("derive {name} = {expr}"),
            PlanOp::Project { columns } => format!("select {}", columns.join(", ")),
            PlanOp::Sort { column, descending } => {
                format!("sort {column} {}", if *descending { "desc" } else { "asc" })
            }
            PlanOp::Limit(n) => format!("limit {n}"),
            PlanOp::Join { table, on } => format!("join {table} on {on}"),
            PlanOp::Group { keys, aggs: a } => {
                format!("group {} agg {}", keys.join(", "), aggs(a))
            }
            PlanOp::Agg(a) => format!("agg {}", aggs(a)),
            PlanOp::Let { name, expr } => format!("let {name} = {expr}"),
            PlanOp::Emit(names) => format!("emit {}", names.join(", ")),
        }
    }
}

impl Plan {
    /// Multi-line `EXPLAIN` rendering of the plan with per-op schemas
    /// (when resolvable against the attached tables).
    #[must_use]
    pub fn render(&self, tables: &TableSet) -> String {
        let pre = schemas(&self.ops, tables);
        let mut out = String::from("plan:\n");
        for (i, op) in self.ops.iter().enumerate() {
            let line = op.render_line();
            let after = &pre[i + 1];
            match after {
                Some(cols)
                    if !matches!(op, PlanOp::Let { .. } | PlanOp::Emit(_) | PlanOp::Agg(_)) =>
                {
                    let _ = writeln!(out, "  {line:<44} cols=[{}]", cols.join(", "));
                }
                _ => {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        out
    }

    /// One-line plan summary for tool-call transcripts:
    /// `scan DXT → filter → agg → emit`.
    #[must_use]
    pub fn summary(&self) -> String {
        self.ops
            .iter()
            .map(|op| match op {
                PlanOp::Scan { table } => format!("scan {table}"),
                other => other.mnemonic().to_owned(),
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_program;
    use super::*;
    use extractor::{Table, Value};

    fn tables() -> TableSet {
        let mut t = Table::new("DXT", &["rank", "op", "offset", "length"]);
        t.push_row(vec![
            Value::Int(0),
            Value::from("write"),
            Value::Int(0),
            Value::Int(100),
        ]);
        let mut set = TableSet::default();
        set.insert(t);
        set
    }

    fn mnemonics(plan: &Plan) -> Vec<&'static str> {
        plan.ops.iter().map(PlanOp::mnemonic).collect()
    }

    #[test]
    fn lowering_is_one_to_one() {
        let p = lower(
            &parse_program(
                "LOAD DXT\nSORT length DESC\nFILTER rank == 0\nAGG n = count()\nEMIT n\n",
            )
            .unwrap(),
        );
        assert_eq!(mnemonics(&p), vec!["scan", "sort", "filter", "agg", "emit"]);
    }

    #[test]
    fn explain_renders_schemas() {
        let p = lower(
            &parse_program("LOAD DXT\nFILTER op == 'write'\nGROUP rank AGG n = count()\n").unwrap(),
        );
        let text = p.render(&tables());
        assert!(text.contains("scan DXT"));
        assert!(text.contains("cols=[rank, op, offset, length]"));
        assert!(text.contains("group rank agg n = count()"));
        assert!(text.contains("cols=[rank, n]"));
        assert!(!text.contains("optimizer:"));
        assert_eq!(p.summary(), "scan DXT → filter → group");
    }
}
