//! IQL program resolution and `EXPLAIN` rendering.
//!
//! A program is resolved once against the attached tables, one step per
//! statement in program order. Column names depend only on the program
//! and the attached schemas, never on rows, so each step records exactly
//! the columns live after its statement and the slots it reads, or the
//! typed error running it raises. The executor runs the steps as written;
//! `EXPLAIN` prints each statement with the columns live after it.

use super::ast::{AggCall, Program, Stmt};
use super::value_ops::unique_columns;
use super::IqlError;
use extractor::{Table, TableSet};
use std::fmt::Write as _;
use std::rc::Rc;

/// What a statement reads, bound against the columns live before it.
#[derive(Debug)]
pub(crate) enum Bound<'p> {
    /// `LOAD`: the attached table.
    Table(&'p Table),
    /// `SELECT`: the kept columns; `GROUP`: the key columns.
    Slots(Vec<usize>),
    /// `SORT`: the key column.
    Slot(usize),
    /// `JOIN`: the right table, the key's slot on the left and on the
    /// right, and the right columns kept (those the left has no name for).
    Join {
        right: &'p Table,
        keys: (usize, usize),
        kept: Vec<usize>,
    },
    /// Every other statement. Its expressions bind their names when they
    /// run, so an unknown name over no rows is no error.
    Exprs,
}

/// The names of the columns live at a point of the program, shared by the
/// statements that keep them; `None` where they are unknown.
type Columns = Option<Rc<[String]>>;

/// One resolved statement.
#[derive(Debug)]
pub(crate) struct Step<'p> {
    pub(crate) stmt: &'p Stmt,
    /// What the statement reads, or the error running it raises.
    pub(crate) bound: Result<Bound<'p>, IqlError>,
    /// The columns live after the statement: `None` before any `LOAD`, and
    /// from a statement that fails until the next `LOAD` that resolves.
    pub(crate) cols: Columns,
}

/// A program resolved against the attached tables: one step per
/// statement, in program order.
#[derive(Debug)]
pub struct Plan<'p> {
    pub(crate) steps: Vec<Step<'p>>,
}

/// Resolve `program` against `tables`.
pub(crate) fn resolve<'p>(program: &'p Program, tables: &'p TableSet) -> Plan<'p> {
    let mut cols = None;
    let steps = program
        .statements
        .iter()
        .map(|stmt| {
            let bound = bind(stmt, cols.take(), tables).map(|(bound, after)| {
                cols = after;
                bound
            });
            let cols = cols.clone();
            Step { stmt, bound, cols }
        })
        .collect();
    Plan { steps }
}

/// `stmt` bound against the columns `cols` live before it: what it reads
/// and the columns live after it, checked in the order execution meets
/// them.
fn bind<'p>(
    stmt: &'p Stmt,
    cols: Columns,
    tables: &'p TableSet,
) -> Result<(Bound<'p>, Columns), IqlError> {
    let table = |name: &String| {
        tables.get(name).ok_or_else(|| IqlError::NoSuchTable {
            table: name.clone(),
        })
    };
    let slot = |cols: &[String], name: &String| {
        cols.iter()
            .position(|c| c == name)
            .ok_or_else(|| IqlError::NoSuchColumn {
                column: name.clone(),
            })
    };
    let cur = match stmt {
        Stmt::Load(name) => {
            let t = table(name)?;
            let after = t.columns.iter().map(|c| c.name.clone()).collect();
            return Ok((Bound::Table(t), Some(after)));
        }
        Stmt::Let(..) | Stmt::Emit(_) => return Ok((Bound::Exprs, cols)),
        // Every other statement works on the loaded table.
        _ => cols.ok_or(IqlError::NoTableLoaded)?,
    };
    Ok(match stmt {
        Stmt::Derive(name, _) => {
            if cur.contains(name) {
                return Err(IqlError::DuplicateColumn {
                    column: name.clone(),
                });
            }
            let mut after = cur.to_vec();
            after.push(name.clone());
            (Bound::Exprs, Some(after.into()))
        }
        Stmt::Select(columns) => {
            let slots = columns
                .iter()
                .map(|c| slot(&cur, c))
                .collect::<Result<_, _>>()?;
            unique_columns(columns)?;
            (Bound::Slots(slots), Some(columns.as_slice().into()))
        }
        Stmt::Sort { column, .. } => (Bound::Slot(slot(&cur, column)?), Some(cur)),
        Stmt::Join { table: name, on } => {
            let right = table(name)?;
            let left_key = slot(&cur, on)?;
            let right_key = right
                .column_index(on)
                .ok_or_else(|| IqlError::NoSuchColumn { column: on.clone() })?;
            let kept: Vec<usize> = (0..right.columns.len())
                .filter(|&i| i != right_key && !cur.contains(&right.columns[i].name))
                .collect();
            let mut after = cur.to_vec();
            after.extend(kept.iter().map(|&i| right.columns[i].name.clone()));
            let keys = (left_key, right_key);
            (Bound::Join { right, keys, kept }, Some(after.into()))
        }
        Stmt::Group { keys, aggs } => {
            let slots = keys
                .iter()
                .map(|k| slot(&cur, k))
                .collect::<Result<_, _>>()?;
            let after: Vec<String> = keys
                .iter()
                .chain(aggs.iter().map(|a| &a.name))
                .cloned()
                .collect();
            unique_columns(&after)?;
            (Bound::Slots(slots), Some(after.into()))
        }
        _ => (Bound::Exprs, Some(cur)),
    })
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

impl Stmt {
    /// Short operator mnemonic: the compact summary's word for the
    /// statement and its `iql.op.*` span name.
    #[must_use]
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            Stmt::Load(_) => "scan",
            Stmt::Filter(_) => "filter",
            Stmt::Derive(..) => "derive",
            Stmt::Select(_) => "select",
            Stmt::Sort { .. } => "sort",
            Stmt::Limit(_) => "limit",
            Stmt::Join { .. } => "join",
            Stmt::Group { .. } => "group",
            Stmt::Agg(_) => "agg",
            Stmt::Let(..) => "let",
            Stmt::Emit(_) => "emit",
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
            Stmt::Load(table) => format!("scan {table}"),
            Stmt::Filter(pred) => format!("filter {pred}"),
            Stmt::Derive(name, expr) => format!("derive {name} = {expr}"),
            Stmt::Select(columns) => format!("select {}", columns.join(", ")),
            Stmt::Sort { column, descending } => {
                format!("sort {column} {}", if *descending { "desc" } else { "asc" })
            }
            Stmt::Limit(n) => format!("limit {n}"),
            Stmt::Join { table, on } => format!("join {table} on {on}"),
            Stmt::Group { keys, aggs: a } => {
                format!("group {} agg {}", keys.join(", "), aggs(a))
            }
            Stmt::Agg(a) => format!("agg {}", aggs(a)),
            Stmt::Let(name, expr) => format!("let {name} = {expr}"),
            Stmt::Emit(names) => format!("emit {}", names.join(", ")),
        }
    }
}

impl Plan<'_> {
    /// Multi-line `EXPLAIN` rendering: each statement with the columns
    /// live after it, where they are known.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("plan:\n");
        for step in &self.steps {
            let line = step.stmt.render_line();
            match &step.cols {
                Some(cols)
                    if !matches!(step.stmt, Stmt::Let(..) | Stmt::Emit(_) | Stmt::Agg(_)) =>
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
        self.steps
            .iter()
            .map(|step| match step.stmt {
                Stmt::Load(table) => format!("scan {table}"),
                other => other.mnemonic().to_owned(),
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// The columns live at the end of the program, where they are known.
    #[must_use]
    pub fn final_columns(&self) -> Option<&[String]> {
        self.steps.last().and_then(|s| s.cols.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_program;
    use super::*;
    use extractor::Value;

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

    #[test]
    fn plan_has_one_step_per_statement() {
        let program = parse_program(
            "LOAD DXT\nSORT length DESC\nFILTER rank == 0\nAGG n = count()\nEMIT n\n",
        )
        .unwrap();
        let tables = tables();
        let p = resolve(&program, &tables);
        let mnemonics: Vec<_> = p.steps.iter().map(|s| s.stmt.mnemonic()).collect();
        assert_eq!(mnemonics, vec!["scan", "sort", "filter", "agg", "emit"]);
    }

    #[test]
    fn explain_renders_schemas() {
        let program =
            parse_program("LOAD DXT\nFILTER op == 'write'\nGROUP rank AGG n = count()\n").unwrap();
        let tables = tables();
        let p = resolve(&program, &tables);
        let text = p.render();
        assert!(text.contains("scan DXT"));
        assert!(text.contains("cols=[rank, op, offset, length]"));
        assert!(text.contains("group rank agg n = count()"));
        assert!(text.contains("cols=[rank, n]"));
        assert!(!text.contains("optimizer:"));
        assert_eq!(p.summary(), "scan DXT → filter → group");
    }
}
