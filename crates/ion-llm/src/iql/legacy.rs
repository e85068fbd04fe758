//! The original row-at-a-time IQL tree-walker, kept behind the
//! `legacy-eval` feature solely as the differential-test oracle. It
//! materializes every intermediate table as `Vec<Vec<Value>>` rows —
//! exactly the cloning behavior the vectorized executor replaced — and
//! must never be extended with new semantics: the planned engine in
//! [`super::exec`] is checked against this implementation bit-for-bit.

use super::ast::{Expr, Program, Stmt};
use super::eval::RunOutput;
use super::value_ops::{
    agg_call, binary, compare_values, eval_scalar_or_number, numeric_agg, percentile, scalar_call,
    unary, unique_columns, walk, Agg, Env,
};
use super::IqlError;
use extractor::{Table, TableSet, Value};
use std::collections::BTreeMap;

/// Row-major working table: the legacy engine's native representation.
#[derive(Debug, Clone)]
struct RowTable {
    name: String,
    cols: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl RowTable {
    fn from_table(t: &Table) -> Self {
        RowTable {
            name: t.name.clone(),
            cols: t.columns.iter().map(|c| c.name.clone()).collect(),
            rows: t.iter_rows().map(|r| r.to_vec()).collect(),
        }
    }

    fn new(name: &str, cols: Vec<String>) -> Result<Self, IqlError> {
        unique_columns(&cols)?;
        Ok(RowTable {
            name: name.to_owned(),
            cols,
            rows: Vec::new(),
        })
    }

    fn column_index(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == name)
    }

    fn into_table(self) -> Table {
        let refs: Vec<&str> = self.cols.iter().map(String::as_str).collect();
        let mut t = Table::new(&self.name, &refs);
        for r in self.rows {
            t.push_row(r);
        }
        t
    }
}

/// The legacy interpreter: same public contract as
/// [`super::eval::Interpreter`], row-cloning execution strategy.
#[derive(Debug)]
pub struct LegacyInterpreter<'a> {
    tables: &'a TableSet,
}

impl<'a> LegacyInterpreter<'a> {
    /// Create a legacy interpreter over an attached table set.
    #[must_use]
    pub fn new(tables: &'a TableSet) -> Self {
        LegacyInterpreter { tables }
    }

    /// Execute a program with the original tree-walking evaluator.
    ///
    /// # Errors
    ///
    /// Returns an [`IqlError`] for unknown tables/columns/variables, bad
    /// function calls, or statements used before `LOAD`.
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, program: &Program) -> Result<RunOutput, IqlError> {
        let mut table: Option<RowTable> = None;
        let mut env = Env::default();
        let mut out = RunOutput::default();
        for stmt in &program.statements {
            match stmt {
                Stmt::Load(name) => {
                    let t = self.tables.get(name).ok_or_else(|| IqlError::NoSuchTable {
                        table: name.clone(),
                    })?;
                    out.rows_scanned += t.len();
                    table = Some(RowTable::from_table(t));
                }
                Stmt::Filter(expr) => {
                    let t = table.as_ref().ok_or(IqlError::NoTableLoaded)?;
                    out.rows_scanned += t.rows.len();
                    let mut nt = RowTable::new(&t.name, t.cols.clone())?;
                    for row in &t.rows {
                        if eval_row_expr(expr, &t.cols, row, &env)?.truthy() {
                            nt.rows.push(row.clone());
                        }
                    }
                    table = Some(nt);
                }
                Stmt::Derive(name, expr) => {
                    let t = table.as_ref().ok_or(IqlError::NoTableLoaded)?;
                    out.rows_scanned += t.rows.len();
                    let mut cols = t.cols.clone();
                    cols.push(name.clone());
                    let mut nt = RowTable::new(&t.name, cols)?;
                    for row in &t.rows {
                        let v = eval_row_expr(expr, &t.cols, row, &env)?;
                        let mut nr = row.clone();
                        nr.push(v);
                        nt.rows.push(nr);
                    }
                    table = Some(nt);
                }
                Stmt::Select(names) => {
                    let t = table.as_ref().ok_or(IqlError::NoTableLoaded)?;
                    let idxs: Vec<usize> = names
                        .iter()
                        .map(|n| {
                            t.column_index(n)
                                .ok_or_else(|| IqlError::NoSuchColumn { column: n.clone() })
                        })
                        .collect::<Result<_, _>>()?;
                    let mut nt = RowTable::new(&t.name, names.clone())?;
                    for row in &t.rows {
                        nt.rows.push(idxs.iter().map(|&i| row[i].clone()).collect());
                    }
                    table = Some(nt);
                }
                Stmt::Sort { column, descending } => {
                    let t = table.as_mut().ok_or(IqlError::NoTableLoaded)?;
                    let idx = t
                        .column_index(column)
                        .ok_or_else(|| IqlError::NoSuchColumn {
                            column: column.clone(),
                        })?;
                    t.rows.sort_by(|a, b| compare_values(&a[idx], &b[idx]));
                    if *descending {
                        t.rows.reverse();
                    }
                }
                Stmt::Limit(n) => {
                    let t = table.as_mut().ok_or(IqlError::NoTableLoaded)?;
                    t.rows.truncate(*n);
                }
                Stmt::Join {
                    table: right_name,
                    on,
                } => {
                    let left = table.as_ref().ok_or(IqlError::NoTableLoaded)?;
                    let right = self
                        .tables
                        .get(right_name)
                        .map(RowTable::from_table)
                        .ok_or_else(|| IqlError::NoSuchTable {
                            table: right_name.clone(),
                        })?;
                    out.rows_scanned += left.rows.len() + right.rows.len();
                    let li = left
                        .column_index(on)
                        .ok_or_else(|| IqlError::NoSuchColumn { column: on.clone() })?;
                    let ri = right
                        .column_index(on)
                        .ok_or_else(|| IqlError::NoSuchColumn { column: on.clone() })?;
                    // Right-side columns that collide with left names are
                    // dropped (left wins), including the join column itself.
                    let kept_right: Vec<usize> = right
                        .cols
                        .iter()
                        .enumerate()
                        .filter(|(i, c)| *i != ri && !left.cols.contains(c))
                        .map(|(i, _)| i)
                        .collect();
                    let mut cols = left.cols.clone();
                    for &i in &kept_right {
                        cols.push(right.cols[i].clone());
                    }
                    let mut nt = RowTable::new(&left.name, cols)?;
                    // Hash join on the stringified key.
                    let mut index: BTreeMap<String, Vec<&Vec<Value>>> = BTreeMap::new();
                    for row in &right.rows {
                        index.entry(row[ri].to_string()).or_default().push(row);
                    }
                    for lrow in &left.rows {
                        if let Some(matches) = index.get(&lrow[li].to_string()) {
                            for rrow in matches {
                                let mut row = lrow.clone();
                                for &i in &kept_right {
                                    row.push(rrow[i].clone());
                                }
                                nt.rows.push(row);
                            }
                        }
                    }
                    table = Some(nt);
                }
                Stmt::Group { keys, aggs } => {
                    let t = table.as_ref().ok_or(IqlError::NoTableLoaded)?;
                    out.rows_scanned += t.rows.len();
                    let key_idxs: Vec<usize> = keys
                        .iter()
                        .map(|k| {
                            t.column_index(k)
                                .ok_or_else(|| IqlError::NoSuchColumn { column: k.clone() })
                        })
                        .collect::<Result<_, _>>()?;
                    // Group rows by rendered key tuple; BTreeMap over the
                    // tuple keeps output order deterministic.
                    let mut groups: BTreeMap<Vec<String>, Vec<&Vec<Value>>> = BTreeMap::new();
                    for row in &t.rows {
                        let key: Vec<String> =
                            key_idxs.iter().map(|&i| row[i].to_string()).collect();
                        groups.entry(key).or_default().push(row);
                    }
                    let mut cols = keys.clone();
                    for a in aggs {
                        cols.push(a.name.clone());
                    }
                    let mut nt = RowTable::new(&t.name, cols)?;
                    for rows in groups.values() {
                        let mut new_row: Vec<Value> =
                            key_idxs.iter().map(|&i| rows[0][i].clone()).collect();
                        for a in aggs {
                            new_row.push(eval_agg_expr(&a.expr, &t.cols, rows, &env)?);
                        }
                        nt.rows.push(new_row);
                    }
                    table = Some(nt);
                }
                Stmt::Agg(aggs) => {
                    let t = table.as_ref().ok_or(IqlError::NoTableLoaded)?;
                    out.rows_scanned += t.rows.len();
                    let rows: Vec<&Vec<Value>> = t.rows.iter().collect();
                    for a in aggs {
                        let v = eval_agg_expr(&a.expr, &t.cols, &rows, &env)?;
                        env.insert(a.name.clone(), v);
                    }
                }
                Stmt::Let(name, expr) => {
                    let v = walk(expr, &env)?;
                    env.insert(name.clone(), v);
                }
                Stmt::Emit(names) => {
                    for n in names {
                        let v = env
                            .get(n)
                            .cloned()
                            .ok_or_else(|| IqlError::NoSuchVariable { name: n.clone() })?;
                        out.emitted.push((n.clone(), v));
                    }
                }
            }
        }
        out.table = table.map(RowTable::into_table);
        Ok(out)
    }
}

fn eval_row_expr(
    expr: &Expr,
    cols: &[String],
    row: &[Value],
    env: &Env,
) -> Result<Value, IqlError> {
    match expr {
        Expr::Int(n) => Ok(Value::Int(*n)),
        Expr::Float(n) => Ok(Value::Float(*n)),
        Expr::Str(s) => Ok(Value::Str(s.as_str().into())),
        Expr::Ident(name) => {
            if let Some(i) = cols.iter().position(|c| c == name) {
                Ok(row[i].clone())
            } else if let Some(v) = env.get(name) {
                Ok(v.clone())
            } else {
                Err(IqlError::NoSuchColumn {
                    column: name.clone(),
                })
            }
        }
        Expr::Unary(op, inner) => unary(*op, &eval_row_expr(inner, cols, row, env)?),
        Expr::Binary(l, op, r) => {
            let lv = eval_row_expr(l, cols, row, env)?;
            let rv = eval_row_expr(r, cols, row, env)?;
            binary(*op, lv, rv)
        }
        Expr::Call(name, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_row_expr(a, cols, row, env))
                .collect::<Result<_, _>>()?;
            scalar_call(name, &vals)
        }
    }
}

/// Evaluate an aggregate-context expression over a set of rows.
///
/// Aggregate function calls (`sum(expr)`, `count()`, …) reduce the rows;
/// everything around them is scalar arithmetic. `max`/`min` with one
/// argument aggregate; with two they are scalar.
fn eval_agg_expr(
    expr: &Expr,
    cols: &[String],
    rows: &[&Vec<Value>],
    env: &Env,
) -> Result<Value, IqlError> {
    match expr {
        Expr::Int(n) => Ok(Value::Int(*n)),
        Expr::Float(n) => Ok(Value::Float(*n)),
        Expr::Str(s) => Ok(Value::Str(s.as_str().into())),
        Expr::Ident(name) => {
            // In aggregate context a bare identifier means "this scalar",
            // or the column value of the first row (useful after GROUP for
            // key columns).
            if let Some(v) = env.get(name) {
                return Ok(v.clone());
            }
            if let Some(i) = cols.iter().position(|c| c == name) {
                return Ok(rows.first().map_or(Value::Null, |r| r[i].clone()));
            }
            Err(IqlError::NoSuchVariable { name: name.clone() })
        }
        Expr::Unary(op, inner) => unary(*op, &eval_agg_expr(inner, cols, rows, env)?),
        Expr::Binary(l, op, r) => {
            let lv = eval_agg_expr(l, cols, rows, env)?;
            let rv = eval_agg_expr(r, cols, rows, env)?;
            binary(*op, lv, rv)
        }
        Expr::Call(name, args) => {
            let Some(agg) = agg_call(name, args.len()) else {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| eval_agg_expr(a, cols, rows, env))
                    .collect::<Result<_, _>>()?;
                return scalar_call(name, &vals);
            };
            match agg {
                Agg::Count => Ok(Value::Int(rows.len() as i64)),
                Agg::Distinct => {
                    let mut seen = std::collections::BTreeSet::new();
                    for row in rows {
                        let v = eval_row_expr(&args[0], cols, row, env)?;
                        seen.insert(v.to_string());
                    }
                    Ok(Value::Int(seen.len() as i64))
                }
                Agg::Pct => {
                    let p = eval_scalar_or_number(&args[1], env)?;
                    let vals = collect_numeric(&args[0], cols, rows, env)?;
                    Ok(Value::Float(percentile(vals, p)))
                }
                Agg::Numeric(f) => {
                    let vals = collect_numeric(&args[0], cols, rows, env)?;
                    Ok(Value::Float(numeric_agg(f, &vals)))
                }
            }
        }
    }
}

fn collect_numeric(
    expr: &Expr,
    cols: &[String],
    rows: &[&Vec<Value>],
    env: &Env,
) -> Result<Vec<f64>, IqlError> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let v = eval_row_expr(expr, cols, row, env)?;
        if let Some(f) = v.as_f64() {
            out.push(f);
        }
    }
    Ok(out)
}
