//! Vectorized columnar executor for resolved IQL programs.
//!
//! Each statement arrives resolved against the attached tables
//! (`super::plan`): the slots it reads and the names of the columns live
//! around it are the plan's, and a statement that did not resolve fails
//! with its recorded error when execution reaches it.
//!
//! The working relation is a set of [`ColRef`] column views: a shared
//! (`Arc`) [`ColumnData`] plus an optional selection vector mapping
//! logical row ordinals to physical rows. Filters, sorts, limits and
//! joins only rewrite selection vectors — column payloads are never
//! copied until the final table is materialized (and a dense full-length
//! view materializes by pointer clone).
//!
//! Semantics parity with the legacy tree-walker is load-bearing (the
//! differential suite compares bit-for-bit, errors included). Every
//! expression a statement evaluates — a `FILTER` predicate, a `DERIVE`,
//! an aggregate argument, a `distinct(expr)` — takes one of two tiers:
//!
//! * the **kernel**: the expression is resolved once against the live
//!   relation and the scalar environment. Names bind to column slots or
//!   constants; a subexpression that reads no column folds to the value
//!   the row tier would compute; every node is typed as a number (`Int`
//!   or `Float` per row, by the `Int op Int` rule), a `Bool` or a `Str`.
//!   Resolution fails when some row could error, or when the expression
//!   reads a column with nulls or `Mixed` cells. A resolved kernel runs
//!   column at a time through the shared `value_ops` rules; a
//!   subexpression that reads one `Dict` or RLE column and no other is
//!   decided once per dictionary entry or run, then spread to the rows.
//! * the **row tier** (`eval_row`, the shared `value_ops::walk` with
//!   names bound to the row's cells): whatever the kernel refuses, one row
//!   at a time in exactly the legacy visit order, so a failing program
//!   reports the legacy error for the legacy row. `iql.rows.generic`
//!   counts the rows it evaluates.
//!
//! A computed column whose rows disagree in type is built `Mixed`, one
//! boxed cell per row; `iql.columns.mixed` counts such columns. Integer
//! literals are `Int`, so `if(length < rpc_size, length, 0)` over an
//! `Int` column stays `Int`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use super::ast::{BinaryOp, Expr, Stmt, UnaryOp};
use super::eval::RunOutput;
use super::plan::{Bound, Plan};
use super::value_ops::{
    agg_call, arith_f64, compare_values, eval_scalar_or_number, numeric_agg, op_kind, percentile,
    stays_int, walk, Agg, ArithOp, CmpOp, Env, OpKind, Scope,
};
use super::IqlError;
use extractor::{ColumnData, Table, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// A column view: shared payload + optional row-selection vector.
#[derive(Clone)]
struct ColRef {
    data: Arc<ColumnData>,
    /// Logical ordinal -> physical row. `None` = dense identity (the
    /// view may still be shorter than the payload after `LIMIT`).
    sel: Option<Arc<Vec<u32>>>,
}

impl ColRef {
    fn dense(data: Arc<ColumnData>) -> Self {
        ColRef { data, sel: None }
    }

    #[inline]
    fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    #[inline]
    fn value(&self, i: usize) -> Value {
        self.data.value(self.phys(i))
    }

    /// Materialize the first `len` logical rows into owned column data —
    /// or share the payload pointer when the view is the identity.
    fn materialize(&self, len: usize) -> Arc<ColumnData> {
        match &self.sel {
            None if self.data.len() == len => Arc::clone(&self.data),
            None => {
                let idx: Vec<u32> = (0..len as u32).collect();
                Arc::new(self.data.gather(&idx))
            }
            Some(s) => Arc::new(self.data.gather(&s[..len])),
        }
    }
}

/// The working relation: column views of equal logical length.
struct Relation<'p> {
    name: &'p str,
    /// The plan's columns live after the statement that last ran, which
    /// [`execute`] sets; column `i` of `cols` is named `names[i]`.
    names: &'p [String],
    cols: Vec<ColRef>,
    len: usize,
}

impl<'p> Relation<'p> {
    fn from_table(t: &'p Table) -> Self {
        Relation {
            name: &t.name,
            names: &[],
            cols: t
                .named_columns()
                .map(|(_, data)| ColRef::dense(Arc::clone(data)))
                .collect(),
            len: t.len(),
        }
    }

    fn col_idx(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|c| c == name)
    }

    /// Restrict the relation to `kept` logical ordinals (in the given
    /// order, duplicates allowed). Composed selection vectors are shared
    /// across columns that shared one before.
    fn select_rows(&mut self, kept: Vec<u32>) {
        let kept = Arc::new(kept);
        let mut composed: Vec<(*const Vec<u32>, Arc<Vec<u32>>)> = Vec::new();
        for col in &mut self.cols {
            col.sel = match &col.sel {
                None => Some(Arc::clone(&kept)),
                Some(old) => {
                    let ptr = Arc::as_ptr(old);
                    if let Some((_, c)) = composed.iter().find(|(p, _)| *p == ptr) {
                        Some(Arc::clone(c))
                    } else {
                        let c: Arc<Vec<u32>> =
                            Arc::new(kept.iter().map(|&i| old[i as usize]).collect());
                        composed.push((ptr, Arc::clone(&c)));
                        Some(c)
                    }
                }
            };
        }
        self.len = kept.len();
    }

    fn materialize(&self) -> Table {
        Table::from_columns(
            self.name,
            self.names
                .iter()
                .zip(&self.cols)
                .map(|(n, c)| (n.clone(), c.materialize(self.len)))
                .collect(),
        )
    }
}

/// Row set an aggregate reduces over: the whole relation or a subset.
#[derive(Clone, Copy)]
enum Rows<'a> {
    All(usize),
    Subset(&'a [u32]),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::All(n) => *n,
            Rows::Subset(s) => s.len(),
        }
    }

    fn first(&self) -> Option<usize> {
        match self {
            Rows::All(0) => None,
            Rows::All(_) => Some(0),
            Rows::Subset(s) => s.first().map(|&i| i as usize),
        }
    }

    /// `f` of every row, in order.
    fn map<T, C: FromIterator<T>>(self, f: impl FnMut(usize) -> T) -> C {
        match self {
            Rows::All(n) => (0..n).map(f).collect(),
            Rows::Subset(s) => s.iter().map(|&i| i as usize).map(f).collect(),
        }
    }
}

/// Execute a resolved program.
pub(crate) fn execute(plan: &Plan<'_>) -> Result<RunOutput, IqlError> {
    let mut rel: Option<Relation> = None;
    let mut env = Env::default();
    let mut out = RunOutput::default();
    // Rows dropped by FILTER and LIMIT, surfaced as `iql.rows.pruned`.
    let mut pruned = 0;
    let obs = ion_obs::enabled();
    let result = (|| {
        for step in &plan.steps {
            let _span = obs.then(|| ion_obs::span(format!("iql.op.{}", step.stmt.mnemonic())));
            // A statement that did not resolve fails once the statements
            // before it have run, so their row errors come first.
            let bound = step.bound.as_ref().map_err(IqlError::clone)?;
            apply(step.stmt, bound, &mut rel, &mut env, &mut out, &mut pruned)?;
            if let (Some(r), Some(names)) = (rel.as_mut(), &step.cols) {
                r.names = names;
            }
        }
        out.table = rel.as_ref().map(Relation::materialize);
        Ok(())
    })();
    if obs {
        ion_obs::counter("iql.rows.pruned", pruned);
    }
    result.map(|()| out)
}

#[allow(clippy::too_many_lines)]
fn apply<'p>(
    stmt: &Stmt,
    bound: &Bound<'p>,
    rel: &mut Option<Relation<'p>>,
    env: &mut Env,
    out: &mut RunOutput,
    pruned: &mut u64,
) -> Result<(), IqlError> {
    match (stmt, bound) {
        (Stmt::Load(_), Bound::Table(t)) => {
            out.rows_scanned += t.len();
            *rel = Some(Relation::from_table(t));
        }
        (Stmt::Let(name, expr), _) => {
            let v = walk(expr, env)?;
            env.insert(name.clone(), v);
        }
        (Stmt::Emit(names), _) => {
            for n in names {
                out.emitted.push((n.clone(), env.name(n)?));
            }
        }
        _ => {}
    }
    // Resolution fails every other statement until a `LOAD` has run.
    let Some(r) = rel.as_mut() else {
        return Ok(());
    };
    match (stmt, bound) {
        (Stmt::Filter(pred), _) => {
            out.rows_scanned += r.len;
            let mask = evaluate(pred, r, Rows::All(r.len), env)?.mask();
            let kept: Vec<u32> = (0..r.len as u32).filter(|&i| mask[i as usize]).collect();
            *pruned += (r.len - kept.len()) as u64;
            r.select_rows(kept);
        }
        (Stmt::Derive(_, expr), _) => {
            out.rows_scanned += r.len;
            let data = evaluate(expr, r, Rows::All(r.len), env)?.column();
            r.cols.push(ColRef::dense(Arc::new(data)));
        }
        (Stmt::Select(_), Bound::Slots(slots)) => {
            r.cols = slots.iter().map(|&i| r.cols[i].clone()).collect();
        }
        (Stmt::Sort { descending, .. }, Bound::Slot(key)) => {
            let mut perm: Vec<u32> = (0..r.len as u32).collect();
            // The column's cells as the kernel reads them. Numbers
            // compare as `f64`, as legacy `compare_values` coerces them
            // (so `i64` keys above 2^53 can tie), strings by content; a
            // column with nulls or `Mixed` cells through `compare_values`.
            let col = &r.cols[*key];
            match leaf(col).map(|k| k.eval(Domain::Rows(Rows::All(r.len)))) {
                Some(Cells::Num(keys)) => perm.sort_by(|&a, &b| {
                    let (x, y) = (keys[a as usize].f64(), keys[b as usize].f64());
                    x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
                }),
                Some(Cells::Str(keys)) => {
                    perm.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
                }
                _ => {
                    let keys: Vec<Value> = (0..r.len).map(|i| col.value(i)).collect();
                    perm.sort_by(|&a, &b| compare_values(&keys[a as usize], &keys[b as usize]));
                }
            }
            if *descending {
                perm.reverse();
            }
            r.select_rows(perm);
        }
        (Stmt::Limit(n), _) if *n < r.len => {
            *pruned += (r.len - n) as u64;
            // Truncation needs no gather: views read only the first
            // `len` ordinals; materialize slices selection vectors.
            r.len = *n;
        }
        (Stmt::Join { .. }, Bound::Join { right, keys, kept }) => {
            let right = Relation::from_table(right);
            out.rows_scanned += r.len + right.len;
            // Hash join on key classes shared by both key columns; right
            // rows stay in row order per key, as in legacy.
            let lkey = &r.cols[keys.0];
            let rkey = &right.cols[keys.1];
            let mut space = KeyClasses::new(&[lkey, rkey]);
            let rclasses = space.classify(rkey, Rows::All(right.len));
            let mut index: Vec<Vec<u32>> = vec![Vec::new(); space.len()];
            for (i, &class) in rclasses.iter().enumerate() {
                index[class as usize].push(i as u32);
            }
            let mut lkeep: Vec<u32> = Vec::new();
            let mut rkeep: Vec<u32> = Vec::new();
            for (i, class) in space
                .classify(lkey, Rows::All(r.len))
                .into_iter()
                .enumerate()
            {
                if let Some(matches) = index.get(class as usize) {
                    for &rrow in matches {
                        lkeep.push(i as u32);
                        rkeep.push(rrow);
                    }
                }
            }
            r.select_rows(lkeep);
            let rsel = Arc::new(rkeep);
            for &i in kept {
                r.cols.push(ColRef {
                    data: Arc::clone(&right.cols[i].data),
                    sel: Some(Arc::clone(&rsel)),
                });
            }
        }
        (Stmt::Group { aggs, .. }, Bound::Slots(keys)) => {
            out.rows_scanned += r.len;
            // Group ids: key classes combined column by column, numbered
            // in first-use order.
            let mut gids: Vec<u32> = vec![0; r.len];
            let mut ngroups = usize::from(r.len > 0);
            for &k in keys {
                let col = &r.cols[k];
                let mut space = KeyClasses::new(&[col]);
                let classes = space.classify(col, Rows::All(r.len));
                ngroups = refine_groups(&mut gids, ngroups, &classes, space.len());
            }
            let mut groups: Vec<Vec<u32>> = vec![Vec::new(); ngroups];
            for (i, &g) in gids.iter().enumerate() {
                groups[g as usize].push(i as u32);
            }
            // Legacy order: by rendered key tuple. Classes follow rendered
            // equality, so distinct groups never tie.
            let rendered: Vec<Vec<String>> = groups
                .iter()
                .map(|ordinals| {
                    keys.iter()
                        .map(|&k| r.cols[k].value(ordinals[0] as usize).to_string())
                        .collect()
                })
                .collect();
            let mut order: Vec<usize> = (0..ngroups).collect();
            order.sort_by(|&a, &b| rendered[a].cmp(&rendered[b]));
            let mut out_cols: Vec<ColumnData> = (0..keys.len() + aggs.len())
                .map(|_| ColumnData::empty())
                .collect();
            for ordinals in order.iter().map(|&g| &groups[g]) {
                let first = ordinals[0] as usize;
                for (c, &k) in keys.iter().enumerate() {
                    out_cols[c].push(r.cols[k].value(first));
                }
                for (a, agg) in aggs.iter().enumerate() {
                    let v = eval_agg(&agg.expr, r, Rows::Subset(ordinals), env)?;
                    out_cols[keys.len() + a].push(v);
                }
            }
            r.cols = out_cols
                .into_iter()
                .map(|c| ColRef::dense(Arc::new(c)))
                .collect();
            r.len = ngroups;
        }
        (Stmt::Agg(aggs), _) => {
            out.rows_scanned += r.len;
            for a in aggs {
                let v = eval_agg(&a.expr, r, Rows::All(r.len), env)?;
                env.insert(a.name.clone(), v);
            }
        }
        // `LOAD`, `LET` and `EMIT` ran above, a `LIMIT` at or above the
        // row count keeps every row, and resolution binds `SELECT`,
        // `SORT`, `JOIN` and `GROUP` only as matched here.
        _ => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Row tier (legacy visit order, exact error parity)
// ---------------------------------------------------------------------------

/// Row context: a name reads the row's cell, else a scalar.
struct RowScope<'r> {
    rel: &'r Relation<'r>,
    i: usize,
    env: &'r Env,
}

impl Scope for RowScope<'_> {
    fn name(&self, name: &str) -> Result<Value, IqlError> {
        match self.rel.col_idx(name) {
            Some(c) => Ok(self.rel.cols[c].value(self.i)),
            None => self
                .env
                .get(name)
                .cloned()
                .ok_or_else(|| IqlError::NoSuchColumn {
                    column: name.to_owned(),
                }),
        }
    }
}

fn eval_row(expr: &Expr, rel: &Relation, i: usize, env: &Env) -> Result<Value, IqlError> {
    walk(expr, &RowScope { rel, i, env })
}

/// The cells of `expr` over `rows`: through the kernel when the
/// expression resolves, else row at a time (counted in
/// `iql.rows.generic`).
fn evaluate(expr: &Expr, rel: &Relation, rows: Rows<'_>, env: &Env) -> Result<Cells, IqlError> {
    if let Some(kernel) = Kernel::resolve(expr, rel, env) {
        return Ok(kernel.eval(Domain::Rows(rows)));
    }
    ion_obs::counter("iql.rows.generic", rows.len() as u64);
    let values: Result<_, _> = rows.map(|i| eval_row(expr, rel, i, env));
    values.map(Cells::Values)
}

/// Aggregate context (mirrors the legacy `eval_agg_expr`): a name reads
/// a scalar, else its column's cell on the first of `rows` (useful after
/// GROUP for key columns), and an aggregate call reduces `rows`.
struct AggScope<'r> {
    rel: &'r Relation<'r>,
    rows: Rows<'r>,
    env: &'r Env,
}

impl Scope for AggScope<'_> {
    fn name(&self, name: &str) -> Result<Value, IqlError> {
        if let Some(v) = self.env.get(name) {
            return Ok(v.clone());
        }
        match self.rel.col_idx(name) {
            Some(c) => Ok(self
                .rows
                .first()
                .map_or(Value::Null, |i| self.rel.cols[c].value(i))),
            None => Err(IqlError::NoSuchVariable {
                name: name.to_owned(),
            }),
        }
    }

    fn aggregate(&self, name: &str, args: &[Expr]) -> Option<Result<Value, IqlError>> {
        let agg = agg_call(name, args.len())?;
        let AggScope { rel, rows, env } = *self;
        Some(match agg {
            Agg::Count => Ok(Value::Int(rows.len() as i64)),
            Agg::Distinct => distinct(&args[0], rel, rows, env),
            Agg::Pct => eval_scalar_or_number(&args[1], env).and_then(|p| {
                let vals = collect_numeric(&args[0], rel, rows, env)?;
                Ok(Value::Float(percentile(vals, p)))
            }),
            Agg::Numeric(f) => collect_numeric(&args[0], rel, rows, env)
                .map(|vals| Value::Float(numeric_agg(f, &vals))),
        })
    }
}

fn eval_agg(expr: &Expr, rel: &Relation, rows: Rows<'_>, env: &Env) -> Result<Value, IqlError> {
    walk(expr, &AggScope { rel, rows, env })
}

/// `distinct(expr)` over `rows`: a bare column is classified where it
/// lies; any other expression is evaluated into a column first.
fn distinct(expr: &Expr, rel: &Relation, rows: Rows<'_>, env: &Env) -> Result<Value, IqlError> {
    let column = match expr {
        Expr::Ident(name) => rel.col_idx(name),
        _ => None,
    };
    let (col, rows) = match column {
        Some(c) => (rel.cols[c].clone(), rows),
        None => {
            let data = evaluate(expr, rel, rows, env)?.column();
            let n = data.len();
            (ColRef::dense(Arc::new(data)), Rows::All(n))
        }
    };
    let mut space = KeyClasses::new(&[&col]);
    space.classify(&col, rows);
    Ok(Value::Int(space.len() as i64))
}

/// Collect the numeric population of `expr` over `rows` (non-numeric
/// cells are skipped).
fn collect_numeric(
    expr: &Expr,
    rel: &Relation,
    rows: Rows<'_>,
    env: &Env,
) -> Result<Vec<f64>, IqlError> {
    // A bare column the kernel refuses (nulls or `Mixed` cells) still
    // reads infallibly: its numeric cells, unboxed.
    if let Expr::Ident(name) = expr {
        if let Some(col) = rel.col_idx(name).map(|c| &rel.cols[c]) {
            if entries(&col.data).is_none() {
                let cells: Vec<Option<f64>> = rows.map(|i| col.data.f64_at(col.phys(i)));
                return Ok(cells.into_iter().flatten().collect());
            }
        }
    }
    Ok(evaluate(expr, rel, rows, env)?.numbers())
}

// ---------------------------------------------------------------------------
// Key classes (GROUP keys, `distinct`, JOIN keys)
// ---------------------------------------------------------------------------

/// The kind a null-free key column keys its cells by: its [`Entries`]
/// variant. Any other column keys cells by their rendered form (`Null`
/// renders like `""`, `Int(5)` like `Str("5")`).
fn key_kind(data: &ColumnData) -> Option<std::mem::Discriminant<Entries<'_>>> {
    entries(data).as_ref().map(std::mem::discriminant)
}

/// One cell as a class-space key.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key<'a> {
    Int(i64),
    /// `f64` bits with every NaN folded into one: all NaNs render `NaN`,
    /// while `-0.0` and `0.0` render apart.
    Float(u64),
    /// A string cell, or any cell's rendered form.
    Text(Cow<'a, str>),
}

impl Key<'_> {
    fn float(v: f64) -> Self {
        Key::Float(if v.is_nan() { f64::NAN } else { v }.to_bits())
    }
}

/// Index of the RLE run holding physical row `p`. `hint` is the run the
/// previous call found, so an in-order scan never searches.
fn run_at(ends: &[u64], p: usize, hint: &mut usize) -> usize {
    let p = p as u64;
    let holds =
        |run: usize| ends.get(run).is_some_and(|&e| p < e) && (run == 0 || ends[run - 1] <= p);
    if !holds(*hint) {
        *hint = if holds(*hint + 1) {
            *hint + 1
        } else {
            ends.partition_point(|&e| e <= p)
        };
    }
    *hint
}

/// Dense `u32` key classes for the cells of one or more key columns: a
/// GROUP key, a `distinct` argument, or both sides of a JOIN. Two cells
/// share a class exactly when their rendered forms (`Value::to_string()`,
/// the legacy key) are equal. Classes are numbered in first-use order.
///
/// Cells are keyed by value: `i64`, canonical `f64` bits or `&str`
/// (a dictionary code through its entry). Only the cells of a column with nulls or
/// a `Mixed` column, or of a numeric column sharing its space with
/// another kind, are rendered; `iql.keys.rendered` counts them.
struct KeyClasses<'a> {
    classes: HashMap<Key<'a>, u32>,
    /// The last key classified: runs of equal keys skip the hash.
    last: Option<(Key<'a>, u32)>,
    /// The kind every column of the space has, if they share one.
    shared: Option<std::mem::Discriminant<Entries<'a>>>,
}

impl<'a> KeyClasses<'a> {
    fn new(cols: &[&'a ColRef]) -> Self {
        let kinds: Vec<_> = cols.iter().map(|c| key_kind(&c.data)).collect();
        let shared = kinds
            .first()
            .copied()
            .flatten()
            .filter(|k| kinds.iter().all(|x| *x == Some(*k)));
        KeyClasses {
            classes: HashMap::new(),
            last: None,
            shared,
        }
    }

    /// Number of classes handed out.
    fn len(&self) -> usize {
        self.classes.len()
    }

    fn class(&mut self, key: Key<'a>) -> u32 {
        if let Some((last, class)) = &self.last {
            if *last == key {
                return *class;
            }
        }
        // Row ordinals are `u32`, so class counts are too.
        let next = self.classes.len() as u32;
        let class = *self.classes.entry(key.clone()).or_insert(next);
        self.last = Some((key, class));
        class
    }

    /// The class of each of `rows` (logical ordinals of `col`).
    fn classify(&mut self, col: &'a ColRef, rows: Rows<'_>) -> Vec<u32> {
        let kind = key_kind(&col.data);
        let typed = kind.is_some() && kind == self.shared;
        let mut entry = entry_index(col);
        match entries(&col.data) {
            // Through the string: duplicate dictionary entries meet.
            Some(Entries::Str(values)) => {
                rows.map(|i| self.class(Key::Text(Cow::Borrowed(&values[entry(i)]))))
            }
            Some(Entries::Int(values)) if typed => {
                rows.map(|i| self.class(Key::Int(values[entry(i)])))
            }
            Some(Entries::Float(values)) if typed => {
                rows.map(|i| self.class(Key::float(values[entry(i)])))
            }
            _ => {
                let out: Vec<u32> =
                    rows.map(|i| self.class(Key::Text(Cow::Owned(col.value(i).to_string()))));
                ion_obs::counter("iql.keys.rendered", out.len() as u64);
                out
            }
        }
    }
}

/// Split the groups `gids` (ids below `ngroups`) by one more key
/// column's `classes` (below `nclasses`): rows stay together exactly
/// when they shared a group and a class. New ids are numbered in
/// first-use order; returns their count.
fn refine_groups(gids: &mut [u32], ngroups: usize, classes: &[u32], nclasses: usize) -> usize {
    let mut next = 0u32;
    let mut renumber = |slot: &mut u32| {
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
        *slot
    };
    let pairs = ngroups.saturating_mul(nclasses);
    if pairs <= 2 * gids.len() {
        // Few enough (group, class) pairs for a direct table.
        let mut table = vec![u32::MAX; pairs];
        for (g, &c) in gids.iter_mut().zip(classes) {
            *g = renumber(&mut table[*g as usize * nclasses + c as usize]);
        }
    } else {
        let mut table: HashMap<(u32, u32), u32> = HashMap::new();
        for (g, &c) in gids.iter_mut().zip(classes) {
            *g = renumber(table.entry((*g, c)).or_insert(u32::MAX));
        }
    }
    next as usize
}

/// What a column with neither nulls nor `Mixed` cells reads its cells
/// from: the payload of a dense column, the dictionary of a `Dict`
/// column, the run values of an RLE column.
#[derive(Clone, Copy)]
enum Entries<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a [Arc<str>]),
}

fn entries(data: &ColumnData) -> Option<Entries<'_>> {
    let entries = match data {
        ColumnData::Int { values, .. } | ColumnData::RleInt { values, .. } => Entries::Int(values),
        ColumnData::Float { values, .. } | ColumnData::RleFloat { values, .. } => {
            Entries::Float(values)
        }
        ColumnData::Str { values, .. } | ColumnData::Dict { dict: values, .. } => {
            Entries::Str(values)
        }
        ColumnData::Mixed(_) => return None,
    };
    (data.null_count() == 0).then_some(entries)
}

/// Maps a logical row of `col` to the entry holding its cell: the
/// physical row of a dense column, the code of a `Dict` column, the run
/// of an RLE column.
fn entry_index(col: &ColRef) -> impl FnMut(usize) -> usize + '_ {
    let sel = col.sel.as_deref();
    let (codes, ends) = match col.data.as_ref() {
        ColumnData::Dict { codes, .. } => (Some(codes), None),
        ColumnData::RleInt { ends, .. } | ColumnData::RleFloat { ends, .. } => (None, Some(ends)),
        _ => (None, None),
    };
    let mut run = 0;
    move |i| {
        let p = sel.map_or(i, |s| s[i] as usize);
        match (codes, ends) {
            (Some(codes), _) => codes[p] as usize,
            (_, Some(ends)) => run_at(ends, p, &mut run),
            _ => p,
        }
    }
}

// ---------------------------------------------------------------------------
// Expression kernel: resolved once per evaluation, run column at a time
// ---------------------------------------------------------------------------

/// A number as the row tier types it. `Int op Int` stays `Int` only when
/// the result is integral and small, so the type is a per-row fact.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    fn f64(self) -> f64 {
        match self {
            Num::Int(v) => v as f64,
            Num::Float(v) => v,
        }
    }

    fn value(self) -> Value {
        match self {
            Num::Int(v) => Value::Int(v),
            Num::Float(v) => Value::Float(v),
        }
    }
}

/// A column view bound with its [`Entries`].
struct Leaf<'a, T>(&'a ColRef, &'a [T]);

impl<'a, T> Leaf<'a, T> {
    fn read<U>(&self, at: Domain<'_>, f: impl Fn(&'a T) -> U) -> Vec<U> {
        let Leaf(col, entries) = *self;
        match at {
            Domain::Entries(_) => entries.iter().map(f).collect(),
            Domain::Rows(rows) => {
                let mut entry = entry_index(col);
                rows.map(|i| f(&entries[entry(i)]))
            }
        }
    }
}

/// Where a kernel evaluates: the relation's logical rows, or each entry
/// of the one column it reads.
#[derive(Clone, Copy)]
enum Domain<'r> {
    Rows(Rows<'r>),
    Entries(usize),
}

impl Domain<'_> {
    fn len(self) -> usize {
        match self {
            Domain::Rows(rows) => rows.len(),
            Domain::Entries(n) => n,
        }
    }
}

/// A resolved expression whose rows are numbers.
enum NumExpr<'a> {
    Const(Num),
    Int(Leaf<'a, i64>),
    Float(Leaf<'a, f64>),
    Arith(ArithOp, Box<NumExpr<'a>>, Box<NumExpr<'a>>),
    /// Negation, by `value_ops::unary`'s rule.
    Neg(Box<NumExpr<'a>>),
    /// A function of one number, such as `floor`.
    Math(fn(f64) -> f64, Box<NumExpr<'a>>),
    Math2(fn(f64, f64) -> f64, Box<NumExpr<'a>>, Box<NumExpr<'a>>),
    /// A predicate read as `Int` 0/1.
    Bool(Box<BoolExpr<'a>>),
    If(Box<BoolExpr<'a>>, Box<NumExpr<'a>>, Box<NumExpr<'a>>),
    /// An expression that reads no column but one `Dict` or RLE column,
    /// decided once per dictionary string or run (see [`per_entry`]).
    PerEntry(&'a ColRef, Box<NumExpr<'a>>),
}

/// A resolved expression whose rows are `Int` 0/1, kept as a mask.
enum BoolExpr<'a> {
    Truthy(Box<NumExpr<'a>>),
    NonEmpty(Box<StrExpr<'a>>),
    Not(Box<BoolExpr<'a>>),
    And(Box<BoolExpr<'a>>, Box<BoolExpr<'a>>),
    Or(Box<BoolExpr<'a>>, Box<BoolExpr<'a>>),
    Cmp(CmpOp, Box<NumExpr<'a>>, Box<NumExpr<'a>>),
    StrCmp(CmpOp, Box<StrExpr<'a>>, Box<StrExpr<'a>>),
    Contains(Box<StrExpr<'a>>, Box<StrExpr<'a>>),
    PerEntry(&'a ColRef, Box<BoolExpr<'a>>),
}

/// A resolved expression whose rows are strings.
enum StrExpr<'a> {
    Const(Arc<str>),
    Col(Leaf<'a, Arc<str>>),
    If(Box<BoolExpr<'a>>, Box<StrExpr<'a>>, Box<StrExpr<'a>>),
    PerEntry(&'a ColRef, Box<StrExpr<'a>>),
}

/// A resolved expression, by the static type of its rows.
enum Kernel<'a> {
    Num(NumExpr<'a>),
    Bool(BoolExpr<'a>),
    Str(StrExpr<'a>),
}

impl<'a> Kernel<'a> {
    /// `expr` resolved against the live relation and scalars, or `None`
    /// when some row could error or `expr` reads a column with nulls or
    /// `Mixed` cells.
    fn resolve(expr: &Expr, rel: &'a Relation<'a>, env: &Env) -> Option<Self> {
        let mut resolver = Resolver {
            rel,
            env,
            slots: Vec::new(),
        };
        resolver.resolve(expr)
    }

    /// The same kernel, decided once per entry of `col`.
    fn per_entry(self, col: &'a ColRef) -> Self {
        match self {
            Kernel::Num(e) => Kernel::Num(NumExpr::PerEntry(col, Box::new(e))),
            Kernel::Bool(e) => Kernel::Bool(BoolExpr::PerEntry(col, Box::new(e))),
            Kernel::Str(e) => Kernel::Str(StrExpr::PerEntry(col, Box::new(e))),
        }
    }

    /// As an arithmetic operand: numbers, and masks as `Int` 0/1.
    /// Strings would fail the row tier's `num`.
    fn into_num(self) -> Option<Box<NumExpr<'a>>> {
        match self {
            Kernel::Num(e) => Some(Box::new(e)),
            Kernel::Bool(e) => Some(Box::new(NumExpr::Bool(Box::new(e)))),
            Kernel::Str(_) => None,
        }
    }

    /// As a condition: each row's truthiness.
    fn into_mask(self) -> Box<BoolExpr<'a>> {
        Box::new(match self {
            Kernel::Num(e) => BoolExpr::Truthy(Box::new(e)),
            Kernel::Bool(e) => e,
            Kernel::Str(e) => BoolExpr::NonEmpty(Box::new(e)),
        })
    }

    fn eval(&self, at: Domain<'_>) -> Cells {
        match self {
            Kernel::Num(e) => Cells::Num(e.eval(at)),
            Kernel::Bool(e) => Cells::Bool(e.eval(at)),
            Kernel::Str(e) => Cells::Str(e.eval(at)),
        }
    }
}

fn map<A, T>(a: Vec<A>, f: impl Fn(A) -> T) -> Vec<T> {
    a.into_iter().map(f).collect()
}

fn zip<A, B, T>(a: Vec<A>, b: Vec<B>, f: impl Fn(A, B) -> T) -> Vec<T> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

/// `f` of each row's two numbers; a constant side is read once.
fn pair<T>(a: &NumExpr, b: &NumExpr, at: Domain<'_>, f: impl Fn(Num, Num) -> T) -> Vec<T> {
    match (a, b) {
        (NumExpr::Const(x), _) => map(b.eval(at), |y| f(*x, y)),
        (_, NumExpr::Const(y)) => map(a.eval(at), |x| f(x, *y)),
        _ => zip(a.eval(at), b.eval(at), f),
    }
}

/// `eval` over the entries of `col` (a `Dict` or RLE column), spread to
/// the rows of `at`: each dictionary string or run is decided once.
/// Over fewer rows than entries, or inside such an evaluation, it is
/// `eval(at)`.
fn per_entry<T: Clone>(
    col: &ColRef,
    at: Domain<'_>,
    eval: impl Fn(Domain<'_>) -> Vec<T>,
) -> Vec<T> {
    match (at, entry_count(col)) {
        (Domain::Rows(rows), Some(n)) if n <= rows.len() => {
            let cells = eval(Domain::Entries(n));
            let mut entry = entry_index(col);
            rows.map(|i| cells[entry(i)].clone())
        }
        _ => eval(at),
    }
}

/// The number of dictionary strings of a `Dict` column or runs of an RLE
/// column.
fn entry_count(col: &ColRef) -> Option<usize> {
    match col.data.as_ref() {
        ColumnData::Dict { dict, .. } => Some(dict.len()),
        ColumnData::RleInt { ends, .. } | ColumnData::RleFloat { ends, .. } => Some(ends.len()),
        _ => None,
    }
}

/// `if(m, x, y)` over two numbers, by `value_ops::scalar_call`'s rule:
/// the chosen one, made `Float` when either branch is `Float`.
fn pick(m: bool, x: Num, y: Num) -> Num {
    let v = if m { x } else { y };
    match (x, y) {
        (Num::Int(_), Num::Int(_)) => v,
        _ => Num::Float(v.f64()),
    }
}

/// `if(mask, a, b)` per row.
fn select<T>(mask: Vec<bool>, a: Vec<T>, b: Vec<T>) -> Vec<T> {
    let picks = mask.into_iter().zip(a.into_iter().zip(b));
    picks.map(|(m, (x, y))| if m { x } else { y }).collect()
}

impl NumExpr<'_> {
    fn eval(&self, at: Domain<'_>) -> Vec<Num> {
        match self {
            NumExpr::Const(v) => vec![*v; at.len()],
            NumExpr::Int(leaf) => leaf.read(at, |&v| Num::Int(v)),
            NumExpr::Float(leaf) => leaf.read(at, |&v| Num::Float(v)),
            NumExpr::Arith(op, a, b) => pair(a, b, at, |x, y| {
                let v = arith_f64(*op, x.f64(), y.f64());
                match (x, y) {
                    (Num::Int(_), Num::Int(_)) if stays_int(v) => Num::Int(v as i64),
                    _ => Num::Float(v),
                }
            }),
            NumExpr::Neg(x) => map(x.eval(at), |v| match v {
                Num::Int(i) if stays_int(i as f64) => Num::Int(-i),
                _ => Num::Float(-v.f64()),
            }),
            NumExpr::Math(f, x) => map(x.eval(at), |v| Num::Float(f(v.f64()))),
            NumExpr::Math2(f, a, b) => pair(a, b, at, |x, y| Num::Float(f(x.f64(), y.f64()))),
            NumExpr::Bool(m) => map(m.eval(at), |b| Num::Int(b.into())),
            NumExpr::If(c, a, b) => {
                let mask = c.eval(at);
                match (&**a, &**b) {
                    (_, NumExpr::Const(y)) => zip(mask, a.eval(at), |m, x| pick(m, x, *y)),
                    (NumExpr::Const(x), _) => zip(mask, b.eval(at), |m, y| pick(m, *x, y)),
                    _ => {
                        let picks = mask.into_iter().zip(a.eval(at).into_iter().zip(b.eval(at)));
                        picks.map(|(m, (x, y))| pick(m, x, y)).collect()
                    }
                }
            }
            NumExpr::PerEntry(col, e) => per_entry(col, at, |at| e.eval(at)),
        }
    }
}

impl BoolExpr<'_> {
    fn eval(&self, at: Domain<'_>) -> Vec<bool> {
        match self {
            BoolExpr::Truthy(x) => map(x.eval(at), |v| v.f64() != 0.0),
            BoolExpr::NonEmpty(s) => map(s.eval(at), |s| !s.is_empty()),
            BoolExpr::Not(m) => map(m.eval(at), |b| !b),
            BoolExpr::And(a, b) => zip(a.eval(at), b.eval(at), |x, y| x && y),
            BoolExpr::Or(a, b) => zip(a.eval(at), b.eval(at), |x, y| x || y),
            BoolExpr::Cmp(op, a, b) => pair(a, b, at, |x, y| op.holds(&x.f64(), &y.f64())),
            BoolExpr::StrCmp(op, a, b) => zip(a.eval(at), b.eval(at), |x, y| op.holds(&*x, &*y)),
            BoolExpr::Contains(h, n) => zip(h.eval(at), n.eval(at), |h, n| h.contains(&*n)),
            BoolExpr::PerEntry(col, e) => per_entry(col, at, |at| e.eval(at)),
        }
    }
}

impl StrExpr<'_> {
    fn eval(&self, at: Domain<'_>) -> Vec<Arc<str>> {
        match self {
            StrExpr::Const(s) => vec![Arc::clone(s); at.len()],
            StrExpr::Col(leaf) => leaf.read(at, Arc::clone),
            StrExpr::If(c, a, b) => select(c.eval(at), a.eval(at), b.eval(at)),
            StrExpr::PerEntry(col, e) => per_entry(col, at, |at| e.eval(at)),
        }
    }
}

/// The kernel reading `col`'s cells, when it has neither nulls nor
/// `Mixed` cells.
fn leaf(col: &ColRef) -> Option<Kernel<'_>> {
    Some(match entries(&col.data)? {
        Entries::Int(values) => Kernel::Num(NumExpr::Int(Leaf(col, values))),
        Entries::Float(values) => Kernel::Num(NumExpr::Float(Leaf(col, values))),
        Entries::Str(values) => Kernel::Str(StrExpr::Col(Leaf(col, values))),
    })
}

/// Binds an expression's names against the live relation and scalars.
struct Resolver<'a, 'e> {
    rel: &'a Relation<'a>,
    env: &'e Env,
    /// Slots of the columns bound so far.
    slots: Vec<usize>,
}

impl<'a> Resolver<'a, '_> {
    /// The kernel for `e`; a computation that reads one `Dict` or RLE
    /// column and no other is decided once per entry of that column.
    fn resolve(&mut self, e: &Expr) -> Option<Kernel<'a>> {
        let start = self.slots.len();
        let kernel = self.bind(e)?;
        Some(match self.slots[start..].split_first() {
            Some((&slot, rest))
                if rest.iter().all(|&s| s == slot) && !matches!(e, Expr::Ident(_)) =>
            {
                let col = &self.rel.cols[slot];
                match entry_count(col) {
                    Some(_) => kernel.per_entry(col),
                    None => kernel,
                }
            }
            _ => kernel,
        })
    }

    fn bind(&mut self, e: &Expr) -> Option<Kernel<'a>> {
        if !self.reads_column(e) {
            // The same value on every row: the row tier's, computed once.
            return match eval_row(e, self.rel, 0, self.env).ok()? {
                Value::Int(v) => Some(Kernel::Num(NumExpr::Const(Num::Int(v)))),
                Value::Float(v) => Some(Kernel::Num(NumExpr::Const(Num::Float(v)))),
                Value::Str(s) => Some(Kernel::Str(StrExpr::Const(s))),
                Value::Null => None,
            };
        }
        match e {
            // Literals read no column, so the fold above took them.
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) => None,
            Expr::Ident(name) => self.column(name),
            Expr::Unary(UnaryOp::Neg, x) => Some(Kernel::Num(NumExpr::Neg(self.num(x)?))),
            Expr::Unary(UnaryOp::Not, x) => Some(Kernel::Bool(BoolExpr::Not(self.mask(x)?))),
            Expr::Binary(l, op, r) => self.binary(*op, l, r),
            Expr::Call(name, args) => self.call(name, args),
        }
    }

    fn reads_column(&self, e: &Expr) -> bool {
        match e {
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) => false,
            Expr::Ident(name) => self.rel.col_idx(name).is_some(),
            Expr::Unary(_, x) => self.reads_column(x),
            Expr::Binary(l, _, r) => self.reads_column(l) || self.reads_column(r),
            Expr::Call(_, args) => args.iter().any(|a| self.reads_column(a)),
        }
    }

    fn column(&mut self, name: &str) -> Option<Kernel<'a>> {
        let slot = self.rel.col_idx(name)?;
        let node = leaf(&self.rel.cols[slot])?;
        self.slots.push(slot);
        Some(node)
    }

    fn num(&mut self, e: &Expr) -> Option<Box<NumExpr<'a>>> {
        self.resolve(e)?.into_num()
    }

    fn mask(&mut self, e: &Expr) -> Option<Box<BoolExpr<'a>>> {
        Some(self.resolve(e)?.into_mask())
    }

    fn binary(&mut self, op: BinaryOp, l: &Expr, r: &Expr) -> Option<Kernel<'a>> {
        let cmp = match op_kind(op) {
            OpKind::And => return Some(Kernel::Bool(BoolExpr::And(self.mask(l)?, self.mask(r)?))),
            OpKind::Or => return Some(Kernel::Bool(BoolExpr::Or(self.mask(l)?, self.mask(r)?))),
            OpKind::Arith(op) => {
                return Some(Kernel::Num(NumExpr::Arith(op, self.num(l)?, self.num(r)?)));
            }
            OpKind::Cmp(cmp) => cmp,
        };
        Some(Kernel::Bool(match (self.resolve(l)?, self.resolve(r)?) {
            (Kernel::Str(a), Kernel::Str(b)) => BoolExpr::StrCmp(cmp, Box::new(a), Box::new(b)),
            // A string against a number compares rendered text: row tier.
            (a, b) => BoolExpr::Cmp(cmp, a.into_num()?, b.into_num()?),
        }))
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Option<Kernel<'a>> {
        if let ("min" | "max", [a, b]) = (name, args) {
            let f = if name == "min" { f64::min } else { f64::max };
            return Some(Kernel::Num(NumExpr::Math2(f, self.num(a)?, self.num(b)?)));
        }
        let (f, x): (fn(f64) -> f64, _) = match (name, args) {
            ("abs", [x]) => (f64::abs, x),
            ("sqrt", [x]) => (|v| v.max(0.0).sqrt(), x),
            ("floor", [x]) => (f64::floor, x),
            ("ceil", [x]) => (f64::ceil, x),
            ("round", [x]) => (f64::round, x),
            ("if", [c, a, b]) => {
                let c = self.mask(c)?;
                return Some(match (self.resolve(a)?, self.resolve(b)?) {
                    (Kernel::Str(a), Kernel::Str(b)) => {
                        Kernel::Str(StrExpr::If(c, Box::new(a), Box::new(b)))
                    }
                    (a, b) => Kernel::Num(NumExpr::If(c, a.into_num()?, b.into_num()?)),
                });
            }
            ("contains", [h, n]) => {
                return match (self.resolve(h)?, self.resolve(n)?) {
                    (Kernel::Str(h), Kernel::Str(n)) => {
                        Some(Kernel::Bool(BoolExpr::Contains(Box::new(h), Box::new(n))))
                    }
                    _ => None,
                };
            }
            _ => return None,
        };
        Some(Kernel::Num(NumExpr::Math(f, self.num(x)?)))
    }
}

/// One cell per row: the kernel's typed vectors, or the row tier's
/// values.
enum Cells {
    Num(Vec<Num>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
    Values(Vec<Value>),
}

impl Cells {
    /// Each row's truthiness (`FILTER`).
    fn mask(self) -> Vec<bool> {
        match self {
            Cells::Num(v) => map(v, |x| x.f64() != 0.0),
            Cells::Bool(v) => v,
            Cells::Str(v) => map(v, |s| !s.is_empty()),
            Cells::Values(v) => v.iter().map(Value::truthy).collect(),
        }
    }

    /// The numeric cells in row order, strings and nulls skipped
    /// (aggregate populations).
    fn numbers(self) -> Vec<f64> {
        match self {
            Cells::Num(v) => map(v, Num::f64),
            Cells::Bool(v) => map(v, |b| f64::from(u8::from(b))),
            Cells::Str(_) => Vec::new(),
            Cells::Values(v) => v.iter().filter_map(Value::as_f64).collect(),
        }
    }

    /// The column that pushing each row's value builds (`DERIVE`,
    /// `distinct`), counted under `iql.columns.mixed` when it is `Mixed`.
    fn column(self) -> ColumnData {
        let col = match self {
            // `push` keeps a column `Int` or `Float` while every row
            // agrees, and turns it `Mixed` at the first that does not.
            Cells::Num(v) => {
                let ints: Option<Vec<i64>> = v
                    .iter()
                    .map(|x| match *x {
                        Num::Int(i) => Some(i),
                        Num::Float(_) => None,
                    })
                    .collect();
                let floats: Option<Vec<f64>> = v
                    .iter()
                    .map(|x| match *x {
                        Num::Float(f) => Some(f),
                        Num::Int(_) => None,
                    })
                    .collect();
                match (ints, floats) {
                    (Some(values), _) => ColumnData::Int {
                        values,
                        validity: None,
                    },
                    (None, Some(values)) => ColumnData::Float {
                        values,
                        validity: None,
                    },
                    (None, None) => ColumnData::Mixed(map(v, Num::value)),
                }
            }
            Cells::Bool(v) => ColumnData::Int {
                values: map(v, i64::from),
                validity: None,
            },
            Cells::Str(v) => ColumnData::from_values(v.into_iter().map(Value::Str)),
            Cells::Values(v) => ColumnData::from_values(v),
        };
        if matches!(col, ColumnData::Mixed(_)) {
            ion_obs::counter("iql.columns.mixed", 1);
        }
        col
    }
}
