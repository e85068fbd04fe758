//! Vectorized columnar executor for IQL plans.
//!
//! The working relation is a set of [`ColRef`] column views: a shared
//! (`Arc`) [`ColumnData`] plus an optional selection vector mapping
//! logical row ordinals to physical rows. Filters, sorts, limits and
//! joins only rewrite selection vectors — column payloads are never
//! copied until the final table is materialized (and a dense full-length
//! view materializes by pointer clone).
//!
//! Semantics parity with the legacy tree-walker is load-bearing (the
//! differential suite compares bit-for-bit, errors included), so the
//! executor has two tiers per operator:
//!
//! * **fast kernels** that run only when static inspection proves the
//!   expression infallible over the column types present (numeric
//!   comparisons over non-null numeric columns, float arithmetic with a
//!   statically-`Float` result, direct column aggregates, …); and
//! * a **generic tier** that evaluates the expression row-at-a-time over
//!   the column views in exactly the legacy visit order, reproducing the
//!   legacy error (and error *position*) when there is one.
//!
//! Fast kernels never change observable values: they are used only where
//! the legacy result type is statically known (see `NumTy`), and they
//! evaluate through the same shared `value_ops` kernels.

use super::ast::{BinaryOp, Expr, UnaryOp};
use super::eval::RunOutput;
use super::plan::{Plan, PlanOp};
use super::value_ops::{
    arith_f64, binary, compare_values, eval_scalar_expr, eval_scalar_or_number, is_agg_call, num,
    numeric_agg, percentile, scalar_call, unique_columns, Env,
};
use super::IqlError;
use extractor::{ColumnData, Table, TableSet, Value};
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

    #[inline]
    fn f64_at(&self, i: usize) -> Option<f64> {
        self.data.f64_at(self.phys(i))
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

/// The working relation: named column views of equal logical length.
struct Relation {
    name: String,
    names: Vec<String>,
    cols: Vec<ColRef>,
    len: usize,
}

impl Relation {
    fn from_table(t: &Table) -> Self {
        Relation {
            name: t.name.clone(),
            names: t.columns.iter().map(|c| c.name.clone()).collect(),
            cols: (0..t.columns.len())
                .map(|i| ColRef::dense(t.column_arc(i).expect("column in range")))
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
            &self.name,
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

    fn iter(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match self {
            Rows::All(n) => Box::new(0..*n),
            Rows::Subset(s) => Box::new(s.iter().map(|&i| i as usize)),
        }
    }
}

/// Physical-effort counters surfaced as `iql.rows.scanned` /
/// `iql.rows.pruned`.
#[derive(Default)]
struct Effort {
    scanned: u64,
    pruned: u64,
}

/// Execute a plan against the attached tables.
pub(crate) fn execute(plan: &Plan, tables: &TableSet) -> Result<RunOutput, IqlError> {
    let mut rel: Option<Relation> = None;
    let mut env = Env::default();
    let mut out = RunOutput::default();
    let mut effort = Effort::default();
    let obs = ion_obs::enabled();
    let result = (|| {
        for op in &plan.ops {
            let _span = obs.then(|| ion_obs::span(format!("iql.op.{}", op.mnemonic())));
            apply(op, tables, &mut rel, &mut env, &mut out, &mut effort)?;
        }
        out.table = rel.as_ref().map(Relation::materialize);
        Ok(())
    })();
    if obs {
        ion_obs::counter("iql.rows.scanned", effort.scanned);
        ion_obs::counter("iql.rows.pruned", effort.pruned);
    }
    result.map(|()| out)
}

#[allow(clippy::too_many_lines)]
fn apply(
    op: &PlanOp,
    tables: &TableSet,
    rel: &mut Option<Relation>,
    env: &mut Env,
    out: &mut RunOutput,
    effort: &mut Effort,
) -> Result<(), IqlError> {
    match op {
        PlanOp::Scan { table } => {
            let t = tables.get(table).ok_or_else(|| IqlError::NoSuchTable {
                table: table.clone(),
            })?;
            out.rows_scanned += t.len();
            effort.scanned += t.len() as u64;
            *rel = Some(Relation::from_table(t));
        }
        PlanOp::Filter { pred, .. } => {
            let r = rel.as_mut().ok_or(IqlError::NoTableLoaded)?;
            out.rows_scanned += r.len;
            effort.scanned += r.len as u64;
            let kept: Vec<u32> = match fast_filter_mask(pred, r, env) {
                Some(mask) => mask
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &keep)| keep.then_some(i as u32))
                    .collect(),
                None => {
                    let mut kept = Vec::new();
                    for i in 0..r.len {
                        if eval_row(pred, r, i, env)?.truthy() {
                            kept.push(i as u32);
                        }
                    }
                    kept
                }
            };
            effort.pruned += (r.len - kept.len()) as u64;
            r.select_rows(kept);
        }
        PlanOp::Derive { name, expr } => {
            let r = rel.as_mut().ok_or(IqlError::NoTableLoaded)?;
            out.rows_scanned += r.len;
            effort.scanned += r.len as u64;
            if r.names.contains(name) {
                return Err(IqlError::DuplicateColumn {
                    column: name.clone(),
                });
            }
            let data = match fast_derive(expr, r, env) {
                Some(data) => data,
                None => {
                    let mut c = ColumnData::empty();
                    for i in 0..r.len {
                        c.push(eval_row(expr, r, i, env)?);
                    }
                    c
                }
            };
            r.names.push(name.clone());
            r.cols.push(ColRef::dense(Arc::new(data)));
        }
        PlanOp::Project { columns, .. } => {
            let r = rel.as_mut().ok_or(IqlError::NoTableLoaded)?;
            let idxs: Vec<usize> = columns
                .iter()
                .map(|n| {
                    r.col_idx(n)
                        .ok_or_else(|| IqlError::NoSuchColumn { column: n.clone() })
                })
                .collect::<Result<_, _>>()?;
            unique_columns(columns)?;
            r.cols = idxs.iter().map(|&i| r.cols[i].clone()).collect();
            r.names = columns.clone();
        }
        PlanOp::Sort { column, descending } => {
            let r = rel.as_mut().ok_or(IqlError::NoTableLoaded)?;
            let idx = r.col_idx(column).ok_or_else(|| IqlError::NoSuchColumn {
                column: column.clone(),
            })?;
            let mut perm: Vec<u32> = (0..r.len as u32).collect();
            let col = &r.cols[idx];
            match sort_keys(col, r.len) {
                SortKeys::F64(keys) => perm.sort_by(|&a, &b| {
                    keys[a as usize]
                        .partial_cmp(&keys[b as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                }),
                SortKeys::Str => match col.data.as_ref() {
                    ColumnData::Str { values, .. } => {
                        perm.sort_by(|&a, &b| {
                            values[col.phys(a as usize)].cmp(&values[col.phys(b as usize)])
                        });
                    }
                    ColumnData::Dict { codes, dict, .. } => {
                        // Compare through the dictionary — codes are
                        // first-occurrence ordinals, not sort order.
                        perm.sort_by(|&a, &b| {
                            dict[codes[col.phys(a as usize)] as usize]
                                .cmp(&dict[codes[col.phys(b as usize)] as usize])
                        });
                    }
                    _ => unreachable!(),
                },
                SortKeys::Generic => {
                    let keys: Vec<Value> = (0..r.len).map(|i| col.value(i)).collect();
                    perm.sort_by(|&a, &b| compare_values(&keys[a as usize], &keys[b as usize]));
                }
            }
            if *descending {
                perm.reverse();
            }
            r.select_rows(perm);
        }
        PlanOp::Limit(n) => {
            let r = rel.as_mut().ok_or(IqlError::NoTableLoaded)?;
            if *n < r.len {
                effort.pruned += (r.len - n) as u64;
                // Truncation needs no gather: views read only the first
                // `len` ordinals; materialize slices selection vectors.
                r.len = *n;
            }
        }
        PlanOp::Join {
            table: right_name,
            on,
        } => {
            let left = rel.as_mut().ok_or(IqlError::NoTableLoaded)?;
            let right = tables
                .get(right_name)
                .ok_or_else(|| IqlError::NoSuchTable {
                    table: right_name.clone(),
                })?;
            out.rows_scanned += left.len + right.len();
            effort.scanned += (left.len + right.len()) as u64;
            let li = left
                .col_idx(on)
                .ok_or_else(|| IqlError::NoSuchColumn { column: on.clone() })?;
            let ri = right
                .column_index(on)
                .ok_or_else(|| IqlError::NoSuchColumn { column: on.clone() })?;
            // Right-side columns that collide with left names are dropped
            // (left wins), including the join column itself.
            let kept_right: Vec<usize> = right
                .columns
                .iter()
                .enumerate()
                .filter(|(i, c)| *i != ri && !left.names.contains(&c.name))
                .map(|(i, _)| i)
                .collect();
            // Hash join on key classes shared by both key columns; right
            // rows stay in row order per key, as in legacy.
            let rkey = right
                .column_arc(ri)
                .map(ColRef::dense)
                .ok_or_else(|| IqlError::NoSuchColumn { column: on.clone() })?;
            let lkey = &left.cols[li];
            let mut space = KeyClasses::new(&[lkey, &rkey]);
            let rclasses = space.classify(&rkey, 0..right.len());
            let mut index: Vec<Vec<u32>> = vec![Vec::new(); space.len()];
            for (i, &class) in rclasses.iter().enumerate() {
                index[class as usize].push(i as u32);
            }
            let mut lkeep: Vec<u32> = Vec::new();
            let mut rkeep: Vec<u32> = Vec::new();
            for (i, class) in space.classify(lkey, 0..left.len).into_iter().enumerate() {
                if let Some(matches) = index.get(class as usize) {
                    for &rrow in matches {
                        lkeep.push(i as u32);
                        rkeep.push(rrow);
                    }
                }
            }
            left.select_rows(lkeep);
            let rsel = Arc::new(rkeep);
            for &i in &kept_right {
                left.names.push(right.columns[i].name.clone());
                left.cols.push(ColRef {
                    data: right.column_arc(i).expect("column in range"),
                    sel: Some(Arc::clone(&rsel)),
                });
            }
        }
        PlanOp::Group { keys, aggs } => {
            let r = rel.as_mut().ok_or(IqlError::NoTableLoaded)?;
            out.rows_scanned += r.len;
            effort.scanned += r.len as u64;
            let key_idxs: Vec<usize> = keys
                .iter()
                .map(|k| {
                    r.col_idx(k)
                        .ok_or_else(|| IqlError::NoSuchColumn { column: k.clone() })
                })
                .collect::<Result<_, _>>()?;
            unique_columns(keys.iter().chain(aggs.iter().map(|a| &a.name)))?;
            // Group ids: key classes combined column by column, numbered
            // in first-use order.
            let mut gids: Vec<u32> = vec![0; r.len];
            let mut ngroups = usize::from(r.len > 0);
            for &k in &key_idxs {
                let col = &r.cols[k];
                let mut space = KeyClasses::new(&[col]);
                let classes = space.classify(col, 0..r.len);
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
                    key_idxs
                        .iter()
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
                for (c, &k) in key_idxs.iter().enumerate() {
                    out_cols[c].push(r.cols[k].value(first));
                }
                for (a, agg) in aggs.iter().enumerate() {
                    let v = eval_agg(&agg.expr, r, Rows::Subset(ordinals), env)?;
                    out_cols[keys.len() + a].push(v);
                }
            }
            let names: Vec<String> = keys
                .iter()
                .cloned()
                .chain(aggs.iter().map(|a| a.name.clone()))
                .collect();
            *r = Relation {
                name: r.name.clone(),
                names,
                cols: out_cols
                    .into_iter()
                    .map(|c| ColRef::dense(Arc::new(c)))
                    .collect(),
                len: ngroups,
            };
        }
        PlanOp::Agg(aggs) => {
            let r = rel.as_ref().ok_or(IqlError::NoTableLoaded)?;
            out.rows_scanned += r.len;
            effort.scanned += r.len as u64;
            for a in aggs {
                let v = eval_agg(&a.expr, r, Rows::All(r.len), env)?;
                env.scalars.insert(a.name.clone(), v);
            }
        }
        PlanOp::Let { name, expr } => {
            let v = eval_scalar_expr(expr, env)?;
            env.scalars.insert(name.clone(), v);
        }
        PlanOp::Emit(names) => {
            for n in names {
                let v = env
                    .scalars
                    .get(n)
                    .cloned()
                    .ok_or_else(|| IqlError::NoSuchVariable { name: n.clone() })?;
                out.emitted.push((n.clone(), v));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Generic row-at-a-time tier (legacy visit order, exact error parity)
// ---------------------------------------------------------------------------

fn eval_row(expr: &Expr, rel: &Relation, i: usize, env: &Env) -> Result<Value, IqlError> {
    match expr {
        Expr::Number(n) => Ok(Value::Float(*n)),
        Expr::Str(s) => Ok(Value::Str(s.as_str().into())),
        Expr::Ident(name) => {
            if let Some(c) = rel.col_idx(name) {
                Ok(rel.cols[c].value(i))
            } else if let Some(v) = env.scalars.get(name) {
                Ok(v.clone())
            } else {
                Err(IqlError::NoSuchColumn {
                    column: name.clone(),
                })
            }
        }
        Expr::Unary(op, inner) => {
            let v = eval_row(inner, rel, i, env)?;
            match op {
                UnaryOp::Neg => Ok(Value::Float(-num(&v, "negation operand")?)),
                UnaryOp::Not => Ok(Value::Int(i64::from(!v.truthy()))),
            }
        }
        Expr::Binary(l, op, r) => {
            let lv = eval_row(l, rel, i, env)?;
            let rv = eval_row(r, rel, i, env)?;
            binary(*op, lv, rv)
        }
        Expr::Call(name, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_row(a, rel, i, env))
                .collect::<Result<_, _>>()?;
            scalar_call(name, &vals)
        }
    }
}

/// Aggregate-context evaluation (mirrors the legacy `eval_agg_expr`).
fn eval_agg(expr: &Expr, rel: &Relation, rows: Rows<'_>, env: &Env) -> Result<Value, IqlError> {
    match expr {
        Expr::Number(n) => Ok(Value::Float(*n)),
        Expr::Str(s) => Ok(Value::Str(s.as_str().into())),
        Expr::Ident(name) => {
            // In aggregate context a bare identifier means "this scalar",
            // or the column value of the first row (useful after GROUP for
            // key columns).
            if let Some(v) = env.scalars.get(name) {
                return Ok(v.clone());
            }
            if let Some(c) = rel.col_idx(name) {
                return Ok(rows.first().map_or(Value::Null, |i| rel.cols[c].value(i)));
            }
            Err(IqlError::NoSuchVariable { name: name.clone() })
        }
        Expr::Unary(op, inner) => {
            let v = eval_agg(inner, rel, rows, env)?;
            match op {
                UnaryOp::Neg => Ok(Value::Float(-num(&v, "negation operand")?)),
                UnaryOp::Not => Ok(Value::Int(i64::from(!v.truthy()))),
            }
        }
        Expr::Binary(l, op, r) => {
            let lv = eval_agg(l, rel, rows, env)?;
            let rv = eval_agg(r, rel, rows, env)?;
            binary(*op, lv, rv)
        }
        Expr::Call(name, args) => {
            if !is_agg_call(name, args.len()) {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| eval_agg(a, rel, rows, env))
                    .collect::<Result<_, _>>()?;
                return scalar_call(name, &vals);
            }
            match name.as_str() {
                "count" => Ok(Value::Int(rows.len() as i64)),
                "distinct" => {
                    // A bare column is classified where it lies; any other
                    // expression is evaluated into a column first.
                    let column = match &args[0] {
                        Expr::Ident(name) => rel.col_idx(name),
                        _ => None,
                    };
                    let (col, rows): (ColRef, Box<dyn Iterator<Item = usize>>) = match column {
                        Some(c) => (rel.cols[c].clone(), rows.iter()),
                        None => {
                            let vals = rows
                                .iter()
                                .map(|i| eval_row(&args[0], rel, i, env))
                                .collect::<Result<Vec<_>, _>>()?;
                            let n = vals.len();
                            (
                                ColRef::dense(Arc::new(ColumnData::from_values(vals))),
                                Box::new(0..n),
                            )
                        }
                    };
                    let mut space = KeyClasses::new(&[&col]);
                    space.classify(&col, rows);
                    Ok(Value::Int(space.len() as i64))
                }
                "pct" => {
                    let p = eval_scalar_or_number(&args[1], env)?;
                    let vals = collect_numeric(&args[0], rel, rows, env)?;
                    Ok(Value::Float(percentile(vals, p)))
                }
                _ => {
                    let vals = collect_numeric(&args[0], rel, rows, env)?;
                    Ok(Value::Float(numeric_agg(name, &vals)))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Key classes (GROUP keys, `distinct`, JOIN keys)
// ---------------------------------------------------------------------------

/// The kind a null-free key column keys its cells by.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    Int,
    Float,
    Str,
}

/// The key kind of a column, or `None` when its cells must be keyed by
/// their rendered form: a column with nulls (`Null` renders like `""`)
/// or a `Mixed` one (`Int(5)` renders like `Str("5")`).
fn key_kind(data: &ColumnData) -> Option<KeyKind> {
    let kind = match data {
        ColumnData::Int { .. } | ColumnData::RleInt { .. } => KeyKind::Int,
        ColumnData::Float { .. } | ColumnData::RleFloat { .. } => KeyKind::Float,
        ColumnData::Str { .. } | ColumnData::Dict { .. } => KeyKind::Str,
        ColumnData::Mixed(_) => return None,
    };
    (data.null_count() == 0).then_some(kind)
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
/// previous call found, so a scan searches once per run, not per row.
fn run_at(ends: &[u64], p: usize, hint: &mut usize) -> usize {
    let p = p as u64;
    let held = ends.get(*hint).is_some_and(|&e| p < e) && (*hint == 0 || ends[*hint - 1] <= p);
    if !held {
        *hint = ends.partition_point(|&e| e <= p);
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
    shared: Option<KeyKind>,
}

impl<'a> KeyClasses<'a> {
    fn new(cols: &[&ColRef]) -> Self {
        let kinds: Vec<Option<KeyKind>> = cols.iter().map(|c| key_kind(&c.data)).collect();
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
    fn classify(&mut self, col: &'a ColRef, rows: impl IntoIterator<Item = usize>) -> Vec<u32> {
        let rows = rows.into_iter();
        let mut out = Vec::with_capacity(rows.size_hint().0);
        let kind = key_kind(&col.data);
        let typed = kind.is_some() && kind == self.shared;
        let mut run = 0;
        match col.data.as_ref() {
            ColumnData::Str { values, .. } if kind == Some(KeyKind::Str) => {
                for i in rows {
                    out.push(self.class(Key::Text(Cow::Borrowed(&values[col.phys(i)]))));
                }
            }
            ColumnData::Dict { codes, dict, .. } if kind == Some(KeyKind::Str) => {
                // Through the string: duplicate dictionary entries meet.
                for i in rows {
                    let entry = &dict[codes[col.phys(i)] as usize];
                    out.push(self.class(Key::Text(Cow::Borrowed(entry))));
                }
            }
            ColumnData::Int { values, .. } if typed => {
                for i in rows {
                    out.push(self.class(Key::Int(values[col.phys(i)])));
                }
            }
            ColumnData::RleInt { values, ends } if typed => {
                for i in rows {
                    let r = run_at(ends, col.phys(i), &mut run);
                    out.push(self.class(Key::Int(values[r])));
                }
            }
            ColumnData::Float { values, .. } if typed => {
                for i in rows {
                    out.push(self.class(Key::float(values[col.phys(i)])));
                }
            }
            ColumnData::RleFloat { values, ends } if typed => {
                for i in rows {
                    let r = run_at(ends, col.phys(i), &mut run);
                    out.push(self.class(Key::float(values[r])));
                }
            }
            _ => {
                for i in rows {
                    out.push(self.class(Key::Text(Cow::Owned(col.value(i).to_string()))));
                }
                ion_obs::counter("iql.keys.rendered", out.len() as u64);
            }
        }
        out
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

/// Collect the numeric population of `expr` over `rows` (non-numeric
/// cells are skipped). Direct column references read unboxed `f64`s.
fn collect_numeric(
    expr: &Expr,
    rel: &Relation,
    rows: Rows<'_>,
    env: &Env,
) -> Result<Vec<f64>, IqlError> {
    // Fast path: a bare column reference (columns shadow scalars in row
    // context, so `Ident ∈ columns` is infallible).
    if let Expr::Ident(name) = expr {
        if let Some(c) = rel.col_idx(name) {
            let col = &rel.cols[c];
            // Run-expansion fast path: a dense full-length RLE view
            // expands sequentially in O(rows) instead of paying a
            // per-row binary search. Emission order is identical to the
            // per-row loop, so order-sensitive folds (sum/mean/std)
            // stay bit-identical.
            if col.sel.is_none() {
                if let Rows::All(n) = rows {
                    let expand = |ends: &[u64], get: &dyn Fn(usize) -> f64| -> Vec<f64> {
                        let mut out = Vec::with_capacity(n);
                        let mut start = 0usize;
                        for (run, &e) in ends.iter().enumerate() {
                            let end = (e as usize).min(n);
                            out.extend(std::iter::repeat_n(get(run), end.saturating_sub(start)));
                            start = end;
                            if start >= n {
                                break;
                            }
                        }
                        out
                    };
                    match col.data.as_ref() {
                        ColumnData::RleInt { values, ends } => {
                            return Ok(expand(ends, &|run| values[run] as f64));
                        }
                        ColumnData::RleFloat { values, ends } => {
                            return Ok(expand(ends, &|run| values[run]));
                        }
                        _ => {}
                    }
                }
            }
            let mut out = Vec::with_capacity(rows.len());
            for i in rows.iter() {
                if let Some(f) = col.f64_at(i) {
                    out.push(f);
                }
            }
            return Ok(out);
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    for i in rows.iter() {
        let v = eval_row(expr, rel, i, env)?;
        if let Some(f) = v.as_f64() {
            out.push(f);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Fast kernels (statically-infallible expressions only)
// ---------------------------------------------------------------------------

/// Sort-key strategy for a column view.
enum SortKeys {
    /// Non-null numeric column: compare as `f64` (legacy `compare_values`
    /// coerces through `as_f64`, so `i64` keys must NOT compare as
    /// integers — the difference is observable above 2^53).
    F64(Vec<f64>),
    /// Non-null string column: legacy falls through to rendered-text
    /// comparison, which equals direct content comparison for `Str`.
    Str,
    /// Nullable or mixed: materialize values, use `compare_values`.
    Generic,
}

fn sort_keys(col: &ColRef, len: usize) -> SortKeys {
    match col.data.as_ref() {
        ColumnData::Int { .. }
        | ColumnData::Float { .. }
        | ColumnData::RleInt { .. }
        | ColumnData::RleFloat { .. }
            if col.data.null_count() == 0 =>
        {
            SortKeys::F64(
                (0..len)
                    .map(|i| col.f64_at(i).expect("non-null numeric"))
                    .collect(),
            )
        }
        ColumnData::Str { .. } | ColumnData::Dict { .. } if col.data.null_count() == 0 => {
            SortKeys::Str
        }
        _ => SortKeys::Generic,
    }
}

/// A compiled infallible numeric expression over the relation.
enum NumNode {
    Const(f64),
    Col(usize),
    Bin(BinaryOp, Box<NumNode>, Box<NumNode>),
    Neg(Box<NumNode>),
    Call1(fn(f64) -> f64, Box<NumNode>),
    Call2(fn(f64, f64) -> f64, Box<NumNode>, Box<NumNode>),
}

impl NumNode {
    fn eval(&self, rel: &Relation, i: usize) -> f64 {
        match self {
            NumNode::Const(v) => *v,
            NumNode::Col(c) => rel.cols[*c].f64_at(i).unwrap_or(0.0),
            NumNode::Bin(op, a, b) => arith_f64(*op, a.eval(rel, i), b.eval(rel, i)),
            NumNode::Neg(a) => -a.eval(rel, i),
            NumNode::Call1(f, a) => f(a.eval(rel, i)),
            NumNode::Call2(f, a, b) => f(a.eval(rel, i), b.eval(rel, i)),
        }
    }
}

/// Static result type of a compiled numeric expression: whether every
/// row's legacy value is `Value::Int`, always `Value::Float`, or varies
/// per row (`Int op Int` keeps `Int` only when the result is integral
/// and small — not statically known).
#[derive(Clone, Copy, PartialEq, Eq)]
enum NumTy {
    Int,
    Float,
    Varies,
}

/// Compile `expr` into an infallible unboxed-`f64` program, or `None`
/// when fallibility or value semantics can't be statically guaranteed.
fn compile_num(expr: &Expr, rel: &Relation, env: &Env) -> Option<(NumNode, NumTy)> {
    match expr {
        Expr::Number(n) => Some((NumNode::Const(*n), NumTy::Float)),
        Expr::Str(_) => None,
        Expr::Ident(name) => {
            if let Some(c) = rel.col_idx(name) {
                if rel.cols[c].data.null_count() > 0 {
                    return None;
                }
                match rel.cols[c].data.as_ref() {
                    ColumnData::Int { .. } | ColumnData::RleInt { .. } => {
                        Some((NumNode::Col(c), NumTy::Int))
                    }
                    ColumnData::Float { .. } | ColumnData::RleFloat { .. } => {
                        Some((NumNode::Col(c), NumTy::Float))
                    }
                    _ => None,
                }
            } else {
                match env.scalars.get(name)? {
                    Value::Int(v) => Some((NumNode::Const(*v as f64), NumTy::Int)),
                    Value::Float(v) => Some((NumNode::Const(*v), NumTy::Float)),
                    _ => None,
                }
            }
        }
        Expr::Unary(UnaryOp::Neg, inner) => {
            let (n, _) = compile_num(inner, rel, env)?;
            Some((NumNode::Neg(Box::new(n)), NumTy::Float))
        }
        Expr::Unary(UnaryOp::Not, _) => None,
        Expr::Binary(l, op, r) => {
            if !matches!(
                op,
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem
            ) {
                return None;
            }
            let (ln, lt) = compile_num(l, rel, env)?;
            let (rn, rt) = compile_num(r, rel, env)?;
            let ty = if lt == NumTy::Float || rt == NumTy::Float {
                // At least one operand is always Float: the Int-preserving
                // rule can never fire, result is always Float.
                NumTy::Float
            } else {
                NumTy::Varies
            };
            Some((NumNode::Bin(*op, Box::new(ln), Box::new(rn)), ty))
        }
        Expr::Call(name, args) => {
            let node = match (name.as_str(), args.len()) {
                ("abs", 1) => {
                    NumNode::Call1(f64::abs, Box::new(compile_num(&args[0], rel, env)?.0))
                }
                ("sqrt", 1) => NumNode::Call1(
                    |v| v.max(0.0).sqrt(),
                    Box::new(compile_num(&args[0], rel, env)?.0),
                ),
                ("floor", 1) => {
                    NumNode::Call1(f64::floor, Box::new(compile_num(&args[0], rel, env)?.0))
                }
                ("ceil", 1) => {
                    NumNode::Call1(f64::ceil, Box::new(compile_num(&args[0], rel, env)?.0))
                }
                ("round", 1) => {
                    NumNode::Call1(f64::round, Box::new(compile_num(&args[0], rel, env)?.0))
                }
                ("min", 2) => NumNode::Call2(
                    f64::min,
                    Box::new(compile_num(&args[0], rel, env)?.0),
                    Box::new(compile_num(&args[1], rel, env)?.0),
                ),
                ("max", 2) => NumNode::Call2(
                    f64::max,
                    Box::new(compile_num(&args[0], rel, env)?.0),
                    Box::new(compile_num(&args[1], rel, env)?.0),
                ),
                _ => return None,
            };
            Some((node, NumTy::Float))
        }
    }
}

/// Fast boolean mask for a predicate, or `None` when any subexpression
/// could error or needs per-row `Value` semantics we don't specialize.
fn fast_filter_mask(pred: &Expr, rel: &Relation, env: &Env) -> Option<Vec<bool>> {
    match pred {
        Expr::Binary(l, BinaryOp::And, r) => {
            let (a, b) = (
                fast_filter_mask(l, rel, env)?,
                fast_filter_mask(r, rel, env)?,
            );
            Some(a.iter().zip(&b).map(|(&x, &y)| x && y).collect())
        }
        Expr::Binary(l, BinaryOp::Or, r) => {
            let (a, b) = (
                fast_filter_mask(l, rel, env)?,
                fast_filter_mask(r, rel, env)?,
            );
            Some(a.iter().zip(&b).map(|(&x, &y)| x || y).collect())
        }
        Expr::Unary(UnaryOp::Not, inner) => {
            let mut m = fast_filter_mask(inner, rel, env)?;
            for b in &mut m {
                *b = !*b;
            }
            Some(m)
        }
        Expr::Binary(l, op, r)
            if matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
            ) =>
        {
            cmp_mask(l, *op, r, rel, env)
        }
        Expr::Call(name, args) if name == "contains" && args.len() == 2 => {
            contains_mask(&args[0], &args[1], rel, env)
        }
        // Bare truthiness of a column, literal, or bound scalar.
        Expr::Number(n) => Some(vec![Value::Float(*n).truthy(); rel.len]),
        Expr::Str(s) => Some(vec![!s.is_empty(); rel.len]),
        Expr::Ident(name) => {
            if let Some(c) = rel.col_idx(name) {
                let col = &rel.cols[c];
                Some((0..rel.len).map(|i| col.value(i).truthy()).collect())
            } else {
                let v = env.scalars.get(name)?;
                Some(vec![v.truthy(); rel.len])
            }
        }
        _ => None,
    }
}

/// Comparison operand: a typed column or a constant value.
enum CmpSide {
    NumCol(usize),
    StrCol(usize),
    Num(NumNode),
    Const(Value),
}

fn cmp_side(e: &Expr, rel: &Relation, env: &Env) -> Option<CmpSide> {
    if let Expr::Ident(name) = e {
        if let Some(c) = rel.col_idx(name) {
            let data = rel.cols[c].data.as_ref();
            if data.null_count() > 0 {
                return None;
            }
            return match data {
                ColumnData::Int { .. }
                | ColumnData::Float { .. }
                | ColumnData::RleInt { .. }
                | ColumnData::RleFloat { .. } => Some(CmpSide::NumCol(c)),
                ColumnData::Str { .. } | ColumnData::Dict { .. } => Some(CmpSide::StrCol(c)),
                ColumnData::Mixed(_) => None,
            };
        }
        return env.scalars.get(name).cloned().map(CmpSide::Const);
    }
    match e {
        Expr::Number(n) => Some(CmpSide::Const(Value::Float(*n))),
        Expr::Str(s) => Some(CmpSide::Const(Value::Str(s.as_str().into()))),
        _ => compile_num(e, rel, env).map(|(n, _)| CmpSide::Num(n)),
    }
}

/// Legacy comparison result for two `f64`-coercible values.
#[inline]
fn cmp_f64(op: BinaryOp, x: f64, y: f64) -> bool {
    use std::cmp::Ordering;
    match op {
        BinaryOp::Eq => x == y,
        BinaryOp::Ne => x != y,
        _ => {
            let ord = x.partial_cmp(&y).unwrap_or(Ordering::Equal);
            match op {
                BinaryOp::Lt => ord == Ordering::Less,
                BinaryOp::Le => ord != Ordering::Greater,
                BinaryOp::Gt => ord == Ordering::Greater,
                BinaryOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            }
        }
    }
}

/// Run-fill comparison: a dense full-view RLE column against a numeric
/// constant decides each *run* once and repeats the verdict, instead of
/// paying a per-row binary search. Bit-identical to the per-row path —
/// each row's verdict is exactly `cmp_f64` over the same operands.
fn rle_const_mask(
    col_side: &CmpSide,
    const_side: &CmpSide,
    op: BinaryOp,
    rel: &Relation,
    flipped: bool,
) -> Option<Vec<bool>> {
    let CmpSide::NumCol(c) = col_side else {
        return None;
    };
    let CmpSide::Const(v) = const_side else {
        return None;
    };
    let k = v.as_f64()?;
    let col = &rel.cols[*c];
    if col.sel.is_some() {
        return None;
    }
    let n = rel.len;
    let mut mask = Vec::with_capacity(n);
    let mut fill = |runs: &mut dyn Iterator<Item = (f64, u64)>| {
        let mut start = 0usize;
        for (v, e) in runs {
            let keep = if flipped {
                cmp_f64(op, k, v)
            } else {
                cmp_f64(op, v, k)
            };
            let end = (e as usize).min(n);
            mask.extend(std::iter::repeat_n(keep, end.saturating_sub(start)));
            start = end;
            if start >= n {
                break;
            }
        }
    };
    match col.data.as_ref() {
        ColumnData::RleInt { values, ends } => {
            fill(&mut values.iter().zip(ends).map(|(&v, &e)| (v as f64, e)));
        }
        ColumnData::RleFloat { values, ends } => {
            fill(&mut values.iter().zip(ends).map(|(&v, &e)| (v, e)));
        }
        _ => return None,
    }
    (mask.len() == n).then_some(mask)
}

fn cmp_mask(l: &Expr, op: BinaryOp, r: &Expr, rel: &Relation, env: &Env) -> Option<Vec<bool>> {
    let ls = cmp_side(l, rel, env)?;
    let rs = cmp_side(r, rel, env)?;
    let n = rel.len;
    if let Some(mask) =
        rle_const_mask(&ls, &rs, op, rel, false).or_else(|| rle_const_mask(&rs, &ls, op, rel, true))
    {
        return Some(mask);
    }
    // f64 view of a side, when it is numeric for every row.
    let num_at = |s: &CmpSide, i: usize| -> Option<f64> {
        match s {
            CmpSide::NumCol(c) => rel.cols[*c].f64_at(i),
            CmpSide::Num(node) => Some(node.eval(rel, i)),
            CmpSide::Const(v) => v.as_f64(),
            CmpSide::StrCol(_) => None,
        }
    };
    let numeric = |s: &CmpSide| {
        matches!(s, CmpSide::NumCol(_) | CmpSide::Num(_))
            || matches!(s, CmpSide::Const(v) if v.as_f64().is_some())
    };
    if numeric(&ls) && numeric(&rs) {
        return Some(
            (0..n)
                .map(|i| {
                    cmp_f64(
                        op,
                        num_at(&ls, i).expect("numeric side"),
                        num_at(&rs, i).expect("numeric side"),
                    )
                })
                .collect(),
        );
    }
    // String column vs string constant (either direction): legacy Eq/Ne
    // compares contents; the orderings fall through to rendered text,
    // which for two non-null strings is content comparison.
    let str_pair = match (&ls, &rs) {
        (CmpSide::StrCol(c), CmpSide::Const(Value::Str(s))) => Some((*c, s.clone(), false)),
        (CmpSide::Const(Value::Str(s)), CmpSide::StrCol(c)) => Some((*c, s.clone(), true)),
        _ => None,
    };
    if let Some((c, konst, flipped)) = str_pair {
        let verdict = |cell: &str| {
            let (x, y) = if flipped {
                (konst.as_ref(), cell)
            } else {
                (cell, konst.as_ref())
            };
            match op {
                BinaryOp::Eq => x == y,
                BinaryOp::Ne => x != y,
                BinaryOp::Lt => x < y,
                BinaryOp::Le => x <= y,
                BinaryOp::Gt => x > y,
                BinaryOp::Ge => x >= y,
                _ => unreachable!(),
            }
        };
        let col = &rel.cols[c];
        return Some(match col.data.as_ref() {
            ColumnData::Str { values, .. } => {
                (0..n).map(|i| verdict(&values[col.phys(i)])).collect()
            }
            ColumnData::Dict { codes, dict, .. } => {
                // Decide once per dictionary entry, then map codes.
                let per_entry: Vec<bool> = dict.iter().map(|d| verdict(d)).collect();
                (0..n)
                    .map(|i| per_entry[codes[col.phys(i)] as usize])
                    .collect()
            }
            _ => unreachable!(),
        });
    }
    // Constant-vs-constant: comparisons never error; evaluate once.
    if let (CmpSide::Const(a), CmpSide::Const(b)) = (&ls, &rs) {
        let v = binary(op, a.clone(), b.clone()).ok()?;
        return Some(vec![v.truthy(); n]);
    }
    None
}

fn contains_mask(hay: &Expr, needle: &Expr, rel: &Relation, env: &Env) -> Option<Vec<bool>> {
    let needle = match needle {
        Expr::Str(s) => Arc::<str>::from(s.as_str()),
        Expr::Ident(name) if rel.col_idx(name).is_none() => match env.scalars.get(name)? {
            Value::Str(s) => Arc::clone(s),
            _ => return None,
        },
        _ => return None,
    };
    let Expr::Ident(name) = hay else { return None };
    let c = rel.col_idx(name)?;
    let col = &rel.cols[c];
    if col.data.null_count() > 0 {
        return None;
    }
    match col.data.as_ref() {
        ColumnData::Str { values, .. } => Some(
            (0..rel.len)
                .map(|i| values[col.phys(i)].contains(needle.as_ref()))
                .collect(),
        ),
        ColumnData::Dict { codes, dict, .. } => {
            // One substring scan per distinct string, not per row.
            let per_entry: Vec<bool> = dict.iter().map(|d| d.contains(needle.as_ref())).collect();
            Some(
                (0..rel.len)
                    .map(|i| per_entry[codes[col.phys(i)] as usize])
                    .collect(),
            )
        }
        _ => None,
    }
}

/// Fast vectorized DERIVE: either a boolean-mask-shaped expression
/// (legacy yields `Int` 0/1) or a statically-`Float` numeric expression.
fn fast_derive(expr: &Expr, rel: &Relation, env: &Env) -> Option<ColumnData> {
    if let Some((node, NumTy::Float)) = compile_num(expr, rel, env) {
        let values: Vec<f64> = (0..rel.len).map(|i| node.eval(rel, i)).collect();
        return Some(ColumnData::Float {
            values,
            validity: None,
        });
    }
    // Mask-shaped: comparisons, logic, contains — all produce Int 0/1.
    if matches!(
        expr,
        Expr::Binary(
            _,
            BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge,
            _
        ) | Expr::Unary(UnaryOp::Not, _)
            | Expr::Call(_, _)
    ) {
        let mask = fast_filter_mask(expr, rel, env)?;
        return Some(ColumnData::Int {
            values: mask.iter().map(|&b| i64::from(b)).collect(),
            validity: None,
        });
    }
    None
}
