//! Value-level IQL semantics shared by the vectorized executor and the
//! legacy tree-walking oracle.
//!
//! Everything observable about IQL arithmetic lives here: comparison
//! ordering, binary-operator coercions (including the `Int`-preserving
//! rule and division-by-zero → 0), negation, scalar function calls, and
//! the expression walk ([`walk`]) the executor's row, aggregate and
//! scalar contexts share. Both engines call these functions so they
//! cannot drift apart on value semantics; the differential test in
//! `tests/differential.rs` checks the rest.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use super::ast::{BinaryOp, Expr, UnaryOp};
use super::IqlError;
use extractor::Value;
use std::collections::BTreeMap;

/// Reject a working-table header that repeats a column name.
pub(crate) fn unique_columns<'a>(
    names: impl IntoIterator<Item = &'a String>,
) -> Result<(), IqlError> {
    let mut seen = std::collections::HashSet::new();
    match names.into_iter().find(|c| !seen.insert(*c)) {
        Some(c) => Err(IqlError::DuplicateColumn { column: c.clone() }),
        None => Ok(()),
    }
}

/// An aggregate function.
#[derive(Clone, Copy)]
pub(crate) enum Agg {
    /// `count()`
    Count,
    /// `distinct(x)`
    Distinct,
    /// `pct(x, p)`
    Pct,
    /// `sum`/`mean`/`min`/`max`/`std` of `x`.
    Numeric(NumericAgg),
}

/// An aggregate that folds a numeric population into one `f64`.
#[derive(Clone, Copy)]
pub(crate) enum NumericAgg {
    Sum,
    Mean,
    Min,
    Max,
    Std,
}

/// The aggregate `name(args)` calls in aggregate context (`AGG`,
/// `GROUP … AGG`), or `None` for a scalar call; `min`/`max` with two args
/// stay scalar.
pub(crate) fn agg_call(name: &str, argc: usize) -> Option<Agg> {
    Some(match (name, argc) {
        ("count", 0) => Agg::Count,
        ("distinct", 1) => Agg::Distinct,
        ("pct", 2) => Agg::Pct,
        ("sum", 1) => Agg::Numeric(NumericAgg::Sum),
        ("mean", 1) => Agg::Numeric(NumericAgg::Mean),
        ("min", 1) => Agg::Numeric(NumericAgg::Min),
        ("max", 1) => Agg::Numeric(NumericAgg::Max),
        ("std", 1) => Agg::Numeric(NumericAgg::Std),
        _ => return None,
    })
}

/// A binary operator by how it evaluates.
#[derive(Clone, Copy)]
pub(crate) enum OpKind {
    And,
    Or,
    Cmp(CmpOp),
    Arith(ArithOp),
}

/// The six comparison operators.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// The five arithmetic operators.
#[derive(Clone, Copy)]
pub(crate) enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// How `op` evaluates.
pub(crate) fn op_kind(op: BinaryOp) -> OpKind {
    match op {
        BinaryOp::And => OpKind::And,
        BinaryOp::Or => OpKind::Or,
        BinaryOp::Eq => OpKind::Cmp(CmpOp::Eq),
        BinaryOp::Ne => OpKind::Cmp(CmpOp::Ne),
        BinaryOp::Lt => OpKind::Cmp(CmpOp::Lt),
        BinaryOp::Le => OpKind::Cmp(CmpOp::Le),
        BinaryOp::Gt => OpKind::Cmp(CmpOp::Gt),
        BinaryOp::Ge => OpKind::Cmp(CmpOp::Ge),
        BinaryOp::Add => OpKind::Arith(ArithOp::Add),
        BinaryOp::Sub => OpKind::Arith(ArithOp::Sub),
        BinaryOp::Mul => OpKind::Arith(ArithOp::Mul),
        BinaryOp::Div => OpKind::Arith(ArithOp::Div),
        BinaryOp::Rem => OpKind::Arith(ArithOp::Rem),
    }
}

impl CmpOp {
    /// Whether `a op b` holds for two values that order as `ord`.
    pub(crate) fn orders(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// `a op b` as [`binary`] decides it for two numbers or two strings:
    /// `==`/`!=` by equality, the orderings by `partial_cmp` with an
    /// unordered pair (a NaN) counting as equal.
    pub(crate) fn holds<T: PartialOrd + ?Sized>(self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => self.orders(a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)),
        }
    }
}

/// Scalar environment: variables bound by `LET` and `AGG`.
pub(crate) type Env = BTreeMap<String, Value>;

/// Total order used by `SORT` and the comparison operators: numeric when
/// both sides coerce to `f64`, else lexicographic on the rendered text.
pub(crate) fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.to_string().cmp(&b.to_string()),
    }
}

pub(crate) fn num(v: &Value, what: &str) -> Result<f64, IqlError> {
    v.as_f64().ok_or_else(|| IqlError::Type {
        message: format!("{what} is not numeric (got {v:?})"),
    })
}

pub(crate) fn binary(op: BinaryOp, l: Value, r: Value) -> Result<Value, IqlError> {
    Ok(match op_kind(op) {
        OpKind::And => Value::Int(i64::from(l.truthy() && r.truthy())),
        OpKind::Or => Value::Int(i64::from(l.truthy() || r.truthy())),
        OpKind::Cmp(cmp @ (CmpOp::Eq | CmpOp::Ne)) => {
            let equal = match (&l, &r) {
                (Value::Str(a), Value::Str(b)) => a == b,
                _ => match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => a == b,
                    _ => l.to_string() == r.to_string(),
                },
            };
            Value::Int(i64::from(equal == (cmp == CmpOp::Eq)))
        }
        OpKind::Cmp(cmp) => Value::Int(i64::from(cmp.orders(compare_values(&l, &r)))),
        OpKind::Arith(op) => {
            let a = num(&l, "left operand")?;
            let b = num(&r, "right operand")?;
            let v = arith_f64(op, a, b);
            if stays_int(v) && matches!((l, r), (Value::Int(_), Value::Int(_))) {
                Value::Int(v as i64)
            } else {
                Value::Float(v)
            }
        }
    })
}

/// Whether `Int op Int` with result `v` stays `Int`: `v` is integral and
/// below 9e15 in magnitude, so `v as i64` is exact. Negating an `Int` `i`
/// stays `Int` by the same bound on `i`.
pub(crate) fn stays_int(v: f64) -> bool {
    v.fract() == 0.0 && v.abs() < 9e15
}

/// The `f64` arithmetic kernel behind [`binary`]; the vectorized executor
/// calls it directly on unboxed columns.
pub(crate) fn arith_f64(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        // Division by zero yields 0 rather than NaN: diagnosis ratios over
        // empty populations should read as "0%", not poison every
        // downstream conclusion.
        ArithOp::Div => {
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        ArithOp::Rem => {
            if b == 0.0 {
                0.0
            } else {
                a % b
            }
        }
    }
}

pub(crate) fn scalar_call(name: &str, args: &[Value]) -> Result<Value, IqlError> {
    let bad = |message: &str| IqlError::BadCall {
        name: name.to_owned(),
        message: message.to_owned(),
    };
    match (name, args.len()) {
        ("abs", 1) => Ok(Value::Float(num(&args[0], "abs arg")?.abs())),
        ("sqrt", 1) => Ok(Value::Float(num(&args[0], "sqrt arg")?.max(0.0).sqrt())),
        ("floor", 1) => Ok(Value::Float(num(&args[0], "floor arg")?.floor())),
        ("ceil", 1) => Ok(Value::Float(num(&args[0], "ceil arg")?.ceil())),
        ("round", 1) => Ok(Value::Float(num(&args[0], "round arg")?.round())),
        ("min", 2) => Ok(Value::Float(
            num(&args[0], "min arg")?.min(num(&args[1], "min arg")?),
        )),
        ("max", 2) => Ok(Value::Float(
            num(&args[0], "max arg")?.max(num(&args[1], "max arg")?),
        )),
        ("if", 3) => {
            let chosen = if args[0].truthy() { &args[1] } else { &args[2] };
            // Two numeric branches of which one is `Float` give a `Float`,
            // so `if(c, x, 0)` over a `Float` `x` builds a `Float` column
            // rather than a `Mixed` one.
            Ok(match (&args[1], &args[2], chosen) {
                (Value::Float(_), Value::Int(_), Value::Int(v))
                | (Value::Int(_), Value::Float(_), Value::Int(v)) => Value::Float(*v as f64),
                _ => chosen.clone(),
            })
        }
        ("contains", 2) => match (&args[0], &args[1]) {
            (Value::Str(h), Value::Str(n)) => Ok(Value::Int(i64::from(h.contains(&**n)))),
            _ => Err(bad("contains expects two strings")),
        },
        ("min" | "max", n) => Err(bad(&format!("expected 2 args, got {n}"))),
        _ => Err(bad("unknown function in this context")),
    }
}

/// How an expression walk binds what it reads: the row, aggregate or
/// scalar context the expression is evaluated in.
pub(crate) trait Scope {
    /// The value `name` reads here, or the error an unbound name raises.
    fn name(&self, name: &str) -> Result<Value, IqlError>;

    /// The value of `name(args)` when this context reduces it as an
    /// aggregate, or `None` for a scalar call.
    fn aggregate(&self, _name: &str, _args: &[Expr]) -> Option<Result<Value, IqlError>> {
        None
    }
}

/// The scalar context: a name is a scalar variable.
impl Scope for Env {
    fn name(&self, name: &str) -> Result<Value, IqlError> {
        self.get(name)
            .cloned()
            .ok_or_else(|| IqlError::NoSuchVariable {
                name: name.to_owned(),
            })
    }
}

/// Evaluate `expr` in `scope`, operands and arguments left to right.
pub(crate) fn walk(expr: &Expr, scope: &impl Scope) -> Result<Value, IqlError> {
    match expr {
        Expr::Int(n) => Ok(Value::Int(*n)),
        Expr::Float(n) => Ok(Value::Float(*n)),
        Expr::Str(s) => Ok(Value::Str(s.as_str().into())),
        Expr::Ident(name) => scope.name(name),
        Expr::Unary(op, inner) => unary(*op, &walk(inner, scope)?),
        Expr::Binary(l, op, r) => {
            let lv = walk(l, scope)?;
            let rv = walk(r, scope)?;
            binary(*op, lv, rv)
        }
        Expr::Call(name, args) => {
            if let Some(v) = scope.aggregate(name, args) {
                return v;
            }
            let vals: Vec<Value> = args
                .iter()
                .map(|a| walk(a, scope))
                .collect::<Result<_, _>>()?;
            scalar_call(name, &vals)
        }
    }
}

/// `op` applied to one value: `!` gives `Int` 0/1, and negation keeps an
/// `Int` exact while it is within the [`stays_int`] bound, else gives a
/// `Float`.
pub(crate) fn unary(op: UnaryOp, v: &Value) -> Result<Value, IqlError> {
    Ok(match (op, v) {
        (UnaryOp::Not, _) => Value::Int(i64::from(!v.truthy())),
        (UnaryOp::Neg, Value::Int(i)) if stays_int(*i as f64) => Value::Int(-i),
        (UnaryOp::Neg, _) => Value::Float(-num(v, "negation operand")?),
    })
}

pub(crate) fn eval_scalar_or_number(expr: &Expr, env: &Env) -> Result<f64, IqlError> {
    num(&walk(expr, env)?, "percentile rank")
}

/// Evaluate a standalone expression against a scalar environment (used by
/// the expert model for rule conditions).
///
/// # Errors
///
/// Returns [`IqlError::NoSuchVariable`] for unknown names or a type error.
pub fn eval_with_scalars(
    expr: &Expr,
    scalars: &BTreeMap<String, Value>,
) -> Result<Value, IqlError> {
    walk(expr, scalars)
}

/// Nearest-rank percentile over an already-collected numeric population;
/// shared by both engines' `pct` aggregate.
pub(crate) fn percentile(mut vals: Vec<f64>, p: f64) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * vals.len() as f64).ceil().max(1.0) as usize;
    vals[rank.min(vals.len()) - 1]
}

/// Fold an already-collected numeric population with `agg`; shared by
/// both engines so the floating-point evaluation order is identical. An
/// empty population sums to the empty `f64` sum and folds to 0 otherwise.
pub(crate) fn numeric_agg(agg: NumericAgg, vals: &[f64]) -> f64 {
    let n = vals.len();
    match agg {
        NumericAgg::Sum => vals.iter().sum::<f64>(),
        _ if n == 0 => 0.0,
        NumericAgg::Mean => vals.iter().sum::<f64>() / n as f64,
        NumericAgg::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
        NumericAgg::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        NumericAgg::Std => {
            let m = vals.iter().sum::<f64>() / n as f64;
            (vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n as f64).sqrt()
        }
    }
}
