//! IQL abstract syntax tree.

use std::fmt;

/// Binary operators, lowest precedence first in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Or => "||",
            BinaryOp::And => "&&",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// An IQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Column or scalar-variable reference (resolved at evaluation time:
    /// columns shadow variables in row context).
    Ident(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(Box<Expr>, BinaryOp, Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(n) => write!(f, "{n}"),
            Expr::Float(n) => write!(f, "{n}"),
            Expr::Str(s) => write!(f, "{s:?}"),
            Expr::Ident(s) => f.write_str(s),
            Expr::Unary(op, e) => match op {
                UnaryOp::Neg => write!(f, "-({e})"),
                UnaryOp::Not => write!(f, "!({e})"),
            },
            Expr::Binary(l, op, r) => write!(f, "({l} {op} {r})"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One named aggregate in an `AGG`/`GROUP … AGG` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Output name.
    pub name: String,
    /// Aggregating expression (contains aggregate function calls).
    pub expr: Expr,
}

/// An IQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `LOAD <table>`
    Load(String),
    /// `FILTER <expr>`
    Filter(Expr),
    /// `DERIVE <name> = <expr>`
    Derive(String, Expr),
    /// `SELECT <col>, …`
    Select(Vec<String>),
    /// `SORT <col> [ASC|DESC]`
    Sort {
        /// Column to order by.
        column: String,
        /// Descending order when true.
        descending: bool,
    },
    /// `LIMIT <n>`
    Limit(usize),
    /// `JOIN <table> ON <column>` — inner hash join of the working table
    /// with another attached table on column equality. Right-side columns
    /// whose names already exist on the left are dropped (left wins).
    Join {
        /// Attached table to join with.
        table: String,
        /// Join column, present in both tables.
        on: String,
    },
    /// `GROUP <col>, … AGG <name> = <expr>, …`
    Group {
        /// Grouping key columns.
        keys: Vec<String>,
        /// Aggregates computed per group.
        aggs: Vec<AggCall>,
    },
    /// `AGG <name> = <expr>, …` — whole-table aggregates into scalars.
    Agg(Vec<AggCall>),
    /// `LET <name> = <expr>` — scalar computation.
    Let(String, Expr),
    /// `EMIT <name>, …` — declare outputs.
    Emit(Vec<String>),
}

/// A parsed IQL program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Statements in execution order.
    pub statements: Vec<Stmt>,
    /// `EXPLAIN` prefix present: render the plan instead of
    /// (or alongside) executing the program.
    pub explain: bool,
}

impl Program {
    /// Names the program emits.
    #[must_use]
    pub fn emitted_names(&self) -> Vec<&str> {
        self.statements
            .iter()
            .filter_map(|s| match s {
                Stmt::Emit(names) => Some(names.iter().map(String::as_str)),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// Tables the program loads.
    #[must_use]
    pub fn loaded_tables(&self) -> Vec<&str> {
        self.statements
            .iter()
            .filter_map(|s| match s {
                Stmt::Load(t) => Some(t.as_str()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_parenthesizes() {
        let e = Expr::Binary(
            Box::new(Expr::Ident("a".into())),
            BinaryOp::Add,
            Box::new(Expr::Binary(
                Box::new(Expr::Ident("b".into())),
                BinaryOp::Mul,
                Box::new(Expr::Int(2)),
            )),
        );
        assert_eq!(e.to_string(), "(a + (b * 2))");
    }

    #[test]
    fn program_introspection() {
        let p = Program {
            statements: vec![
                Stmt::Load("POSIX".into()),
                Stmt::Agg(vec![AggCall {
                    name: "n".into(),
                    expr: Expr::Call("count".into(), vec![]),
                }]),
                Stmt::Emit(vec!["n".into()]),
            ],
            ..Program::default()
        };
        assert_eq!(p.emitted_names(), vec!["n"]);
        assert_eq!(p.loaded_tables(), vec!["POSIX"]);
    }
}
