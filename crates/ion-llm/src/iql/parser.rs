//! IQL recursive-descent parser.

use super::ast::{AggCall, BinaryOp, Expr, Program, Stmt, UnaryOp};
use super::lexer::{tokenize, Token};
use super::IqlError;

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |(_, l)| *l)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> IqlError {
        IqlError::Parse {
            message: message.into(),
            line: self.line(),
        }
    }

    fn expect_ident(&mut self) -> Result<String, IqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), IqlError> {
        match self.next() {
            Some(t) if &t == tok => Ok(()),
            other => Err(self.err(format!("expected {tok:?}, found {other:?}"))),
        }
    }

    fn eat_newline(&mut self) -> Result<(), IqlError> {
        match self.next() {
            Some(Token::Newline) | None => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {other:?}"))),
        }
    }

    fn at_newline(&self) -> bool {
        matches!(self.peek(), Some(Token::Newline) | None)
    }

    // Expression grammar (precedence climbing):
    // or → and (|| and)* ; and → cmp (&& cmp)* ; cmp → add ((==|!=|<|<=|>|>=) add)?
    // add → mul ((+|-) mul)* ; mul → unary ((*|/|%) unary)* ; unary → (-|!)* primary
    fn parse_expr(&mut self) -> Result<Expr, IqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, IqlError> {
        let mut left = self.parse_and()?;
        while self.peek() == Some(&Token::OrOr) {
            self.next();
            let right = self.parse_and()?;
            left = Expr::Binary(Box::new(left), BinaryOp::Or, Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, IqlError> {
        let mut left = self.parse_cmp()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.next();
            let right = self.parse_cmp()?;
            left = Expr::Binary(Box::new(left), BinaryOp::And, Box::new(right));
        }
        Ok(left)
    }

    fn parse_cmp(&mut self) -> Result<Expr, IqlError> {
        let left = self.parse_add()?;
        let op = match self.peek() {
            Some(Token::EqEq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::Ne),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::Le) => Some(BinaryOp::Le),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::Ge) => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.parse_add()?;
            return Ok(Expr::Binary(Box::new(left), op, Box::new(right)));
        }
        Ok(left)
    }

    fn parse_add(&mut self) -> Result<Expr, IqlError> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.parse_mul()?;
            left = Expr::Binary(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr, IqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Rem,
                _ => break,
            };
            self.next();
            let right = self.parse_unary()?;
            left = Expr::Binary(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, IqlError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.next();
                Ok(Expr::Unary(UnaryOp::Neg, Box::new(self.parse_unary()?)))
            }
            Some(Token::Bang) => {
                self.next();
                Ok(Expr::Unary(UnaryOp::Not, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, IqlError> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Int(n)),
            Some(Token::Float(n)) => Ok(Expr::Float(n)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.next();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.peek() == Some(&Token::Comma) {
                                self.next();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Some(Token::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn parse_agg_list(&mut self) -> Result<Vec<AggCall>, IqlError> {
        let mut aggs = Vec::new();
        loop {
            let name = self.expect_ident()?;
            self.expect(&Token::Assign)?;
            let expr = self.parse_expr()?;
            aggs.push(AggCall { name, expr });
            if self.peek() == Some(&Token::Comma) {
                self.next();
            } else {
                break;
            }
        }
        Ok(aggs)
    }

    fn parse_name_list(&mut self) -> Result<Vec<String>, IqlError> {
        let mut names = vec![self.expect_ident()?];
        while self.peek() == Some(&Token::Comma) {
            self.next();
            names.push(self.expect_ident()?);
        }
        Ok(names)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, IqlError> {
        let keyword = self.expect_ident()?;
        let stmt = match keyword.to_ascii_uppercase().as_str() {
            "LOAD" => Stmt::Load(self.expect_ident()?),
            "FILTER" => Stmt::Filter(self.parse_expr()?),
            "DERIVE" => {
                let name = self.expect_ident()?;
                self.expect(&Token::Assign)?;
                Stmt::Derive(name, self.parse_expr()?)
            }
            "SELECT" => Stmt::Select(self.parse_name_list()?),
            "SORT" => {
                let column = self.expect_ident()?;
                let descending = match self.peek() {
                    Some(Token::Ident(dir)) => {
                        let d = dir.to_ascii_uppercase();
                        if d == "DESC" {
                            self.next();
                            true
                        } else if d == "ASC" {
                            self.next();
                            false
                        } else {
                            return Err(self.err(format!("expected ASC or DESC, found {dir}")));
                        }
                    }
                    _ => false,
                };
                Stmt::Sort { column, descending }
            }
            "LIMIT" => match self.next() {
                Some(Token::Int(n)) if n >= 0 => Stmt::Limit(n as usize),
                Some(Token::Float(n)) if n >= 0.0 => Stmt::Limit(n as usize),
                other => return Err(self.err(format!("expected row count, found {other:?}"))),
            },
            "JOIN" => {
                let table = self.expect_ident()?;
                let on_kw = self.expect_ident()?;
                if !on_kw.eq_ignore_ascii_case("ON") {
                    return Err(self.err(format!("expected ON, found {on_kw}")));
                }
                let on = self.expect_ident()?;
                Stmt::Join { table, on }
            }
            "GROUP" => {
                let keys = self.parse_name_list_until_agg()?;
                Stmt::Group {
                    keys,
                    aggs: self.parse_agg_list()?,
                }
            }
            "AGG" => Stmt::Agg(self.parse_agg_list()?),
            "LET" => {
                let name = self.expect_ident()?;
                self.expect(&Token::Assign)?;
                Stmt::Let(name, self.parse_expr()?)
            }
            "EMIT" => Stmt::Emit(self.parse_name_list()?),
            other => return Err(self.err(format!("unknown statement {other}"))),
        };
        self.eat_newline()?;
        Ok(stmt)
    }

    /// Parse `a, b, c AGG` — names up to the AGG keyword.
    fn parse_name_list_until_agg(&mut self) -> Result<Vec<String>, IqlError> {
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident()?;
            if name.eq_ignore_ascii_case("AGG") {
                if names.is_empty() {
                    return Err(self.err("GROUP requires at least one key column"));
                }
                return Ok(names);
            }
            names.push(name);
            if self.peek() == Some(&Token::Comma) {
                self.next();
            }
        }
    }
}

/// Parse a standalone IQL expression (used for rule conditions).
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
pub fn parse_expression(src: &str) -> Result<Expr, IqlError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.parse_expr()?;
    p.eat_newline()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

/// Parse a complete IQL program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its line number.
pub fn parse_program(src: &str) -> Result<Program, IqlError> {
    ion_obs::counter("iql.queries_parsed", 1);
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut statements = Vec::new();
    let mut explain = false;
    // Optional leading EXPLAIN keyword before the first statement.
    while p.at_newline() && p.peek().is_some() {
        p.next();
    }
    if let Some(Token::Ident(kw)) = p.peek() {
        if kw.eq_ignore_ascii_case("EXPLAIN") {
            explain = true;
            p.next();
            if p.peek() == Some(&Token::Newline) {
                p.next();
            }
        }
    }
    while p.peek().is_some() {
        if p.at_newline() {
            p.next();
            continue;
        }
        statements.push(p.parse_stmt()?);
    }
    Ok(Program {
        statements,
        explain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_pipeline() {
        let src = "
LOAD POSIX
FILTER rank >= 0 && POSIX_WRITES > 0
DERIVE small = POSIX_SIZE_WRITE_0_100 + POSIX_SIZE_WRITE_100_1K
AGG total = sum(POSIX_WRITES), small_total = sum(small)
LET pct = 100 * small_total / max(total, 1)
EMIT pct, total
";
        let p = parse_program(src).unwrap();
        assert_eq!(p.statements.len(), 6);
        assert_eq!(p.emitted_names(), vec!["pct", "total"]);
        assert_eq!(p.loaded_tables(), vec!["POSIX"]);
    }

    #[test]
    fn parses_group_by() {
        let p =
            parse_program("LOAD DXT\nGROUP rank AGG n = count(), bytes = sum(length)\n").unwrap();
        match &p.statements[1] {
            Stmt::Group { keys, aggs } => {
                assert_eq!(keys, &["rank"]);
                assert_eq!(aggs.len(), 2);
                assert_eq!(aggs[0].name, "n");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_multi_key_group() {
        let p = parse_program("LOAD DXT\nGROUP file_name, rank AGG n = count()\n").unwrap();
        match &p.statements[1] {
            Stmt::Group { keys, .. } => assert_eq!(keys, &["file_name", "rank"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_sort_and_limit() {
        let p =
            parse_program("LOAD DXT\nSORT length DESC\nLIMIT 10\nSELECT rank, length\n").unwrap();
        assert!(matches!(
            p.statements[1],
            Stmt::Sort {
                descending: true,
                ..
            }
        ));
        assert!(matches!(p.statements[2], Stmt::Limit(10)));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_cmp() {
        let p = parse_program("FILTER a + b * 2 > c\n").unwrap();
        match &p.statements[0] {
            Stmt::Filter(e) => assert_eq!(e.to_string(), "((a + (b * 2)) > c)"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        let p = parse_program("load POSIX\nfilter rank == 0\n").unwrap();
        assert_eq!(p.statements.len(), 2);
    }

    #[test]
    fn error_carries_line_number() {
        match parse_program("LOAD POSIX\nFILTER >\n") {
            Err(IqlError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_statement_rejected() {
        assert!(matches!(
            parse_program("FROBNICATE x\n"),
            Err(IqlError::Parse { .. })
        ));
    }

    #[test]
    fn group_without_keys_rejected() {
        assert!(parse_program("LOAD DXT\nGROUP AGG n = count()\n").is_err());
    }

    #[test]
    fn explain_prefix_sets_flag() {
        let p = parse_program("EXPLAIN\nLOAD DXT\nFILTER rank == 0\n").unwrap();
        assert!(p.explain);
        assert_eq!(p.statements.len(), 2);
        // Same line works too.
        let p = parse_program("explain LOAD DXT\n").unwrap();
        assert!(p.explain);
        assert_eq!(p.statements.len(), 1);
        // Plain programs stay unflagged; EXPLAIN is not a statement.
        let p = parse_program("LOAD DXT\n").unwrap();
        assert!(!p.explain);
        assert!(parse_program("LOAD DXT\nEXPLAIN x\n").is_err());
    }

    #[test]
    fn string_literals_in_filters() {
        let p = parse_program("LOAD DXT\nFILTER op == 'write'\n").unwrap();
        match &p.statements[1] {
            Stmt::Filter(Expr::Binary(_, BinaryOp::Eq, r)) => {
                assert_eq!(**r, Expr::Str("write".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
