//! IQL lexer.

use super::IqlError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (keywords are recognized by the parser,
    /// case-insensitively).
    Ident(String),
    /// Integer literal: digits only, no `.` or exponent.
    Int(i64),
    /// Float literal: a number with a `.` or an exponent, or an integer
    /// too large for `i64`.
    Float(f64),
    /// String literal (single or double quoted).
    Str(String),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// End of one statement line.
    Newline,
}

/// Tokenize IQL source. Lines are significant (statements are
/// line-oriented); `#` starts a comment to end of line.
pub fn tokenize(src: &str) -> Result<Vec<(Token, usize)>, IqlError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&ch) = chars.peek() {
        match ch {
            '\n' => {
                chars.next();
                // Collapse consecutive newlines.
                if !matches!(out.last(), Some((Token::Newline, _)) | None) {
                    out.push((Token::Newline, line));
                }
                line += 1;
            }
            ' ' | '\t' | '\r' => {
                chars.next();
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                }
            }
            '"' | '\'' => {
                let quote = ch;
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == quote {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        line += 1;
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(IqlError::UnterminatedString { line });
                }
                out.push((Token::Str(s), line));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    let sign_after_exponent =
                        (c == '+' || c == '-') && matches!(s.chars().last(), Some('e') | Some('E'));
                    if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || sign_after_exponent
                    {
                        s.push(c);
                        chars.next();
                    } else if c == '_' {
                        chars.next(); // digit separators: 1_000_000
                    } else {
                        break;
                    }
                }
                // Digits alone are an `Int`; a `.`, an exponent or
                // overflow make a `Float`.
                let token = match s.parse::<i64>() {
                    Ok(n) => Token::Int(n),
                    Err(_) => Token::Float(s.parse().map_err(|_| IqlError::Parse {
                        message: format!("bad number literal {s}"),
                        line,
                    })?),
                };
                out.push((token, line));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Token::Ident(s), line));
            }
            _ => {
                chars.next();
                let tok = match ch {
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '*' => Token::Star,
                    '/' => Token::Slash,
                    '%' => Token::Percent,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    ',' => Token::Comma,
                    '=' => {
                        if chars.peek() == Some(&'=') {
                            chars.next();
                            Token::EqEq
                        } else {
                            Token::Assign
                        }
                    }
                    '!' => {
                        if chars.peek() == Some(&'=') {
                            chars.next();
                            Token::NotEq
                        } else {
                            Token::Bang
                        }
                    }
                    '<' => {
                        if chars.peek() == Some(&'=') {
                            chars.next();
                            Token::Le
                        } else {
                            Token::Lt
                        }
                    }
                    '>' => {
                        if chars.peek() == Some(&'=') {
                            chars.next();
                            Token::Ge
                        } else {
                            Token::Gt
                        }
                    }
                    '&' => {
                        if chars.peek() == Some(&'&') {
                            chars.next();
                            Token::AndAnd
                        } else {
                            return Err(IqlError::BadChar { ch, line });
                        }
                    }
                    '|' => {
                        if chars.peek() == Some(&'|') {
                            chars.next();
                            Token::OrOr
                        } else {
                            return Err(IqlError::BadChar { ch, line });
                        }
                    }
                    other => return Err(IqlError::BadChar { ch: other, line }),
                };
                out.push((tok, line));
            }
        }
    }
    if !matches!(out.last(), Some((Token::Newline, _)) | None) {
        out.push((Token::Newline, line));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("LOAD POSIX\n"),
            vec![
                Token::Ident("LOAD".into()),
                Token::Ident("POSIX".into()),
                Token::Newline
            ]
        );
    }

    #[test]
    fn operators_and_numbers() {
        assert_eq!(
            toks("a >= 1.5e3 && b != 2"),
            vec![
                Token::Ident("a".into()),
                Token::Ge,
                Token::Float(1500.0),
                Token::AndAnd,
                Token::Ident("b".into()),
                Token::NotEq,
                Token::Int(2),
                Token::Newline
            ]
        );
    }

    #[test]
    fn digit_separators() {
        assert_eq!(toks("1_048_576")[0], Token::Int(1_048_576));
        assert_eq!(toks("1_048_576.0")[0], Token::Float(1_048_576.0));
        assert_eq!(toks("1e3")[0], Token::Float(1000.0));
        assert_eq!(
            toks("99999999999999999999")[0],
            Token::Float(99_999_999_999_999_999_999.0)
        );
    }

    #[test]
    fn strings_both_quote_styles() {
        assert_eq!(toks("\"x,y\"")[0], Token::Str("x,y".into()));
        assert_eq!(toks("'file.h5'")[0], Token::Str("file.h5".into()));
    }

    #[test]
    fn comments_stripped() {
        assert_eq!(
            toks("a # comment here\nb"),
            vec![
                Token::Ident("a".into()),
                Token::Newline,
                Token::Ident("b".into()),
                Token::Newline
            ]
        );
    }

    #[test]
    fn consecutive_newlines_collapse() {
        assert_eq!(
            toks("a\n\n\nb"),
            vec![
                Token::Ident("a".into()),
                Token::Newline,
                Token::Ident("b".into()),
                Token::Newline
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(
            tokenize("'oops"),
            Err(IqlError::UnterminatedString { .. })
        ));
    }

    #[test]
    fn bad_char_errors_with_line() {
        match tokenize("a\n@") {
            Err(IqlError::BadChar { ch: '@', line: 2 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lone_ampersand_rejected() {
        assert!(matches!(tokenize("a & b"), Err(IqlError::BadChar { .. })));
    }
}
