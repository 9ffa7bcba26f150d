//! Lexer for the supported Verilog subset.

use std::fmt;

use gila_expr::BitVecValue;

/// The widest vector the subset accepts, in bits: the bound on sized
/// literals, declared ranges, part selects and replications alike.
pub(crate) const MAX_WIDTH: u32 = 4096;

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Sized literal like `8'hAB` (width, value) or unsized decimal.
    Number {
        /// Declared width; `None` for unsized decimals.
        width: Option<u32>,
        /// The value (width-normalized for sized literals).
        value: BitVecValue,
    },
    /// A punctuation or operator symbol.
    Sym(&'static str),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number { width, value } => match width {
                Some(w) => write!(f, "{w}'h{value:x}"),
                None => write!(f, "{}", value.to_u64()),
            },
            Token::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// A token with its source line (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Source line number.
    pub line: usize,
}

/// An error from lexing or parsing Verilog text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerilogError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl VerilogError {
    /// Creates an error at a line.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        VerilogError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verilog error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for VerilogError {}

const MULTI_SYMS: &[&str] = &[
    "<<<", ">>>", "===", "!==", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>",
];

const SINGLE_SYMS: &[char] = &[
    '(', ')', '[', ']', '{', '}', ';', ',', ':', '?', '=', '<', '>', '+', '-', '*', '/', '%',
    '&', '|', '^', '~', '!', '@', '.', '#',
];

/// Tokenizes Verilog source text.
///
/// # Errors
///
/// Returns a [`VerilogError`] for malformed literals or unexpected
/// characters.
pub fn lex(src: &str) -> Result<Vec<SpannedToken>, VerilogError> {
    let mut out = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            if chars[i + 1] == '*' {
                i += 2;
                while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= chars.len() {
                    return Err(VerilogError::new(line, "unterminated block comment"));
                }
                i += 2;
                continue;
            }
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(SpannedToken {
                token: Token::Ident(chars[start..i].iter().collect()),
                line,
            });
            continue;
        }
        // Numbers (possibly sized: 8'hAB).
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
            let dec: String = chars[start..i].iter().filter(|c| **c != '_').collect();
            if i < chars.len() && chars[i] == '\'' {
                let width: u32 = dec
                    .parse()
                    .map_err(|_| VerilogError::new(line, format!("bad literal width {dec:?}")))?;
                if width == 0 || width > MAX_WIDTH {
                    return Err(VerilogError::new(
                        line,
                        format!("unsupported width {width}"),
                    ));
                }
                i += 1;
                let base = chars
                    .get(i)
                    .copied()
                    .ok_or_else(|| VerilogError::new(line, "missing literal base"))?;
                i += 1;
                let dstart = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_')
                {
                    i += 1;
                }
                let digits: String = chars[dstart..i].iter().filter(|c| **c != '_').collect();
                if digits.is_empty() {
                    return Err(VerilogError::new(line, "missing literal digits"));
                }
                let raw = match base.to_ascii_lowercase() {
                    'h' => BitVecValue::parse_hex(&digits)
                        .ok_or_else(|| VerilogError::new(line, format!("bad hex literal {digits:?}")))?,
                    'b' => BitVecValue::parse_binary(&digits)
                        .ok_or_else(|| VerilogError::new(line, format!("bad binary literal {digits:?}")))?,
                    'd' => {
                        let v: u64 = digits.parse().map_err(|_| {
                            VerilogError::new(line, format!("bad decimal literal {digits:?}"))
                        })?;
                        BitVecValue::from_u64(v, 64)
                    }
                    other => {
                        return Err(VerilogError::new(
                            line,
                            format!("unsupported literal base {other:?}"),
                        ))
                    }
                };
                // Normalize to the declared width (truncate or zero-extend).
                let value = if raw.width() >= width {
                    raw.extract(width - 1, 0)
                } else {
                    raw.zext(width)
                };
                out.push(SpannedToken {
                    token: Token::Number {
                        width: Some(width),
                        value,
                    },
                    line,
                });
            } else {
                let v: u64 = dec
                    .parse()
                    .map_err(|_| VerilogError::new(line, format!("bad number {dec:?}")))?;
                out.push(SpannedToken {
                    token: Token::Number {
                        width: None,
                        value: BitVecValue::from_u64(v, 64),
                    },
                    line,
                });
            }
            continue;
        }
        // Multi-char symbols first.
        let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
        if let Some(sym) = MULTI_SYMS.iter().find(|s| rest.starts_with(**s)) {
            out.push(SpannedToken {
                token: Token::Sym(sym),
                line,
            });
            i += sym.len();
            continue;
        }
        if SINGLE_SYMS.contains(&c) {
            let sym = SINGLE_SYMS.iter().find(|&&s| s == c).expect("checked");
            // Leak-free static lookup: map char to a static str.
            let s: &'static str = match *sym {
                '(' => "(",
                ')' => ")",
                '[' => "[",
                ']' => "]",
                '{' => "{",
                '}' => "}",
                ';' => ";",
                ',' => ",",
                ':' => ":",
                '?' => "?",
                '=' => "=",
                '<' => "<",
                '>' => ">",
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '/' => "/",
                '%' => "%",
                '&' => "&",
                '|' => "|",
                '^' => "^",
                '~' => "~",
                '!' => "!",
                '@' => "@",
                '.' => ".",
                '#' => "#",
                _ => unreachable!(),
            };
            out.push(SpannedToken {
                token: Token::Sym(s),
                line,
            });
            i += 1;
            continue;
        }
        return Err(VerilogError::new(line, format!("unexpected character {c:?}")));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn idents_and_symbols() {
        assert_eq!(
            toks("assign q <= a + b;"),
            vec![
                Token::Ident("assign".into()),
                Token::Ident("q".into()),
                Token::Sym("<="),
                Token::Ident("a".into()),
                Token::Sym("+"),
                Token::Ident("b".into()),
                Token::Sym(";"),
            ]
        );
    }

    #[test]
    fn sized_literals() {
        let ts = toks("8'hAB 4'b1010 10'd999 42");
        match &ts[0] {
            Token::Number { width, value } => {
                assert_eq!(*width, Some(8));
                assert_eq!(value.to_u64(), 0xAB);
            }
            _ => panic!(),
        }
        match &ts[1] {
            Token::Number { width, value } => {
                assert_eq!(*width, Some(4));
                assert_eq!(value.to_u64(), 0b1010);
            }
            _ => panic!(),
        }
        match &ts[2] {
            Token::Number { width, value } => {
                assert_eq!(*width, Some(10));
                assert_eq!(value.to_u64(), 999);
            }
            _ => panic!(),
        }
        match &ts[3] {
            Token::Number { width, value } => {
                assert_eq!(*width, None);
                assert_eq!(value.to_u64(), 42);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn literal_truncation_and_extension() {
        match &toks("4'hFF")[0] {
            Token::Number { value, .. } => assert_eq!(value.to_u64(), 0xF),
            _ => panic!(),
        }
        match &toks("12'h5")[0] {
            Token::Number { value, .. } => {
                assert_eq!(value.width(), 12);
                assert_eq!(value.to_u64(), 5);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn comments_skipped_and_lines_tracked() {
        let ts = lex("a // comment\nb /* multi\nline */ c").unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[2].line, 3);
    }

    #[test]
    fn multi_symbols_greedy() {
        assert_eq!(
            toks("a <= b << c <<< d"),
            vec![
                Token::Ident("a".into()),
                Token::Sym("<="),
                Token::Ident("b".into()),
                Token::Sym("<<"),
                Token::Ident("c".into()),
                Token::Sym("<<<"),
                Token::Ident("d".into()),
            ]
        );
    }

    #[test]
    fn errors_reported_with_line() {
        let err = lex("a\nb $").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(lex("8'q12").is_err());
        assert!(lex("/* unterminated").is_err());
    }
}
