//! A small text syntax for terms, atoms, and conjunctions.
//!
//! The grammar (used throughout tests, examples, and the program
//! front-end):
//!
//! ```text
//! conj  := 'true' | atom ('&' atom)*
//! atom  := pred '(' term ')' | term relop term
//! relop := '=' | '<=' | '>=' | '<' | '>'
//! term  := prod (('+' | '-') prod)*
//! prod  := factor ('*' factor)*            -- at most one non-constant
//! factor:= number | number '/' number | ident | ident '(' args ')'
//!        | '(' term ')' | '-' factor
//! ```
//!
//! Identifiers are classified by the [`Vocab`]: `cons`/`car`/`cdr` are list
//! symbols, `even`/`odd`/`positive`/`negative` are predicates, names
//! starting with an uppercase letter are uninterpreted functions (arity
//! inferred at first use), and everything else is a variable.
//!
//! The parser is recursive descent, so nesting (parentheses, applications
//! and unary minus) is capped at [`MAX_NESTING`] levels: deeper input is
//! rejected with [`ParseErrorKind::TooDeep`] instead of overflowing the
//! stack.

use crate::atom::{Atom, Conj};
use crate::sym::{FnSym, PredSym, TheoryTag};
use crate::term::Term;
use crate::var::Var;
use cai_num::Rat;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// The deepest nesting of parentheses, function applications and unary
/// minus that the term parser accepts.
pub const MAX_NESTING: usize = 1_000;

/// What kind of parse failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is malformed.
    Syntax,
    /// The input nests deeper than [`MAX_NESTING`] levels.
    TooDeep,
}

/// A parse failure, with a human-readable message and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
    pos: usize,
    kind: ParseErrorKind,
}

impl ParseError {
    fn new(msg: impl Into<String>, pos: usize) -> ParseError {
        ParseError {
            msg: msg.into(),
            pos,
            kind: ParseErrorKind::Syntax,
        }
    }

    /// The byte offset at which the error occurred.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// What kind of failure this is.
    pub fn kind(&self) -> ParseErrorKind {
        self.kind
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Classifies identifiers while parsing.
///
/// A `Vocab` can be shared across many parses; uninterpreted functions are
/// registered on first use so that `F(x)` in two different strings denotes
/// the same symbol.
#[derive(Debug, Default)]
pub struct Vocab {
    fns: Mutex<HashMap<String, FnSym>>,
}

impl Vocab {
    /// The standard vocabulary: list symbols, parity/sign predicates,
    /// uppercase identifiers as uninterpreted functions.
    pub fn standard() -> Vocab {
        Vocab::default()
    }

    /// Pre-registers a function symbol under its name.
    pub fn register(&self, f: FnSym) {
        // A poisoned lock only means another parse panicked mid-insert; the
        // map itself is still a valid symbol table, so recover it.
        self.fns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(f.name(), f);
    }

    /// Resolves (registering on first use) the function symbol for `name`
    /// at the given arity, using the standard classification.
    ///
    /// # Errors
    ///
    /// Returns an error if `name` was previously used at a different arity.
    pub fn function(&self, name: &str, arity: usize) -> Result<FnSym, ParseError> {
        self.lookup_fn(name, arity, 0)
    }

    fn lookup_fn(&self, name: &str, arity: usize, pos: usize) -> Result<FnSym, ParseError> {
        match name {
            "cons" => return Ok(FnSym::cons()),
            "car" => return Ok(FnSym::car()),
            "cdr" => return Ok(FnSym::cdr()),
            _ => {}
        }
        let mut fns = self.fns.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = fns.get(name) {
            if f.arity() != arity {
                return Err(ParseError::new(
                    format!(
                        "function `{name}` used with {arity} arguments but has arity {}",
                        f.arity()
                    ),
                    pos,
                ));
            }
            return Ok(*f);
        }
        let f = FnSym::new(name, arity, TheoryTag::UF);
        fns.insert(name.to_owned(), f);
        Ok(f)
    }

    /// Parses a term.
    pub fn parse_term(&self, input: &str) -> Result<Term, ParseError> {
        let mut p = Parser::new(input, self);
        let t = p.term()?;
        p.expect_eof()?;
        Ok(t)
    }

    /// Parses an atomic fact.
    pub fn parse_atom(&self, input: &str) -> Result<Atom, ParseError> {
        let mut p = Parser::new(input, self);
        let a = p.atom()?;
        p.expect_eof()?;
        Ok(a)
    }

    /// Parses a conjunction of atomic facts separated by `&`.
    pub fn parse_conj(&self, input: &str) -> Result<Conj, ParseError> {
        let mut p = Parser::new(input, self);
        let c = p.conj()?;
        p.expect_eof()?;
        Ok(c)
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(Rat),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
    Amp,
    Eq,
    Le,
    Ge,
    Lt,
    Gt,
    Error(char),
    Eof,
}

struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    vocab: &'a Vocab,
    /// The number of `factor` calls in progress.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &str, vocab: &'a Vocab) -> Parser<'a> {
        Parser {
            toks: lex(input),
            pos: 0,
            vocab,
            depth: 0,
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn here(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == &tok {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(format!("expected {what}"), self.here()))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(ParseError::new("trailing input", self.here()))
        }
    }

    fn conj(&mut self) -> Result<Conj, ParseError> {
        if let Tok::Ident(id) = self.peek() {
            if id == "true" && self.toks.get(self.pos + 1).map(|t| &t.0) == Some(&Tok::Eof) {
                self.bump();
                return Ok(Conj::new());
            }
        }
        let mut c = Conj::new();
        c.push(self.atom()?);
        while self.peek() == &Tok::Amp {
            self.bump();
            c.push(self.atom()?);
        }
        Ok(c)
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        // Predicate application?
        if let Tok::Ident(id) = self.peek() {
            if let Some(p) = PredSym::from_name(id) {
                let pos = self.here();
                self.bump();
                self.expect(Tok::LParen, "`(` after predicate")?;
                let t = self.term()?;
                self.expect(Tok::RParen, "`)` closing predicate")
                    .map_err(|e| ParseError::new(e.msg, pos))?;
                return Ok(Atom::pred(p, t));
            }
        }
        let lhs = self.term()?;
        let op = self.bump();
        let rhs = self.term()?;
        Ok(match op {
            Tok::Eq => Atom::eq(lhs, rhs),
            Tok::Le => Atom::le(lhs, rhs),
            Tok::Ge => Atom::le(rhs, lhs),
            Tok::Lt => Atom::lt(lhs, rhs),
            Tok::Gt => Atom::lt(rhs, lhs),
            _ => {
                return Err(ParseError::new(
                    "expected a relational operator (=, <=, >=, <, >)",
                    self.here(),
                ))
            }
        })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let mut acc = self.prod()?;
        loop {
            match self.peek() {
                Tok::Plus => {
                    self.bump();
                    let rhs = self.prod()?;
                    acc = Term::add(&acc, &rhs);
                }
                Tok::Minus => {
                    self.bump();
                    let rhs = self.prod()?;
                    acc = Term::sub(&acc, &rhs);
                }
                _ => return Ok(acc),
            }
        }
    }

    fn prod(&mut self) -> Result<Term, ParseError> {
        let mut acc = self.factor()?;
        while self.peek() == &Tok::Star {
            let pos = self.here();
            self.bump();
            let rhs = self.factor()?;
            acc = match (acc.as_constant(), rhs.as_constant()) {
                (Some(c), _) => Term::scale(&c.clone(), &rhs),
                (_, Some(c)) => Term::scale(&c.clone(), &acc),
                _ => {
                    return Err(ParseError::new(
                        "non-linear multiplication; one factor must be constant",
                        pos,
                    ))
                }
            };
        }
        Ok(acc)
    }

    /// Every nesting level passes through here, so this is where the depth
    /// is counted.
    fn factor(&mut self) -> Result<Term, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError {
                msg: format!("nesting deeper than {MAX_NESTING} levels"),
                pos: self.here(),
                kind: ParseErrorKind::TooDeep,
            });
        }
        self.depth += 1;
        let out = self.factor_inner();
        self.depth -= 1;
        out
    }

    fn factor_inner(&mut self) -> Result<Term, ParseError> {
        let pos = self.here();
        match self.bump() {
            Tok::Num(n) => {
                // Rational literal `a/b`.
                if self.peek() == &Tok::Slash {
                    self.bump();
                    let dpos = self.here();
                    match self.bump() {
                        Tok::Num(d) if !d.is_zero() => Ok(Term::constant(&n / &d)),
                        _ => Err(ParseError::new("expected nonzero denominator", dpos)),
                    }
                } else {
                    Ok(Term::constant(n))
                }
            }
            Tok::Minus => {
                let inner = self.factor()?;
                Ok(Term::neg(&inner))
            }
            Tok::LParen => {
                let t = self.term()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(t)
            }
            Tok::Ident(id) => {
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let mut args = vec![self.term()?];
                    while self.peek() == &Tok::Comma {
                        self.bump();
                        args.push(self.term()?);
                    }
                    self.expect(Tok::RParen, "`)` closing argument list")?;
                    let f = self.vocab.lookup_fn(&id, args.len(), pos)?;
                    Ok(Term::app(f, args))
                } else {
                    Ok(Term::var(Var::named(&id)))
                }
            }
            _ => Err(ParseError::new("expected a term", pos)),
        }
    }
}

fn lex(input: &str) -> Vec<(Tok, usize)> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'+' => {
                toks.push((Tok::Plus, i));
                i += 1;
            }
            b'-' => {
                toks.push((Tok::Minus, i));
                i += 1;
            }
            b'*' => {
                toks.push((Tok::Star, i));
                i += 1;
            }
            b'/' => {
                toks.push((Tok::Slash, i));
                i += 1;
            }
            b'(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            b')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            b',' => {
                toks.push((Tok::Comma, i));
                i += 1;
            }
            b'&' => {
                toks.push((Tok::Amp, i));
                i += 1;
                // Tolerate `&&`.
                if i < bytes.len() && bytes[i] == b'&' {
                    i += 1;
                }
            }
            b'=' => {
                toks.push((Tok::Eq, i));
                i += 1;
                // Tolerate `==`.
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                }
            }
            b'<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push((Tok::Le, i));
                    i += 2;
                } else {
                    toks.push((Tok::Lt, i));
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push((Tok::Ge, i));
                    i += 2;
                } else {
                    toks.push((Tok::Gt, i));
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                match input[start..i].parse::<Rat>() {
                    Ok(n) => toks.push((Tok::Num(n), start)),
                    Err(_) => {
                        toks.push((
                            Tok::Error(input[start..].chars().next().unwrap_or('?')),
                            start,
                        ));
                        break;
                    }
                }
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    i += 1;
                }
                toks.push((Tok::Ident(input[start..i].to_owned()), start));
            }
            _ => {
                toks.push((Tok::Error(b as char), i));
                break;
            }
        }
    }
    toks.push((Tok::Eof, input.len()));
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_roundtrip_display() {
        let v = Vocab::standard();
        for (src, shown) in [
            ("x", "x"),
            ("2*x + 1", "2*x + 1"),
            ("x + x", "2*x"),
            ("F(x)", "F(x)"),
            ("F(2*x2 - x1)", "F(2*x2 - x1)"),
            ("cons(a, cdr(l))", "cons(a, cdr(l))"),
            ("-(x - y)", "y - x"),
            ("1/2 * x", "1/2*x"),
            ("3 - 3", "0"),
        ] {
            let t = v.parse_term(src).unwrap();
            assert_eq!(t.to_string(), shown, "source `{src}`");
        }
    }

    #[test]
    fn atoms() {
        let v = Vocab::standard();
        assert_eq!(v.parse_atom("x = y").unwrap().to_string(), "x = y");
        assert_eq!(v.parse_atom("x >= y").unwrap().to_string(), "y <= x");
        assert_eq!(v.parse_atom("x < y").unwrap().to_string(), "x + 1 <= y");
        assert_eq!(
            v.parse_atom("even(x + 1)").unwrap().to_string(),
            "even(x + 1)"
        );
    }

    #[test]
    fn conj_and_true() {
        let v = Vocab::standard();
        let c = v.parse_conj("x = y & y <= z").unwrap();
        assert_eq!(c.len(), 2);
        assert!(v.parse_conj("true").unwrap().is_empty());
    }

    #[test]
    fn errors() {
        let v = Vocab::standard();
        assert!(v.parse_term("x *").is_err());
        assert!(v.parse_term("x * y").is_err()); // non-linear
        assert!(v.parse_atom("x + y").is_err()); // missing relop
        assert!(v.parse_term("F(x").is_err());
        assert!(v.parse_term("1/0").is_err());
        assert!(v.parse_conj("x = y @ z").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let v = Vocab::standard();
        let nested = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        assert_eq!(v.parse_term(&nested(500)).unwrap().to_string(), "a");
        // The deepest accepted input fits a default 2 MiB thread stack.
        assert!(v.parse_term(&nested(MAX_NESTING - 1)).is_ok());
        let err = v.parse_term(&nested(100_000)).unwrap_err();
        assert_eq!(err.kind(), ParseErrorKind::TooDeep);
        let apps = format!("{}a{}", "F(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert_eq!(
            v.parse_term(&apps).unwrap_err().kind(),
            ParseErrorKind::TooDeep
        );
        let negs = format!("{}a", "-".repeat(100_000));
        assert_eq!(
            v.parse_term(&negs).unwrap_err().kind(),
            ParseErrorKind::TooDeep
        );
        assert_eq!(
            v.parse_term("x *").unwrap_err().kind(),
            ParseErrorKind::Syntax
        );
    }

    #[test]
    fn function_arity_is_sticky() {
        let v = Vocab::standard();
        v.parse_term("G(x, y)").unwrap();
        assert!(v.parse_term("G(x)").is_err());
    }

    #[test]
    fn shared_vocab_shares_symbols() {
        let v = Vocab::standard();
        let a = v.parse_term("H(x)").unwrap();
        let b = v.parse_term("H(x)").unwrap();
        assert_eq!(a, b);
    }
}
