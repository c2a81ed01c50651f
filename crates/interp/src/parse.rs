//! Parser for the small imperative language.
//!
//! Grammar (expressions and atoms use [`cai_term::parse`]):
//!
//! ```text
//! module  := proc*
//! proc    := 'proc' ident '(' (ident (',' ident)*)? ')' block
//! program := stmt*
//! stmt    := ident ':=' expr ';'
//!          | ident ':=' '*' ';'                 -- havoc
//!          | ident ':=' 'call' ident '(' (expr (',' expr)*)? ')' ';'
//!          | 'assume' '(' atom ')' ';'
//!          | 'assert' '(' atom ')' ';'
//!          | 'if' '(' cond ')' block ('else' block)?
//!          | 'while' '(' cond ')' block
//! block   := '{' stmt* '}'
//! cond    := '*' | atom
//! ```
//!
//! Line comments start with `//`.
//!
//! Blocks nest at most [`MAX_NESTING`] levels deep, and so do the terms
//! inside statements; deeper input is rejected with
//! [`ParseErrorKind::TooDeep`] instead of overflowing the stack.

use crate::ast::{Cond, Module, Procedure, Program, Stmt};
use cai_term::parse::{ParseError, ParseErrorKind, Vocab, MAX_NESTING};
use cai_term::Var;
use std::fmt;

/// A program-parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramParseError {
    msg: String,
    line: usize,
    kind: ParseErrorKind,
}

impl ProgramParseError {
    fn new(msg: impl Into<String>, line: usize) -> ProgramParseError {
        ProgramParseError {
            msg: msg.into(),
            line,
            kind: ParseErrorKind::Syntax,
        }
    }

    /// What kind of failure this is.
    pub fn kind(&self) -> ParseErrorKind {
        self.kind
    }
}

impl fmt::Display for ProgramParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ProgramParseError {}

/// Parses a program, resolving function symbols through `vocab`.
///
/// # Errors
///
/// Returns [`ProgramParseError`] on malformed input; the embedded term
/// grammar reports through the same error type.
pub fn parse_program(vocab: &Vocab, src: &str) -> Result<Program, ProgramParseError> {
    let mut p = ProgParser {
        vocab,
        src: &strip_comments(src),
        pos: 0,
        depth: 0,
    };
    let stmts = p.stmts(true)?;
    Ok(Program { stmts })
}

/// Parses a multi-procedure module: a sequence of `proc name(params)`
/// blocks. Procedure names must be unique.
///
/// # Errors
///
/// Returns [`ProgramParseError`] on malformed input or duplicate
/// procedure names.
pub fn parse_module(vocab: &Vocab, src: &str) -> Result<Module, ProgramParseError> {
    let stripped = strip_comments(src);
    let mut p = ProgParser {
        vocab,
        src: &stripped,
        pos: 0,
        depth: 0,
    };
    let mut procs: Vec<Procedure> = Vec::new();
    while !p.at_end() {
        let line = p.line();
        p.expect("proc")?;
        let name = p.ident()?;
        if procs.iter().any(|q| q.name == name) {
            return Err(ProgramParseError::new(
                format!("duplicate procedure `{name}`"),
                line,
            ));
        }
        p.expect("(")?;
        let mut params: Vec<Var> = Vec::new();
        if p.peek_byte() != Some(b')') {
            loop {
                let param = p.ident()?;
                params.push(Var::named(&param));
                if !p.eat(",") {
                    break;
                }
            }
        }
        p.expect(")")?;
        let stmts = p.block()?;
        procs.push(Procedure {
            name,
            params,
            body: Program { stmts },
        });
    }
    Ok(Module { procs })
}

fn strip_comments(src: &str) -> String {
    src.lines()
        .map(|l| match l.find("//") {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

struct ProgParser<'a> {
    vocab: &'a Vocab,
    src: &'a str,
    pos: usize,
    /// The number of blocks open at `pos`.
    depth: usize,
}

impl<'a> ProgParser<'a> {
    fn line(&self) -> usize {
        self.src[..self.pos].bytes().filter(|&b| b == b'\n').count() + 1
    }

    fn err(&self, msg: impl Into<String>) -> ProgramParseError {
        ProgramParseError::new(msg, self.line())
    }

    /// Reports a failure of the embedded term grammar, keeping its kind.
    fn term_err(&self, context: String, e: ParseError) -> ProgramParseError {
        ProgramParseError {
            kind: e.kind(),
            ..self.err(format!("{context}: {e}"))
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    fn peek_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ProgramParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{token}`")))
        }
    }

    fn ident(&mut self) -> Result<String, ProgramParseError> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphanumeric()
                || bytes[self.pos] == b'_'
                || bytes[self.pos] == b'\'')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        Ok(self.src[start..self.pos].to_owned())
    }

    /// Consumes until `stop`, tracking parenthesis depth; returns the
    /// consumed slice (without the stop byte, which is consumed).
    fn until(&mut self, stop: u8) -> Result<&'a str, ProgramParseError> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut depth = 0usize;
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b == b'(' {
                depth += 1;
            } else if b == b')' {
                if depth == 0 && stop == b')' {
                    let out = &self.src[start..self.pos];
                    self.pos += 1;
                    return Ok(out);
                }
                depth = depth.saturating_sub(1);
            } else if b == stop && depth == 0 {
                let out = &self.src[start..self.pos];
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
        }
        Err(self.err(format!("missing `{}`", stop as char)))
    }

    fn stmts(&mut self, top: bool) -> Result<Vec<Stmt>, ProgramParseError> {
        let mut out = Vec::new();
        loop {
            if self.at_end() {
                if top {
                    return Ok(out);
                }
                return Err(self.err("missing `}`"));
            }
            if !top && self.peek_byte() == Some(b'}') {
                return Ok(out);
            }
            out.push(self.stmt()?);
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ProgramParseError> {
        self.expect("{")?;
        if self.depth == MAX_NESTING {
            return Err(ProgramParseError {
                kind: ParseErrorKind::TooDeep,
                ..self.err(format!("blocks nested deeper than {MAX_NESTING} levels"))
            });
        }
        self.depth += 1;
        let body = self.stmts(false);
        self.depth -= 1;
        let body = body?;
        self.expect("}")?;
        Ok(body)
    }

    fn cond(&mut self) -> Result<Cond, ProgramParseError> {
        let inner = self.until(b')')?.trim().to_owned();
        if inner == "*" {
            return Ok(Cond::Nondet);
        }
        let atom = self
            .vocab
            .parse_atom(&inner)
            .map_err(|e| self.term_err(format!("in condition `{inner}`"), e))?;
        Ok(Cond::Atom(atom))
    }

    fn stmt(&mut self) -> Result<Stmt, ProgramParseError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest.starts_with("if") && !ident_continues(rest, 2) {
            self.pos += 2;
            self.expect("(")?;
            let c = self.cond()?;
            let then = self.block()?;
            let els = if self.eat("else") {
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(c, then, els));
        }
        if rest.starts_with("while") && !ident_continues(rest, 5) {
            self.pos += 5;
            self.expect("(")?;
            let c = self.cond()?;
            let body = self.block()?;
            return Ok(Stmt::While(c, body));
        }
        if rest.starts_with("assume") && !ident_continues(rest, 6) {
            self.pos += 6;
            self.expect("(")?;
            let inner = self.until(b')')?.trim().to_owned();
            let atom = self
                .vocab
                .parse_atom(&inner)
                .map_err(|e| self.term_err(format!("in assume `{inner}`"), e))?;
            self.expect(";")?;
            return Ok(Stmt::Assume(atom));
        }
        if rest.starts_with("assert") && !ident_continues(rest, 6) {
            self.pos += 6;
            self.expect("(")?;
            let inner = self.until(b')')?.trim().to_owned();
            let atom = self
                .vocab
                .parse_atom(&inner)
                .map_err(|e| self.term_err(format!("in assert `{inner}`"), e))?;
            self.expect(";")?;
            return Ok(Stmt::Assert(atom));
        }
        // Assignment, havoc, or procedure call.
        let name = self.ident()?;
        self.expect(":=")?;
        self.skip_ws();
        if self.peek_byte() == Some(b'*') {
            // `*` only counts as havoc when directly followed by `;`
            // (otherwise it would be a malformed expression anyway).
            self.pos += 1;
            self.expect(";")?;
            return Ok(Stmt::Havoc(Var::named(&name)));
        }
        let after = &self.src[self.pos..];
        if after.starts_with("call") && !ident_continues(after, 4) {
            self.pos += 4;
            let callee = self.ident()?;
            self.expect("(")?;
            let inner = self.until(b')')?.to_owned();
            self.expect(";")?;
            let mut args = Vec::new();
            for piece in split_top_level_commas(&inner) {
                let piece = piece.trim();
                if piece.is_empty() {
                    continue;
                }
                let t = self
                    .vocab
                    .parse_term(piece)
                    .map_err(|e| self.term_err(format!("in call argument `{piece}`"), e))?;
                args.push(t);
            }
            return Ok(Stmt::Call(Var::named(&name), callee, args));
        }
        let rhs_src = self.until(b';')?.trim().to_owned();
        let rhs = self
            .vocab
            .parse_term(&rhs_src)
            .map_err(|e| self.term_err(format!("in `{name} := {rhs_src}`"), e))?;
        Ok(Stmt::Assign(Var::named(&name), rhs))
    }
}

/// Splits on commas at parenthesis depth 0 (call arguments may contain
/// nested applications like `F(a, b)`).
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn ident_continues(s: &str, at: usize) -> bool {
    s.as_bytes()
        .get(at)
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(&Vocab::standard(), src).unwrap()
    }

    #[test]
    fn straight_line() {
        let p = parse("x := 1; y := x + 2; assert(y = 3);");
        assert_eq!(p.stmts.len(), 3);
        assert_eq!(p.assertion_count(), 1);
    }

    #[test]
    fn havoc_and_assume() {
        let p = parse("x := *; assume(x >= 0); assert(0 <= x);");
        assert!(matches!(p.stmts[0], Stmt::Havoc(_)));
        assert!(matches!(p.stmts[1], Stmt::Assume(_)));
    }

    #[test]
    fn nested_control_flow() {
        let p = parse(
            "while (*) {
               if (x < 10) { x := x + 1; } else { x := 0; }
             }
             assert(x = x);",
        );
        assert_eq!(p.stmts.len(), 2);
        let Stmt::While(Cond::Nondet, body) = &p.stmts[0] else {
            panic!("expected while")
        };
        assert!(matches!(body[0], Stmt::If(..)));
    }

    #[test]
    fn function_calls_in_expressions() {
        let p = parse("b2 := F(b2); c1 := F(2*c1 - c2);");
        assert_eq!(p.stmts.len(), 2);
        let Stmt::Assign(_, rhs) = &p.stmts[1] else {
            panic!()
        };
        assert_eq!(rhs.to_string(), "F(2*c1 - c2)");
    }

    #[test]
    fn comments_ignored() {
        let p = parse("// setup\nx := 1; // one\nassert(x = 1);");
        assert_eq!(p.stmts.len(), 2);
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse_program(&Vocab::standard(), "x := 1;\ny := ;").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(parse_program(&Vocab::standard(), "if (x = 1) { x := 2;").is_err());
        assert!(parse_program(&Vocab::standard(), "assert(x + y);").is_err());
    }

    #[test]
    fn call_statements() {
        let p = parse("x := call f(a + 1, F(b, c)); y := call g();");
        let Stmt::Call(dst, name, args) = &p.stmts[0] else {
            panic!("expected call, got {:?}", p.stmts[0])
        };
        assert_eq!(dst.name(), "x");
        assert_eq!(name, "f");
        assert_eq!(args.len(), 2);
        assert_eq!(args[0].to_string(), "a + 1");
        assert_eq!(args[1].to_string(), "F(b, c)");
        let Stmt::Call(_, gname, gargs) = &p.stmts[1] else {
            panic!("expected call")
        };
        assert_eq!(gname, "g");
        assert!(gargs.is_empty());
        // `call` only triggers as a keyword: `caller` is a plain term.
        let p2 = parse("x := caller + 1;");
        assert!(matches!(p2.stmts[0], Stmt::Assign(..)));
    }

    #[test]
    fn modules_parse_and_roundtrip() {
        let src = "proc id(a) { ret := a; }
                   proc twice(a) { t := call id(a); ret := t + t; }";
        let m = parse_module(&Vocab::standard(), src).unwrap();
        assert_eq!(m.procs.len(), 2);
        assert_eq!(m.procs[0].name, "id");
        assert_eq!(m.procs[1].params.len(), 1);
        assert_eq!(m.procs[1].callees(), vec!["id".to_owned()]);
        let m2 = parse_module(&Vocab::standard(), &m.to_string()).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn module_errors() {
        let v = Vocab::standard();
        assert!(parse_module(&v, "proc f() { ret := 1; } proc f() {}").is_err());
        assert!(parse_module(&v, "x := 1;").is_err());
        assert!(parse_module(&v, "proc f( { }").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let src = "x := 1;
while (x < 10) {
  x := x + 1;
}
assert(x = 10);
";
        let p = parse(src);
        let p2 = parse(&p.to_string());
        assert_eq!(p, p2);
    }
}
