//! Hostile nesting depths must come back as typed parse errors, never as
//! a stack overflow that aborts the process.

use cai_interp::parse_module;
use cai_term::parse::{ParseErrorKind, Vocab, MAX_NESTING};

/// `proc main(a) { x := ((…a…)); }` with `depth` parentheses.
fn nested_parens(depth: usize) -> String {
    format!(
        "proc main(a) {{ x := {}a{}; }}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

/// `proc main(a) { while (*) { … x := a; … } }` with `depth` loops.
fn nested_blocks(depth: usize) -> String {
    format!(
        "proc main(a) {{ {} x := a; {} }}",
        "while (*) { ".repeat(depth),
        "} ".repeat(depth)
    )
}

#[test]
fn deep_parentheses_are_a_typed_error() {
    let vocab = Vocab::standard();
    let err = parse_module(&vocab, &nested_parens(100_000)).unwrap_err();
    assert_eq!(err.kind(), ParseErrorKind::TooDeep, "{err}");
    let module = parse_module(&vocab, &nested_parens(500)).expect("depth 500 parses");
    assert_eq!(module.procs.len(), 1);
}

#[test]
fn deep_blocks_are_a_typed_error() {
    let vocab = Vocab::standard();
    let err = parse_module(&vocab, &nested_blocks(100_000)).unwrap_err();
    assert_eq!(err.kind(), ParseErrorKind::TooDeep, "{err}");
    parse_module(&vocab, &nested_blocks(500)).expect("depth 500 parses");
    // The procedure body is one block, so this is the deepest accepted
    // input; it must fit a default 2 MiB thread stack.
    parse_module(&vocab, &nested_blocks(MAX_NESTING - 1)).expect("the limit parses");
}

#[test]
fn ordinary_errors_stay_syntax_errors() {
    let vocab = Vocab::standard();
    let err = parse_module(&vocab, "proc main(a) { x := a * a; }").unwrap_err();
    assert_eq!(err.kind(), ParseErrorKind::Syntax, "{err}");
    let err = parse_module(&vocab, "proc main(a) { x := a; ").unwrap_err();
    assert_eq!(err.kind(), ParseErrorKind::Syntax, "{err}");
}
