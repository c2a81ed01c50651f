//! The sparse affine hull against a dense reference oracle.
//!
//! The oracle is the textbook construction: turn both elements into
//! generators (a particular point and one direction per free variable),
//! build a dense rational matrix over the union of their variables, and
//! take its null space, which holds every affine form `α·x + c` vanishing
//! on both points and along every direction. Reduced row-echelon form with
//! least-variable pivots is unique for a subspace, so `AffineElem::hull`
//! must return exactly the oracle's element, not merely an equivalent one.

mod common;

use cai_linarith::{AffExpr, AffineElem};
use cai_num::{Rat, SplitMix64};
use cai_term::parse::Vocab;
use cai_term::{Var, VarSet};
use common::{coeff, row};
use std::collections::BTreeMap;

/// A dense matrix of rationals (row major).
type Matrix = Vec<Vec<Rat>>;

/// Brings `m` into reduced row-echelon form in place and returns the pivot
/// column of each (nonzero) row, in order. Zero rows are removed.
fn rref(m: &mut Matrix) -> Vec<usize> {
    let rows = m.len();
    if rows == 0 {
        return Vec::new();
    }
    let cols = m[0].len();
    let mut pivots = Vec::new();
    let mut r = 0;
    for c in 0..cols {
        let Some(sel) = (r..rows).find(|&i| !m[i][c].is_zero()) else {
            continue;
        };
        m.swap(r, sel);
        let inv = m[r][c].recip();
        for x in &mut m[r] {
            *x = &*x * &inv;
        }
        let pivot_row = m[r].clone();
        for (i, row) in m.iter_mut().enumerate() {
            if i != r && !row[c].is_zero() {
                let f = row[c].clone();
                for (x, p) in row.iter_mut().zip(&pivot_row) {
                    *x = &*x - &(p * &f);
                }
            }
        }
        pivots.push(c);
        r += 1;
        if r == rows {
            break;
        }
    }
    m.truncate(r);
    pivots
}

/// A basis of the null space `{x | m·x = 0}` for a matrix with `cols`
/// columns.
fn null_space(m: &Matrix, cols: usize) -> Vec<Vec<Rat>> {
    let mut a = m.clone();
    let pivots = rref(&mut a);
    let mut basis = Vec::new();
    for f in (0..cols).filter(|c| !pivots.contains(c)) {
        let mut v = vec![Rat::zero(); cols];
        v[f] = Rat::one();
        for (row, &p) in a.iter().zip(&pivots) {
            v[p] = -row[f].clone();
        }
        basis.push(v);
    }
    basis
}

/// The generators of `e` over the universe `u`: a particular point and one
/// direction per free variable (absent entries are zero).
fn generators(e: &AffineElem, u: &VarSet) -> (BTreeMap<Var, Rat>, Vec<BTreeMap<Var, Rat>>) {
    let rows = e.rows();
    let pivots: VarSet = rows.iter().filter_map(AffExpr::leading_var).collect();
    let mut point = BTreeMap::new();
    for r in rows {
        let p = r.leading_var().expect("rows are non-constant");
        point.insert(p, -r.constant_part().clone());
    }
    let mut basis = Vec::new();
    for &f in u.iter().filter(|v| !pivots.contains(v)) {
        let mut dir = BTreeMap::new();
        dir.insert(f, Rat::one());
        for r in rows {
            let c = r.coeff(f);
            if !c.is_zero() {
                dir.insert(r.leading_var().expect("rows are non-constant"), -c);
            }
        }
        basis.push(dir);
    }
    (point, basis)
}

/// The dense generator-and-null-space affine hull.
fn oracle_hull(a: &AffineElem, b: &AffineElem) -> AffineElem {
    if a.is_bottom() {
        return b.clone();
    }
    if b.is_bottom() {
        return a.clone();
    }
    let mut u = a.vars();
    u.extend(b.vars());
    let order: Vec<Var> = u.iter().copied().collect();
    let n = order.len();
    let get = |m: &BTreeMap<Var, Rat>, v: &Var| m.get(v).cloned().unwrap_or_else(Rat::zero);
    let (p1, mut dirs) = generators(a, &u);
    let (p2, dirs2) = generators(b, &u);
    dirs.extend(dirs2);
    dirs.push(
        order
            .iter()
            .map(|v| (*v, &get(&p2, v) - &get(&p1, v)))
            .collect(),
    );
    // Unknowns (α_v.., c): α·p1 + c = 0 and α·dir = 0 for every direction.
    let mut prow: Vec<Rat> = order.iter().map(|v| get(&p1, v)).collect();
    prow.push(Rat::one());
    let mut m: Matrix = vec![prow];
    for dir in &dirs {
        let mut row: Vec<Rat> = order.iter().map(|v| get(dir, v)).collect();
        row.push(Rat::zero());
        m.push(row);
    }
    AffineElem::from_rows(null_space(&m, n + 1).into_iter().map(|alpha| {
        let mut e = AffExpr::constant(alpha[n].clone());
        for (i, &v) in order.iter().enumerate() {
            e.add_var(v, &alpha[i]);
        }
        e
    }))
}

fn check(a: &AffineElem, b: &AffineElem) {
    let expected = oracle_hull(a, b);
    assert_eq!(a.hull(b), expected, "{a} ⊔ {b}");
    assert_eq!(b.hull(a), expected, "{b} ⊔ {a}");
}

fn elem(src: &str) -> AffineElem {
    let vocab = Vocab::standard();
    let conj = vocab.parse_conj(src).expect("test conjunction parses");
    AffineElem::from_rows(conj.iter().map(|atom| match atom {
        cai_term::Atom::Eq(s, t) => AffExpr::difference(s, t).expect("affine atom"),
        other => panic!("not an equality: {other}"),
    }))
}

#[test]
fn constant_column_pivots() {
    check(&elem("x = 0"), &elem("x = 1"));
    check(&elem("x = y"), &elem("x = y + 1"));
    check(&elem("x = 0 & y = 0"), &elem("x = 1 & y = 1"));
    check(
        &elem("x = 0 & y = 0 & z = 0"),
        &elem("x = 2 & y = 4 & z = 1"),
    );
    assert_eq!(
        elem("x = 0 & y = 0").hull(&elem("x = 1 & y = 1")),
        elem("x = y")
    );
}

#[test]
fn top_and_bottom() {
    let some = elem("x = 2*y + 1 & z = 3");
    for e in [AffineElem::top(), AffineElem::bottom(), some] {
        check(&e, &AffineElem::top());
        check(&e, &AffineElem::bottom());
    }
}

#[test]
fn paper_figure3_and_rational_rows() {
    check(&elem("x = a & y = b"), &elem("x = b & y = a"));
    check(&elem("2*x = 3*y & y = 1/2"), &elem("3*x = y & y = 1/3"));
    check(
        &elem("x = 1/2 & y = 2/3*z"),
        &elem("x = 1/2 & y = 2/3*z + 1/7"),
    );
}

const CASES: usize = 400;

/// A pair of elements that share some rows, so their hulls are neither
/// always top nor always one side; some shared rows reappear on the
/// other side with a shifted constant, which pivots on the constant.
fn pair(g: &mut SplitMix64) -> (AffineElem, AffineElem) {
    let shared: Vec<AffExpr> = (0..g.below(3)).map(|_| row(g)).collect();
    let side = |g: &mut SplitMix64| {
        let mut rows = Vec::new();
        for s in &shared {
            let mut r = s.scale(&coeff(g));
            if g.ratio(1, 4) {
                r = r.add(&AffExpr::constant(Rat::from(g.range_i64(1, 3))));
            }
            rows.push(r);
        }
        rows.extend((0..g.below(3)).map(|_| row(g)));
        AffineElem::from_rows(rows)
    };
    let a = side(g);
    let b = side(g);
    (a, b)
}

#[test]
fn seeded_random_elements_match_the_oracle() {
    let mut g = SplitMix64::new(0x4011_0001);
    let (mut nontrivial, mut bottoms) = (0, 0);
    for _ in 0..CASES {
        let (a, b) = pair(&mut g);
        check(&a, &b);
        let h = a.hull(&b);
        if h.is_bottom() {
            bottoms += 1;
        } else if h.rank() > 0 && h != a && h != b {
            nontrivial += 1;
        }
    }
    // The generator must reach the interesting cases, not only top.
    assert!(
        nontrivial > CASES / 10,
        "only {nontrivial} nontrivial hulls"
    );
    assert!(bottoms > 0, "no bottom-bottom pair was generated");
}
