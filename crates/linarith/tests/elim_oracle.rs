//! The batched elimination behind every `AffineEq` operator against the
//! row-at-a-time algorithms it replaced.
//!
//! The library reduces rows through one routine (`AffineElem::extend_rows`
//! and the same passes under another column order). The references below
//! are the earlier algorithms: an `insert` fold, projection by
//! substitution, `VE` by reducing every variable, and preferential
//! definitions one row at a time. Reduced row-echelon form is unique for a
//! row space and a column order, so the results must agree structurally,
//! not merely up to equivalence.

mod common;

use cai_core::{AbstractDomain, Partition};
use cai_linarith::{preferential_definitions, AffExpr, AffineElem, AffineEq};
use cai_num::{Rat, SplitMix64};
use cai_term::parse::Vocab;
use cai_term::{Atom, Term, Var, VarSet};
use common::{coeff, row, var, NVARS};
use std::collections::BTreeMap;

const CASES: usize = 400;

/// An element as the references see it: its rows, or `None` for bottom.
type Rows = Option<Vec<AffExpr>>;

fn repr(e: &AffineElem) -> Rows {
    (!e.is_bottom()).then(|| e.rows().to_vec())
}

/// Row-at-a-time insertion: reduce by every row, then clear the new pivot
/// from every row.
fn ref_insert(rows: &mut Rows, e: &AffExpr) {
    let Some(rs) = rows.as_mut() else { return };
    let mut e = e.clone();
    for row in rs.iter() {
        let p = row.leading_var().expect("rows are non-constant");
        let c = e.coeff(p);
        if !c.is_zero() {
            e.add_scaled(&-c, row);
        }
    }
    if e.is_zero() {
        return;
    }
    let Some(pivot) = e.leading_var() else {
        *rows = None; // a contradiction such as 0 = 1
        return;
    };
    let e = e.scale(&e.coeff(pivot).recip());
    for row in rs.iter_mut() {
        let c = row.coeff(pivot);
        if !c.is_zero() {
            row.add_scaled(&-c, &e);
        }
    }
    let idx = rs.partition_point(|r| r.leading_var() < Some(pivot));
    rs.insert(idx, e);
}

fn ref_extend(mut rows: Rows, new: &[AffExpr]) -> Rows {
    for e in new {
        ref_insert(&mut rows, e);
    }
    rows
}

/// `r` with `v := def`.
fn substitute(r: &AffExpr, v: Var, def: &AffExpr) -> AffExpr {
    let c = r.coeff(v);
    let mut out = r.clone();
    out.add_var(v, &-c.clone());
    out.add_scaled(&c, def);
    out
}

/// Projection by solving the first row that mentions each variable and
/// substituting the solution into every other row.
fn ref_project(e: &AffineElem, vs: &VarSet) -> Rows {
    if e.is_bottom() {
        return None;
    }
    let mut rows = e.rows().to_vec();
    for &v in vs {
        let Some(i) = rows.iter().position(|r| !r.coeff(v).is_zero()) else {
            continue;
        };
        let row = rows.remove(i);
        let c = row.coeff(v);
        let mut rest = row.clone();
        rest.add_var(v, &-c.clone());
        let def = rest.scale(&-c.recip());
        for r in rows.iter_mut() {
            *r = substitute(r, v, &def);
        }
    }
    ref_extend(Some(Vec::new()), &rows)
}

/// `VE` by reducing every constrained variable modulo the rows.
fn ref_var_equalities(e: &AffineElem) -> Vec<(Var, Var)> {
    let mut p = Partition::new();
    if e.is_bottom() {
        return p.pairs();
    }
    let mut by_canon: BTreeMap<AffExpr, Var> = BTreeMap::new();
    for v in e.vars() {
        let canon = e.reduce(&AffExpr::var(v));
        match by_canon.get(&canon) {
            Some(&first) => {
                p.union(first, v);
            }
            None => {
                by_canon.insert(canon, v);
            }
        }
    }
    p.pairs()
}

/// Preferential definitions one row at a time: reduce each row by the
/// echelon so far, pivot on its least variable in the order "`avoid`
/// first, then by name", and clear that pivot from every earlier row.
fn ref_preferential(rows: &[AffExpr], targets: &VarSet, avoid: &VarSet) -> BTreeMap<Var, Term> {
    let prefer = |v: &Var| (usize::from(!avoid.contains(v)), *v);
    let mut echelon: Vec<(Var, AffExpr)> = Vec::new();
    for row in rows {
        let mut r = row.clone();
        for (p, er) in &echelon {
            let c = r.coeff(*p);
            if !c.is_zero() {
                r.add_scaled(&-c, er);
            }
        }
        let Some(pivot) = r.vars().into_iter().min_by_key(prefer) else {
            continue; // redundant (or inconsistent) row
        };
        let r = r.scale(&r.coeff(pivot).recip());
        for (_, er) in echelon.iter_mut() {
            let c = er.coeff(pivot);
            if !c.is_zero() {
                er.add_scaled(&-c, &r);
            }
        }
        echelon.push((pivot, r));
    }
    let mut out = BTreeMap::new();
    for (p, r) in &echelon {
        if targets.contains(p) && r.vars().iter().all(|v| v == p || !avoid.contains(v)) {
            out.insert(*p, r.solve_for(*p));
        }
    }
    out
}

/// A batch of rows: random rows with rational coefficients, scaled
/// duplicates of earlier rows, earlier rows with a shifted constant (which
/// reduce to a nonzero constant unless an intervening row absorbs it), and
/// constant rows.
fn batch(g: &mut SplitMix64) -> Vec<AffExpr> {
    let mut rows: Vec<AffExpr> = Vec::new();
    for _ in 0..g.below(7) {
        let r = match (rows.len(), g.below(8)) {
            (n, 0 | 1) if n > 0 => rows[g.below(n as u64) as usize].scale(&coeff(g)),
            (n, 2) if n > 0 => rows[g.below(n as u64) as usize]
                .add(&AffExpr::constant(Rat::from(g.range_i64(1, 3)))),
            (_, 3) if g.ratio(1, 3) => AffExpr::constant(Rat::from(g.range_i64(0, 2))),
            _ => row(g),
        };
        rows.push(r);
    }
    rows
}

/// Rows of the form `hᵢ = hⱼ + c`, mostly with `c = 0`, mixed with random
/// rows, so that elements imply many variable equalities.
fn equality_batch(g: &mut SplitMix64) -> Vec<AffExpr> {
    (0..1 + g.below(6))
        .map(|_| {
            if g.ratio(1, 4) {
                return row(g);
            }
            let (i, j) = (g.below(NVARS as u64), g.below(NVARS as u64));
            let mut e = AffExpr::var(var(i as usize)).sub(&AffExpr::var(var(j as usize)));
            if g.ratio(1, 4) {
                e = e.add(&AffExpr::constant(Rat::from(g.range_i64(1, 3))));
            }
            e.scale(&coeff(g))
        })
        .collect()
}

fn var_subset(g: &mut SplitMix64) -> VarSet {
    (0..NVARS + 1).filter(|_| g.ratio(1, 2)).map(var).collect()
}

#[test]
fn from_rows_and_extend_rows_match_the_insert_fold() {
    let mut g = SplitMix64::new(0xE11A_0001);
    let (mut bottoms, mut grown) = (0, 0);
    for _ in 0..CASES {
        let first = batch(&mut g);
        let e = AffineElem::from_rows(first.clone());
        assert_eq!(repr(&e), ref_extend(Some(Vec::new()), &first), "{first:?}");

        let more = batch(&mut g);
        let mut extended = e.clone();
        extended.extend_rows(more.clone());
        let expected = ref_extend(repr(&e), &more);
        assert_eq!(repr(&extended), expected, "{e} ∧ {more:?}");
        for r in &more {
            let mut one = e.clone();
            one.insert(r);
            assert_eq!(repr(&one), ref_extend(repr(&e), std::slice::from_ref(r)));
        }
        match &expected {
            None => bottoms += 1,
            Some(rows) if rows.len() > e.rank() && e.rank() > 0 => grown += 1,
            Some(_) => {}
        }
    }
    assert!(bottoms > CASES / 20, "only {bottoms} contradictions");
    assert!(
        grown > CASES / 10,
        "only {grown} batches extended a nontrivial element"
    );
}

#[test]
fn fixed_batches_match_the_insert_fold() {
    let vocab = Vocab::standard();
    let rows = |src: &str| -> Vec<AffExpr> {
        vocab
            .parse_conj(src)
            .expect("test conjunction parses")
            .iter()
            .map(|atom| match atom {
                Atom::Eq(s, t) => AffExpr::difference(s, t).expect("affine atom"),
                other => panic!("not an equality: {other}"),
            })
            .collect()
    };
    for src in [
        "x = 1/2*y + 3 & 3*y = 2*z - 1/3 & z = w",
        "x = y & 2*x = 2*y & x = y & y = z",
        "x = 1 & x = 2 & y = 3",
        "x = y + 1 & z = w & y = x",
        "a = b + c & b = c & c = 1 & a = 2",
        "z = 1 & y = z + x & x = 2*w & w = 1/3",
    ] {
        let batch = rows(src);
        let expected = ref_extend(Some(Vec::new()), &batch);
        assert_eq!(
            repr(&AffineElem::from_rows(batch.clone())),
            expected,
            "{src}"
        );
        let (head, tail) = batch.split_at(batch.len() / 2);
        let mut split = AffineElem::from_rows(head.to_vec());
        split.extend_rows(tail.to_vec());
        assert_eq!(repr(&split), expected, "{src} in two batches");
    }
    let mut bottom = AffineElem::bottom();
    bottom.extend_rows(rows("x = 1"));
    assert!(bottom.is_bottom());
}

/// The atom `e = 0`, `e <= 0`, or one outside the signature.
fn atom(g: &mut SplitMix64, vocab: &Vocab) -> Atom {
    match g.below(10) {
        0 => vocab.parse_atom("F(h0) = h1").expect("atom parses"),
        1 => Atom::le(Term::int(g.range_i64(-1, 2)), Term::int(0)),
        2 | 3 => Atom::le(row(g).to_term(), Term::int(0)),
        _ => Atom::eq(row(g).to_term(), Term::int(0)),
    }
}

fn meet_atom_fold(d: &AffineEq, e: &AffineElem, atoms: &[Atom]) -> AffineElem {
    atoms.iter().fold(e.clone(), |acc, a| d.meet_atom(&acc, a))
}

#[test]
fn meet_all_matches_the_meet_atom_fold() {
    let d = AffineEq::new();
    let vocab = Vocab::standard();
    let mut g = SplitMix64::new(0xE11A_0002);
    let (mut bottoms, mut kept) = (0, 0);
    for _ in 0..CASES {
        let e = match g.below(8) {
            0 => AffineElem::bottom(),
            1 => AffineElem::top(),
            _ => AffineElem::from_rows(batch(&mut g)),
        };
        let atoms: Vec<Atom> = (0..g.below(8)).map(|_| atom(&mut g, &vocab)).collect();
        let batched = d.meet_all(&e, &atoms);
        assert_eq!(batched, meet_atom_fold(&d, &e, &atoms), "{e} ∧ {atoms:?}");
        // The fold itself against the row-at-a-time reference.
        let mut rows = repr(&e);
        for a in &atoms {
            match a {
                Atom::Eq(s, t) => {
                    if let Ok(diff) = AffExpr::difference(s, t) {
                        ref_insert(&mut rows, &diff);
                    }
                }
                Atom::Le(s, t) => {
                    let diff = AffExpr::difference(s, t).expect("affine atom");
                    if diff.is_constant() && diff.constant_part().is_positive() {
                        rows = None;
                    }
                }
                Atom::Pred(..) => {}
            }
        }
        assert_eq!(repr(&batched), rows, "{e} ∧ {atoms:?}");
        if batched.is_bottom() {
            bottoms += 1;
        } else if batched.rank() > 0 {
            kept += 1;
        }
        let conj = atoms.iter().cloned().collect();
        let folded = meet_atom_fold(&d, &AffineElem::top(), &atoms);
        assert_eq!(d.from_conj(&conj), folded, "{atoms:?}");
    }
    assert!(bottoms > CASES / 20, "only {bottoms} bottoms");
    assert!(kept > CASES / 4, "only {kept} nontrivial meets");
}

#[test]
fn meet_all_edge_cases() {
    let d = AffineEq::new();
    let vocab = Vocab::standard();
    let atoms = |src: &str| -> Vec<Atom> {
        vocab
            .parse_conj(src)
            .expect("test conjunction parses")
            .iter()
            .cloned()
            .collect()
    };
    let some = AffineElem::from_rows([AffExpr::var(var(0)).sub(&AffExpr::var(var(1)))]);
    for src in [
        "1 <= 0 & x = y",
        "x = y & 1 <= 0",
        "x = 1 & x = 2 & y = 3",
        "x = 1 & y <= 5 & F(x) = y & y = 2*x",
        "0 <= 1 & x = 1/3*y & 2*y = z",
    ] {
        let conj = atoms(src);
        for e in [AffineElem::top(), AffineElem::bottom(), some.clone()] {
            assert_eq!(
                d.meet_all(&e, &conj),
                meet_atom_fold(&d, &e, &conj),
                "{e} ∧ {src}"
            );
        }
    }
    assert!(d.meet_all(&some, &atoms("1 <= 0 & x = y")).is_bottom());
    assert!(d
        .meet_all(&some, &atoms("x = 1 & x = 2 & y = 3"))
        .is_bottom());
    assert!(d.meet_all(&AffineElem::bottom(), &[]).is_bottom());
}

#[test]
fn project_matches_substitution() {
    let mut g = SplitMix64::new(0xE11A_0003);
    let mut shared = 0;
    for _ in 0..CASES {
        // Two to four random rows leave free variables that several rows
        // share; projecting half of the variables keeps some rows.
        let e = if g.ratio(1, 20) {
            AffineElem::bottom()
        } else {
            let n = 2 + g.below(3);
            AffineElem::from_rows((0..n).map(|_| row(&mut g)))
        };
        let mut vs: VarSet = e.vars().into_iter().filter(|_| g.ratio(1, 2)).collect();
        vs.insert(var(g.below(NVARS as u64 + 1) as usize));
        assert_eq!(repr(&e.project(&vs)), ref_project(&e, &vs), "∃{vs:?}. {e}");
        let mentions = |v: &Var| e.rows().iter().filter(|r| !r.coeff(*v).is_zero()).count();
        shared += usize::from(vs.iter().any(|v| mentions(v) > 1));
    }
    assert!(
        shared > CASES / 10,
        "only {shared} variables shared by rows"
    );
}

#[test]
fn var_equalities_match_reduction() {
    let d = AffineEq::new();
    let mut g = SplitMix64::new(0xE11A_0004);
    let mut found = 0;
    for _ in 0..CASES {
        let e = AffineElem::from_rows(equality_batch(&mut g));
        let pairs = d.var_equalities(&e).pairs();
        assert_eq!(pairs, ref_var_equalities(&e), "VE({e})");
        found += usize::from(!pairs.is_empty());
    }
    assert!(found > CASES / 2, "only {found} elements with equalities");
}

#[test]
fn preferential_definitions_match_row_at_a_time() {
    let mut g = SplitMix64::new(0xE11A_0005);
    let mut defined = 0;
    for case in 0..CASES {
        // Arbitrary rows (possibly redundant or inconsistent), or an RREF
        // as `AffineEq::alternates` passes them.
        let rows = if case % 2 == 0 {
            batch(&mut g)
        } else {
            AffineElem::from_rows(equality_batch(&mut g).into_iter().chain(batch(&mut g)))
                .rows()
                .to_vec()
        };
        let avoid = var_subset(&mut g);
        let targets: VarSet = avoid.iter().copied().filter(|_| g.ratio(2, 3)).collect();
        let defs = preferential_definitions(&rows, &targets, &avoid);
        assert_eq!(
            defs,
            ref_preferential(&rows, &targets, &avoid),
            "{rows:?} targets {targets:?} avoid {avoid:?}"
        );
        defined += usize::from(!defs.is_empty());
    }
    assert!(defined > CASES / 4, "only {defined} cases with definitions");
}
