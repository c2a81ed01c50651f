//! Karr's affine-equalities domain: the logical lattice over the theory of
//! linear arithmetic *with only equality* (paper §2; Karr 1976 [16],
//! Müller-Olm & Seidl [18]).

use crate::expr::{extend_rref, AffExpr, Columns};
use cai_core::{AbstractDomain, Partition, TheoryProps};
use cai_term::{Atom, Conj, Sig, Term, TheoryTag, Var, VarSet};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// An element of the affine-equalities domain: an affine subspace of
/// `Q^Vars`, represented as a conjunction of equalities `eᵢ = 0` in reduced
/// row-echelon form, or bottom.
///
/// Variables not mentioned are unconstrained.
#[derive(Clone, PartialEq, Debug)]
pub struct AffineElem {
    /// `None` is bottom. Rows are sorted by pivot (their leading variable);
    /// each pivot has coefficient 1 and is eliminated from all other rows.
    rows: Option<Vec<AffExpr>>,
}

impl AffineElem {
    /// The top element (no constraints).
    pub fn top() -> AffineElem {
        AffineElem {
            rows: Some(Vec::new()),
        }
    }

    /// The bottom element.
    pub fn bottom() -> AffineElem {
        AffineElem { rows: None }
    }

    /// Returns `true` if this is bottom.
    pub fn is_bottom(&self) -> bool {
        self.rows.is_none()
    }

    /// The number of independent equalities (the rank).
    pub fn rank(&self) -> usize {
        self.rows.as_ref().map_or(0, Vec::len)
    }

    /// The equality rows (empty for bottom).
    pub fn rows(&self) -> &[AffExpr] {
        self.rows.as_deref().unwrap_or(&[])
    }

    /// The variables constrained by the element.
    pub fn vars(&self) -> VarSet {
        let mut out = VarSet::new();
        for r in self.rows() {
            out.extend(r.vars());
        }
        out
    }

    /// Reduces an expression modulo the row space: the canonical
    /// representative of `e`'s residue class over the element.
    pub fn reduce(&self, e: &AffExpr) -> AffExpr {
        let rows = self.rows();
        let mut out = e.clone();
        out.eliminate_each(
            |v| {
                rows.binary_search_by(|r| r.leading_var().cmp(&Some(v)))
                    .ok()
            },
            |out, f, j| out.add_scaled(f, &rows[j]),
        );
        out
    }

    /// Conjoins the equality `e = 0`, maintaining the RREF invariant.
    pub fn insert(&mut self, e: &AffExpr) {
        self.extend_rows([e.clone()]);
    }

    /// Conjoins the equalities `eᵢ = 0` in one batched elimination: one
    /// forward pass per row, then one back pass that clears only the new
    /// pivots. The RREF of a row space is unique, so the result equals
    /// inserting the rows one at a time.
    pub fn extend_rows(&mut self, exprs: impl IntoIterator<Item = AffExpr>) {
        let Some(rows) = self.rows.as_mut() else {
            return; // bottom stays bottom
        };
        if !extend_rref(rows, exprs, Columns::BY_NAME) {
            self.rows = None; // a contradiction such as 0 = 1
        }
    }

    /// Builds an element from arbitrary equality expressions.
    pub fn from_rows(exprs: impl IntoIterator<Item = AffExpr>) -> AffineElem {
        let mut out = AffineElem::top();
        out.extend_rows(exprs);
        out
    }

    /// The affine hull of two elements (the join in the logical lattice of
    /// linear equalities).
    ///
    /// An equality `e = 0` holds on a nonempty affine subspace iff `e`,
    /// read as a vector over the variables and the constant, lies in the
    /// span of the subspace's rows. So the hull's equalities are the
    /// intersection of the two row spaces, computed sparsely by the
    /// Zassenhaus method: reduce each row `b` of `other`, paired as
    /// `(b, 0)`, against the pairs `(a, a)` for the rows `a` of `self`,
    /// applying every step to both halves. A pair whose left half reaches
    /// zero carries in its right half a vector of both row spaces, and
    /// these vectors span the intersection. The constant acts as one more
    /// column, ordered after every variable.
    pub fn hull(&self, other: &AffineElem) -> AffineElem {
        let (Some(mine), Some(theirs)) = (&self.rows, &other.rows) else {
            return if self.is_bottom() { other } else { self }.clone();
        };
        // Echelon triples (pivot, left, right), sorted by the pivot of the
        // left half with the constant column (`None`) last, and scaled so
        // the pivot coefficient is one. A left half has no entry before
        // its pivot, so walking the entries of `b` in order clears every
        // variable pivot; the constant column comes after the walk.
        let order = |p: &Option<Var>| (p.is_none(), *p);
        let mut echelon: Vec<(Option<Var>, AffExpr, AffExpr)> = mine
            .iter()
            .map(|a| (a.leading_var(), a.clone(), a.clone()))
            .collect();
        let mut meets = Vec::new();
        for b in theirs {
            let (mut left, mut right) = (b.clone(), AffExpr::zero());
            left.eliminate_each(
                |v| {
                    let v = Some(v);
                    echelon
                        .binary_search_by(|(q, ..)| order(q).cmp(&order(&v)))
                        .ok()
                },
                |left, f, j| {
                    left.add_scaled(f, &echelon[j].1);
                    right.add_scaled(f, &echelon[j].2);
                },
            );
            if let Some((None, l, r)) = echelon.last() {
                let f = -left.constant_part();
                left.add_scaled(&f, l);
                right.add_scaled(&f, r);
            }
            if left.is_zero() {
                meets.push(right);
                continue;
            }
            let p = left.leading_var();
            let inv = match p {
                Some(v) => left.coeff(v),
                None => left.constant_part().clone(),
            }
            .recip();
            let idx = echelon.partition_point(|(q, ..)| order(q) < order(&p));
            echelon.insert(idx, (p, left.scale(&inv), right.scale(&inv)));
        }
        AffineElem::from_rows(meets)
    }

    /// Projects out the variables of `vs` (existential quantification).
    ///
    /// Each `v` is eliminated in place with the last row that mentions it:
    /// `r -= (c_r / c_v) · row` for every earlier row `r`, then that row is
    /// dropped. The rows it changes have smaller pivots, which it does not
    /// mention, and it carries no other pivot, so the rows stay in RREF.
    pub fn project(&self, vs: &VarSet) -> AffineElem {
        let Some(rows) = &self.rows else {
            return AffineElem::bottom();
        };
        let mut rows = rows.clone();
        for &v in vs {
            let Some(i) = rows.iter().rposition(|r| !r.coeff(v).is_zero()) else {
                continue;
            };
            let row = rows.remove(i);
            let cv = row.coeff(v);
            for r in &mut rows[..i] {
                let c = r.coeff(v);
                if !c.is_zero() {
                    r.add_scaled(&-(&c / &cv), &row);
                }
            }
        }
        AffineElem { rows: Some(rows) }
    }

    /// Decides `self ⇒ e = 0`.
    pub fn implies_zero(&self, e: &AffExpr) -> bool {
        self.is_bottom() || self.reduce(e).is_zero()
    }

    /// Decides `self ⇒ e <= 0`. On an affine subspace an affine function is
    /// either constant or unbounded in both directions, so this holds iff
    /// the canonical residue is a non-positive constant.
    pub fn implies_nonpositive(&self, e: &AffExpr) -> bool {
        if self.is_bottom() {
            return true;
        }
        let r = self.reduce(e);
        r.is_constant() && !r.constant_part().is_positive()
    }
}

impl fmt::Display for AffineElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.rows {
            None => f.write_str("false"),
            Some(rows) if rows.is_empty() => f.write_str("true"),
            Some(rows) => {
                let mut first = true;
                for r in rows {
                    let Some(p) = r.leading_var() else { continue };
                    if !first {
                        f.write_str(" & ")?;
                    }
                    first = false;
                    write!(f, "{p} = {}", r.solve_for(p))?;
                }
                Ok(())
            }
        }
    }
}

/// The affine-equalities abstract domain (Karr's analysis), a logical
/// lattice over the theory of linear arithmetic with only equality.
///
/// Inequality facts are *soundly ignored* on meet (dropping a conjunct
/// over-approximates) and decided against the affine hull on implication
/// queries. Use [`Polyhedra`](crate::Polyhedra) for full inequality
/// support.
///
/// ```
/// use cai_core::AbstractDomain;
/// use cai_linarith::AffineEq;
/// use cai_term::parse::Vocab;
///
/// let vocab = Vocab::standard();
/// let d = AffineEq::new();
/// let e = d.from_conj(&vocab.parse_conj("x = y + 1 & y = 2*z")?);
/// assert!(d.implies_atom(&e, &vocab.parse_atom("x = 2*z + 1")?));
/// # Ok::<(), cai_term::parse::ParseError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct AffineEq;

impl AffineEq {
    /// Creates the domain.
    pub fn new() -> AffineEq {
        AffineEq
    }
}

fn atom_difference(atom: &Atom) -> Option<AffExpr> {
    match atom {
        Atom::Eq(s, t) | Atom::Le(s, t) => AffExpr::difference(s, t).ok(),
        Atom::Pred(..) => None,
    }
}

impl AbstractDomain for AffineEq {
    type Elem = AffineElem;

    fn sig(&self) -> Sig {
        Sig::single(TheoryTag::LINARITH)
    }

    fn props(&self) -> TheoryProps {
        TheoryProps::nelson_oppen()
    }

    fn top(&self) -> AffineElem {
        AffineElem::top()
    }

    fn bottom(&self) -> AffineElem {
        AffineElem::bottom()
    }

    fn is_bottom(&self, e: &AffineElem) -> bool {
        e.is_bottom()
    }

    fn meet_atom(&self, e: &AffineElem, atom: &Atom) -> AffineElem {
        match (atom, atom_difference(atom)) {
            (Atom::Eq(..), Some(diff)) => {
                let mut out = e.clone();
                out.insert(&diff);
                out
            }
            // The equalities-only lattice cannot represent an inequality;
            // dropping it is the sound over-approximation — except that a
            // constant contradiction (e.g. 1 <= 0) still yields bottom.
            (Atom::Le(..), Some(diff)) => {
                if diff.is_constant() && diff.constant_part().is_positive() {
                    AffineElem::bottom()
                } else {
                    e.clone()
                }
            }
            // Out-of-signature and non-linear atoms cannot be represented;
            // dropping the conjunct is the sound over-approximation.
            _ => e.clone(),
        }
    }

    /// One batched elimination for the whole conjunction; the same result
    /// as folding [`meet_atom`](AbstractDomain::meet_atom).
    fn meet_all(&self, e: &AffineElem, atoms: &[Atom]) -> AffineElem {
        let mut eqs = Vec::new();
        for atom in atoms {
            match (atom, atom_difference(atom)) {
                (Atom::Eq(..), Some(diff)) => eqs.push(diff),
                (Atom::Le(..), Some(diff))
                    if diff.is_constant() && diff.constant_part().is_positive() =>
                {
                    return AffineElem::bottom();
                }
                _ => {}
            }
        }
        let mut out = e.clone();
        out.extend_rows(eqs);
        out
    }

    fn implies_atom(&self, e: &AffineElem, atom: &Atom) -> bool {
        if e.is_bottom() {
            return true;
        }
        match (atom, atom_difference(atom)) {
            (Atom::Eq(..), Some(diff)) => e.implies_zero(&diff),
            (Atom::Le(..), Some(diff)) => e.implies_nonpositive(&diff),
            // "not known to hold" is the sound answer for atoms outside
            // the signature.
            _ => false,
        }
    }

    fn join(&self, a: &AffineElem, b: &AffineElem) -> AffineElem {
        a.hull(b)
    }

    fn exists(&self, e: &AffineElem, vars: &VarSet) -> AffineElem {
        e.project(vars)
    }

    fn var_equalities(&self, e: &AffineElem) -> Partition {
        let mut p = Partition::new();
        if e.is_bottom() {
            return p;
        }
        // Two variables are equal iff their canonical residues coincide. A
        // free variable is its own residue; a pivot's is the negation of
        // the rest of its row, which mentions only free variables. So a
        // pivot equals a free variable `w` iff its residue is `w`, and
        // otherwise only pivots can share a residue.
        let mut by_residue: BTreeMap<AffExpr, Var> = BTreeMap::new();
        for row in e.rows() {
            let Some(v) = row.leading_var() else { continue };
            let residue = row.pivot_residue(v);
            if let Some(w) = residue.as_var() {
                p.union(w, v);
                continue;
            }
            match by_residue.entry(residue) {
                Entry::Occupied(first) => {
                    p.union(*first.get(), v);
                }
                Entry::Vacant(slot) => {
                    slot.insert(v);
                }
            }
        }
        p
    }

    fn alternate(&self, e: &AffineElem, y: Var, avoid: &VarSet) -> Option<Term> {
        if e.is_bottom() {
            return Some(Term::int(0));
        }
        // Fast path: the canonical residue of `y` may already avoid the
        // forbidden variables (common when `y` is a pivot).
        let canon = e.reduce(&AffExpr::var(y));
        if canon.coeff(y).is_zero() && canon.iter().all(|(v, _)| *v != y && !avoid.contains(v)) {
            return Some(canon.to_term());
        }
        let mut elim = avoid.clone();
        elim.remove(&y);
        let projected = e.project(&elim);
        let row = projected.rows().iter().find(|r| !r.coeff(y).is_zero())?;
        let t = row.solve_for(y);
        debug_assert!(!t.vars().contains(&y));
        Some(t)
    }

    fn alternates(&self, e: &AffineElem, targets: &VarSet, avoid: &VarSet) -> BTreeMap<Var, Term> {
        let mut out = BTreeMap::new();
        if e.is_bottom() {
            for &y in targets {
                out.insert(y, Term::int(0));
            }
            return out;
        }
        out.extend(crate::expr::preferential_definitions(
            e.rows(),
            targets,
            avoid,
        ));
        out
    }

    fn to_conj(&self, e: &AffineElem) -> Conj {
        if e.is_bottom() {
            return Conj::of(Atom::eq(Term::int(0), Term::int(1)));
        }
        e.rows()
            .iter()
            .filter_map(|r| {
                let p = r.leading_var()?;
                Some(Atom::eq(Term::var(p), r.solve_for(p)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_term::parse::Vocab;

    fn d() -> AffineEq {
        AffineEq::new()
    }

    fn elem(src: &str) -> AffineElem {
        let v = Vocab::standard();
        d().from_conj(&v.parse_conj(src).unwrap())
    }

    fn atom(src: &str) -> Atom {
        Vocab::standard().parse_atom(src).unwrap()
    }

    #[test]
    fn meet_and_implies() {
        let e = elem("x = y + 1 & y = z - 2");
        assert!(d().implies_atom(&e, &atom("x = z - 1")));
        assert!(!d().implies_atom(&e, &atom("x = z")));
    }

    #[test]
    fn contradiction_is_bottom() {
        let e = elem("x = 1 & x = 2");
        assert!(e.is_bottom());
        // Bottom implies everything.
        assert!(d().implies_atom(&e, &atom("x = 77")));
    }

    #[test]
    fn join_is_affine_hull() {
        // {x=0, y=0} ⊔ {x=1, y=1}  =  {x = y}
        let a = elem("x = 0 & y = 0");
        let b = elem("x = 1 & y = 1");
        let j = d().join(&a, &b);
        assert!(d().implies_atom(&j, &atom("x = y")));
        assert!(!d().implies_atom(&j, &atom("x = 0")));
    }

    #[test]
    fn figure3_join() {
        // J(x=a & y=b, x=b & y=a) = (x + y = a + b), paper Figure 3.
        let a = elem("x = a & y = b");
        let b = elem("x = b & y = a");
        let j = d().join(&a, &b);
        assert!(d().implies_atom(&j, &atom("x + y = a + b")));
        assert!(!d().implies_atom(&j, &atom("x = a")));
        assert_eq!(j.rank(), 1);
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let a = elem("x = 5");
        assert_eq!(d().join(&a, &AffineElem::bottom()), a);
        assert_eq!(d().join(&AffineElem::bottom(), &a), a);
    }

    #[test]
    fn project_eliminates() {
        let e = elem("x = y + 1 & z = 2*y");
        let vs: VarSet = [Var::named("y")].into_iter().collect();
        let p = d().exists(&e, &vs);
        assert!(d().implies_atom(&p, &atom("z = 2*x - 2")));
        assert!(p.vars().iter().all(|v| v.name() != "y"));
    }

    #[test]
    fn project_unconstrained_is_noop() {
        let e = elem("x = 1");
        let vs: VarSet = [Var::named("nope")].into_iter().collect();
        assert_eq!(d().exists(&e, &vs), e);
    }

    #[test]
    fn var_equalities_found() {
        let e = elem("x = z + 0 & y = z & w = z + 1");
        let p = d().var_equalities(&e);
        assert!(p.same(Var::named("x"), Var::named("y")));
        assert!(!p.same(Var::named("x"), Var::named("w")));
    }

    #[test]
    fn alternate_finds_definition() {
        let e = elem("y = 2*a + b & a = c");
        let avoid: VarSet = [Var::named("a")].into_iter().collect();
        let t = d().alternate(&e, Var::named("y"), &avoid).unwrap();
        // y = 2c + b avoids a and y.
        assert_eq!(t.to_string(), "b + 2*c");
    }

    #[test]
    fn alternate_respects_avoid() {
        let e = elem("y = x + 1");
        let avoid: VarSet = [Var::named("x")].into_iter().collect();
        assert!(d().alternate(&e, Var::named("y"), &avoid).is_none());
    }

    #[test]
    fn inequalities_handled_soundly() {
        let e = elem("x = y");
        // Meet with an inequality is dropped (sound weakening) ...
        let e2 = d().meet_atom(&e, &atom("x <= 5"));
        assert_eq!(e2, e);
        // ... but implication of inequalities consistent with the hull works.
        assert!(d().implies_atom(&e, &atom("x <= y")));
        assert!(d().implies_atom(&e, &atom("x >= y")));
        assert!(!d().implies_atom(&e, &atom("x <= 5")));
        // And a constant contradiction is detected.
        assert!(d().meet_atom(&e, &atom("1 <= 0")).is_bottom());
    }

    #[test]
    fn to_conj_roundtrip() {
        let e = elem("x = y + 1 & z = 3");
        let c = d().to_conj(&e);
        let e2 = d().from_conj(&c);
        assert_eq!(e, e2);
    }

    #[test]
    fn rational_coefficients() {
        let e = elem("2*x = y & y = 3");
        assert!(d().implies_atom(&e, &atom("x = 3/2")));
    }
}
