//! The linear-inequalities (polyhedra) domain: the logical lattice over the
//! full theory of linear arithmetic (paper §2; Cousot & Halbwachs [7]).
//!
//! Elements are conjunctions of equalities and non-strict inequalities
//! represented in constraint form. Implication and projection use exact
//! Fourier–Motzkin elimination; the join is the convex hull via the
//! standard lifting (`x = y + z`, `A y <= λ b`, `C z <= μ d`, `λ + μ = 1`,
//! `λ, μ >= 0`, projected back onto `x`).

use crate::affine::AffineElem;
use crate::expr::AffExpr;
use crate::fm::{self, Ineq};
use cai_core::{AbstractDomain, Budget, Partition, TheoryProps};
use cai_num::Rat;
use cai_term::{Atom, Conj, Sig, Term, TheoryTag, Var, VarSet};
use std::collections::BTreeMap;
use std::fmt;

/// An element of the [`Polyhedra`] domain: a (possibly unbounded) convex
/// rational polyhedron in constraint form, or bottom.
#[derive(Clone, PartialEq, Debug)]
pub struct PolyElem {
    /// `None` is bottom; otherwise the equalities (in RREF, via
    /// [`AffineElem`]) plus the inequalities `e <= 0`, reduced modulo the
    /// equalities.
    state: Option<PolyState>,
}

#[derive(Clone, PartialEq, Debug)]
struct PolyState {
    eqs: AffineElem,
    ineqs: Vec<AffExpr>, // each meaning `e <= 0`, non-strict
}

impl PolyElem {
    /// The top element.
    pub fn top() -> PolyElem {
        PolyElem {
            state: Some(PolyState {
                eqs: AffineElem::top(),
                ineqs: Vec::new(),
            }),
        }
    }

    /// The bottom element.
    pub fn bottom() -> PolyElem {
        PolyElem { state: None }
    }

    /// Returns `true` if this is bottom.
    pub fn is_bottom(&self) -> bool {
        self.state.is_none()
    }

    /// The equality part.
    pub fn equalities(&self) -> &[AffExpr] {
        self.state.as_ref().map_or(&[], |s| s.eqs.rows())
    }

    /// The inequality rows (`e <= 0` each).
    pub fn inequalities(&self) -> &[AffExpr] {
        self.state.as_ref().map_or(&[], |s| &s.ineqs)
    }

    /// The variables mentioned.
    pub fn vars(&self) -> VarSet {
        let mut out = VarSet::new();
        if let Some(s) = &self.state {
            out.extend(s.eqs.vars());
            for i in &s.ineqs {
                out.extend(i.vars());
            }
        }
        out
    }

    /// The full constraint system as (non-strict) inequalities, equalities
    /// expanded into complementary pairs.
    fn rows(&self) -> Vec<Ineq> {
        let Some(s) = &self.state else {
            // An explicitly infeasible row.
            return vec![Ineq::le(AffExpr::constant(Rat::one()))];
        };
        let mut rows = Vec::with_capacity(s.eqs.rows().len() * 2 + s.ineqs.len());
        for e in s.eqs.rows() {
            rows.push(Ineq::le(e.clone()));
            rows.push(Ineq::le(e.scale(&-Rat::one())));
        }
        for i in &s.ineqs {
            rows.push(Ineq::le(i.clone()));
        }
        rows
    }

    /// Builds an element from raw equalities and inequality rows,
    /// normalizing: inequalities are reduced modulo the equalities, implied
    /// equalities (tight inequality pairs) are promoted, redundant rows are
    /// pruned, and infeasibility collapses to bottom.
    ///
    /// Governed by a [`Budget`]. On exhaustion the
    /// remaining normalization (tight-pair promotion, redundancy pruning,
    /// deep feasibility checks) is skipped and the rows are kept as they
    /// are: the result describes the *same* set of points, merely less
    /// canonically, so every downstream implication stays sound — at worst
    /// an infeasible system is reported as non-bottom, which only loses
    /// precision.
    fn assemble_budgeted(eqs: AffineElem, ineqs: Vec<AffExpr>, budget: &Budget) -> PolyElem {
        let mut eqs = eqs;
        let mut pending: Vec<AffExpr> = ineqs;
        loop {
            if eqs.is_bottom() {
                return PolyElem::bottom();
            }
            // Reduce inequalities modulo the equalities; constants resolve.
            let mut rows: Vec<Ineq> = Vec::new();
            for e in &pending {
                let r = eqs.reduce(e);
                if r.is_constant() {
                    if r.constant_part().is_positive() {
                        return PolyElem::bottom();
                    }
                    continue;
                }
                rows.push(Ineq::le(r));
            }
            let Some(rows) = fm::simplify(rows) else {
                return PolyElem::bottom();
            };
            if !budget.tick(1 + rows.len() as u64) {
                budget.degrade("poly/assemble", "kept rows without normalization");
                return PolyElem {
                    state: Some(PolyState {
                        eqs,
                        ineqs: rows.into_iter().map(|r| r.expr).collect(),
                    }),
                };
            }
            if fm::infeasible_budgeted(rows.clone(), budget) {
                return PolyElem::bottom();
            }
            // Promote tight inequalities (those whose reverse is implied)
            // to equalities.
            let mut promoted = Vec::new();
            let mut kept = Vec::new();
            for r in &rows {
                // A tight inequality (whose reverse is also implied) is an
                // equality in disguise; `rows` may include `r` itself, which
                // never implies its own reverse.
                let reverse = r.expr.scale(&-Rat::one());
                if fm::implies_le_budgeted(&rows, &reverse, budget) {
                    promoted.push(r.expr.clone());
                } else {
                    kept.push(r.expr.clone());
                }
            }
            if promoted.is_empty() {
                // Drop rows implied by the remaining ones (redundancy).
                let all: Vec<Ineq> = kept.iter().cloned().map(Ineq::le).collect();
                let mut survivors: Vec<AffExpr> = Vec::new();
                for (i, e) in kept.iter().enumerate() {
                    let others: Vec<Ineq> = all
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, q)| q.clone())
                        .collect();
                    if !fm::implies_le_budgeted(&others, e, budget) {
                        survivors.push(e.clone());
                    }
                }
                return PolyElem {
                    state: Some(PolyState {
                        eqs,
                        ineqs: survivors,
                    }),
                };
            }
            eqs.extend_rows(promoted);
            pending = kept;
        }
    }

    /// Decides `self ⇒ e <= 0`.
    pub fn implies_nonpositive(&self, e: &AffExpr) -> bool {
        self.implies_nonpositive_budgeted(e, &Budget::unlimited())
    }

    /// [`PolyElem::implies_nonpositive`] governed by a [`Budget`];
    /// exhaustion yields `false` ("unknown"), never a spurious `true`.
    pub fn implies_nonpositive_budgeted(&self, e: &AffExpr, budget: &Budget) -> bool {
        if self.is_bottom() {
            return true;
        }
        fm::implies_le_budgeted(&self.rows(), e, budget)
    }

    /// Decides `self ⇒ e = 0`.
    pub fn implies_zero(&self, e: &AffExpr) -> bool {
        self.implies_zero_budgeted(e, &Budget::unlimited())
    }

    /// [`PolyElem::implies_zero`] governed by a [`Budget`]; exhaustion
    /// yields `false` ("unknown").
    pub fn implies_zero_budgeted(&self, e: &AffExpr, budget: &Budget) -> bool {
        self.implies_nonpositive_budgeted(e, budget)
            && self.implies_nonpositive_budgeted(&e.scale(&-Rat::one()), budget)
    }
}

impl fmt::Display for PolyElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.state {
            None => f.write_str("false"),
            Some(s) => {
                let mut first = true;
                if !s.eqs.rows().is_empty() {
                    write!(f, "{}", s.eqs)?;
                    first = false;
                }
                for i in &s.ineqs {
                    if !first {
                        f.write_str(" & ")?;
                    }
                    first = false;
                    // e <= 0 shown as `vars <= -const`.
                    let k = i.constant_part().clone();
                    let mut lhs = i.clone();
                    lhs = lhs.sub(&AffExpr::constant(k.clone()));
                    write!(f, "{} <= {}", lhs.to_term(), -k)?;
                }
                if first {
                    f.write_str("true")?;
                }
                Ok(())
            }
        }
    }
}

/// The polyhedra abstract domain over the full theory of linear arithmetic
/// (equalities and non-strict inequalities).
///
/// ```
/// use cai_core::AbstractDomain;
/// use cai_linarith::Polyhedra;
/// use cai_term::parse::Vocab;
///
/// let vocab = Vocab::standard();
/// let d = Polyhedra::new();
/// let e = d.from_conj(&vocab.parse_conj("x <= y & y <= z")?);
/// assert!(d.implies_atom(&e, &vocab.parse_atom("x <= z")?));
/// # Ok::<(), cai_term::parse::ParseError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Polyhedra {
    budget: Budget,
}

impl Polyhedra {
    /// Creates the domain with an unlimited budget.
    pub fn new() -> Polyhedra {
        Polyhedra::default()
    }

    /// Governs every operation of this domain by `budget` (clone the one
    /// budget shared across the whole analysis).
    pub fn with_budget(mut self, budget: Budget) -> Polyhedra {
        self.budget = budget;
        self
    }

    /// The governing budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Translates an `Eq`/`Le` atom into its `lhs - rhs` form; atoms
    /// outside linear arithmetic yield `None` (handled by degrading, not
    /// panicking — the products filter atoms by signature, so this only
    /// fires on misuse, which the degradation log records).
    fn atom_diff(&self, atom: &Atom, site: &'static str) -> Option<AffExpr> {
        match atom {
            Atom::Eq(a, b) | Atom::Le(a, b) => match AffExpr::difference(a, b) {
                Ok(diff) => Some(diff),
                Err(err) => {
                    self.budget
                        .degrade(site, format!("non-linear atom `{atom}`: {err}"));
                    None
                }
            },
            Atom::Pred(..) => {
                self.budget.degrade(
                    site,
                    format!("atom `{atom}` outside the linarith signature"),
                );
                None
            }
        }
    }
}

impl AbstractDomain for Polyhedra {
    type Elem = PolyElem;

    fn sig(&self) -> Sig {
        Sig::single(TheoryTag::LINARITH)
    }

    fn props(&self) -> TheoryProps {
        TheoryProps::nelson_oppen()
    }

    fn top(&self) -> PolyElem {
        PolyElem::top()
    }

    fn bottom(&self) -> PolyElem {
        PolyElem::bottom()
    }

    fn is_bottom(&self, e: &PolyElem) -> bool {
        e.is_bottom()
    }

    fn meet_atom(&self, e: &PolyElem, atom: &Atom) -> PolyElem {
        let Some(s) = &e.state else {
            return PolyElem::bottom();
        };
        let Some(diff) = self.atom_diff(atom, "poly/meet_atom") else {
            // Sound: `e` alone over-approximates `e ∧ atom`.
            return e.clone();
        };
        let mut eqs = s.eqs.clone();
        let mut ineqs = s.ineqs.clone();
        if matches!(atom, Atom::Eq(..)) {
            eqs.insert(&diff);
        } else {
            ineqs.push(diff);
        }
        PolyElem::assemble_budgeted(eqs, ineqs, &self.budget)
    }

    fn implies_atom(&self, e: &PolyElem, atom: &Atom) -> bool {
        let Some(diff) = self.atom_diff(atom, "poly/implies_atom") else {
            return false; // "unknown" is always sound
        };
        if matches!(atom, Atom::Eq(..)) {
            e.implies_zero_budgeted(&diff, &self.budget)
        } else {
            e.implies_nonpositive_budgeted(&diff, &self.budget)
        }
    }

    fn join(&self, a: &PolyElem, b: &PolyElem) -> PolyElem {
        if a.is_bottom() {
            return b.clone();
        }
        if b.is_bottom() {
            return a.clone();
        }
        // Convex hull via the standard lifting. Universe x; copies y
        // (from a, scaled by λ) and z (from b, scaled by μ).
        let mut universe = a.vars();
        universe.extend(b.vars());
        // The lifting triples the variable count before projecting it back
        // down — charge for it up front and fall back to ⊤ (a sound upper
        // bound of any join) once the budget is gone.
        if !self.budget.tick(1 + universe.len() as u64) {
            self.budget
                .degrade("poly/join", "returned top instead of the convex hull");
            return PolyElem::top();
        }
        let lambda = Var::fresh("lam");
        let mu = Var::fresh("mu");
        let mut ys: BTreeMap<Var, Var> = BTreeMap::new();
        let mut zs: BTreeMap<Var, Var> = BTreeMap::new();
        for &v in &universe {
            ys.insert(v, Var::fresh(&format!("y_{}", v.name())));
            zs.insert(v, Var::fresh(&format!("z_{}", v.name())));
        }
        let rename = |e: &AffExpr, map: &BTreeMap<Var, Var>, scale_var: Var| -> AffExpr {
            // α·x + k <= 0 becomes α·y + k·λ <= 0.
            let mut out = AffExpr::zero();
            for (v, c) in e.iter() {
                out.add_var(map[v], c);
            }
            out.add_var(scale_var, e.constant_part());
            out
        };
        let mut sys: Vec<Ineq> = Vec::new();
        for r in a.rows() {
            sys.push(Ineq::le(rename(&r.expr, &ys, lambda)));
        }
        for r in b.rows() {
            sys.push(Ineq::le(rename(&r.expr, &zs, mu)));
        }
        // x_v = y_v + z_v.
        for &v in &universe {
            let mut e = AffExpr::var(v);
            e.add_var(ys[&v], &-Rat::one());
            e.add_var(zs[&v], &-Rat::one());
            sys.push(Ineq::le(e.clone()));
            sys.push(Ineq::le(e.scale(&-Rat::one())));
        }
        // λ + μ = 1, λ >= 0, μ >= 0.
        let mut lm = AffExpr::var(lambda);
        lm.add_var(mu, &Rat::one());
        lm = lm.add(&AffExpr::constant(-Rat::one()));
        sys.push(Ineq::le(lm.clone()));
        sys.push(Ineq::le(lm.scale(&-Rat::one())));
        sys.push(Ineq::le(AffExpr::var(lambda).scale(&-Rat::one())));
        sys.push(Ineq::le(AffExpr::var(mu).scale(&-Rat::one())));
        // Project the auxiliaries.
        let mut aux: VarSet = [lambda, mu].into_iter().collect();
        aux.extend(ys.values().copied());
        aux.extend(zs.values().copied());
        let Some(rows) = fm::project_budgeted(sys, &aux, &self.budget) else {
            return PolyElem::bottom();
        };
        PolyElem::assemble_budgeted(
            AffineElem::top(),
            rows.into_iter().map(|r| r.expr).collect(),
            &self.budget,
        )
    }

    fn exists(&self, e: &PolyElem, vars: &VarSet) -> PolyElem {
        let Some(s) = &e.state else {
            return PolyElem::bottom();
        };
        // Fourier–Motzkin projection of the full system (equalities as
        // complementary pairs); `assemble` re-derives the equality part
        // from tight pairs.
        let _ = s;
        let Some(rows) = fm::project_budgeted(e.rows(), vars, &self.budget) else {
            return PolyElem::bottom();
        };
        PolyElem::assemble_budgeted(
            AffineElem::top(),
            rows.into_iter().map(|r| r.expr).collect(),
            &self.budget,
        )
    }

    fn var_equalities(&self, e: &PolyElem) -> Partition {
        let Some(s) = &e.state else {
            return Partition::new();
        };
        // Equalities among variables are consequences of the affine hull,
        // which `assemble` keeps explicit in the equality part.
        crate::AffineEq::new().var_equalities(&s.eqs)
    }

    fn alternate(&self, e: &PolyElem, y: Var, avoid: &VarSet) -> Option<Term> {
        if e.is_bottom() {
            return Some(Term::int(0));
        }
        let mut elim = avoid.clone();
        elim.remove(&y);
        let projected = self.exists(e, &elim);
        let s = projected.state.as_ref()?;
        let row = s.eqs.rows().iter().find(|r| !r.coeff(y).is_zero())?;
        Some(row.solve_for(y))
    }

    fn alternates(
        &self,
        e: &PolyElem,
        targets: &VarSet,
        avoid: &VarSet,
    ) -> BTreeMap<Var, cai_term::Term> {
        let Some(s) = &e.state else {
            return targets.iter().map(|&y| (y, Term::int(0))).collect();
        };
        // `assemble` keeps implied equalities explicit, so the batched
        // linear-equality resolution applies directly.
        crate::expr::preferential_definitions(s.eqs.rows(), targets, avoid)
    }

    fn widen(&self, a: &PolyElem, b: &PolyElem) -> PolyElem {
        // Standard constraint widening: keep the constraints of `a` that
        // `b` still satisfies.
        if a.is_bottom() {
            return b.clone();
        }
        if b.is_bottom() {
            return a.clone();
        }
        // Exhaustion makes the implication checks answer `false`, which
        // only *drops* constraints: the widening gets weaker, and weaker
        // still terminates (it keeps a subset of `a`'s constraints).
        let mut eqs = AffineElem::top();
        let mut ineqs = Vec::new();
        for r in a.equalities() {
            if b.implies_zero_budgeted(r, &self.budget) {
                eqs.insert(r);
            } else if b.implies_nonpositive_budgeted(r, &self.budget) {
                ineqs.push(r.clone());
            } else if b.implies_nonpositive_budgeted(&r.scale(&-Rat::one()), &self.budget) {
                ineqs.push(r.scale(&-Rat::one()));
            }
        }
        for r in a.inequalities() {
            if b.implies_nonpositive_budgeted(r, &self.budget) {
                ineqs.push(r.clone());
            }
        }
        PolyElem::assemble_budgeted(eqs, ineqs, &self.budget)
    }

    fn narrow(&self, _a: &PolyElem, b: &PolyElem) -> PolyElem {
        // Constraint narrowing by descending iteration: adopt the
        // descended iterate wholesale. The engine calls this with
        // `b ⊑ a`, so `b` already satisfies every constraint of `a` and
        // re-tightens exactly the directions the constraint widening
        // dropped (e.g. the upper bound of a counted loop). Termination
        // does not rest on this operator — the engine bounds the number
        // of narrowing rounds by its own fuel slice.
        b.clone()
    }

    fn to_conj(&self, e: &PolyElem) -> Conj {
        let Some(s) = &e.state else {
            return Conj::of(Atom::eq(Term::int(0), Term::int(1)));
        };
        let mut c = Conj::new();
        for r in s.eqs.rows() {
            let p = r.leading_var().expect("non-constant");
            c.push(Atom::eq(Term::var(p), r.solve_for(p)));
        }
        for i in &s.ineqs {
            let k = i.constant_part().clone();
            let lhs = i.sub(&AffExpr::constant(k.clone()));
            c.push(Atom::le(lhs.to_term(), Term::constant(-k)));
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_term::parse::Vocab;

    fn d() -> Polyhedra {
        Polyhedra::new()
    }

    fn elem(src: &str) -> PolyElem {
        let v = Vocab::standard();
        d().from_conj(&v.parse_conj(src).unwrap())
    }

    fn atom(src: &str) -> Atom {
        Vocab::standard().parse_atom(src).unwrap()
    }

    #[test]
    fn transitive_implication() {
        let e = elem("x <= y & y <= z");
        assert!(d().implies_atom(&e, &atom("x <= z")));
        assert!(!d().implies_atom(&e, &atom("x = z")));
    }

    #[test]
    fn tight_pair_becomes_equality() {
        let e = elem("x <= y & y <= x");
        assert!(d().implies_atom(&e, &atom("x = y")));
        let p = d().var_equalities(&e);
        assert!(p.same(Var::named("x"), Var::named("y")));
    }

    #[test]
    fn infeasible_detected() {
        let e = elem("x <= 0 & x >= 1");
        assert!(e.is_bottom());
    }

    #[test]
    fn join_is_convex_hull_interval() {
        // [0,1] ⊔ [3,4] = [0,4] for a single variable.
        let a = elem("0 <= x & x <= 1");
        let b = elem("3 <= x & x <= 4");
        let j = d().join(&a, &b);
        assert!(d().implies_atom(&j, &atom("0 <= x")));
        assert!(d().implies_atom(&j, &atom("x <= 4")));
        assert!(!d().implies_atom(&j, &atom("x <= 3")));
    }

    #[test]
    fn join_of_points_is_segment() {
        // {(0,0)} ⊔ {(2,2)}: x = y and 0 <= x <= 2.
        let a = elem("x = 0 & y = 0");
        let b = elem("x = 2 & y = 2");
        let j = d().join(&a, &b);
        assert!(d().implies_atom(&j, &atom("x = y")));
        assert!(d().implies_atom(&j, &atom("x <= 2")));
        assert!(d().implies_atom(&j, &atom("0 <= x")));
    }

    #[test]
    fn join_of_unbounded_halves() {
        // {x <= 0} ⊔ {x >= 5} = top (hull of two opposite rays is the line).
        let a = elem("x <= 0");
        let b = elem("x >= 5");
        let j = d().join(&a, &b);
        assert!(!d().implies_atom(&j, &atom("x <= 100")));
        assert!(!d().implies_atom(&j, &atom("x >= -100")));
    }

    #[test]
    fn exists_projects() {
        let e = elem("x <= y & y <= z & z <= x + 1");
        let vs: VarSet = [Var::named("y")].into_iter().collect();
        let p = d().exists(&e, &vs);
        assert!(d().implies_atom(&p, &atom("x <= z")));
        assert!(d().implies_atom(&p, &atom("z <= x + 1")));
        assert!(p.vars().iter().all(|v| v.name() != "y"));
    }

    #[test]
    fn alternate_through_inequalities() {
        // x <= y & y <= x gives y = x; alternate for y avoiding {} is x.
        let e = elem("x <= y & y <= x");
        let t = d().alternate(&e, Var::named("y"), &VarSet::new()).unwrap();
        assert_eq!(t.to_string(), "x");
    }

    #[test]
    fn widen_keeps_stable_constraints() {
        let a = elem("0 <= x & x <= 1");
        let b = elem("0 <= x & x <= 2");
        let w = d().widen(&a, &b);
        assert!(d().implies_atom(&w, &atom("0 <= x")));
        assert!(!d().implies_atom(&w, &atom("x <= 1000")));
    }

    #[test]
    fn figure7_linear_part() {
        // From the Figure 7 example: x <= y & y <= u, eliminating x and y
        // leaves nothing (but with x = F(F(1+y)) the combined operator
        // recovers F(v) <= u; that part is tested at the product level).
        let e = elem("x <= y & y <= u");
        let vs: VarSet = [Var::named("y")].into_iter().collect();
        let p = d().exists(&e, &vs);
        assert!(d().implies_atom(&p, &atom("x <= u")));
    }

    #[test]
    fn to_conj_roundtrip() {
        let e = elem("x = y + 1 & z <= x");
        let c = d().to_conj(&e);
        let e2 = d().from_conj(&c);
        assert_eq!(e, e2);
    }

    #[test]
    fn bounded_sum() {
        let e = elem("0 <= x & x <= 2 & 0 <= y & y <= 3");
        assert!(d().implies_atom(&e, &atom("x + y <= 5")));
        assert!(!d().implies_atom(&e, &atom("x + y <= 4")));
    }
}
