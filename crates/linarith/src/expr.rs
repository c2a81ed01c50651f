//! Affine expressions over variables — the internal representation of the
//! linear-arithmetic domains.

use cai_num::Rat;
use cai_term::{LinExpr, Term, TermKind, Var, VarSet};
use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `Σ cᵥ·v + k` with rational coefficients over
/// variables only.
///
/// Unlike [`LinExpr`], whose atoms may be arbitrary non-arithmetic terms,
/// an `AffExpr` is the *pure* linear-arithmetic fragment: converting a term
/// that still contains foreign function symbols fails.
///
/// The order compares the coefficient rows and then the constants; it
/// only serves to key maps by expression.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct AffExpr {
    /// Sorted by variable, with no zero coefficients.
    coeffs: Vec<(Var, Rat)>,
    konst: Rat,
}

/// The error returned when a term is not purely linear over variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotAffineError(pub String);

impl fmt::Display for NotAffineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "term `{}` is not affine over variables", self.0)
    }
}

impl std::error::Error for NotAffineError {}

impl AffExpr {
    /// The zero expression.
    pub fn zero() -> AffExpr {
        AffExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> AffExpr {
        AffExpr {
            coeffs: Vec::new(),
            konst: c,
        }
    }

    /// The expression `1·v`.
    pub fn var(v: Var) -> AffExpr {
        AffExpr {
            coeffs: vec![(v, Rat::one())],
            konst: Rat::zero(),
        }
    }

    /// Converts a pure linear-arithmetic term.
    ///
    /// # Errors
    ///
    /// Returns [`NotAffineError`] if the term contains a function
    /// application (only variables and arithmetic structure are allowed).
    pub fn try_from_term(t: &Term) -> Result<AffExpr, NotAffineError> {
        match t.kind() {
            TermKind::Var(v) => Ok(AffExpr::var(*v)),
            TermKind::App(..) => Err(NotAffineError(t.to_string())),
            TermKind::Lin(e) => {
                let mut out = AffExpr::constant(e.constant_part().clone());
                for (atom, coeff) in e.iter() {
                    match atom.as_var() {
                        Some(v) => out.add_var(v, coeff),
                        None => return Err(NotAffineError(t.to_string())),
                    }
                }
                Ok(out)
            }
        }
    }

    /// The difference `s - t` of two pure terms.
    ///
    /// # Errors
    ///
    /// Returns [`NotAffineError`] if either term is not affine.
    pub fn difference(s: &Term, t: &Term) -> Result<AffExpr, NotAffineError> {
        Ok(AffExpr::try_from_term(s)?.sub(&AffExpr::try_from_term(t)?))
    }

    /// Adds `coeff · v` in place.
    pub fn add_var(&mut self, v: Var, coeff: &Rat) {
        if coeff.is_zero() {
            return;
        }
        match self.coeffs.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                let sum = &self.coeffs[i].1 + coeff;
                if sum.is_zero() {
                    self.coeffs.remove(i);
                } else {
                    self.coeffs[i].1 = sum;
                }
            }
            Err(i) => self.coeffs.insert(i, (v, coeff.clone())),
        }
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> Rat {
        match self.coeffs.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.coeffs[i].1.clone(),
            Err(_) => Rat::zero(),
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> &Rat {
        &self.konst
    }

    /// Returns `true` if the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns `true` if the expression is the constant zero.
    pub fn is_zero(&self) -> bool {
        self.is_constant() && self.konst.is_zero()
    }

    /// The variable with the smallest interning index (the pivot choice),
    /// if any.
    pub fn leading_var(&self) -> Option<Var> {
        self.coeffs.first().map(|&(v, _)| v)
    }

    /// Iterates over `(variable, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Rat)> {
        self.coeffs.iter().map(|(v, c)| (v, c))
    }

    /// The number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// The variables of the expression.
    pub fn vars(&self) -> VarSet {
        self.coeffs.iter().map(|&(v, _)| v).collect()
    }

    /// `self + other`.
    pub fn add(&self, other: &AffExpr) -> AffExpr {
        let mut out = self.clone();
        out.add_scaled(&Rat::one(), other);
        out
    }

    /// `self - other`.
    pub fn sub(&self, other: &AffExpr) -> AffExpr {
        let mut out = self.clone();
        out.add_scaled(&-Rat::one(), other);
        out
    }

    /// `c · self`.
    pub fn scale(&self, c: &Rat) -> AffExpr {
        if c.is_zero() {
            return AffExpr::zero();
        }
        AffExpr {
            coeffs: self.coeffs.iter().map(|(v, k)| (*v, k * c)).collect(),
            konst: &self.konst * c,
        }
    }

    /// `self *= c` for a nonzero `c`.
    fn scale_in_place(&mut self, c: &Rat) {
        debug_assert!(!c.is_zero());
        for (_, k) in &mut self.coeffs {
            *k = &*k * c;
        }
        self.konst = &self.konst * c;
    }

    /// Adds `factor · other` in place (the Gaussian elimination step).
    pub fn add_scaled(&mut self, factor: &Rat, other: &AffExpr) {
        if factor.is_zero() {
            return;
        }
        self.konst += &(&other.konst * factor);
        // Linear merge of the two sorted rows.
        let mine = std::mem::take(&mut self.coeffs);
        let mut out = Vec::with_capacity(mine.len() + other.coeffs.len());
        let mut mine = mine.into_iter().peekable();
        for (v, c) in &other.coeffs {
            while let Some(entry) = mine.next_if(|(w, _)| w < v) {
                out.push(entry);
            }
            let scaled = c * factor;
            match mine.next_if(|(w, _)| w == v) {
                Some((_, d)) => {
                    let sum = &d + &scaled;
                    if !sum.is_zero() {
                        out.push((*v, sum));
                    }
                }
                None => out.push((*v, scaled)),
            }
        }
        out.extend(mine);
        self.coeffs = out;
    }

    /// Scales positively so coefficients are canonical for deduplication:
    /// the leading coefficient becomes ±1 with its original sign.
    pub fn normalize_positive(&self) -> AffExpr {
        match self.leading_var() {
            None => self.clone(),
            Some(v) => {
                let c = self.coeff(v).abs();
                self.scale(&c.recip())
            }
        }
    }

    /// Renders the expression as a [`Term`].
    pub fn to_term(&self) -> Term {
        Term::lin(LinExpr::from_vars(
            self.konst.clone(),
            self.coeffs.iter().cloned(),
        ))
    }

    /// Solves `self = 0` for `v`, returning the term `t` with `v = t`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has coefficient zero.
    pub fn solve_for(&self, v: Var) -> Term {
        let c = self.coeff(v);
        assert!(!c.is_zero(), "cannot solve for absent variable {v}");
        // v = -(self - c·v) / c
        let mut rest = self.clone();
        rest.add_var(v, &-c.clone());
        rest.scale(&-c.recip()).to_term()
    }

    /// Walks the entries in variable order and, at each variable `v` for
    /// which `find` names a row, calls `eliminate(self, -c_v, row)`, which
    /// must cancel the entry at `v`. Entries the elimination adds after
    /// `v` are walked too.
    pub(crate) fn eliminate_each(
        &mut self,
        mut find: impl FnMut(Var) -> Option<usize>,
        mut eliminate: impl FnMut(&mut AffExpr, &Rat, usize),
    ) {
        let mut i = 0;
        while let Some((v, c)) = self.coeffs.get(i) {
            let v = *v;
            match find(v) {
                Some(j) => {
                    let f = -c;
                    eliminate(self, &f, j);
                    debug_assert!(self.coeff(v).is_zero(), "{v} was not eliminated");
                    i = self.coeffs.partition_point(|(w, _)| *w < v);
                }
                None => i += 1,
            }
        }
    }

    /// The canonical residue of a pivot `p` in an echelon row
    /// `self = p + rest` whose pivot coefficient is one: `-rest`.
    pub(crate) fn pivot_residue(&self, p: Var) -> AffExpr {
        AffExpr {
            coeffs: self
                .coeffs
                .iter()
                .filter(|(v, _)| *v != p)
                .map(|(v, c)| (*v, -c))
                .collect(),
            konst: -&self.konst,
        }
    }

    /// The variable `v` if the expression is exactly `1·v`.
    pub(crate) fn as_var(&self) -> Option<Var> {
        match self.coeffs.as_slice() {
            [(v, c)] if c.is_one() && self.konst.is_zero() => Some(*v),
            _ => None,
        }
    }
}

/// A column order for Gaussian elimination: the variables of the `early`
/// set, by name, then all other variables, by name; the constant column
/// comes last. Without a set it is the plain name order.
#[derive(Clone, Copy)]
pub(crate) struct Columns<'a> {
    early: Option<&'a VarSet>,
}

impl<'a> Columns<'a> {
    /// Variables by name.
    pub(crate) const BY_NAME: Columns<'static> = Columns { early: None };

    /// The variables of `early` first.
    pub(crate) fn early_first(early: &'a VarSet) -> Columns<'a> {
        Columns { early: Some(early) }
    }

    fn is_late(self, v: Var) -> bool {
        self.early.is_some_and(|s| !s.contains(&v))
    }

    fn key(self, v: Var) -> Key {
        (self.is_late(v), v)
    }

    /// The leading variable of `e` in this order.
    fn pivot(self, e: &AffExpr) -> Option<Var> {
        e.coeffs
            .iter()
            .find(|(v, _)| !self.is_late(*v))
            .or(e.coeffs.first())
            .map(|(v, _)| *v)
    }
}

/// A column's position in a [`Columns`] order.
type Key = (bool, Var);

/// Extends `rows`, a reduced row-echelon form under `cols` (each row's
/// pivot has coefficient one and occurs in no other row; rows are sorted
/// by pivot), by the equations `new`, keeping it one.
///
/// Each new row makes one forward pass over its entries in column order:
/// every entry at a pivot (a binary search of the pivots) is eliminated
/// with that pivot's row, which adds only entries later in the order. What
/// remains mentions no pivot; unless it is zero (redundant) it joins the
/// rows, scaled so its leading variable becomes a pivot with coefficient
/// one. A row that reduces to a nonzero constant is left out, and the
/// result says the equations are inconsistent. The back pass then clears
/// the new pivots from the other rows, from the last pivot to the first,
/// so each row subtracted is already reduced.
///
/// The reduced row-echelon form of a row space is unique for a column
/// order, so the result does not depend on how the rows are batched.
/// Returns `false` if some new row reduced to a nonzero constant.
pub(crate) fn extend_rref(
    rows: &mut Vec<AffExpr>,
    new: impl IntoIterator<Item = AffExpr>,
    cols: Columns<'_>,
) -> bool {
    // The pivots' keys, in row order.
    let mut pivots: Vec<Key> = rows
        .iter()
        .filter_map(|r| cols.pivot(r))
        .map(|p| cols.key(p))
        .collect();
    debug_assert_eq!(pivots.len(), rows.len(), "constant row in an RREF");
    let mut added: Vec<Key> = Vec::new();
    let mut consistent = true;
    let passes: &[bool] = if cols.early.is_some() {
        &[false, true]
    } else {
        &[false]
    };
    for mut e in new {
        // An early pivot's row may add late entries anywhere, but a late
        // pivot's row mentions no early variable: one walk over the early
        // entries, then one over the late ones, clears every pivot.
        for &late in passes {
            e.eliminate_each(
                |v| {
                    let k = cols.key(v);
                    if k.0 != late {
                        return None;
                    }
                    pivots.binary_search(&k).ok()
                },
                |e, f, j| e.add_scaled(f, &rows[j]),
            );
        }
        let Some(p) = cols.pivot(&e) else {
            consistent &= e.konst.is_zero();
            continue;
        };
        let inv = e.coeff(p).recip();
        e.scale_in_place(&inv);
        let k = cols.key(p);
        let (Err(j) | Ok(j)) = pivots.binary_search(&k);
        pivots.insert(j, k);
        rows.insert(j, e);
        let (Err(j) | Ok(j)) = added.binary_search(&k);
        added.insert(j, k);
    }
    if added.is_empty() {
        return consistent;
    }
    for j in (0..rows.len()).rev() {
        let later = &added[added.partition_point(|q| *q <= pivots[j])..];
        let (head, tail) = rows.split_at_mut(j + 1);
        let (row, below) = (&mut head[j], &pivots[j + 1..]);
        // Rows below are reduced, so each subtraction adds no pivot and
        // leaves the row's other pivot entries as they were. Look the new
        // pivots up in the row, or the row's entries up in the pivots,
        // whichever list is shorter.
        if later.len() <= row.num_vars() {
            for q in later {
                let c = row.coeff(q.1);
                if let (false, Ok(t)) = (c.is_zero(), below.binary_search(q)) {
                    row.add_scaled(&-c, &tail[t]);
                }
            }
        } else {
            row.eliminate_each(
                |v| below.binary_search(&cols.key(v)).ok(),
                |row, f, t| row.add_scaled(f, &tail[t]),
            );
        }
    }
    consistent
}

/// Computes, for as many `targets` as possible, definitions `y = t` implied
/// by the equality system `rows` with `Vars(t) ∩ avoid = ∅`
/// (`targets ⊆ avoid`) — the batched `Alternate_T` for linear arithmetic.
///
/// One Gaussian elimination with avoid-preferred pivoting serves every
/// target: a target has an avoid-free definition iff it becomes a pivot
/// whose row remainder is avoid-free, because the remainder ranges over
/// free columns and free columns admit no implied equalities. The
/// elimination is the one behind [`AffineElem`](crate::AffineElem), under
/// the column order "`avoid` first, then by name".
pub fn preferential_definitions(
    rows: &[AffExpr],
    targets: &VarSet,
    avoid: &VarSet,
) -> BTreeMap<Var, Term> {
    let cols = Columns::early_first(avoid);
    let mut echelon = Vec::new();
    extend_rref(&mut echelon, rows.iter().cloned(), cols);
    let mut out = BTreeMap::new();
    for r in &echelon {
        let Some(p) = cols.pivot(r) else { continue };
        if targets.contains(&p) && r.coeffs.iter().all(|(v, _)| *v == p || !avoid.contains(v)) {
            out.insert(p, r.solve_for(p));
        }
    }
    out
}

impl fmt::Display for AffExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_term())
    }
}

impl fmt::Debug for AffExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_term::parse::Vocab;

    fn expr(s: &str) -> AffExpr {
        let v = Vocab::standard();
        AffExpr::try_from_term(&v.parse_term(s).unwrap()).unwrap()
    }

    #[test]
    fn conversion_and_rejection() {
        assert_eq!(expr("2*x + y - 3").to_term().to_string(), "2*x + y - 3");
        let v = Vocab::standard();
        let t = v.parse_term("F(x) + 1").unwrap();
        assert!(AffExpr::try_from_term(&t).is_err());
    }

    #[test]
    fn arithmetic_cancels() {
        let e = expr("2*x + y").sub(&expr("2*x"));
        assert_eq!(e, expr("y"));
        assert!(expr("x").sub(&expr("x")).is_zero());
    }

    #[test]
    fn solve_for_variable() {
        // 2x - y + 4 = 0  =>  x = (y - 4)/2
        let e = expr("2*x - y + 4");
        let t = e.solve_for(Var::named("x"));
        assert_eq!(t.to_string(), "1/2*y - 2");
    }

    #[test]
    fn add_scaled_is_elimination() {
        // (x + 2y) - 2*(y + 1) = x - 2
        let mut e = expr("x + 2*y");
        e.add_scaled(&-Rat::from(2i64), &expr("y + 1"));
        assert_eq!(e, expr("x - 2"));
    }
}
