//! Normalized linear expressions over non-arithmetic atoms.

use crate::term::{Term, TermKind};
use crate::var::Var;
use cai_num::Rat;
use std::collections::BTreeMap;
use std::fmt;

/// A linear expression `c₀ + Σ cᵢ·aᵢ` where each *atom* `aᵢ` is a
/// non-arithmetic term (a variable or a theory application such as `F(x)`)
/// and each coefficient `cᵢ` is a nonzero rational.
///
/// `LinExpr` is the canonical form of the arithmetic layer of mixed terms:
/// structurally equal expressions are mathematically equal modulo the
/// axioms of linear arithmetic.
///
/// ```
/// use cai_term::{LinExpr, Term};
/// use cai_num::Rat;
/// let x = Term::var_named("x");
/// let e = LinExpr::atom(x.clone()).scale(&Rat::from(2i64)).add(&LinExpr::constant(Rat::from(1i64)));
/// assert_eq!(e.to_string(), "2*x + 1");
/// assert_eq!(e.coeff(&x), Rat::from(2i64));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    constant: Rat,
    terms: BTreeMap<Term, Rat>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    /// A single atom with coefficient one.
    ///
    /// If `t` is itself a `Lin` term its contents are merged, preserving the
    /// invariant that atoms are non-arithmetic.
    pub fn atom(t: Term) -> LinExpr {
        match t.kind() {
            TermKind::Lin(inner) => inner.clone(),
            _ => {
                let mut terms = BTreeMap::new();
                terms.insert(t, Rat::one());
                LinExpr {
                    constant: Rat::zero(),
                    terms,
                }
            }
        }
    }

    /// The expression `c₀ + Σ cᵥ·v` over distinct variables `v` with
    /// nonzero coefficients `cᵥ`, collected in one pass (a fold of
    /// [`add_atom`](LinExpr::add_atom) copies the map once per variable).
    pub fn from_vars(constant: Rat, terms: impl IntoIterator<Item = (Var, Rat)>) -> LinExpr {
        let mut n = 0;
        let terms: BTreeMap<Term, Rat> = terms
            .into_iter()
            .inspect(|(_, c)| {
                debug_assert!(!c.is_zero(), "zero coefficient");
                n += 1;
            })
            .map(|(v, c)| (Term::var(v), c))
            .collect();
        debug_assert_eq!(n, terms.len(), "repeated variable");
        LinExpr { constant, terms }
    }

    /// The constant part `c₀`.
    pub fn constant_part(&self) -> &Rat {
        &self.constant
    }

    /// Returns the constant if the expression has no atoms.
    pub fn as_constant(&self) -> Option<&Rat> {
        if self.terms.is_empty() {
            Some(&self.constant)
        } else {
            None
        }
    }

    /// Returns the atom if the expression is exactly `1·a + 0`.
    pub fn as_single_atom(&self) -> Option<&Term> {
        if self.constant.is_zero() && self.terms.len() == 1 {
            let (t, c) = self.terms.iter().next().expect("len checked");
            if c.is_one() {
                return Some(t);
            }
        }
        None
    }

    /// The coefficient of `atom` (zero if absent).
    pub fn coeff(&self, atom: &Term) -> Rat {
        self.terms.get(atom).cloned().unwrap_or_else(Rat::zero)
    }

    /// Returns `true` if the expression is the constant zero.
    pub fn is_zero(&self) -> bool {
        self.constant.is_zero() && self.terms.is_empty()
    }

    /// The number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over `(atom, coefficient)` pairs in atom order.
    pub fn iter(&self) -> impl Iterator<Item = (&Term, &Rat)> {
        self.terms.iter()
    }

    /// Adds two expressions.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.constant = &out.constant + &other.constant;
        for (t, c) in &other.terms {
            let entry = out.terms.entry(t.clone()).or_insert_with(Rat::zero);
            *entry = &*entry + c;
            if entry.is_zero() {
                out.terms.remove(t);
            }
        }
        out
    }

    /// Subtracts `other` from `self`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(&-Rat::one()))
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, c: &Rat) -> LinExpr {
        if c.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            constant: &self.constant * c,
            terms: self.terms.iter().map(|(t, k)| (t.clone(), k * c)).collect(),
        }
    }

    /// Adds `coeff · atom` to the expression.
    pub fn add_atom(&self, atom: Term, coeff: &Rat) -> LinExpr {
        self.add(&LinExpr::atom(atom).scale(coeff))
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Positive-coefficient atoms first, then negative ones, constant
        // last — matching conventional mathematical notation.
        let ordered = self
            .terms
            .iter()
            .filter(|(_, c)| c.is_positive())
            .chain(self.terms.iter().filter(|(_, c)| c.is_negative()));
        let mut first = true;
        for (t, c) in ordered {
            if first {
                if c.is_one() {
                    write!(f, "{t}")?;
                } else if *c == -Rat::one() {
                    write!(f, "-{t}")?;
                } else {
                    write!(f, "{c}*{t}")?;
                }
                first = false;
            } else if c.is_negative() {
                let a = c.abs();
                if a.is_one() {
                    write!(f, " - {t}")?;
                } else {
                    write!(f, " - {a}*{t}")?;
                }
            } else if c.is_one() {
                write!(f, " + {t}")?;
            } else {
                write!(f, " + {c}*{t}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())?;
        } else if !self.constant.is_zero() {
            write!(f, " + {}", self.constant)?;
        }
        Ok(())
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::var_named(n)
    }

    #[test]
    fn add_cancels() {
        let e = LinExpr::atom(v("x")).add(&LinExpr::atom(v("x")).scale(&-Rat::one()));
        assert!(e.is_zero());
    }

    #[test]
    fn atom_of_lin_merges() {
        let x_plus_1 = Term::add(&v("x"), &Term::int(1));
        let e = LinExpr::atom(x_plus_1);
        assert_eq!(e.num_atoms(), 1);
        assert_eq!(e.constant_part(), &Rat::one());
    }

    #[test]
    fn display_forms() {
        let e = LinExpr::atom(v("a"))
            .scale(&Rat::from(2i64))
            .add(&LinExpr::atom(v("b")).scale(&-Rat::one()))
            .add(&LinExpr::constant(Rat::from(-3i64)));
        assert_eq!(e.to_string(), "2*a - b - 3");
        assert_eq!(LinExpr::zero().to_string(), "0");
        assert_eq!(LinExpr::constant(Rat::from(-2i64)).to_string(), "-2");
    }

    #[test]
    fn from_vars_equals_the_add_atom_fold() {
        let (x, y, z) = (Var::named("x"), Var::named("y"), Var::named("z"));
        let terms = [
            (z, Rat::from(3i64)),
            (x, Rat::new((-1).into(), 2.into())),
            (y, Rat::one()),
        ];
        let mut fold = LinExpr::constant(Rat::from(-7i64));
        for (v, c) in &terms {
            fold = fold.add_atom(Term::var(*v), c);
        }
        let direct = LinExpr::from_vars(Rat::from(-7i64), terms);
        assert_eq!(direct, fold);
        assert_eq!(direct.to_string(), fold.to_string());
        assert_eq!(LinExpr::from_vars(Rat::zero(), []), LinExpr::zero());
    }

    #[test]
    fn scale_by_zero() {
        let e = LinExpr::atom(v("x")).add(&LinExpr::constant(Rat::from(5i64)));
        assert!(e.scale(&Rat::zero()).is_zero());
    }
}
