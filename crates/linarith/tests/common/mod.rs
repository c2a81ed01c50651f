//! Seeded generators of affine rows shared by the oracle tests.

use cai_linarith::AffExpr;
use cai_num::{Rat, SplitMix64};
use cai_term::Var;

/// The number of distinct variables the generators draw from.
pub const NVARS: usize = 5;

/// The `i`-th generated variable.
pub fn var(i: usize) -> Var {
    Var::named(&format!("h{i}"))
}

/// A small nonzero coefficient, sometimes fractional.
pub fn coeff(g: &mut SplitMix64) -> Rat {
    let num = match g.range_i64(-3, 3) {
        0 => 3,
        n => n,
    };
    let den = [1, 1, 1, 2, 3][g.below(5) as usize];
    Rat::new(num.into(), den.into())
}

/// A random row over one to three variables with a random constant.
pub fn row(g: &mut SplitMix64) -> AffExpr {
    let mut e = AffExpr::constant(Rat::from(g.range_i64(-2, 3)));
    for _ in 0..1 + g.below(3) {
        let c = coeff(g);
        e.add_var(var(g.below(NVARS as u64) as usize), &c);
    }
    e
}
