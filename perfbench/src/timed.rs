//! A transparent timing wrapper around any [`AbstractDomain`].
//!
//! `Timed<D>` forwards every trait method, defaulted ones included, to
//! the wrapped domain and records, per layer and operation, the number
//! of calls, the *self* time and the *self* allocations of each call:
//! what a nested `Timed` call inside it spent is subtracted, so stacking
//! `Timed<LogicalProduct<Timed<AffineEq>, Timed<UfDomain>>>` splits the
//! product's time into the product's own work and its components'.
//! Nothing in the library crates changes; the wrapper sees exactly the
//! calls the analysis makes through the public trait.

use crate::alloc;
use cai_core::{AbstractDomain, Partition, TheoryProps};
use cai_term::{Atom, Conj, Sig, Term, Var, VarSet};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The wrapped layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `LogicalProduct` (`cai-core`).
    Core = 0,
    /// `AffineEq` (`cai-linarith`).
    Linarith = 1,
    /// `UfDomain` (`cai-uf`).
    Uf = 2,
}

pub const LAYERS: usize = 3;

/// Operation groups of the `AbstractDomain` trait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `join`.
    Join = 0,
    /// `widen`.
    Widen,
    /// `narrow`.
    Narrow,
    /// `meet_atom`, `meet_all`, `from_conj`.
    Meet,
    /// `implies_atom`.
    Implies,
    /// `exists`.
    Exists,
    /// `var_equalities`.
    VarEq,
    /// `alternate`, `alternates`.
    Alternates,
    /// `to_conj`.
    ToConj,
    /// `le`, `equal_elems`.
    Order,
    /// `sig`, `props`, `top`, `bottom`, `is_bottom`.
    Basic,
}

pub const OPS: usize = 11;

/// Calls, self nanoseconds, self allocations and self bytes of one
/// `(layer, op)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cell4 {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Cell4 {
    fn since(self, e: Cell4) -> Cell4 {
        Cell4 {
            calls: self.calls - e.calls,
            ns: self.ns - e.ns,
            allocs: self.allocs - e.allocs,
            bytes: self.bytes - e.bytes,
        }
    }

    pub fn plus(self, o: Cell4) -> Cell4 {
        Cell4 {
            calls: self.calls + o.calls,
            ns: self.ns + o.ns,
            allocs: self.allocs + o.allocs,
            bytes: self.bytes + o.bytes,
        }
    }
}

static ACC: [[[AtomicU64; 4]; OPS]; LAYERS] =
    [const { [const { [const { AtomicU64::new(0) }; 4] }; OPS] }; LAYERS];

thread_local! {
    /// Inclusive time and allocations of the `Timed` calls nested in the
    /// current one, subtracted from it on exit.
    static CHILD: Cell<(u64, alloc::Counts)> = const {
        Cell::new((0, alloc::Counts { allocs: 0, bytes: 0 }))
    };
}

/// A copy of every accumulator; subtract two to meter a region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Table(pub [[Cell4; OPS]; LAYERS]);

impl Table {
    pub fn now() -> Table {
        let mut t = Table::default();
        for (l, ops) in ACC.iter().enumerate() {
            for (o, cell) in ops.iter().enumerate() {
                let v = |i: usize| cell[i].load(Ordering::Relaxed);
                t.0[l][o] = Cell4 {
                    calls: v(0),
                    ns: v(1),
                    allocs: v(2),
                    bytes: v(3),
                };
            }
        }
        t
    }

    fn zip(&self, other: &Table, f: fn(Cell4, Cell4) -> Cell4) -> Table {
        let mut t = Table::default();
        for l in 0..LAYERS {
            for o in 0..OPS {
                t.0[l][o] = f(self.0[l][o], other.0[l][o]);
            }
        }
        t
    }

    pub fn since(&self, earlier: &Table) -> Table {
        self.zip(earlier, Cell4::since)
    }

    pub fn plus(&self, other: &Table) -> Table {
        self.zip(other, Cell4::plus)
    }

    pub fn op(&self, layer: Layer, op: Op) -> Cell4 {
        self.0[layer as usize][op as usize]
    }

    /// All operations of a layer, summed.
    pub fn layer(&self, layer: Layer) -> Cell4 {
        self.0[layer as usize]
            .iter()
            .fold(Cell4::default(), |a, &c| a.plus(c))
    }
}

/// `D` with every trait call timed under `layer`.
#[derive(Clone, Debug)]
pub struct Timed<D> {
    layer: Layer,
    inner: D,
}

impl<D> Timed<D> {
    pub fn new(layer: Layer, inner: D) -> Timed<D> {
        Timed { layer, inner }
    }

    #[inline]
    fn time<R>(&self, op: Op, f: impl FnOnce(&D) -> R) -> R {
        let outer = CHILD.replace((0, alloc::Counts::default()));
        let a0 = alloc::thread_counts();
        let t0 = Instant::now();
        let r = f(&self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let incl = alloc::thread_counts().since(a0);
        let (child_ns, child) = CHILD.get();
        CHILD.set((
            outer.0 + ns,
            alloc::Counts {
                allocs: outer.1.allocs + incl.allocs,
                bytes: outer.1.bytes + incl.bytes,
            },
        ));
        let cell = &ACC[self.layer as usize][op as usize];
        cell[0].fetch_add(1, Ordering::Relaxed);
        cell[1].fetch_add(ns.saturating_sub(child_ns), Ordering::Relaxed);
        cell[2].fetch_add(incl.allocs - child.allocs, Ordering::Relaxed);
        cell[3].fetch_add(incl.bytes - child.bytes, Ordering::Relaxed);
        r
    }
}

impl<D: AbstractDomain> AbstractDomain for Timed<D> {
    type Elem = D::Elem;

    fn sig(&self) -> Sig {
        self.time(Op::Basic, |d| d.sig())
    }

    fn props(&self) -> TheoryProps {
        self.time(Op::Basic, |d| d.props())
    }

    fn top(&self) -> D::Elem {
        self.time(Op::Basic, |d| d.top())
    }

    fn bottom(&self) -> D::Elem {
        self.time(Op::Basic, |d| d.bottom())
    }

    fn is_bottom(&self, e: &D::Elem) -> bool {
        self.time(Op::Basic, |d| d.is_bottom(e))
    }

    fn meet_atom(&self, e: &D::Elem, atom: &Atom) -> D::Elem {
        self.time(Op::Meet, |d| d.meet_atom(e, atom))
    }

    fn implies_atom(&self, e: &D::Elem, atom: &Atom) -> bool {
        self.time(Op::Implies, |d| d.implies_atom(e, atom))
    }

    fn join(&self, a: &D::Elem, b: &D::Elem) -> D::Elem {
        self.time(Op::Join, |d| d.join(a, b))
    }

    fn exists(&self, e: &D::Elem, vars: &VarSet) -> D::Elem {
        self.time(Op::Exists, |d| d.exists(e, vars))
    }

    fn var_equalities(&self, e: &D::Elem) -> Partition {
        self.time(Op::VarEq, |d| d.var_equalities(e))
    }

    fn alternate(&self, e: &D::Elem, y: Var, avoid: &VarSet) -> Option<Term> {
        self.time(Op::Alternates, |d| d.alternate(e, y, avoid))
    }

    fn alternates(&self, e: &D::Elem, targets: &VarSet, avoid: &VarSet) -> BTreeMap<Var, Term> {
        self.time(Op::Alternates, |d| d.alternates(e, targets, avoid))
    }

    fn widen(&self, a: &D::Elem, b: &D::Elem) -> D::Elem {
        self.time(Op::Widen, |d| d.widen(a, b))
    }

    fn narrow(&self, a: &D::Elem, b: &D::Elem) -> D::Elem {
        self.time(Op::Narrow, |d| d.narrow(a, b))
    }

    fn to_conj(&self, e: &D::Elem) -> Conj {
        self.time(Op::ToConj, |d| d.to_conj(e))
    }

    fn from_conj(&self, c: &Conj) -> D::Elem {
        self.time(Op::Meet, |d| d.from_conj(c))
    }

    fn meet_all(&self, e: &D::Elem, atoms: &[Atom]) -> D::Elem {
        self.time(Op::Meet, |d| d.meet_all(e, atoms))
    }

    fn le(&self, a: &D::Elem, b: &D::Elem) -> bool {
        self.time(Op::Order, |d| d.le(a, b))
    }

    fn equal_elems(&self, a: &D::Elem, b: &D::Elem) -> bool {
        self.time(Op::Order, |d| d.equal_elems(a, b))
    }
}
