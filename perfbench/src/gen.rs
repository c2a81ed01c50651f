//! Seeded module generators with answers known from construction.
//!
//! Every generated `assert` is emitted through [`Proc::holds`] (a fact
//! that holds on every execution, of a form the paper shows the logical
//! product of affine equalities and uninterpreted functions proves) or
//! [`Proc::fails`] (an off-by-one variant that fails on some execution
//! reaching it, so a sound analysis never verifies it). The expected
//! verdict vector therefore comes from the generator, never from the
//! analyzer; a valid assertion the analyzer misses is a failure.

use std::fmt::Write as _;

/// SplitMix64: a small, seedable, dependency-free generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A generated module: its source text and, per procedure in declaration
/// order, the expected verdict of every `assert` in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Generated {
    pub src: String,
    pub expected: Vec<Vec<bool>>,
}

impl Generated {
    pub fn assertions(&self) -> usize {
        self.expected.iter().map(Vec::len).sum()
    }

    pub fn valid(&self) -> usize {
        self.expected.iter().flatten().filter(|&&v| v).count()
    }
}

/// One procedure under construction.
struct Proc {
    head: String,
    body: String,
    expected: Vec<bool>,
}

impl Proc {
    fn new(name: &str, params: &[&str]) -> Proc {
        Proc {
            head: format!("proc {name}({})", params.join(", ")),
            body: String::new(),
            expected: Vec::new(),
        }
    }

    fn line(&mut self, s: &str) {
        let _ = writeln!(self.body, "  {s}");
    }

    fn holds(&mut self, fact: &str) {
        self.line(&format!("assert({fact});"));
        self.expected.push(true);
    }

    fn fails(&mut self, fact: &str) {
        self.line(&format!("assert({fact});"));
        self.expected.push(false);
    }

    fn finish(self, out: &mut Generated) {
        let _ = writeln!(out.src, "{} {{\n{}}}", self.head, self.body);
        out.expected.push(self.expected);
    }
}

/// Uninterpreted function symbols the generators draw from.
const FNS: &[&str] = &["F", "G", "H"];

/// Renders `t + k` with a literal constant of either sign.
fn plus(t: &str, k: i64) -> String {
    match k {
        0 => t.to_string(),
        k if k < 0 => format!("{t} - {}", -k),
        k => format!("{t} + {k}"),
    }
}

/// The `batch` module: `n` independent looping procedures, alternating a
/// counter shape (linear counters beside a UF chain, `s = k*i`,
/// `y = F(x)`) with three of Figure 1's four variable groups
/// (`a2 = 2*a1`, `b2 = F(b1)`, `c2 = c1`, `d2 = F(d1 + 1)`). The seed
/// picks constants, function symbols and statement order; the mix of
/// shapes is fixed so every seed costs about the same.
pub fn batch(seed: u64, n: usize) -> Generated {
    let mut rng = Rng::new(seed);
    let mut out = Generated {
        src: String::new(),
        expected: Vec::new(),
    };
    for p in 0..n {
        if p % 2 == 0 {
            counter_proc(&mut rng, &format!("count{p}"), &mut out);
        } else {
            fig1_proc(
                &mut rng,
                &format!("fig{p}"),
                FIG1_GROUPS[p / 2 % FIG1_GROUPS.len()],
                &mut out,
            );
        }
    }
    out
}

/// The Figure-1 groups of each `batch` procedure, in turn. (A loop with
/// all four groups, or with `a`, `b` and `d`, costs ten to thirty times
/// as much as one of these.)
const FIG1_GROUPS: [&str; 3] = ["acd", "bcd", "abc"];

fn counter_proc(rng: &mut Rng, name: &str, out: &mut Generated) {
    let f = *rng.pick(FNS);
    let k = rng.range(-9, 9);
    let step = rng.range(2, 5);
    let mut p = Proc::new(name, &["a"]);
    p.line(&format!("x := {};", plus("a", k)));
    p.line(&format!("y := {f}(x);"));
    p.line(&format!("z := {f}(y - 1);"));
    p.line("s := 0;");
    p.line("i := 0;");
    // Independent updates in seeded order; `y` must follow `x`.
    let mut body = vec![
        vec!["x := x + 1;".to_string(), format!("y := {f}(x);")],
        vec!["z := z + 2;".to_string()],
        vec!["i := i + 1;".to_string()],
        vec![format!("s := s + {step};")],
    ];
    rng.shuffle(&mut body);
    p.line("while (*) {");
    for s in body.iter().flatten() {
        p.line(&format!("  {s}"));
    }
    p.line("}");
    p.holds(&format!("y = {f}(x)"));
    p.holds(&format!("s = {step}*i"));
    if rng.below(2) == 0 {
        p.fails(&format!("s = {step}*i + 1"));
    } else {
        p.fails(&format!("y = {f}(x + 1)"));
    }
    p.line("ret := x;");
    p.finish(out);
}

fn fig1_proc(rng: &mut Rng, name: &str, groups: &str, out: &mut Generated) {
    let f = *rng.pick(FNS);
    let mut p = Proc::new(name, &["a"]);
    let mut body = Vec::new();
    let mut facts = Vec::new();
    let mut wrong = Vec::new();
    for g in groups.chars() {
        let k = rng.range(0, 9);
        match g {
            'a' => {
                p.line("a1 := 0; a2 := 0;");
                body.push("a1 := a1 + 1; a2 := a2 + 2;".to_string());
                facts.push("a2 = 2*a1".to_string());
                wrong.push("a2 = 2*a1 + 1".to_string());
            }
            'b' => {
                p.line(&format!("b1 := {k}; b2 := {f}({k});"));
                body.push(format!("b1 := {f}(b1); b2 := {f}(b2);"));
                facts.push(format!("b2 = {f}(b1)"));
                wrong.push(format!("b2 = {f}(b1 + 1)"));
            }
            'c' => {
                p.line(&format!("c1 := {k}; c2 := {k};"));
                body.push(format!("c1 := {f}(2*c1 - c2); c2 := {f}(c2);"));
                facts.push("c2 = c1".to_string());
                wrong.push("c2 = c1 + 1".to_string());
            }
            _ => {
                p.line(&format!("d1 := {k}; d2 := {f}({});", k + 1));
                body.push(format!("d1 := {f}(1 + d1); d2 := {f}(d2 + 1);"));
                facts.push(format!("d2 = {f}(d1 + 1)"));
                wrong.push(format!("d2 = {f}(d1 + 2)"));
            }
        }
    }
    rng.shuffle(&mut body);
    p.line("while (*) {");
    for s in &body {
        p.line(&format!("  {s}"));
    }
    p.line("}");
    for fact in &facts {
        p.holds(fact);
    }
    let wrong = rng.pick(&wrong).clone();
    p.fails(&wrong);
    p.line("ret := a;");
    p.finish(out);
}

/// What a procedure of the `calls` family is, and so what editing its
/// one constant means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A callee of mids with no calls of its own: an edit dirties its
    /// callers and theirs, the largest cones of the module.
    Leaf,
    /// A callee of roots only: a leaf with a small cone.
    Lin,
    /// A member of a recursive component.
    Rec,
    /// A caller of leaves, with a call inside a loop.
    Mid,
    /// A top-level caller: an edit dirties only itself.
    Root,
}

#[derive(Clone, Copy, Debug)]
enum Leaf {
    /// `a := a + K; ret := a;` — reassigns its formal, so only a
    /// context-specialized call (constant argument) learns `ret = c + K`.
    AddK,
    /// `t := a + K; ret := F(t);` — a mixed summary `ret = F(a + K)`.
    Fk(&'static str),
    /// `ret := 2*a + b + K;`
    Lin,
}

#[derive(Clone, Debug)]
struct Mid {
    addk: usize,
    fk: usize,
}

#[derive(Clone, Debug)]
struct Root {
    mid: usize,
    rec_pair: usize,
    lin: usize,
}

/// The seeded structure of a `calls` module. Each procedure carries one
/// editable integer constant ([`CallsShape::consts`]); [`render`] turns
/// structure plus constants into text and expected verdicts, so an edit
/// is "change one procedure's constant and re-render".
///
/// [`render`]: CallsShape::render
#[derive(Clone, Debug)]
pub struct CallsShape {
    leaves: Vec<Leaf>,
    /// Function symbol of each recursive pair.
    pairs: Vec<&'static str>,
    mids: Vec<Mid>,
    roots: Vec<Root>,
    /// One constant per procedure, in declaration order.
    pub consts: Vec<i64>,
    /// Whether each loop body updates its counter before its sum.
    flips: Vec<bool>,
}

/// Leaves, recursive pairs, mids and roots of one `calls` module.
const CALLS_LEAVES: usize = 6;
const CALLS_PAIRS: usize = 2;
const CALLS_MIDS: usize = 6;
const CALLS_ROOTS: usize = 6;

impl CallsShape {
    pub fn new(seed: u64) -> CallsShape {
        let mut rng = Rng::new(seed ^ 0xC411_5000);
        // Two leaves of each kind, in seeded order.
        let mut leaves = Vec::new();
        for _ in 0..CALLS_LEAVES / 3 {
            leaves.push(Leaf::AddK);
            leaves.push(Leaf::Fk(FNS[rng.below(FNS.len())]));
            leaves.push(Leaf::Lin);
        }
        rng.shuffle(&mut leaves);
        let of_kind = |want: fn(&Leaf) -> bool| -> Vec<usize> {
            (0..leaves.len()).filter(|&i| want(&leaves[i])).collect()
        };
        let addks = of_kind(|l| matches!(l, Leaf::AddK));
        let fks = of_kind(|l| matches!(l, Leaf::Fk(_)));
        let lins = of_kind(|l| matches!(l, Leaf::Lin));
        let pairs = (0..CALLS_PAIRS).map(|_| *rng.pick(FNS)).collect();
        // Every leaf gets callers: mid m calls the (m mod k)-th leaf of a
        // kind, after a seeded rotation.
        let (ra, rf) = (rng.below(addks.len()), rng.below(fks.len()));
        let mids = (0..CALLS_MIDS)
            .map(|m| Mid {
                addk: addks[(m + ra) % addks.len()],
                fk: fks[(m + rf) % fks.len()],
            })
            .collect();
        let (rm, rl) = (rng.below(CALLS_MIDS), rng.below(lins.len()));
        let roots = (0..CALLS_ROOTS)
            .map(|r| Root {
                mid: (r + rm) % CALLS_MIDS,
                rec_pair: r % CALLS_PAIRS,
                lin: lins[(r + rl) % lins.len()],
            })
            .collect();
        let n = CALLS_LEAVES + 2 * CALLS_PAIRS + CALLS_MIDS + CALLS_ROOTS;
        let consts = (0..n).map(|_| rng.range(-20, 20)).collect();
        let flips = (0..n).map(|_| rng.below(2) == 0).collect();
        CallsShape {
            leaves,
            pairs,
            mids,
            roots,
            consts,
            flips,
        }
    }

    /// The number of procedures.
    pub fn len(&self) -> usize {
        self.consts.len()
    }

    /// The role of procedure `i` (declaration order).
    pub fn role(&self, i: usize) -> Role {
        let rec = CALLS_LEAVES;
        let mid = rec + 2 * CALLS_PAIRS;
        let root = mid + CALLS_MIDS;
        if i < rec {
            match self.leaves[i] {
                Leaf::Lin => Role::Lin,
                _ => Role::Leaf,
            }
        } else if i < mid {
            Role::Rec
        } else if i < root {
            Role::Mid
        } else {
            Role::Root
        }
    }

    fn leaf_name(&self, l: usize) -> String {
        match self.leaves[l] {
            Leaf::AddK => format!("addk{l}"),
            Leaf::Fk(_) => format!("fk{l}"),
            Leaf::Lin => format!("lin{l}"),
        }
    }

    /// Renders the module for the current constants.
    pub fn render(&self) -> Generated {
        let mut out = Generated {
            src: String::new(),
            expected: Vec::new(),
        };
        let k = &self.consts;
        for (l, leaf) in self.leaves.iter().enumerate() {
            let name = self.leaf_name(l);
            match *leaf {
                Leaf::AddK => {
                    let mut p = Proc::new(&name, &["a"]);
                    p.line(&format!("a := {};", plus("a", k[l])));
                    p.line("ret := a;");
                    p.finish(&mut out);
                }
                Leaf::Fk(f) => {
                    let mut p = Proc::new(&name, &["a"]);
                    p.line(&format!("t := {};", plus("a", k[l])));
                    p.line(&format!("ret := {f}(t);"));
                    p.finish(&mut out);
                }
                Leaf::Lin => {
                    let mut p = Proc::new(&name, &["a", "b"]);
                    p.line(&format!("ret := {};", plus("2*a + b", k[l])));
                    p.finish(&mut out);
                }
            }
        }
        // Mutually recursive pairs: both members return `F(a)` on every
        // path; the constant is a dead local, so an edit changes the text
        // (and the fingerprint) but no verdict.
        for (q, f) in self.pairs.iter().enumerate() {
            for side in 0..2 {
                let i = CALLS_LEAVES + 2 * q + side;
                let me = ["even", "odd"][side];
                let other = ["odd", "even"][side];
                let mut p = Proc::new(&format!("{me}{q}"), &["a"]);
                p.line(&format!("u := {};", k[i]));
                p.line("if (*) {");
                p.line(&format!("  ret := {f}(a);"));
                p.line("} else {");
                p.line(&format!("  t := call {other}{q}(a);"));
                p.line("  ret := t;");
                p.line("}");
                p.finish(&mut out);
            }
        }
        let mid_base = CALLS_LEAVES + 2 * CALLS_PAIRS;
        for (m, mid) in self.mids.iter().enumerate() {
            let i = mid_base + m;
            let c = k[i];
            let (ka, kf) = (k[mid.addk], k[mid.fk]);
            let Leaf::Fk(f) = self.leaves[mid.fk] else {
                unreachable!("mids call an Fk leaf")
            };
            let (addk, fk) = (self.leaf_name(mid.addk), self.leaf_name(mid.fk));
            let mut p = Proc::new(&format!("mid{m}"), &["b"]);
            p.line(&format!("x := call {addk}({c});"));
            p.line(&format!("y := call {fk}(b);"));
            p.line("i := 0;");
            p.line("s := 0;");
            p.line(&format!("w := call {fk}(i);"));
            p.line("while (*) {");
            if self.flips[i] {
                p.line("  i := i + 1;");
                p.line("  s := s + 2;");
            } else {
                p.line("  s := s + 2;");
                p.line("  i := i + 1;");
            }
            p.line(&format!("  w := call {fk}(i);"));
            p.line("}");
            p.holds(&format!("x = {}", c + ka));
            p.holds(&format!("y = {f}({})", plus("b", kf)));
            p.holds("s = 2*i");
            p.holds(&format!("w = {f}({})", plus("i", kf)));
            match m % 3 {
                0 => p.fails(&format!("x = {}", c + ka + 1)),
                1 => p.fails(&format!("y = {f}({})", plus("b", kf + 1))),
                _ => p.fails("s = 2*i + 1"),
            }
            p.line("ret := y;");
            p.finish(&mut out);
        }
        let root_base = mid_base + CALLS_MIDS;
        for (r, root) in self.roots.iter().enumerate() {
            let i = root_base + r;
            let c = k[i];
            let mid = &self.mids[root.mid];
            let Leaf::Fk(f) = self.leaves[mid.fk] else {
                unreachable!("mids call an Fk leaf")
            };
            let kf = k[mid.fk];
            let g = self.pairs[root.rec_pair];
            let kl = k[root.lin];
            let lin = self.leaf_name(root.lin);
            let mut p = Proc::new(&format!("root{r}"), &["b"]);
            p.line(&format!("r := call mid{}(b);", root.mid));
            p.line(&format!("e := call even{}(b);", root.rec_pair));
            p.line(&format!("u := call {lin}({c}, b);"));
            p.holds(&format!("r = {f}({})", plus("b", kf)));
            p.holds(&format!("e = {g}(b)"));
            p.holds(&format!("u = {}", plus("b", 2 * c + kl)));
            match r % 3 {
                0 => p.fails(&format!("u = {}", plus("b", 2 * c + kl + 1))),
                1 => p.fails(&format!("e = {g}(b + 1)")),
                _ => p.fails(&format!("r = {f}({})", plus("b", kf - 1))),
            }
            p.line("ret := r;");
            p.finish(&mut out);
        }
        out
    }
}
