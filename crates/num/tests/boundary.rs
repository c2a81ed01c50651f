//! Boundary property tests for the inline machine-word representation.
//!
//! `Int` stores values in the `i64` range inline and promotes to limbs on
//! overflow. Every operator is checked against an `i128` reference on
//! operands concentrated near ±2^63, where the machine-word fast paths
//! overflow and the limb path takes over; a few operands lie just outside
//! the `i64` range so the limb path also has to come back down.

use cai_num::{Int, Rat, SplitMix64};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const CASES: usize = 2_000;

fn int_of(v: i128) -> Int {
    v.to_string().parse().expect("decimal i128 parses")
}

fn i128_of(n: &Int) -> i128 {
    n.to_string().parse().expect("Int prints as a decimal i128")
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// An operand near a boundary: ±2^63, ±2^32, zero, or just outside the
/// `i64` range, offset by a small amount.
fn near_boundary(g: &mut SplitMix64) -> i128 {
    let centers = [
        i64::MIN as i128,
        i64::MAX as i128,
        -(1i128 << 32),
        1i128 << 32,
        0,
        i64::MIN as i128 - 3,
        i64::MAX as i128 + 3,
    ];
    let center = centers[g.below(centers.len() as u64) as usize];
    match g.below(4) {
        0 => center,
        1 => center + g.range_i64(-4, 5) as i128,
        2 => center + g.range_i64(-100_000, 100_000) as i128,
        _ => g.next_u64() as i64 as i128,
    }
}

fn gcd_ref(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a as i128
}

/// The hash of the sign followed by the trimmed base-2^32 magnitude: the
/// stream an `Int` feeds its hasher in every representation, so hashes
/// (and the result digests built on them) do not depend on it.
fn sign_limbs_hash(v: i128) -> u64 {
    let m = v.unsigned_abs();
    let mut limbs: Vec<u32> = (0..4).map(|i| (m >> (32 * i)) as u32).collect();
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
    let mut h = DefaultHasher::new();
    (v.signum() as i8).hash(&mut h);
    limbs.hash(&mut h);
    h.finish()
}

/// Checks that `n` is the value `v`, is structurally the same as the
/// integer built directly from `v`, and hashes as its sign and limbs.
fn check(n: &Int, v: i128, what: &str) {
    assert_eq!(i128_of(n), v, "{what}");
    let direct = int_of(v);
    assert_eq!(*n, direct, "{what}: structural equality");
    assert_eq!(hash_of(n), sign_limbs_hash(v), "{what}: hash");
    assert_eq!(n.to_i64(), i64::try_from(v).ok(), "{what}: to_i64");
}

#[test]
fn operators_match_i128_near_the_word_boundary() {
    let mut g = SplitMix64::new(0xB0B0_0001);
    for _ in 0..CASES {
        let (a, b) = (near_boundary(&mut g), near_boundary(&mut g));
        let (x, y) = (int_of(a), int_of(b));
        check(&(&x + &y), a + b, &format!("{a} + {b}"));
        check(&(&x - &y), a - b, &format!("{a} - {b}"));
        check(&(&x * &y), a * b, &format!("{a} * {b}"));
        check(&-&x, -a, &format!("-{a}"));
        check(&-x.clone(), -a, &format!("-{a} (owned)"));
        check(&x.abs(), a.abs(), &format!("|{a}|"));
        check(&x.gcd(&y), gcd_ref(a, b), &format!("gcd({a}, {b})"));
        assert_eq!(x.cmp(&y), a.cmp(&b), "cmp({a}, {b})");
        assert_eq!(x.signum() as i128, a.signum(), "signum({a})");
        if b != 0 {
            let (q, r) = x.div_rem(&y);
            check(&q, a / b, &format!("{a} / {b}"));
            check(&r, a % b, &format!("{a} % {b}"));
        }
    }
}

#[test]
fn min_word_edge_cases() {
    let min = Int::from(i64::MIN);
    let two63 = 1i128 << 63;
    check(&-&min, two63, "-i64::MIN");
    check(&-min.clone(), two63, "-i64::MIN (owned)");
    check(&min.abs(), two63, "|i64::MIN|");
    check(&(&min / &Int::from(-1)), two63, "i64::MIN / -1");
    check(&(&min % &Int::from(-1)), 0, "i64::MIN % -1");
    check(&min.gcd(&Int::zero()), two63, "gcd(i64::MIN, 0)");
    check(&Int::zero().gcd(&min), two63, "gcd(0, i64::MIN)");
    check(&min.gcd(&min), two63, "gcd(i64::MIN, i64::MIN)");
    // Negating 2^63 lands back on the inline minimum.
    check(&-int_of(two63), i64::MIN as i128, "-(2^63)");
}

#[test]
fn overflowing_products_promote() {
    let cases = [
        (i64::MAX, i64::MAX),
        (i64::MIN, i64::MIN),
        (i64::MIN, -1),
        (i64::MAX, -2),
        (1 << 32, 1 << 31),
        (3_037_000_500, 3_037_000_500),
    ];
    for (a, b) in cases {
        let p = &Int::from(a) * &Int::from(b);
        check(&p, a as i128 * b as i128, &format!("{a} * {b}"));
    }
}

#[test]
fn limb_results_in_range_are_inline() {
    let big = int_of(i64::MAX as i128 + 1);
    let cases = [
        (&big - &Int::one(), i64::MAX as i128),
        (&big + &Int::from(-5), i64::MAX as i128 - 4),
        (-&big, i64::MIN as i128),
        (&big / &Int::from(2), 1 << 62),
        (&(&big * &big) / &big, 1 << 63),
        (&(&big * &big) / &(&big * &Int::from(4)), 1 << 61),
        (&(&big * &Int::from(3)) % &big, 0),
        (big.gcd(&int_of(3 << 62)), 1 << 62),
        (&(&big + &big) - &(&big + &big), 0),
    ];
    for (i, (n, v)) in cases.into_iter().enumerate() {
        check(&n, v, &format!("case {i}"));
    }
}

#[test]
fn display_and_parse_round_trip_near_the_boundary() {
    let mut g = SplitMix64::new(0xB0B0_0002);
    for _ in 0..CASES {
        let a = near_boundary(&mut g);
        let n = int_of(a);
        let shown = n.to_string();
        assert_eq!(shown, a.to_string());
        assert_eq!(shown.parse::<Int>().expect("round trip"), n);
    }
    for s in ["9223372036854775807", "-9223372036854775808", "+42", "-0"] {
        let n: Int = s.parse().expect("valid literal");
        assert_eq!(n, int_of(s.parse::<i128>().expect("valid i128")));
    }
}

/// A denominator that keeps every cross product inside `i128`.
fn small_den(g: &mut SplitMix64) -> i128 {
    let dens = [1, 2, 3, 1 << 31, (1 << 32) + 1];
    match g.below(2) {
        0 => dens[g.below(dens.len() as u64) as usize],
        _ => g.range_i64(1, 1 << 20) as i128,
    }
}

/// `n/d` in lowest terms with a positive denominator.
fn norm(n: i128, d: i128) -> (i128, i128) {
    let g = gcd_ref(n, d);
    let (n, d) = (n / g, d / g);
    if d < 0 {
        (-n, -d)
    } else {
        (n, d)
    }
}

fn check_rat(r: &Rat, (n, d): (i128, i128), what: &str) {
    assert_eq!((i128_of(r.numer()), i128_of(r.denom())), (n, d), "{what}");
    let direct = Rat::new(int_of(n), int_of(d));
    assert_eq!(*r, direct, "{what}: structural equality");
    assert_eq!(hash_of(r), hash_of(&direct), "{what}: hash");
}

#[test]
fn rat_operators_match_i128_near_the_word_boundary() {
    let mut g = SplitMix64::new(0xB0B0_0003);
    for _ in 0..CASES {
        let (an, ad) = (near_boundary(&mut g), small_den(&mut g));
        let (bn, bd) = (near_boundary(&mut g), small_den(&mut g));
        let x = Rat::new(int_of(an), int_of(ad));
        let y = Rat::new(int_of(bn), int_of(bd));
        let what = format!("{an}/{ad} and {bn}/{bd}");
        check_rat(&(&x + &y), norm(an * bd + bn * ad, ad * bd), &what);
        check_rat(&(&x - &y), norm(an * bd - bn * ad, ad * bd), &what);
        check_rat(&-&x, norm(-an, ad), &what);
        assert_eq!(x.cmp(&y), (an * bd).cmp(&(bn * ad)), "{what}");
        if let (Some(pn), Some(pd)) = (an.checked_mul(bn), ad.checked_mul(bd)) {
            check_rat(&(&x * &y), norm(pn, pd), &what);
        }
        if bn != 0 {
            if let (Some(qn), Some(qd)) = (an.checked_mul(bd), ad.checked_mul(bn)) {
                check_rat(&(&x / &y), norm(qn, qd), &what);
            }
        }
        let shown = x.to_string();
        assert_eq!(shown.parse::<Rat>().expect("round trip"), x, "{what}");
    }
}

#[test]
fn rat_normalizes_min_word_signs() {
    let min = Int::from(i64::MIN);
    check_rat(
        &Rat::new(min.clone(), Int::from(-1)),
        (1 << 63, 1),
        "MIN/-1",
    );
    check_rat(&Rat::new(Int::one(), min.clone()), (-1, 1 << 63), "1/MIN");
    check_rat(&Rat::new(min.clone(), min), (1, 1), "MIN/MIN");
}
