//! Normalized rational numbers over [`Int`].

use crate::Int;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive and `gcd(num, den) = 1`
/// (with zero represented as `0/1`). All arithmetic re-normalizes, so two
/// `Rat`s are structurally equal iff they are mathematically equal, which
/// lets `Rat` serve as a hash-map key in the linear-expression layer.
///
/// ```
/// use cai_num::{Int, Rat};
/// let r = Rat::new(Int::from(4), Int::from(-6));
/// assert_eq!(r.to_string(), "-2/3");
/// assert_eq!(&r + &Rat::from(1), Rat::new(Int::from(1), Int::from(3)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: Int,
    den: Int, // always positive; 1 when num is 0
}

impl Default for Rat {
    /// The rational zero (`0/1`).
    fn default() -> Rat {
        Rat::zero()
    }
}

impl Rat {
    /// Creates a rational `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: Int, den: Int) -> Rat {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rat::zero();
        }
        let g = num.gcd(&den);
        let (mut num, mut den) = if g.is_one() {
            (num, den)
        } else {
            (&num / &g, &den / &g)
        };
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// The rational zero.
    pub fn zero() -> Rat {
        Rat {
            num: Int::zero(),
            den: Int::one(),
        }
    }

    /// The rational one.
    pub fn one() -> Rat {
        Rat {
            num: Int::one(),
            den: Int::one(),
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.num.is_one() && self.den.is_one()
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` if the denominator is one.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> &Int {
        &self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> &Int {
        &self.den
    }

    /// The sign: -1, 0, or 1.
    pub fn signum(&self) -> i8 {
        self.num.signum()
    }

    /// The absolute value.
    pub fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rat::new(self.den.clone(), self.num.clone())
    }

    /// Converts to `i64` if the value is an integer that fits.
    pub fn to_i64(&self) -> Option<i64> {
        if self.is_integer() {
            self.num.to_i64()
        } else {
            None
        }
    }
}

impl From<Int> for Rat {
    fn from(num: Int) -> Rat {
        Rat {
            num,
            den: Int::one(),
        }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::from(Int::from(v))
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat::from(Int::from(v))
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(mut self) -> Rat {
        self.num = -self.num;
        self
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, other: &Rat) -> Rat {
        if self.is_integer() && other.is_integer() {
            return Rat::from(&self.num + &other.num);
        }
        Rat::new(
            &(&self.num * &other.den) + &(&other.num * &self.den),
            &self.den * &other.den,
        )
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, other: &Rat) -> Rat {
        if self.is_integer() && other.is_integer() {
            return Rat::from(&self.num - &other.num);
        }
        Rat::new(
            &(&self.num * &other.den) - &(&other.num * &self.den),
            &self.den * &other.den,
        )
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, other: &Rat) -> Rat {
        if self.is_zero() || other.is_zero() {
            return Rat::zero();
        }
        if self.is_integer() && other.is_integer() {
            return Rat::from(&self.num * &other.num);
        }
        Rat::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, other: &Rat) -> Rat {
        assert!(!other.is_zero(), "division by zero rational");
        Rat::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                (&self).$method(&other)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, other: &Rat) -> Rat {
                (&self).$method(other)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, other: &Rat) {
        *self = &*self + other;
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, other: &Rat) {
        *self = &*self - other;
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, other: &Rat) {
        *self = &*self * other;
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The error returned when parsing a [`Rat`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError;

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid rational literal")
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"a"` or `"a/b"` where `a`, `b` are (signed) decimal integers.
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        match s.split_once('/') {
            None => {
                let n: Int = s.trim().parse().map_err(|_| ParseRatError)?;
                Ok(Rat::from(n))
            }
            Some((a, b)) => {
                let n: Int = a.trim().parse().map_err(|_| ParseRatError)?;
                let d: Int = b.trim().parse().map_err(|_| ParseRatError)?;
                if d.is_zero() {
                    return Err(ParseRatError);
                }
                Ok(Rat::new(n, d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(Int::from(n), Int::from(d))
    }

    #[test]
    fn normalization() {
        assert_eq!(r(4, 6), r(2, 3));
        assert_eq!(r(4, -6), r(-2, 3));
        assert_eq!(r(0, 17), Rat::zero());
        assert_eq!(r(-0, -5), Rat::zero());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&r(1, 2) + &r(1, 3), r(5, 6));
        assert_eq!(&r(1, 2) - &r(1, 3), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(2, 3) / &r(4, 3), r(1, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 1) > Rat::zero());
        assert_eq!(r(3, 9).cmp(&r(1, 3)), Ordering::Equal);
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("2/4".parse::<Rat>().unwrap(), r(1, 2));
        assert_eq!("-3".parse::<Rat>().unwrap(), Rat::from(-3i64));
        assert_eq!(r(-2, 3).to_string(), "-2/3");
        assert_eq!(Rat::from(5i64).to_string(), "5");
        assert!("1/0".parse::<Rat>().is_err());
        assert!("x/2".parse::<Rat>().is_err());
    }

    #[test]
    fn recip() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(Int::one(), Int::zero());
    }
}
