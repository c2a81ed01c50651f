//! Exact arbitrary-precision arithmetic for the `cai` workspace.
//!
//! The abstract domains in this workspace (Karr's affine-equality domain,
//! the Fourier–Motzkin inequality domain) perform Gaussian elimination and
//! projection over the rationals, where intermediate coefficients routinely
//! overflow machine integers. This crate provides the two number types they
//! need, implemented from scratch with no external dependencies:
//!
//! - [`Int`]: an arbitrary-precision integer, inline as a machine word in
//!   the `i64` range and sign-and-magnitude limbs outside it, and
//! - [`Rat`]: a normalized rational built on top of [`Int`].
//!
//! # Examples
//!
//! ```
//! use cai_num::{Int, Rat};
//!
//! let a = Int::from(1_000_000_007i64);
//! let b = &a * &a;
//! assert_eq!(b.to_string(), "1000000014000000049");
//!
//! let third = Rat::new(Int::from(1), Int::from(3));
//! let sum = &third + &third + &third;
//! assert_eq!(sum, Rat::from(1));
//! ```

mod int;
pub mod prng;
mod rat;

pub use int::{Int, ParseIntError};
pub use prng::SplitMix64;
pub use rat::{ParseRatError, Rat};
