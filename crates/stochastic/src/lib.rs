//! # hdface-stochastic — stochastic arithmetic over binary hypervectors
//!
//! This crate implements §4 of the HDFace paper: a number
//! `a ∈ [-1, 1]` is represented by a bipolar hypervector `V_a` whose
//! similarity to a fixed random *basis* vector `V₁` equals the number,
//! `δ(V_a, V₁) = a`. On that representation the crate provides
//!
//! * **construction** (encoding) of arbitrary values,
//! * **weighted average** `p·V_a ⊕ q·V_b` (componentwise random
//!   selection), from which addition/subtraction-halved derive,
//! * **multiplication** `V_a ⊗ V_b` (XNOR against the basis),
//! * **square root** and **division** via noisy binary search,
//! * **comparison** with statistical margins,
//! * **decoding** back to a scalar (one popcount against the basis).
//!
//! All operations are bitwise and embarrassingly parallel — that is
//! the efficiency claim of the paper — and the representation is
//! holographic: every dimension carries the same amount of
//! information, so random bit errors only add small zero-mean noise to
//! the decoded value.
//!
//! ## Independence discipline
//!
//! Stochastic multiplication decodes to `a·b` **only when the two
//! operand hypervectors carry independent encoding noise**. Squaring a
//! vector with itself (`V ⊗ V`) collapses to `V₁` (it decodes to 1).
//! [`StochasticContext::square`] and the binary-search routines
//! therefore re-derive an independent instance first (a popcount plus
//! a fresh draw — both native HD operations). The failure mode without
//! resampling is demonstrated by the `exp_ablation` experiment.
//!
//! ```
//! use hdface_stochastic::StochasticContext;
//!
//! # fn main() -> Result<(), hdface_stochastic::StochasticError> {
//! let mut ctx = StochasticContext::new(16_384, 42);
//! let a = ctx.encode(0.6)?;
//! let b = ctx.encode(-0.5)?;
//! let prod = ctx.mul(&a, &b)?;
//! assert!((ctx.decode(&prod)? - (-0.3)).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod binomial;
mod budget;
mod context;
mod error;
mod search;
#[cfg(test)]
mod testing;

pub use analysis::{expected_sigma, measure_errors, OpErrorStats, OpKind};
pub use budget::{hog_magnitude_sigma, ErrorBudget};
pub use context::{derive_coord_seed, Comparison, Shv, StochasticContext};
pub use error::StochasticError;
