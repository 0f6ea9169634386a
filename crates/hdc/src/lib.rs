//! # hdface-hdc — hypervector substrate
//!
//! Bit-packed binary/bipolar hypervectors and the classic
//! hyperdimensional-computing (HDC) operation set used throughout the
//! HDFace reproduction: XOR *binding*, majority *bundling*, rotational
//! *permutation*, componentwise *selection* (the stochastic ⊕
//! primitive), Hamming / dot-product *similarity*, and integer
//! *accumulators* for training.
//!
//! A [`BitVector`] stores `D` bits packed into `u64` words. Under the
//! **bipolar view** a stored bit `1` reads as `+1` and a stored bit `0`
//! reads as `-1`; all similarity math in this crate uses that
//! convention, which makes XOR equal to elementwise bipolar
//! multiplication and `NOT` equal to negation.
//!
//! ```
//! use hdface_hdc::{BitVector, HdcRng, SeedableRng};
//!
//! let mut rng = HdcRng::seed_from_u64(7);
//! let a = BitVector::random(10_000, &mut rng);
//! let b = BitVector::random(10_000, &mut rng);
//! // Random hypervectors are nearly orthogonal:
//! assert!(a.similarity(&b).unwrap().abs() < 0.05);
//! // A vector is maximally similar to itself and anti-similar to its negation:
//! assert_eq!(a.similarity(&a).unwrap(), 1.0);
//! assert_eq!(a.similarity(&a.negated()).unwrap(), -1.0);
//! ```

// `unsafe` is denied crate-wide; the only exemption is the `simd`
// module, whose runtime-dispatched intrinsics require it and carry
// per-call-site safety documentation.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accum;
mod bitvec;
mod bundler;
mod error;
mod kernels;
mod rng;
mod serial;
mod simd;
mod sweep;

pub use accum::Accumulator;
pub use bitvec::{BitVector, Bits};
pub use bundler::BitSlicedBundler;
pub use error::{DimensionMismatchError, HdcError};
pub use kernels::{
    hamming_distances_block, hamming_distances_block_with, hamming_top2, hamming_top2_batch,
    hamming_top2_block, hamming_top2_block_with, hamming_top2_with, top2_scores, HammingTop2,
    ScoreTop2,
};
pub use rng::{HdcRng, SeedableRng};
pub use serial::SerialError;
pub use simd::{active_backend, detected_backend, SimdBackend};
pub use sweep::{gradient_sweep, gradient_sweep_on, GradientCounts, SweepCodes};
