//! Integer per-dimension accumulators for bundling and training.

use std::fmt;

use crate::bitvec::BitVector;
use crate::error::DimensionMismatchError;
use crate::HdcRng;

/// A per-dimension signed integer accumulator.
///
/// HDC *bundling* memorizes a set of hypervectors by componentwise
/// (weighted) addition of their bipolar values followed by a sign
/// threshold. Class hypervectors in [`hdface-learn`] are held in this
/// non-quantized form during training so that similarity-scaled
/// updates do not saturate, and are thresholded back to a
/// [`BitVector`] for the binary deployment model.
///
/// This scalar accumulator is the *reference implementation* and the
/// only fractionally weighted tool; every unweighted ±1 bundle (the
/// detector's window encoding, the id×level encoder) runs on the
/// word-level [`BitSlicedBundler`](crate::BitSlicedBundler), which is
/// verified bit-identical against this type.
///
/// [`hdface-learn`]: https://example.invalid/hdface
///
/// ```
/// use hdface_hdc::{Accumulator, BitVector};
///
/// let a = BitVector::from_bools(&[true, true, false]);
/// let b = BitVector::from_bools(&[true, false, false]);
/// let mut acc = Accumulator::new(3);
/// acc.add(&a).unwrap();
/// acc.add(&b).unwrap();
/// // dim 0: +2, dim 1: 0 (tie), dim 2: −2
/// assert_eq!(acc.component(0), 2.0);
/// assert_eq!(acc.component(2), -2.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Accumulator {
    values: Vec<f64>,
    count: usize,
}

impl Accumulator {
    /// Creates a zeroed accumulator of dimensionality `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Accumulator {
            values: vec![0.0; dim],
            count: 0,
        }
    }

    /// Dimensionality of the accumulator.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Number of `add`-style calls applied so far.
    #[inline]
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The raw accumulated value of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[inline]
    #[must_use]
    pub fn component(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// Adds a hypervector's bipolar values with weight `+1`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if dimensionalities differ.
    pub fn add(&mut self, v: &BitVector) -> Result<(), DimensionMismatchError> {
        self.add_weighted(v, 1.0)
    }

    /// Adds `weight · v` componentwise (bipolar view of `v`).
    ///
    /// This is the primitive behind the adaptive HDFace update rule
    /// `C ← C + (1 − δ)·H`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if dimensionalities differ.
    pub fn add_weighted(
        &mut self,
        v: &BitVector,
        weight: f64,
    ) -> Result<(), DimensionMismatchError> {
        if v.dim() != self.dim() {
            return Err(DimensionMismatchError {
                left: self.dim(),
                right: v.dim(),
            });
        }
        // Walk word-by-word: one packed-word load per 64 dimensions,
        // sign-selecting ±weight per bit (bit-identical to the scalar
        // `weight * f64::from(bipolar)` since `w * ±1.0 == ±w`).
        for (chunk, &word) in self.values.chunks_mut(64).zip(v.as_words()) {
            for (j, val) in chunk.iter_mut().enumerate() {
                *val += if (word >> j) & 1 == 1 {
                    weight
                } else {
                    -weight
                };
            }
        }
        self.count += 1;
        Ok(())
    }

    /// Thresholds to a binary hypervector: bit `1` where the component
    /// is positive, bit `0` where negative; exact zeros are broken by
    /// the supplied RNG so the result stays unbiased.
    #[must_use]
    pub fn threshold(&self, rng: &mut HdcRng) -> BitVector {
        let mut out = BitVector::zeros(self.dim());
        for (i, &v) in self.values.iter().enumerate() {
            let bit = if v > 0.0 {
                true
            } else if v < 0.0 {
                false
            } else {
                rng.random_bool(0.5)
            };
            out.set(i, bit);
        }
        out
    }

    /// Thresholds with deterministic tie-breaking (ties become `0`).
    ///
    /// Prefer [`Accumulator::threshold`] when statistical neutrality
    /// matters; this variant exists for reproducible round-trips.
    #[must_use]
    pub fn threshold_deterministic(&self) -> BitVector {
        let mut out = BitVector::zeros(self.dim());
        for (i, &v) in self.values.iter().enumerate() {
            out.set(i, v > 0.0);
        }
        out
    }

    /// Cosine similarity between the accumulator (as a real vector)
    /// and a bipolar hypervector, in `[-1, 1]`.
    ///
    /// Returns `0.0` when the accumulator is all-zero.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if dimensionalities differ.
    pub fn cosine(&self, v: &BitVector) -> Result<f64, DimensionMismatchError> {
        if v.dim() != self.dim() {
            return Err(DimensionMismatchError {
                left: self.dim(),
                right: v.dim(),
            });
        }
        let mut dot = 0.0;
        let mut norm = 0.0;
        // Word-level walk (see `add_weighted`): same FP accumulation
        // order as the per-bit loop, so results are bit-identical.
        for (chunk, &word) in self.values.chunks(64).zip(v.as_words()) {
            for (j, &c) in chunk.iter().enumerate() {
                dot += if (word >> j) & 1 == 1 { c } else { -c };
                norm += c * c;
            }
        }
        if norm == 0.0 || self.dim() == 0 {
            return Ok(0.0);
        }
        // ‖v‖ = sqrt(D) for a bipolar vector.
        Ok(dot / (norm.sqrt() * (self.dim() as f64).sqrt()))
    }

    /// Euclidean norm of the accumulated components.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl fmt::Debug for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Accumulator(D={}, count={}, norm={:.3})",
            self.dim(),
            self.count,
            self.norm()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    #[test]
    fn threshold_recovers_single_vector() {
        let mut rng = HdcRng::seed_from_u64(2);
        let v = BitVector::random(512, &mut rng);
        let mut acc = Accumulator::new(512);
        acc.add(&v).unwrap();
        assert_eq!(acc.threshold(&mut rng), v);
        assert_eq!(acc.threshold_deterministic(), v);
    }

    #[test]
    fn weighted_add_scales() {
        let v = BitVector::from_bools(&[true, false]);
        let mut acc = Accumulator::new(2);
        acc.add_weighted(&v, 2.5).unwrap();
        assert_eq!(acc.component(0), 2.5);
        assert_eq!(acc.component(1), -2.5);
    }

    #[test]
    fn cosine_of_own_threshold_is_high() {
        let mut rng = HdcRng::seed_from_u64(6);
        let v = BitVector::random(2048, &mut rng);
        let mut acc = Accumulator::new(2048);
        acc.add(&v).unwrap();
        assert!((acc.cosine(&v).unwrap() - 1.0).abs() < 1e-12);
        assert!((acc.cosine(&v.negated()).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_zero_accumulator_is_zero() {
        let acc = Accumulator::new(16);
        let v = BitVector::zeros(16);
        assert_eq!(acc.cosine(&v).unwrap(), 0.0);
    }

    #[test]
    fn dim_mismatch_paths_error() {
        let mut a = Accumulator::new(4);
        let v = BitVector::zeros(5);
        assert!(a.add(&v).is_err());
        assert!(a.cosine(&v).is_err());
    }

    #[test]
    fn debug_shows_stats() {
        let acc = Accumulator::new(8);
        let s = format!("{acc:?}");
        assert!(s.contains("D=8") && s.contains("count=0"));
    }
}
