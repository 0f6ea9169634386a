//! Encoders mapping float feature vectors into hyperspace — the
//! paper's configuration (1): classic HOG in original space followed
//! by a (non-linear) HDC encoder.

use hdface_hdc::{BitSlicedBundler, BitVector, HdcRng, SeedableRng};

use crate::error::LearnError;

/// Common interface of the float-to-hypervector encoders.
///
/// Encoders are immutable after construction, and the `Send + Sync`
/// bound makes that contract explicit so an encoder can be shared by
/// reference across the scoped worker threads of the parallel
/// extraction engine.
pub trait FeatureEncoder: Send + Sync {
    /// Hypervector dimensionality produced.
    fn dim(&self) -> usize;

    /// Expected input feature length.
    fn input_len(&self) -> usize;

    /// Encodes one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::FeatureLengthMismatch`] when the input
    /// length is wrong.
    fn encode(&self, features: &[f64]) -> Result<BitVector, LearnError>;
}

/// Record-based **id × level** encoding: each feature index gets a
/// random *id* key, each quantized feature value a *level* vector
/// from a correlative codebook; the bound pairs are majority-bundled.
///
/// This is the standard non-linear HDC encoder for tabular data (the
/// quantization is the non-linearity).
#[derive(Debug, Clone)]
pub struct LevelIdEncoder {
    dim: usize,
    input_len: usize,
    levels: Vec<BitVector>,
    ids: Vec<BitVector>,
    /// Feature values are clamped to this range before quantization.
    lo: f64,
    hi: f64,
}

impl LevelIdEncoder {
    /// Builds the codebooks for `input_len` features of values in
    /// `[lo, hi]`, quantized to `levels` correlative level vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `levels < 2`, or `hi <= lo`.
    #[must_use]
    pub fn new(input_len: usize, dim: usize, levels: usize, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(levels >= 2, "need at least two levels");
        assert!(hi > lo, "value range must be non-empty");
        let mut rng = HdcRng::seed_from_u64(seed);
        // Correlative levels: flip a growing prefix of a fixed random
        // half of the dimensions.
        let base = BitVector::random(dim, &mut rng);
        let mut order: Vec<usize> = (0..dim).collect();
        for i in (1..dim).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let flip_set = &order[..dim / 2];
        let level_vecs = (0..levels)
            .map(|lvl| {
                let frac = lvl as f64 / (levels - 1) as f64;
                let n_flip = (frac * flip_set.len() as f64).round() as usize;
                let mut v = base.clone();
                for &idx in &flip_set[..n_flip] {
                    v.flip(idx);
                }
                v
            })
            .collect();
        let ids = (0..input_len)
            .map(|_| BitVector::random(dim, &mut rng))
            .collect();
        LevelIdEncoder {
            dim,
            input_len,
            levels: level_vecs,
            ids,
            lo,
            hi,
        }
    }

    /// Quantizes a value to its level index.
    #[must_use]
    pub fn level_of(&self, value: f64) -> usize {
        let t = ((value - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = (t * (self.levels.len() - 1) as f64).round() as usize;
        idx.min(self.levels.len() - 1)
    }
}

impl FeatureEncoder for LevelIdEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn encode(&self, features: &[f64]) -> Result<BitVector, LearnError> {
        if features.len() != self.input_len {
            return Err(LearnError::FeatureLengthMismatch {
                expected: self.input_len,
                actual: features.len(),
            });
        }
        let mut bundler = BitSlicedBundler::new(self.dim);
        let levels = features.iter().map(|&v| &self.levels[self.level_of(v)]);
        bundler.bind_accumulate_all(levels.zip(&self.ids))?;
        // Deterministic threshold keeps encoding a pure function of
        // the input, which inference caching relies on.
        Ok(bundler.threshold_deterministic())
    }
}

/// Random-projection sign encoding: `bit_i = sign(w_i · x + b_i)`
/// with Rademacher (±1) projection rows — the dense non-linear
/// encoder used by OnlineHD-style pipelines.
#[derive(Debug, Clone)]
pub struct ProjectionEncoder {
    dim: usize,
    input_len: usize,
    /// Row-major ±1 projection matrix, `dim × input_len`.
    weights: Vec<i8>,
    biases: Vec<f64>,
}

impl ProjectionEncoder {
    /// Draws the random projection.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(input_len: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        let mut rng = HdcRng::seed_from_u64(seed);
        let weights = (0..dim * input_len)
            .map(|_| if rng.random_bool(0.5) { 1 } else { -1 })
            .collect();
        // Biases spread thresholds over the typical projection range
        // (±√n scale) so bits split the data non-trivially.
        let spread = (input_len.max(1) as f64).sqrt() * 0.25;
        let biases = (0..dim)
            .map(|_| rng.random_range(-spread..=spread))
            .collect();
        ProjectionEncoder {
            dim,
            input_len,
            weights,
            biases,
        }
    }
}

impl FeatureEncoder for ProjectionEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn encode(&self, features: &[f64]) -> Result<BitVector, LearnError> {
        if features.len() != self.input_len {
            return Err(LearnError::FeatureLengthMismatch {
                expected: self.input_len,
                actual: features.len(),
            });
        }
        let mut out = BitVector::zeros(self.dim);
        for d in 0..self.dim {
            let row = &self.weights[d * self.input_len..(d + 1) * self.input_len];
            let mut dot = self.biases[d];
            for (w, &x) in row.iter().zip(features) {
                dot += f64::from(*w) * x;
            }
            out.set(d, dot >= 0.0);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoders() -> (LevelIdEncoder, ProjectionEncoder) {
        (
            LevelIdEncoder::new(8, 4096, 16, 0.0, 1.0, 1),
            ProjectionEncoder::new(8, 4096, 2),
        )
    }

    #[test]
    fn encodings_are_deterministic() {
        let (lid, proj) = encoders();
        let x = vec![0.1, 0.5, 0.9, 0.0, 1.0, 0.3, 0.7, 0.2];
        assert_eq!(lid.encode(&x).unwrap(), lid.encode(&x).unwrap());
        assert_eq!(proj.encode(&x).unwrap(), proj.encode(&x).unwrap());
    }

    #[test]
    fn nearby_inputs_stay_similar_far_inputs_do_not() {
        let (lid, proj) = encoders();
        let x = vec![0.5; 8];
        let near: Vec<f64> = x.iter().map(|v| v + 0.05).collect();
        let far = vec![0.95, 0.05, 0.9, 0.1, 0.85, 0.02, 0.97, 0.15];
        for enc in [&lid as &dyn FeatureEncoder, &proj] {
            let ex = enc.encode(&x).unwrap();
            let en = enc.encode(&near).unwrap();
            let ef = enc.encode(&far).unwrap();
            let s_near = ex.similarity(&en).unwrap();
            let s_far = ex.similarity(&ef).unwrap();
            assert!(
                s_near > s_far,
                "near {s_near} should beat far {s_far} (dim={})",
                enc.dim()
            );
        }
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let (lid, proj) = encoders();
        let bad = vec![0.0; 5];
        assert!(matches!(
            lid.encode(&bad),
            Err(LearnError::FeatureLengthMismatch {
                expected: 8,
                actual: 5
            })
        ));
        assert!(proj.encode(&bad).is_err());
    }

    #[test]
    fn level_quantization_boundaries() {
        let lid = LevelIdEncoder::new(1, 256, 5, 0.0, 1.0, 3);
        assert_eq!(lid.level_of(-0.5), 0);
        assert_eq!(lid.level_of(0.0), 0);
        assert_eq!(lid.level_of(0.5), 2);
        assert_eq!(lid.level_of(1.0), 4);
        assert_eq!(lid.level_of(2.0), 4);
    }

    #[test]
    fn dims_and_input_lens_report() {
        let (lid, proj) = encoders();
        assert_eq!(lid.dim(), 4096);
        assert_eq!(lid.input_len(), 8);
        assert_eq!(proj.dim(), 4096);
        assert_eq!(proj.input_len(), 8);
    }

    #[test]
    #[should_panic(expected = "two levels")]
    fn level_encoder_rejects_single_level() {
        let _ = LevelIdEncoder::new(4, 64, 1, 0.0, 1.0, 0);
    }

    #[test]
    fn different_seeds_give_different_codebooks() {
        let a = LevelIdEncoder::new(4, 1024, 8, 0.0, 1.0, 1);
        let b = LevelIdEncoder::new(4, 1024, 8, 0.0, 1.0, 2);
        let x = vec![0.3, 0.6, 0.1, 0.8];
        assert_ne!(a.encode(&x).unwrap(), b.encode(&x).unwrap());
    }
}
