//! The per-pixel gradient sweep of the HD-HOG cell pass.
//!
//! A pixel of the stochastic HOG builds two halved central
//! differences, `Gx = sub_halved(a, b)` and `Gy = sub_halved(c, d)`,
//! each under a fresh ½ mask, and then reads only Hamming counts off
//! them: their distances from `V₁` and from each other for the
//! magnitude, and two distances per bin-boundary code for the tan
//! tests. Built op by op that is 17 passes over the D bits — two mask
//! fills with their zero-fills, two selects, two negations, two XORs,
//! the two-pass product and five counts. [`gradient_sweep`] makes one:
//! it generates both masks' words in registers, forms each gradient
//! word from them and takes every count in the same pass, on the
//! backend the mask stream runs on (`simd.rs`).
//!
//! Counts are integers, so the sweep returns exactly what the unfused
//! ops count — `tests/sweep_proptest.rs` holds every backend to them.

use crate::bitvec::BitVector;
use crate::error::DimensionMismatchError;
use crate::simd::{self, SimdBackend, SweepInput, MASK_LANES, SWEEP_CODES_PER_PASS};

const WORD_BITS: usize = 64;

/// The bin-boundary codes a pixel's tan tests compare against, laid
/// out once for [`gradient_sweep`]: each code's words interleaved with
/// the others' one 8-word group at a time (zero-padded to whole
/// groups), so the sweep reads every code's words for a group from
/// one run of memory, in chunks of at most eight codes.
///
/// ```
/// use hdface_hdc::{BitVector, HdcRng, SeedableRng, SweepCodes};
///
/// let mut rng = HdcRng::seed_from_u64(1);
/// let (tan, cot) = (BitVector::random(100, &mut rng), BitVector::random(100, &mut rng));
/// // `tan` is compared against Gx, `cot` against Gy.
/// let codes = SweepCodes::new(100, &[(&tan, false), (&cot, true)]).unwrap();
/// assert_eq!(codes.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SweepCodes {
    dim: usize,
    len: usize,
    chunks: Vec<CodeChunk>,
}

/// Up to [`SWEEP_CODES_PER_PASS`] codes in the sweep's layout.
#[derive(Debug, Clone)]
struct CodeChunk {
    /// Whether each code is compared against `Gy` (else `Gx`).
    against_gy: Vec<bool>,
    /// Word `8g + j` of code `k` at `words[(g·n + k)·8 + j]`.
    words: Vec<u64>,
}

impl SweepCodes {
    /// Lays out `codes`, each paired with whether its tan test reads
    /// `h(code, Gy)` (`true`) or `h(code, Gx)` (`false`).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if a code's dimensionality
    /// is not `dim`.
    pub fn new(dim: usize, codes: &[(&BitVector, bool)]) -> Result<Self, DimensionMismatchError> {
        if let Some((code, _)) = codes.iter().find(|(code, _)| code.dim() != dim) {
            return Err(DimensionMismatchError {
                left: dim,
                right: code.dim(),
            });
        }
        let groups = dim.div_ceil(WORD_BITS).div_ceil(MASK_LANES);
        let chunks = codes
            .chunks(SWEEP_CODES_PER_PASS)
            .map(|chunk| {
                let n = chunk.len();
                let mut words = vec![0u64; groups * n * MASK_LANES];
                for (k, (code, _)) in chunk.iter().enumerate() {
                    for (w, &word) in code.as_words().iter().enumerate() {
                        let (g, j) = (w / MASK_LANES, w % MASK_LANES);
                        words[(g * n + k) * MASK_LANES + j] = word;
                    }
                }
                CodeChunk {
                    against_gy: chunk.iter().map(|&(_, gy)| gy).collect(),
                    words,
                }
            })
            .collect();
        Ok(SweepCodes {
            dim,
            len: codes.len(),
            chunks,
        })
    }

    /// Number of codes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no codes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the codes.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// The magnitude's and the quadrant's counts from one
/// [`gradient_sweep`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GradientCounts {
    /// `h(Gx, V₁)`.
    pub hx: usize,
    /// `h(Gy, V₁)`.
    pub hy: usize,
    /// `h(Gx, Gy)`.
    pub hxy: usize,
}

/// One pixel's counts in one pass over the D bits, with the
/// process-wide [`active_backend`](crate::active_backend).
///
/// `Gx` is what `sub_halved_into(x[0], x[1])` builds under the ½ mask
/// that [`BitVector::fill_with_density`] draws from a generator whose
/// next word is `seeds[0]`, and `Gy` likewise from `y` and `seeds[1]`:
/// the mask's bits where it is set, the second operand's negated bits
/// where it is clear. Neither is stored. Returns `h(Gx, V₁)`,
/// `h(Gy, V₁)` and `h(Gx, Gy)`, and sets `code_counts[k]` to
/// `[h(code, G), h(code, Gx ⊗ Gy)]` for code `k`, where `G` is the
/// gradient the code is compared against and
/// `Gx ⊗ Gy = Gx ⊕ Gy ⊕ V₁` is the stochastic product.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if an operand, the basis or the
/// codes differ in dimensionality.
///
/// # Panics
///
/// Panics if `code_counts.len() != codes.len()`.
pub fn gradient_sweep(
    seeds: [u64; 2],
    x: [&BitVector; 2],
    y: [&BitVector; 2],
    basis: &BitVector,
    codes: &SweepCodes,
    code_counts: &mut [[usize; 2]],
) -> Result<GradientCounts, DimensionMismatchError> {
    gradient_sweep_on(
        simd::active_backend(),
        seeds,
        x,
        y,
        basis,
        codes,
        code_counts,
    )
}

/// [`gradient_sweep`] on an explicit backend. Every backend returns the
/// same counts; one this machine cannot run falls back to scalar, and
/// an AVX-512 machine without `avx512vpopcntdq` runs the AVX2 sweep.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if an operand, the basis or the
/// codes differ in dimensionality.
///
/// # Panics
///
/// Panics if `code_counts.len() != codes.len()`.
pub fn gradient_sweep_on(
    backend: SimdBackend,
    seeds: [u64; 2],
    x: [&BitVector; 2],
    y: [&BitVector; 2],
    basis: &BitVector,
    codes: &SweepCodes,
    code_counts: &mut [[usize; 2]],
) -> Result<GradientCounts, DimensionMismatchError> {
    let dim = basis.dim();
    let operands = [x[0], x[1], y[0], y[1]];
    if let Some(right) = operands
        .iter()
        .map(|v| v.dim())
        .chain([codes.dim])
        .find(|&d| d != dim)
    {
        return Err(DimensionMismatchError { left: dim, right });
    }
    assert_eq!(
        code_counts.len(),
        codes.len,
        "one count pair per boundary code"
    );
    let rem = dim % WORD_BITS;
    let base = SweepInput {
        seeds,
        operands: operands.map(BitVector::as_words),
        basis: basis.as_words(),
        tail: if rem == 0 { u64::MAX } else { (1 << rem) - 1 },
        codes: &[],
        against_gy: &[],
    };
    // Each chunk of codes is one pass; every pass rebuilds the same
    // gradients from the same seeds, and the first one's counts are
    // kept.
    let mut gradient = None;
    let mut pass = [[0u64; 2]; SWEEP_CODES_PER_PASS];
    for (chunk, out) in codes
        .chunks
        .iter()
        .zip(code_counts.chunks_mut(SWEEP_CODES_PER_PASS))
    {
        let pass = &mut pass[..chunk.against_gy.len()];
        let input = SweepInput {
            codes: &chunk.words,
            against_gy: &chunk.against_gy,
            ..base
        };
        let counts = simd::gradient_sweep_with(backend, &input, pass);
        gradient.get_or_insert(counts);
        for (o, p) in out.iter_mut().zip(pass.iter()) {
            *o = p.map(|c| c as usize);
        }
    }
    let counts = gradient.unwrap_or_else(|| simd::gradient_sweep_with(backend, &base, &mut []));
    let [hx, hy, hxy] = counts.map(|c| c as usize);
    Ok(GradientCounts { hx, hy, hxy })
}
