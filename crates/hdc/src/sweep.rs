//! The HD-HOG cell sweep.
//!
//! A pixel of the stochastic HOG (paper §4.2–4.3) builds every vector
//! it reads from ½ selections, and then reads only their distances
//! from `V₁`:
//!
//! - the halved central differences `Gx = m ? P(x+1) : ¬P(x−1)` and
//!   `Gy` likewise;
//! - the L1 magnitude's halved sum `m ? |Gx| : |Gy|`, where `|G|` is
//!   `G` negated if it decodes negative;
//! - each tan test's `α = m ? a : ¬b`, with `(a, b) = (Gy, V_t ⊗ Gx)`
//!   for a tan code and `(V_{1/t} ⊗ Gy, Gx)` for a cot code.
//!
//! Built op by op that is a mask fill, a select, a negation and a
//! count per vector. [`cell_sweep`] builds them all for every pixel of
//! a cell in one kernel call, one 8-word group at a time: it steps the
//! caller's [`MaskLanes`] for each ½ mask, forms each vector's words
//! in registers and counts them as it goes. No vector is stored and
//! nothing is drawn from a binomial law, so the counts are exactly
//! those of the vector pipeline — `tests/sweep_proptest.rs` holds every
//! backend to it.

use crate::bitvec::BitVector;
use crate::error::DimensionMismatchError;
use crate::rng::HdcRng;
use crate::simd::{self, SimdBackend, MASK_LANES};

const WORD_BITS: usize = 64;

/// Counts [`cell_sweep`] writes per pixel before its codes' counts.
pub const PIXEL_COUNTS: usize = 4;

/// The eight xoshiro256++ lanes every ½ mask of [`cell_sweep`] comes
/// from: word `j` of each 8-word group of a mask is the next output of
/// lane `j`.
///
/// The lanes are seeded once, and every sweep steps them on from where
/// the last one left them, so a caller that seeds one set per cell or
/// window from its own stream keeps each a pure function of that
/// stream.
///
/// ```
/// use hdface_hdc::{HdcRng, MaskLanes, SeedableRng};
///
/// let mut lanes = MaskLanes::from_rng(&mut HdcRng::seed_from_u64(7));
/// let first = lanes.clone().next_group();
/// assert_eq!(lanes.next_group(), first);
/// assert_ne!(lanes.next_group(), first);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskLanes {
    /// State word `k` of lane `l` at `state[k][l]`.
    pub(crate) state: [[u64; MASK_LANES]; 4],
}

impl MaskLanes {
    /// Lanes whose state words are the next 32 words of `rng`, lane 0
    /// first: a stream seeds its lanes by drawing them. A lane would
    /// start in the all-zero state xoshiro never leaves only if four
    /// words in a row of the stream were zero, a chance of about
    /// 2⁻²⁵⁶ per lane.
    #[must_use]
    pub fn from_rng(rng: &mut HdcRng) -> Self {
        let lanes: [[u64; 4]; MASK_LANES] =
            std::array::from_fn(|_| [(); 4].map(|()| rng.next_u64()));
        MaskLanes {
            state: std::array::from_fn(|k| std::array::from_fn(|l| lanes[l][k])),
        }
    }

    /// Steps every lane once: one 8-word group of a ½ mask, word `j`
    /// from lane `j`.
    pub fn next_group(&mut self) -> [u64; MASK_LANES] {
        simd::step_lanes(&mut self.state)
    }
}

/// The tan tests' boundary codes, laid out once for [`cell_sweep`]:
/// each code with its kind and the `α` mask it is selected under.
///
/// Codes that share a mask share its words: a pixel reads only the
/// codes of its own quadrant parity, so a boundary's even and odd codes
/// can share one. A pixel steps the lanes once per mask per group,
/// masks `0..masks()` in order, whatever its codes.
///
/// ```
/// use hdface_hdc::{BitVector, HdcRng, SeedableRng, SweepCodes};
///
/// let mut rng = HdcRng::seed_from_u64(1);
/// let (tan, cot) = (BitVector::random(100, &mut rng), BitVector::random(100, &mut rng));
/// // A tan code and a cot code, both under α mask 0.
/// let codes = SweepCodes::new(100, &[(&tan, false, 0), (&cot, true, 0)]).unwrap();
/// assert_eq!((codes.len(), codes.masks()), (2, 1));
/// ```
#[derive(Debug, Clone)]
pub struct SweepCodes {
    dim: usize,
    /// `α` masks per pixel and group: one past the highest mask index.
    pub(crate) masks: usize,
    /// The codes in mask order (stable): mask `i`'s codes are
    /// `starts[i]..starts[i + 1]`.
    pub(crate) starts: Vec<usize>,
    /// Per code in mask order: whether it is a cot code.
    pub(crate) cot: Vec<bool>,
    /// Per code in mask order: its position in the caller's list.
    pub(crate) slot: Vec<usize>,
    /// Word `8g + j` of code `k` (mask order) at
    /// `words[(g·len + k)·8 + j]`, zero past the last word up to a
    /// whole 8-word group.
    pub(crate) words: Vec<u64>,
}

impl SweepCodes {
    /// Lays out `codes`, each given as `(code, cot, mask)`: a cot code
    /// builds `α = m ? V ⊗ Gy : ¬Gx`, any other `α = m ? Gy : ¬(V ⊗ Gx)`,
    /// under `α` mask `mask`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if a code's dimensionality
    /// is not `dim`.
    pub fn new(
        dim: usize,
        codes: &[(&BitVector, bool, usize)],
    ) -> Result<Self, DimensionMismatchError> {
        if let Some((code, ..)) = codes.iter().find(|(code, ..)| code.dim() != dim) {
            return Err(DimensionMismatchError {
                left: dim,
                right: code.dim(),
            });
        }
        let masks = codes.iter().map(|&(.., mask)| mask + 1).max().unwrap_or(0);
        let mut slot: Vec<usize> = (0..codes.len()).collect();
        slot.sort_by_key(|&k| codes[k].2);
        let starts = (0..=masks)
            .map(|i| slot.partition_point(|&k| codes[k].2 < i))
            .collect();
        let n = codes.len();
        let groups = dim.div_ceil(WORD_BITS).div_ceil(MASK_LANES);
        let mut words = vec![0u64; groups * n * MASK_LANES];
        for (k, &s) in slot.iter().enumerate() {
            for (w, &word) in codes[s].0.as_words().iter().enumerate() {
                let (g, j) = (w / MASK_LANES, w % MASK_LANES);
                words[(g * n + k) * MASK_LANES + j] = word;
            }
        }
        Ok(SweepCodes {
            dim,
            masks,
            starts,
            cot: slot.iter().map(|&k| codes[k].1).collect(),
            slot,
            words,
        })
    }

    /// Number of codes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// `true` if there are no codes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Number of `α` masks a pixel steps per group.
    #[must_use]
    pub fn masks(&self) -> usize {
        self.masks
    }

    /// Dimensionality of the codes.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// One cell's counts in one kernel call, with the process-wide
/// [`active_backend`](crate::active_backend).
///
/// `pixels[p]` is `[P(x+1), P(x−1), P(y+1), P(y−1)]` for pixel `p`.
/// Pixels go in order; for each 8-word group of a pixel every lane
/// steps once for `Gx`'s mask, then `Gy`'s, then the magnitude's
/// (`m` below), then `α` masks `0..codes.masks()`, a ragged last
/// group included. With `s = PIXEL_COUNTS + codes.len()`, pixel `p`'s
/// counts are `counts[p·s..(p + 1)·s]`:
///
/// - `h(Gx, V₁)`, `h(Gy, V₁)`;
/// - `h(m ? Gx : Gy, V₁)` and `h(m ? Gx : ¬Gy, V₁)`, from which the
///   magnitude's `h(m ? |Gx| : |Gy|, V₁)` follows for either pair of
///   signs (negating the selection turns `h` into `D − h`);
/// - `h(α_k, V₁)` for code `k`, in the caller's order.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if an operand, the basis or the
/// codes differ in dimensionality; `lanes` is then untouched.
///
/// # Panics
///
/// Panics if `counts.len() != pixels.len() · s`.
pub fn cell_sweep(
    lanes: &mut MaskLanes,
    pixels: &[[&BitVector; 4]],
    basis: &BitVector,
    codes: &SweepCodes,
    counts: &mut [usize],
) -> Result<(), DimensionMismatchError> {
    cell_sweep_on(simd::active_backend(), lanes, pixels, basis, codes, counts)
}

/// [`cell_sweep`] on an explicit backend. Every backend returns the
/// same counts and leaves the lanes in the same state; one this
/// machine cannot run falls back to scalar, and an AVX-512 machine
/// without `avx512vpopcntdq` runs the AVX2 sweep.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if an operand, the basis or the
/// codes differ in dimensionality; `lanes` is then untouched.
///
/// # Panics
///
/// Panics if `counts.len() != pixels.len() · (PIXEL_COUNTS + codes.len())`.
pub fn cell_sweep_on(
    backend: SimdBackend,
    lanes: &mut MaskLanes,
    pixels: &[[&BitVector; 4]],
    basis: &BitVector,
    codes: &SweepCodes,
    counts: &mut [usize],
) -> Result<(), DimensionMismatchError> {
    simd::cell_sweep_with(backend, lanes, pixels, basis, codes, counts)
}
