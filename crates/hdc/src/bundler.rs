//! Bit-sliced (carry-save) bundling kernels.
//!
//! Majority bundling is the detector's window-encoding hot path:
//! every window binds each cached cell hypervector to its slot key
//! and feeds the bound vector through an accumulator, and the scalar
//! [`Accumulator`] spends one `f64` add **per bit per vector**
//! (D = 8192 → ~8k floating-point ops per bound slot). But a bundle
//! of unweighted ±1 contributions only ever needs the per-dimension
//! *ones count*, and that count fits in ⌈log₂(N+1)⌉ bits — so this
//! module keeps it in that many `u64` *planes* and updates all 64
//! dimensions of a word at once with adder logic. Bound inputs are
//! taken eight at a time: per word, a carry-save tree of full adders
//! sums the block's eight bound words into a 4-bit count, and a
//! ripple-carry add of fixed depth puts it into every live plane:
//!
//! ```text
//! s₀..s₃        = carry-save tree over x₁..x₈   (xᵢ = valueᵢ ⊕ keyᵢ)
//! plane p, carry = plane ⊕ sₚ ⊕ carry, maj(plane, sₚ, carry)
//! ```
//!
//! The operations are the same whatever the bits are, so one packed
//! word costs a few bitwise ops per input, with no branch on the data,
//! instead of 64 floating-point adds.
//! [`BitSlicedBundler::threshold`] then compares every per-bit counter
//! against the majority cutoff word-parallel, without ever
//! materializing per-bit `f64`s.
//!
//! # Tie-break contract
//!
//! The result is **bit-identical** to the reference
//! `Accumulator::add` + `Accumulator::threshold` pipeline, including
//! RNG consumption: a dimension with exactly N/2 ones is a tie, and
//! ties draw `rng.random_bool(0.5)` in ascending dimension order —
//! the same draws, in the same order, as the scalar path. Dimensions
//! past `dim` in the final word never consume randomness.
//!
//! The scalar [`Accumulator`] remains the reference implementation
//! and the only path for *weighted* accumulation (training's
//! `C ← C + (1 − δ)·H` updates need fractional weights).
//!
//! [`Accumulator`]: crate::Accumulator

use crate::bitvec::BitVector;
use crate::error::DimensionMismatchError;
use crate::HdcRng;

const WORD_BITS: usize = 64;

/// Pairs per carry-save block: the per-dimension sum of eight bound
/// bits fits in the 4-bit output of [`carry_save_sum`].
const BLOCK: usize = 8;

/// One bit plane of a full adder: the sum and the carry of `a + b + c`.
#[inline]
pub(crate) fn full_add(a: u64, b: u64, c: u64) -> (u64, u64) {
    let ab = a ^ b;
    (ab ^ c, (a & b) | (c & ab))
}

/// The per-bit sum of eight words as four bit planes, weight 1 first:
/// a carry-save tree of four full and three half adders.
#[inline]
fn carry_save_sum(x: [u64; BLOCK]) -> [u64; 4] {
    let (s_a, c_a) = full_add(x[0], x[1], x[2]);
    let (s_b, c_b) = full_add(x[3], x[4], x[5]);
    let (s_c, c_c) = full_add(x[6], x[7], s_a);
    let (ones, c_d) = (s_b ^ s_c, s_b & s_c);
    let (s_e, c_e) = full_add(c_a, c_b, c_c);
    let (twos, c_f) = (s_e ^ c_d, s_e & c_d);
    [ones, twos, c_e ^ c_f, c_e & c_f]
}

/// A word-parallel carry-save majority bundler.
///
/// Ingests packed `u64` words directly — [`bind_accumulate_all`]
/// fuses the slot-key XOR with the per-bit count update for a whole
/// list of pairs — and thresholds to
/// the majority [`BitVector`] in one word-level pass. Designed to be
/// kept in per-worker scratch and [`reset`] per window, so the
/// steady-state hot path performs no allocation.
///
/// ```
/// use hdface_hdc::{Accumulator, BitSlicedBundler, BitVector, HdcRng, SeedableRng};
///
/// let mut rng = HdcRng::seed_from_u64(7);
/// let vs: Vec<BitVector> = (0..5).map(|_| BitVector::random(300, &mut rng)).collect();
/// let key = BitVector::random(300, &mut rng);
///
/// let mut kernel = BitSlicedBundler::new(300);
/// kernel.bind_accumulate_all(vs.iter().map(|v| (v, &key))).unwrap();
/// let mut reference = Accumulator::new(300);
/// for v in &vs {
///     reference.add(&v.xor(&key).unwrap()).unwrap();
/// }
/// let mut r1 = HdcRng::seed_from_u64(1);
/// let mut r2 = HdcRng::seed_from_u64(1);
/// assert_eq!(kernel.threshold(&mut r1), reference.threshold(&mut r2));
/// ```
///
/// [`bind_accumulate_all`]: BitSlicedBundler::bind_accumulate_all
/// [`reset`]: BitSlicedBundler::reset
#[derive(Debug, Clone)]
pub struct BitSlicedBundler {
    dim: usize,
    words: usize,
    count: usize,
    /// Counter planes, plane-major: plane `p` is
    /// `planes[p * words..(p + 1) * words]`, and bit `j` of its word
    /// `w` contributes `2^p` to the ones count of dimension
    /// `w * 64 + j`. `planes.len()` is the high-water capacity; only
    /// the first `n_planes` planes are live.
    planes: Vec<u64>,
    n_planes: usize,
}

impl BitSlicedBundler {
    /// Creates an empty bundler of dimensionality `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        BitSlicedBundler {
            dim,
            words: dim.div_ceil(WORD_BITS),
            count: 0,
            planes: Vec::new(),
            n_planes: 0,
        }
    }

    /// Clears the bundler and re-targets it at `dim`, reusing the
    /// existing plane storage whenever the word count allows — the
    /// per-window reset of a long-lived scratch bundler touches no
    /// allocator.
    pub fn reset(&mut self, dim: usize) {
        let words = dim.div_ceil(WORD_BITS);
        if words != self.words {
            self.planes.clear();
        }
        self.dim = dim;
        self.words = words;
        self.count = 0;
        self.n_planes = 0;
        self.planes.fill(0);
    }

    /// Dimensionality of the bundle.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors accumulated since the last reset.
    #[inline]
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of live counter planes (⌈log₂(count + 1)⌉).
    #[inline]
    #[must_use]
    pub fn planes(&self) -> usize {
        self.n_planes
    }

    /// Fused bind-and-accumulate of one pair: the one-pair case of
    /// [`bind_accumulate_all`](Self::bind_accumulate_all), equivalent to
    /// `acc.add(&value.xor(key)?)?` on the scalar reference.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if either operand's
    /// dimensionality differs from the bundler's; the bundler is then
    /// unchanged.
    pub fn bind_accumulate(
        &mut self,
        value: &BitVector,
        key: &BitVector,
    ) -> Result<(), DimensionMismatchError> {
        self.bind_accumulate_all([(value, key)])
    }

    /// Fused bind-and-accumulate of a whole list of `(value, key)`
    /// pairs: XORs each value with its key word by word and adds the
    /// bound vectors' bits to the per-dimension counters, without
    /// materializing a bound hypervector. Equivalent to
    /// `acc.add(&value.xor(key)?)?` per pair on the scalar reference.
    ///
    /// The pairs are taken eight at a time. Per word, a carry-save
    /// tree adds a block's bound words into a 4-bit sum, and one
    /// fixed-depth add puts that sum into every live plane: the same
    /// operations whatever the bits are, with no branch on the data.
    /// A single pair pays a whole block per word, so pass a list.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] at the first pair whose value
    /// or key dimensionality differs from the bundler's. The pairs
    /// before it have then been added; it and the rest have not.
    pub fn bind_accumulate_all<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a BitVector, &'a BitVector)>,
    ) -> Result<(), DimensionMismatchError> {
        let mut pairs = pairs.into_iter();
        let mut block: [(&[u64], &[u64]); BLOCK] = [(&[], &[]); BLOCK];
        loop {
            let mut n = 0;
            let mut mismatch = None;
            for (value, key) in pairs.by_ref().take(BLOCK) {
                if let Some(right) = [value.dim(), key.dim()]
                    .into_iter()
                    .find(|&d| d != self.dim)
                {
                    mismatch = Some(DimensionMismatchError {
                        left: self.dim,
                        right,
                    });
                    break;
                }
                block[n] = (value.as_words(), key.as_words());
                n += 1;
            }
            if n > 0 {
                self.add_block(&block[..n]);
            }
            if let Some(e) = mismatch {
                return Err(e);
            }
            if n < BLOCK {
                return Ok(());
            }
        }
    }

    /// Adds a block of at most [`BLOCK`] bound pairs to the counters.
    fn add_block(&mut self, pairs: &[(&[u64], &[u64])]) {
        // A pair of one slice with itself binds to zero: padding a
        // short block with it adds nothing, so every block runs the
        // same eight-input tree.
        let words = self.words;
        let pad = (pairs[0].0, pairs[0].0);
        let block: [(&[u64], &[u64]); BLOCK] = std::array::from_fn(|i| {
            let (value, key) = pairs.get(i).copied().unwrap_or(pad);
            (&value[..words], &key[..words])
        });
        self.count += pairs.len();
        // Planes to hold the new count: ⌈log₂(count + 1)⌉.
        self.n_planes = (usize::BITS - self.count.leading_zeros()) as usize;
        if self.planes.len() < self.n_planes * words {
            self.planes.resize(self.n_planes * words, 0);
        }
        let live = &mut self.planes[..self.n_planes * words];
        for w in 0..words {
            let x: [u64; BLOCK] = std::array::from_fn(|i| block[i].0[w] ^ block[i].1[w]);
            let sum = carry_save_sum(x);
            // Ripple-carry add of the 4-bit sum, through every plane.
            let mut carry = 0;
            for (p, plane) in live.chunks_exact_mut(words).enumerate() {
                let s = sum.get(p).copied().unwrap_or(0);
                let t = plane[w];
                plane[w] = t ^ s ^ carry;
                carry = (t & s) | (carry & (t ^ s));
            }
            debug_assert_eq!(carry, 0, "carry overflow: planes under-reserved");
        }
    }

    /// The ones count of one dimension (test/diagnostic read-out; the
    /// hot path never materializes per-bit counts).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[must_use]
    pub fn ones_count(&self, index: usize) -> usize {
        assert!(index < self.dim, "index {index} out of range {}", self.dim);
        let w = index / WORD_BITS;
        let b = index % WORD_BITS;
        (0..self.n_planes)
            .map(|p| (((self.planes[p * self.words + w] >> b) & 1) as usize) << p)
            .sum()
    }

    /// Valid-bit mask of the final word.
    fn tail_mask(&self) -> u64 {
        let rem = self.dim % WORD_BITS;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Thresholds to the majority hypervector: bit `1` where more than
    /// half the accumulated vectors had a `1`, bit `0` where fewer,
    /// and exact ties (possible only for even counts) broken by the
    /// supplied RNG — bit-identical to the scalar
    /// [`Accumulator::threshold`](crate::Accumulator::threshold) over
    /// the same inputs, consuming the identical RNG draws in the
    /// identical (ascending-dimension) order.
    ///
    /// The comparison runs word-parallel: per plane, from the most
    /// significant down, `gt`/`eq` masks track which of the 64 lanes
    /// already exceed or still equal the majority cutoff `count / 2`.
    #[must_use]
    pub fn threshold(&self, rng: &mut HdcRng) -> BitVector {
        let cutoff = self.count / 2;
        // Odd counts cannot tie: 2·ones == count has no solution.
        let tie_possible = self.count.is_multiple_of(2);
        let mut out = vec![0u64; self.words];
        for (w, slot) in out.iter_mut().enumerate() {
            let mut gt = 0u64;
            let mut eq = u64::MAX;
            for p in (0..self.n_planes).rev() {
                let pw = self.planes[p * self.words + w];
                if (cutoff >> p) & 1 == 1 {
                    eq &= pw;
                } else {
                    gt |= eq & pw;
                    eq &= !pw;
                }
            }
            let valid = if w + 1 == self.words {
                self.tail_mask()
            } else {
                u64::MAX
            };
            let mut word = gt & valid;
            if tie_possible {
                // Ascending bit order within the word keeps the global
                // RNG consumption order identical to the scalar loop.
                let mut ties = eq & valid;
                while ties != 0 {
                    let b = ties.trailing_zeros();
                    if rng.random_bool(0.5) {
                        word |= 1u64 << b;
                    }
                    ties &= ties - 1;
                }
            }
            *slot = word;
        }
        BitVector::from_words(self.dim, out)
    }

    /// Thresholds with deterministic tie-breaking (ties become `0`),
    /// mirroring
    /// [`Accumulator::threshold_deterministic`](crate::Accumulator::threshold_deterministic).
    #[must_use]
    pub fn threshold_deterministic(&self) -> BitVector {
        let cutoff = self.count / 2;
        let mut out = vec![0u64; self.words];
        for (w, slot) in out.iter_mut().enumerate() {
            let mut gt = 0u64;
            let mut eq = u64::MAX;
            for p in (0..self.n_planes).rev() {
                let pw = self.planes[p * self.words + w];
                if (cutoff >> p) & 1 == 1 {
                    eq &= pw;
                } else {
                    gt |= eq & pw;
                    eq &= !pw;
                }
            }
            *slot = gt;
        }
        BitVector::from_words(self.dim, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Accumulator, HdcRng, SeedableRng};

    fn reference_bundle(
        pairs: &[(BitVector, BitVector)],
        dim: usize,
        rng: &mut HdcRng,
    ) -> BitVector {
        let mut acc = Accumulator::new(dim);
        for (v, k) in pairs {
            acc.add(&v.xor(k).unwrap()).unwrap();
        }
        acc.threshold(rng)
    }

    fn random_pairs(dim: usize, n: usize, seed: u64) -> Vec<(BitVector, BitVector)> {
        let mut rng = HdcRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (
                    BitVector::random(dim, &mut rng),
                    BitVector::random(dim, &mut rng),
                )
            })
            .collect()
    }

    #[test]
    fn matches_reference_across_dims_and_counts() {
        for &dim in &[1usize, 63, 64, 65, 300, 1024] {
            for &n in &[1usize, 2, 3, 8, 17, 64] {
                let pairs = random_pairs(dim, n, dim as u64 * 1000 + n as u64);
                let mut b = BitSlicedBundler::new(dim);
                for (v, k) in &pairs {
                    b.bind_accumulate(v, k).unwrap();
                }
                let mut r1 = HdcRng::seed_from_u64(42);
                let mut r2 = HdcRng::seed_from_u64(42);
                assert_eq!(
                    b.threshold(&mut r1),
                    reference_bundle(&pairs, dim, &mut r2),
                    "dim {dim}, n {n}"
                );
                // Identical residual RNG state: the kernel consumed
                // exactly the draws the scalar path did.
                assert_eq!(
                    r1.next_u64(),
                    r2.next_u64(),
                    "RNG consumption diverged at dim {dim}, n {n}"
                );
            }
        }
    }

    #[test]
    fn forced_ties_draw_rng_in_dimension_order() {
        // v and !v in pairs: every dimension ties at count/2.
        let dim = 130; // non-multiple of 64 → padding in the last word
        let mut rng = HdcRng::seed_from_u64(9);
        let v = BitVector::random(dim, &mut rng);
        let nv = v.negated();
        let key = BitVector::zeros(dim);

        let mut b = BitSlicedBundler::new(dim);
        let mut acc = Accumulator::new(dim);
        for _ in 0..3 {
            b.bind_accumulate(&v, &key).unwrap();
            b.bind_accumulate(&nv, &key).unwrap();
            acc.add(&v).unwrap();
            acc.add(&nv).unwrap();
        }
        assert_eq!((0..dim).map(|i| b.ones_count(i)).sum::<usize>(), 3 * dim);

        let mut r1 = HdcRng::seed_from_u64(5);
        let mut r2 = HdcRng::seed_from_u64(5);
        let got = b.threshold(&mut r1);
        let want = acc.threshold(&mut r2);
        assert_eq!(got, want);
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn empty_bundle_ties_every_dimension() {
        let dim = 70;
        let b = BitSlicedBundler::new(dim);
        let acc = Accumulator::new(dim);
        let mut r1 = HdcRng::seed_from_u64(3);
        let mut r2 = HdcRng::seed_from_u64(3);
        assert_eq!(b.threshold(&mut r1), acc.threshold(&mut r2));
        // Padding bits must not have consumed randomness.
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn reset_reuses_storage_and_clears_state() {
        let mut b = BitSlicedBundler::new(256);
        let pairs = random_pairs(256, 9, 1);
        for (v, k) in &pairs {
            b.bind_accumulate(v, k).unwrap();
        }
        assert_eq!(b.count(), 9);
        assert!(b.planes() >= 4);
        b.reset(256);
        assert_eq!(b.count(), 0);
        assert_eq!(b.planes(), 0);
        // Second run over different data still matches the reference.
        let pairs = random_pairs(256, 5, 2);
        for (v, k) in &pairs {
            b.bind_accumulate(v, k).unwrap();
        }
        let mut r1 = HdcRng::seed_from_u64(8);
        let mut r2 = HdcRng::seed_from_u64(8);
        assert_eq!(b.threshold(&mut r1), reference_bundle(&pairs, 256, &mut r2));
        // Retarget at a new dimensionality.
        b.reset(100);
        assert_eq!(b.dim(), 100);
        let pairs = random_pairs(100, 4, 3);
        for (v, k) in &pairs {
            b.bind_accumulate(v, k).unwrap();
        }
        let mut r1 = HdcRng::seed_from_u64(9);
        let mut r2 = HdcRng::seed_from_u64(9);
        assert_eq!(b.threshold(&mut r1), reference_bundle(&pairs, 100, &mut r2));
    }

    #[test]
    fn deterministic_threshold_matches_reference() {
        let dim = 190;
        let pairs = random_pairs(dim, 6, 11);
        let mut b = BitSlicedBundler::new(dim);
        let mut acc = Accumulator::new(dim);
        for (v, k) in &pairs {
            b.bind_accumulate(v, k).unwrap();
            acc.add(&v.xor(k).unwrap()).unwrap();
        }
        assert_eq!(b.threshold_deterministic(), acc.threshold_deterministic());
    }

    #[test]
    fn ones_counts_are_exact() {
        let dim = 96;
        let pairs = random_pairs(dim, 21, 6);
        let mut b = BitSlicedBundler::new(dim);
        let mut naive = vec![0usize; dim];
        for (v, k) in &pairs {
            b.bind_accumulate(v, k).unwrap();
            let bound = v.xor(k).unwrap();
            for (i, n) in naive.iter_mut().enumerate() {
                *n += usize::from(bound.get(i));
            }
        }
        for (i, &n) in naive.iter().enumerate() {
            assert_eq!(b.ones_count(i), n, "dimension {i}");
        }
    }

    #[test]
    fn dimension_mismatch_detected() {
        let mut b = BitSlicedBundler::new(64);
        let v64 = BitVector::zeros(64);
        let v65 = BitVector::zeros(65);
        assert!(b.bind_accumulate(&v65, &v64).is_err());
        assert!(b.bind_accumulate(&v64, &v65).is_err());
        assert!(b.bind_accumulate(&v64, &v64).is_ok());
    }
}
