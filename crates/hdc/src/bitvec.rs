//! Bit-packed hypervector storage and elementary operations.

use std::fmt;

use crate::error::{DimensionMismatchError, HdcError};
use crate::simd::SimdBackend;
use crate::HdcRng;

const WORD_BITS: usize = 64;

/// A `D`-dimensional binary hypervector, bit-packed into `u64` words.
///
/// Under the **bipolar view** used by the HDFace stochastic arithmetic,
/// a stored bit `1` denotes the component `+1` and a stored bit `0`
/// denotes `-1`. With that convention
///
/// * `negated` (bitwise NOT) is elementwise negation,
/// * the bipolar dot product is `D - 2 * hamming`,
/// * XNOR (`a.xor(b).negated()`) is the elementwise bipolar product;
///   plain `xor` is its negation and serves as the classic
///   self-inverse HDC binding operator.
///
/// Unused bits of the final storage word are kept at zero as an
/// internal invariant so that popcounts never over-count.
///
/// ```
/// use hdface_hdc::BitVector;
///
/// let v = BitVector::from_bools(&[true, false, true, true]);
/// assert_eq!(v.dim(), 4);
/// assert_eq!(v.count_ones(), 3);
/// assert_eq!(v.negated().count_ones(), 1);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct BitVector {
    dim: usize,
    words: Vec<u64>,
}

impl Clone for BitVector {
    fn clone(&self) -> Self {
        BitVector {
            dim: self.dim,
            words: self.words.clone(),
        }
    }

    /// Copies `source` into this vector's existing storage, so
    /// refreshing a same-dimension buffer never allocates.
    fn clone_from(&mut self, source: &Self) {
        self.dim = source.dim;
        self.words.clone_from(&source.words);
    }
}

impl BitVector {
    /// Number of `u64` words needed for `dim` bits.
    #[inline]
    fn words_for(dim: usize) -> usize {
        dim.div_ceil(WORD_BITS)
    }

    /// Mask selecting the valid bits of the last storage word.
    #[inline]
    fn tail_mask(dim: usize) -> u64 {
        let rem = dim % WORD_BITS;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Clears the invalid (past-`dim`) bits of the final word,
    /// restoring the storage invariant after whole-word operations.
    #[inline]
    fn clear_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= Self::tail_mask(self.dim);
        }
    }

    /// Creates the all-zeros (all `-1` bipolar) hypervector.
    ///
    /// ```
    /// let v = hdface_hdc::BitVector::zeros(100);
    /// assert_eq!(v.count_ones(), 0);
    /// ```
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        BitVector {
            dim,
            words: vec![0; Self::words_for(dim)],
        }
    }

    /// Creates the all-ones (all `+1` bipolar) hypervector.
    ///
    /// ```
    /// let v = hdface_hdc::BitVector::ones(100);
    /// assert_eq!(v.count_ones(), 100);
    /// ```
    #[must_use]
    pub fn ones(dim: usize) -> Self {
        let mut v = BitVector {
            dim,
            words: vec![u64::MAX; Self::words_for(dim)],
        };
        v.clear_tail();
        v
    }

    /// Draws a uniformly random hypervector (each bit i.i.d. fair).
    ///
    /// ```
    /// use hdface_hdc::{BitVector, HdcRng, SeedableRng};
    /// let mut rng = HdcRng::seed_from_u64(1);
    /// let v = BitVector::random(4096, &mut rng);
    /// let density = v.count_ones() as f64 / 4096.0;
    /// assert!((density - 0.5).abs() < 0.05);
    /// ```
    #[must_use]
    pub fn random(dim: usize, rng: &mut HdcRng) -> Self {
        let mut v = BitVector {
            dim,
            words: (0..Self::words_for(dim)).map(|_| rng.next_u64()).collect(),
        };
        v.clear_tail();
        v
    }

    /// Number of dyadic refinement rounds used by
    /// [`random_with_density`](Self::random_with_density): the
    /// probability is realized to `2⁻¹⁶` resolution, far below the
    /// `1/√D` decode noise at any practical dimensionality.
    const DENSITY_PRECISION_BITS: u32 = 16;

    /// `p` on the fixed-point grid of the mask generator: the digits
    /// `q = round(p·2¹⁶)`, where `q = 2¹⁶` is a full mask.
    fn density_digits(p: f64) -> u32 {
        (p * f64::from(1u32 << Self::DENSITY_PRECISION_BITS)).round() as u32
    }

    /// The probability with which a mask drawn at `p` by
    /// [`fill_with_density`](Self::fill_with_density) sets each bit:
    /// `q/2¹⁶` with `q = round(p·2¹⁶)`, so 0 and 1 are included. A
    /// caller that samples a mask's consequences instead of drawing it
    /// uses this, never `p` itself. A `p` outside `[0, 1]`, which
    /// `fill_with_density` rejects, is clamped into it (NaN to 0).
    pub fn realized_density(p: f64) -> f64 {
        let scale = 1u32 << Self::DENSITY_PRECISION_BITS;
        f64::from(Self::density_digits(p).min(scale)) / f64::from(scale)
    }

    /// Draws a random hypervector whose bits are `1` independently with
    /// probability `p` (bipolar `+1` with probability `p`).
    ///
    /// The generator is word-parallel: `p` is rounded to 16 binary
    /// digits `0.b₁b₂…b₁₆` and realized with one random word per
    /// digit through the recurrence `acc ← bᵢ ? (acc | r) : (acc & r)`
    /// (LSB first), which sets each output bit with exactly the
    /// rounded probability. Trailing zero digits are skipped, so the
    /// ubiquitous p = 0.5 mask costs one random word per 64
    /// dimensions.
    ///
    /// The mask words are the hot spot of the HD-HOG cell pass, so
    /// they do not come from `rng` one by one. Unless `p` rounds to 0
    /// or 1 (which draw nothing), exactly one `u64` is drawn from
    /// `rng`; splitmix64 on it seeds eight interleaved xoshiro256++
    /// lanes, and word `j` of every digit pass comes from lane
    /// `j mod 8`. The AVX-512 backend steps all eight lanes in one
    /// register, AVX2 in two, and the scalar backend runs one lane
    /// pair after another. All produce the same words, so masks
    /// depend only on `rng`, never on the
    /// [`active_backend`](crate::active_backend).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidProbability`] if `p` is not within
    /// `[0, 1]` (NaN included).
    pub fn random_with_density(dim: usize, p: f64, rng: &mut HdcRng) -> Result<Self, HdcError> {
        Self::random_with_density_on(crate::simd::active_backend(), dim, p, rng)
    }

    /// [`random_with_density`](Self::random_with_density) on an
    /// explicit mask-stream backend. Every backend yields the same
    /// vector and leaves `rng` in the same state; a backend this
    /// machine cannot run falls back to scalar.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidProbability`] if `p` is not within
    /// `[0, 1]` (NaN included).
    pub fn random_with_density_on(
        backend: SimdBackend,
        dim: usize,
        p: f64,
        rng: &mut HdcRng,
    ) -> Result<Self, HdcError> {
        let mut v = BitVector::zeros(dim);
        v.fill_with_density_on(backend, p, rng)?;
        Ok(v)
    }

    /// Refills this vector in place with the mask
    /// [`random_with_density`](Self::random_with_density) would return
    /// for the same dimensionality, making exactly the same draws from
    /// `rng`. Whatever the vector held before is overwritten; its
    /// storage is reused, so a caller-owned mask buffer never
    /// allocates.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidProbability`] if `p` is not within
    /// `[0, 1]` (NaN included); the vector and `rng` are then
    /// untouched.
    pub fn fill_with_density(&mut self, p: f64, rng: &mut HdcRng) -> Result<(), HdcError> {
        self.fill_with_density_on(crate::simd::active_backend(), p, rng)
    }

    /// [`fill_with_density`](Self::fill_with_density) on an explicit
    /// mask-stream backend.
    fn fill_with_density_on(
        &mut self,
        backend: SimdBackend,
        p: f64,
        rng: &mut HdcRng,
    ) -> Result<(), HdcError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(HdcError::InvalidProbability(p));
        }
        let scale = 1u32 << Self::DENSITY_PRECISION_BITS;
        let q = Self::density_digits(p);
        if q >= scale {
            self.words.fill(u64::MAX);
            self.clear_tail();
            return Ok(());
        }
        self.words.fill(0);
        if q > 0 {
            let seed = rng.next_u64();
            crate::simd::density_mask_into_with(
                backend,
                seed,
                q,
                Self::DENSITY_PRECISION_BITS,
                &mut self.words,
            );
            self.clear_tail();
        }
        Ok(())
    }

    /// Refills this vector with exactly `weight` set bits, every one of
    /// the `C(D, weight)` patterns equally likely.
    ///
    /// A mask is drawn at density `weight/D` (as
    /// [`fill_with_density`](Self::fill_with_density) draws it), then
    /// uniformly chosen set bits are cleared, or clear bits set, until
    /// exactly `weight` remain. The mask's law is invariant under
    /// permuting positions and each correction picks uniformly among
    /// the bits it may flip, so the result's law is invariant too;
    /// supported on one weight, it is uniform over that weight's
    /// patterns. A correction redraws positions until it hits a bit of
    /// the kind it flips, so weights within a few `√D` of 0 or `D` cost
    /// up to `O(D)` draws.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::WeightOutOfRange`] if `weight > D`; the
    /// vector and `rng` are then untouched.
    pub fn fill_with_weight(&mut self, weight: usize, rng: &mut HdcRng) -> Result<(), HdcError> {
        if weight > self.dim {
            return Err(HdcError::WeightOutOfRange {
                weight,
                dim: self.dim,
            });
        }
        if self.dim == 0 {
            return Ok(());
        }
        self.fill_with_density(weight as f64 / self.dim as f64, rng)?;
        let mut ones = self.count_ones();
        while ones != weight {
            let i = uniform_below(self.dim, rng);
            if self.get(i) == (ones > weight) {
                if self.flip(i) {
                    ones += 1;
                } else {
                    ones -= 1;
                }
            }
        }
        Ok(())
    }

    /// Builds a hypervector from a slice of booleans (`true` ↦ bit 1).
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVector::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a hypervector of dimension `dim` from pre-packed words.
    ///
    /// Extra bits beyond `dim` in the final word are cleared; missing
    /// words are zero-filled.
    #[must_use]
    pub fn from_words(dim: usize, mut words: Vec<u64>) -> Self {
        words.resize(Self::words_for(dim), 0);
        let mut v = BitVector { dim, words };
        v.clear_tail();
        v
    }

    /// Dimensionality `D` of the hypervector.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` if the vector has zero dimensions.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// Read-only view of the packed storage words.
    #[inline]
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.dim,
            "bit index {index} out of range {}",
            self.dim
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.dim,
            "bit index {index} out of range {}",
            self.dim
        );
        let w = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flips the bit at `index`, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[inline]
    pub fn flip(&mut self, index: usize) -> bool {
        let nv = !self.get(index);
        self.set(index, nv);
        nv
    }

    /// Reads the bit at `index` as a bipolar component (`+1` / `-1`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[inline]
    #[must_use]
    pub fn bipolar(&self, index: usize) -> i8 {
        if self.get(index) {
            1
        } else {
            -1
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of cleared bits.
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.dim - self.count_ones()
    }

    /// Elementwise XOR — the classic self-inverse HDC **binding**
    /// operator. Under the bipolar view this equals the *negated*
    /// elementwise product; the product itself is
    /// `a.xor(b).negated()` (XNOR).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ.
    pub fn xor(&self, other: &Self) -> Result<Self, DimensionMismatchError> {
        let mut out = BitVector::zeros(self.dim);
        self.xor_into(other, &mut out)?;
        Ok(out)
    }

    /// [`xor`](Self::xor) written into a caller-owned vector of the
    /// same dimensionality, reusing its storage.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if any dimensionality
    /// differs.
    pub fn xor_into(&self, other: &Self, out: &mut Self) -> Result<(), DimensionMismatchError> {
        self.check_dim(other)?;
        self.check_dim(out)?;
        for ((o, a), b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a ^ b;
        }
        Ok(())
    }

    /// In-place XOR: `self ← self ⊕ other`. Both tails are zero, so
    /// the result's is too.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ.
    pub fn xor_assign(&mut self, other: &Self) -> Result<(), DimensionMismatchError> {
        self.check_dim(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        Ok(())
    }

    /// Elementwise AND.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ.
    pub fn and(&self, other: &Self) -> Result<Self, DimensionMismatchError> {
        self.check_dim(other)?;
        Ok(BitVector {
            dim: self.dim,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        })
    }

    /// Elementwise OR.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ.
    pub fn or(&self, other: &Self) -> Result<Self, DimensionMismatchError> {
        self.check_dim(other)?;
        Ok(BitVector {
            dim: self.dim,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        })
    }

    /// Bitwise NOT — bipolar **negation** (`V ↦ -V`).
    ///
    /// ```
    /// use hdface_hdc::BitVector;
    /// let v = BitVector::from_bools(&[true, false, true]);
    /// assert_eq!(v.negated().to_bools(), vec![false, true, false]);
    /// ```
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut v = self.clone();
        v.negate();
        v
    }

    /// In-place bitwise NOT ([`negated`](Self::negated) without the
    /// copy); the padding bits past `dim` stay zero.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Componentwise selection: takes this vector's bit where `mask`
    /// has a `1`, and `other`'s bit where `mask` has a `0`.
    ///
    /// This is the hardware primitive behind the stochastic weighted
    /// average `p·V_a ⊕ q·V_b` of the paper (§4.2): the mask is drawn
    /// with density `p`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if any dimensionality
    /// differs.
    pub fn select(&self, other: &Self, mask: &Self) -> Result<Self, DimensionMismatchError> {
        let mut out = BitVector::zeros(self.dim);
        self.select_into(other, mask, &mut out)?;
        Ok(out)
    }

    /// [`select`](Self::select) written into a caller-owned vector of
    /// the same dimensionality, reusing its storage. Every operand
    /// tail is zero, so the result's is too.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if any dimensionality
    /// differs.
    pub fn select_into(
        &self,
        other: &Self,
        mask: &Self,
        out: &mut Self,
    ) -> Result<(), DimensionMismatchError> {
        self.check_dim(other)?;
        self.check_dim(mask)?;
        self.check_dim(out)?;
        for (((o, a), b), m) in out
            .words
            .iter_mut()
            .zip(&self.words)
            .zip(&other.words)
            .zip(&mask.words)
        {
            *o = (a & m) | (b & !m);
        }
        Ok(())
    }

    /// Hamming distance: number of positions at which the two vectors
    /// differ.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ.
    pub fn hamming(&self, other: &Self) -> Result<usize, DimensionMismatchError> {
        self.check_dim(other)?;
        // Runtime-dispatched XOR+popcount (AVX2/NEON/scalar); integer
        // popcount sums are order-insensitive, so every backend is
        // bit-identical.
        Ok(crate::simd::hamming_words(&self.words, &other.words) as usize)
    }

    /// Bipolar dot product `Σᵢ aᵢ·bᵢ ∈ [-D, D]`, computed as
    /// `D - 2·hamming`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ.
    pub fn dot(&self, other: &Self) -> Result<i64, DimensionMismatchError> {
        let h = self.hamming(other)? as i64;
        Ok(self.dim as i64 - 2 * h)
    }

    /// The paper's similarity `δ(V₁, V₂) = (V₁·V₂)/D ∈ [-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ; zero-dimensional vectors yield `0.0`.
    pub fn similarity(&self, other: &Self) -> Result<f64, DimensionMismatchError> {
        if self.dim == 0 {
            self.check_dim(other)?;
            return Ok(0.0);
        }
        Ok(self.dot(other)? as f64 / self.dim as f64)
    }

    /// Normalized Hamming similarity: fraction of agreeing positions,
    /// in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensionalities
    /// differ.
    pub fn hamming_similarity(&self, other: &Self) -> Result<f64, DimensionMismatchError> {
        if self.dim == 0 {
            self.check_dim(other)?;
            return Ok(1.0);
        }
        Ok(1.0 - self.hamming(other)? as f64 / self.dim as f64)
    }

    /// The permutation ρ: cyclic rotation of all components by `k`
    /// positions towards higher indices (bit `i` moves to
    /// `(i + k) mod D`).
    ///
    /// Permutation preserves pairwise distances and decorrelates a
    /// vector from its unrotated self, which HDC uses to encode
    /// position.
    ///
    /// ```
    /// use hdface_hdc::BitVector;
    /// let v = BitVector::from_bools(&[true, false, false, false]);
    /// assert_eq!(v.rotated(1).to_bools(), vec![false, true, false, false]);
    /// assert_eq!(v.rotated(4), v); // full cycle
    /// ```
    #[must_use]
    pub fn rotated(&self, k: usize) -> Self {
        if self.dim == 0 {
            return self.clone();
        }
        let k = k % self.dim;
        if k == 0 {
            return self.clone();
        }
        let mut out = BitVector::zeros(self.dim);
        // Word-level rotate within the dim-bit ring.
        for i in 0..self.dim {
            if self.get(i) {
                out.set((i + k) % self.dim, true);
            }
        }
        out
    }

    /// Inverse permutation ρ⁻¹ (rotation towards lower indices).
    #[must_use]
    pub fn rotated_back(&self, k: usize) -> Self {
        if self.dim == 0 {
            return self.clone();
        }
        let k = k % self.dim;
        self.rotated(self.dim - k)
    }

    /// Expands to one `bool` per dimension.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.dim).map(|i| self.get(i)).collect()
    }

    /// Iterator over the bits, low index first.
    pub fn bits(&self) -> Bits<'_> {
        Bits { vec: self, idx: 0 }
    }

    /// FNV-1a content checksum over the dimensionality and the packed
    /// words — the integrity fingerprint behind the `HDI1` model
    /// trailer and the serving-layer scrubber. A single flipped bit
    /// anywhere in the vector changes the checksum, and the walk is
    /// word-level, so fingerprinting a resident class vector costs
    /// `D/64` multiplies.
    ///
    /// ```
    /// use hdface_hdc::BitVector;
    /// let a = BitVector::zeros(256);
    /// let mut b = a.clone();
    /// b.flip(17);
    /// assert_ne!(a.checksum(), b.checksum());
    /// assert_eq!(a.checksum(), BitVector::zeros(256).checksum());
    /// ```
    #[must_use]
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for byte in (self.dim as u64).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        // One FNV round per word (rather than per byte): same
        // avalanche for 8× less work, and the checksum only ever
        // meets other checksums produced by this routine.
        for &w in &self.words {
            h = (h ^ w).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Flips each bit independently with probability `p` — the random
    /// bit-error channel used throughout the robustness experiments.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidProbability`] if `p ∉ [0, 1]`.
    pub fn with_bit_errors(&self, p: f64, rng: &mut HdcRng) -> Result<Self, HdcError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(HdcError::InvalidProbability(p));
        }
        let noise = BitVector::random_with_density(self.dim, p, rng)?;
        Ok(self.xor(&noise).expect("dims equal by construction"))
    }

    #[inline]
    fn check_dim(&self, other: &Self) -> Result<(), DimensionMismatchError> {
        if self.dim != other.dim {
            Err(DimensionMismatchError {
                left: self.dim,
                right: other.dim,
            })
        } else {
            Ok(())
        }
    }
}

/// Iterator over the bits of a [`BitVector`], produced by
/// [`BitVector::bits`].
#[derive(Debug, Clone)]
pub struct Bits<'a> {
    vec: &'a BitVector,
    idx: usize,
}

impl Iterator for Bits<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.idx >= self.vec.dim {
            None
        } else {
            let b = self.vec.get(self.idx);
            self.idx += 1;
            Some(b)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.dim - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Bits<'_> {}

impl fmt::Debug for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show at most 64 leading bits to keep debug output usable.
        let shown: String = self
            .bits()
            .take(64)
            .map(|b| if b { '1' } else { '0' })
            .collect();
        let ellipsis = if self.dim > 64 { "…" } else { "" };
        write!(f, "BitVector(D={}, {shown}{ellipsis})", self.dim)
    }
}

impl fmt::Binary for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bits() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVector::from_bools(&bits)
    }
}

/// A uniform draw from `0..n` (`n > 0`): Lemire's multiply-shift,
/// rejecting the `2⁶⁴ mod n` low products that would favour some
/// results, so every index is exactly equally likely.
fn uniform_below(n: usize, rng: &mut HdcRng) -> usize {
    let n = n as u64;
    let threshold = n.wrapping_neg() % n;
    loop {
        let product = u128::from(rng.next_u64()) * u128::from(n);
        if product as u64 >= threshold {
            return (product >> 64) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    #[test]
    fn zeros_and_ones_counts() {
        for d in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            assert_eq!(BitVector::zeros(d).count_ones(), 0, "d={d}");
            assert_eq!(BitVector::ones(d).count_ones(), d, "d={d}");
        }
    }

    #[test]
    fn tail_invariant_after_not() {
        // NOT of zeros must not set the padding bits past dim.
        let v = BitVector::zeros(65).negated();
        assert_eq!(v.count_ones(), 65);
        assert_eq!(v.as_words().len(), 2);
        assert_eq!(v.as_words()[1], 1); // only bit 64 valid
    }

    #[test]
    fn get_set_flip_roundtrip() {
        let mut v = BitVector::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 3);
        assert!(!v.flip(0));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVector::zeros(10);
        let _ = v.get(10);
    }

    #[test]
    fn xor_truth_table_and_xnor_is_product() {
        let a = BitVector::from_bools(&[true, true, false, false]);
        let b = BitVector::from_bools(&[true, false, true, false]);
        let x = a.xor(&b).unwrap();
        assert_eq!(x.to_bools(), vec![false, true, true, false]);
        // XNOR = bipolar elementwise product: (+1,+1)→+1, (+1,−1)→−1…
        let prod = x.negated();
        for i in 0..4 {
            assert_eq!(
                i32::from(prod.bipolar(i)),
                i32::from(a.bipolar(i)) * i32::from(b.bipolar(i))
            );
        }
    }

    #[test]
    fn xor_binding_is_self_inverse_and_distance_preserving() {
        let mut rng = HdcRng::seed_from_u64(11);
        let a = BitVector::random(4096, &mut rng);
        let b = BitVector::random(4096, &mut rng);
        let k = BitVector::random(4096, &mut rng);
        assert_eq!(a.xor(&k).unwrap().xor(&k).unwrap(), a);
        let h = a.hamming(&b).unwrap();
        assert_eq!(a.xor(&k).unwrap().hamming(&b.xor(&k).unwrap()).unwrap(), h);
    }

    #[test]
    fn xor_dim_mismatch_errors() {
        let a = BitVector::zeros(10);
        let b = BitVector::zeros(11);
        let err = a.xor(&b).unwrap_err();
        assert_eq!(
            err,
            DimensionMismatchError {
                left: 10,
                right: 11
            }
        );
    }

    #[test]
    fn select_takes_self_under_mask() {
        let a = BitVector::from_bools(&[true, true, true, true]);
        let b = BitVector::from_bools(&[false, false, false, false]);
        let m = BitVector::from_bools(&[true, false, true, false]);
        let s = a.select(&b, &m).unwrap();
        assert_eq!(s.to_bools(), vec![true, false, true, false]);
    }

    #[test]
    fn in_place_forms_match_the_allocating_ones() {
        let mut rng = HdcRng::seed_from_u64(12);
        for dim in [1usize, 64, 65, 200] {
            let a = BitVector::random(dim, &mut rng);
            let b = BitVector::random(dim, &mut rng);
            let m = BitVector::random(dim, &mut rng);
            // Outputs start dirty: nothing of their old bits survives.
            let mut out = BitVector::ones(dim);
            a.select_into(&b, &m, &mut out).unwrap();
            assert_eq!(out, a.select(&b, &m).unwrap());
            a.xor_into(&b, &mut out).unwrap();
            assert_eq!(out, a.xor(&b).unwrap());
            out.xor_assign(&b).unwrap();
            assert_eq!(out, a);
            out.negate();
            assert_eq!(out, a.negated());
            assert_eq!(out.count_ones() + a.count_ones(), dim, "tail stays clear");
            let mut copy = BitVector::zeros(0);
            copy.clone_from(&a);
            assert_eq!(copy, a);
        }
        let short = BitVector::zeros(3);
        let mut out = BitVector::zeros(4);
        assert!(short.xor_into(&short, &mut out).is_err());
        assert!(short.select_into(&short, &short, &mut out).is_err());
        assert!(out.xor_assign(&short).is_err());
    }

    #[test]
    fn hamming_and_dot() {
        let a = BitVector::from_bools(&[true, true, false, false]);
        let b = BitVector::from_bools(&[true, false, true, false]);
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert_eq!(a.dot(&b).unwrap(), 0);
        assert_eq!(a.dot(&a).unwrap(), 4);
        assert_eq!(a.dot(&a.negated()).unwrap(), -4);
    }

    #[test]
    fn similarity_extremes() {
        let mut rng = HdcRng::seed_from_u64(3);
        let a = BitVector::random(2048, &mut rng);
        assert_eq!(a.similarity(&a).unwrap(), 1.0);
        assert_eq!(a.similarity(&a.negated()).unwrap(), -1.0);
        assert_eq!(a.hamming_similarity(&a).unwrap(), 1.0);
        assert_eq!(a.hamming_similarity(&a.negated()).unwrap(), 0.0);
    }

    #[test]
    fn random_vectors_nearly_orthogonal() {
        let mut rng = HdcRng::seed_from_u64(4);
        let a = BitVector::random(16_384, &mut rng);
        let b = BitVector::random(16_384, &mut rng);
        assert!(a.similarity(&b).unwrap().abs() < 0.05);
    }

    #[test]
    fn density_parameter_respected() {
        let mut rng = HdcRng::seed_from_u64(5);
        let v = BitVector::random_with_density(20_000, 0.3, &mut rng).unwrap();
        let density = v.count_ones() as f64 / 20_000.0;
        assert!((density - 0.3).abs() < 0.02, "density {density}");
    }

    #[test]
    fn realized_density_is_the_mask_generators_grid() {
        let step = 1.0 / 65_536.0;
        assert_eq!(BitVector::realized_density(0.3), 19_661.0 * step);
        assert_eq!(BitVector::realized_density(0.5), 0.5);
        // Within half a step of an end, the mask is empty or full and
        // the realized density is exactly 0 or 1.
        for (p, want) in [(0.4 * step, 0.0), (1.0 - 0.4 * step, 1.0)] {
            assert_eq!(BitVector::realized_density(p), want);
            let mut rng = HdcRng::seed_from_u64(6);
            let v = BitVector::random_with_density(1000, p, &mut rng).unwrap();
            assert_eq!(v.count_ones() as f64, 1000.0 * want, "p = {p}");
        }
        // A grid point is its own realized density, so drawing at it
        // draws what drawing at any `p` that rounds to it draws.
        let q = BitVector::realized_density(0.3);
        assert_eq!(BitVector::realized_density(q), q);
        for (p, want) in [(-0.1, 0.0), (1.5, 1.0), (f64::NAN, 0.0)] {
            assert_eq!(BitVector::realized_density(p), want, "p = {p}");
        }
    }

    #[test]
    fn fixed_weight_fill_is_exact_and_uniform() {
        let mut rng = HdcRng::seed_from_u64(7);
        for dim in [1usize, 64, 1000, 4097] {
            let mut v = BitVector::ones(dim);
            for weight in [0, 1, dim / 2, dim - 1, dim] {
                v.fill_with_weight(weight, &mut rng).unwrap();
                assert_eq!(v.count_ones(), weight, "D = {dim}");
                v.clear_tail();
                assert_eq!(v.count_ones(), weight, "D = {dim}: tail bits set");
            }
            assert!(matches!(
                v.fill_with_weight(dim + 1, &mut rng),
                Err(HdcError::WeightOutOfRange { .. })
            ));
        }
        // Each position is set in `weight/D` of the fills. Across fills
        // the counts have covariance `N·p(1−p)·D/(D−1)·(I − 11ᵀ/D)`, so
        // the scaled statistic is χ² on D − 1 degrees of freedom; its
        // upper 10⁻⁴ quantile is below 52 at D − 1 = 19.
        let (dim, fills) = (20usize, 100_000usize);
        for weight in [3usize, 7, 10, 13] {
            let mut hits = vec![0usize; dim];
            let mut v = BitVector::zeros(dim);
            for _ in 0..fills {
                v.fill_with_weight(weight, &mut rng).unwrap();
                for (i, hit) in hits.iter_mut().enumerate() {
                    *hit += usize::from(v.get(i));
                }
            }
            let p = weight as f64 / dim as f64;
            let scale = fills as f64 * p * (1.0 - p) * dim as f64 / (dim - 1) as f64;
            let stat: f64 = hits
                .iter()
                .map(|&h| (h as f64 - fills as f64 * p).powi(2) / scale)
                .sum();
            assert!(stat < 52.0, "weight {weight}: χ² = {stat:.1} on 19 df");
        }
    }

    #[test]
    fn uniform_index_draws_are_unbiased() {
        // 2⁶⁴ mod 3 = 1 product is rejected; a bare `% 3` would favour
        // 0 by 2⁻⁶⁴, far below what a test sees, so check the range and
        // the frequencies instead.
        let mut rng = HdcRng::seed_from_u64(8);
        let mut hits = [0usize; 3];
        for _ in 0..30_000 {
            hits[uniform_below(3, &mut rng)] += 1;
        }
        for h in hits {
            assert!((h as f64 - 10_000.0).abs() < 400.0, "{hits:?}");
        }
        assert!((0..1000).all(|_| uniform_below(1, &mut rng) == 0));
    }

    #[test]
    fn density_rejects_bad_probability() {
        let mut rng = HdcRng::seed_from_u64(5);
        assert!(matches!(
            BitVector::random_with_density(8, 1.5, &mut rng),
            Err(HdcError::InvalidProbability(_))
        ));
        assert!(matches!(
            BitVector::random_with_density(8, f64::NAN, &mut rng),
            Err(HdcError::InvalidProbability(_))
        ));
    }

    #[test]
    fn rotation_is_cyclic_and_invertible() {
        let mut rng = HdcRng::seed_from_u64(6);
        let v = BitVector::random(257, &mut rng);
        assert_eq!(v.rotated(257), v);
        assert_eq!(v.rotated(300).rotated_back(300), v);
        assert_eq!(v.rotated(0), v);
        // A rotated random vector decorrelates from the original.
        let big = BitVector::random(8192, &mut rng);
        assert!(big.similarity(&big.rotated(1)).unwrap().abs() < 0.06);
    }

    #[test]
    fn rotation_preserves_distance() {
        let mut rng = HdcRng::seed_from_u64(7);
        let a = BitVector::random(500, &mut rng);
        let b = BitVector::random(500, &mut rng);
        let h = a.hamming(&b).unwrap();
        assert_eq!(a.rotated(13).hamming(&b.rotated(13)).unwrap(), h);
    }

    #[test]
    fn with_bit_errors_flips_at_the_requested_rate() {
        let mut rng = HdcRng::seed_from_u64(8);
        let v = BitVector::random(50_000, &mut rng);
        let noisy = v.with_bit_errors(0.1, &mut rng).unwrap();
        let flipped = v.hamming(&noisy).unwrap() as f64 / 50_000.0;
        assert!((flipped - 0.1).abs() < 0.01, "flip rate {flipped}");
        // p = 0 is the identity.
        assert_eq!(v.with_bit_errors(0.0, &mut rng).unwrap(), v);
    }

    #[test]
    fn bits_iterator_matches_get() {
        let mut rng = HdcRng::seed_from_u64(9);
        let v = BitVector::random(77, &mut rng);
        let collected: Vec<bool> = v.bits().collect();
        assert_eq!(collected, v.to_bools());
        assert_eq!(v.bits().len(), 77);
    }

    #[test]
    fn from_words_clears_excess() {
        let v = BitVector::from_words(4, vec![u64::MAX]);
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn from_iterator_collects() {
        let v: BitVector = [true, false, true].into_iter().collect();
        assert_eq!(v.dim(), 3);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn binary_format_renders_bits() {
        let v = BitVector::from_bools(&[true, false, true]);
        assert_eq!(format!("{v:b}"), "101");
    }

    #[test]
    fn debug_truncates_long_vectors() {
        let v = BitVector::zeros(1000);
        let s = format!("{v:?}");
        assert!(s.contains("D=1000") && s.contains('…'));
    }

    #[test]
    fn empty_vector_edge_cases() {
        let a = BitVector::zeros(0);
        let b = BitVector::zeros(0);
        assert_eq!(a.similarity(&b).unwrap(), 0.0);
        assert_eq!(a.hamming(&b).unwrap(), 0);
        assert_eq!(a.rotated(5), a);
        assert!(a.is_empty());
    }

    #[test]
    fn checksum_is_content_and_dimension_sensitive() {
        let mut rng = HdcRng::seed_from_u64(11);
        let v = BitVector::random(4096, &mut rng);
        // Stable across clones, sensitive to every single bit.
        assert_eq!(v.checksum(), v.clone().checksum());
        for idx in [0usize, 63, 64, 4095] {
            let mut flipped = v.clone();
            flipped.flip(idx);
            assert_ne!(v.checksum(), flipped.checksum(), "bit {idx}");
        }
        // Same words, different declared dimensionality → different
        // fingerprint (a truncation must not alias).
        assert_ne!(
            BitVector::zeros(64).checksum(),
            BitVector::zeros(128).checksum()
        );
        // Degenerate vectors still fingerprint.
        let _ = BitVector::zeros(0).checksum();
    }
}
