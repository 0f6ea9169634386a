//! The stochastic arithmetic context: basis vector, encoding, and the
//! elementary operations of HDFace §4.2.

use std::fmt;

use hdface_hdc::{BitVector, HdcRng, SeedableRng};

use crate::binomial::binomial;
use crate::error::StochasticError;

/// A **s**tochastic **h**yper**v**ector: a bipolar hypervector that
/// represents a scalar in `[-1, 1]` relative to a context's basis.
///
/// `Shv` is a thin newtype over [`BitVector`]; it exists so that the
/// type system distinguishes *value-carrying* vectors (which only make
/// sense together with the basis that encoded them) from plain
/// symbolic hypervectors.
#[derive(PartialEq, Eq, Hash)]
pub struct Shv(BitVector);

impl Clone for Shv {
    fn clone(&self) -> Self {
        Shv(self.0.clone())
    }

    /// Reuses this vector's storage (see [`BitVector`]'s `clone_from`).
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl Shv {
    /// Wraps a raw hypervector that is known to encode a value against
    /// some context's basis.
    #[must_use]
    pub fn from_bits(bits: BitVector) -> Self {
        Shv(bits)
    }

    /// Dimensionality of the underlying hypervector.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    /// Read-only view of the underlying hypervector.
    #[inline]
    #[must_use]
    pub fn as_bits(&self) -> &BitVector {
        &self.0
    }

    /// Mutable view of the underlying hypervector, for in-place bit
    /// operations (e.g. injecting bit errors into a caller-owned
    /// buffer).
    #[inline]
    pub fn as_bits_mut(&mut self) -> &mut BitVector {
        &mut self.0
    }

    /// A zero-filled buffer of dimensionality `dim`, ready to be
    /// written by the `_into` operations of [`StochasticContext`].
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        Shv(BitVector::zeros(dim))
    }

    /// Unwraps into the underlying hypervector.
    #[must_use]
    pub fn into_bits(self) -> BitVector {
        self.0
    }

    /// Bipolar negation: `V_a ↦ V_{-a}` (paper: `V_{-a} = -V_a`).
    ///
    /// This is exact — no stochastic noise is added.
    #[must_use]
    pub fn negated(&self) -> Self {
        Shv(self.0.negated())
    }
}

impl fmt::Debug for Shv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shv(D={})", self.dim())
    }
}

impl From<BitVector> for Shv {
    fn from(bits: BitVector) -> Self {
        Shv(bits)
    }
}

impl AsRef<BitVector> for Shv {
    fn as_ref(&self) -> &BitVector {
        &self.0
    }
}

/// Derives a position-pure RNG seed from a base seed and absolute 2-D
/// coordinates.
///
/// The result depends only on `(base, x, y)` — never on iteration
/// order, thread assignment, or how many seeds were derived before —
/// so any worker that reaches position `(x, y)` draws the same
/// stochastic stream. This is the determinism contract behind the
/// level-wide cell cache: a cached cell hypervector is a pure function
/// of the image content and its own coordinates.
///
/// Mixing is a splitmix64 finalizer over an odd-multiplier combination
/// of the coordinates, so adjacent positions land in statistically
/// unrelated streams (no low-bit correlation between `(x, y)` and
/// `(x+1, y)`).
#[must_use]
pub fn derive_coord_seed(base: u64, x: u64, y: u64) -> u64 {
    let mut z = base
        .wrapping_add(x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(y.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `ρ(v)`: the density the mask that encodes `v ∈ [-1, 1]` is drawn
/// at, `(1 + v)/2` on the mask generator's grid. Encoding and the
/// decode laws both take it from here, so they round alike.
fn encode_density(v: f64) -> f64 {
    BitVector::realized_density((1.0 + v) / 2.0)
}

/// Outcome of a statistical comparison between two stochastic values.
///
/// Decoded values carry sampling noise of magnitude `≈ 1/√D`, so a
/// three-way comparison must admit an "indistinguishable" band; the
/// binary-search routines terminate on it (the paper's "up to
/// statistical margins of error").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparison {
    /// Left decodes significantly below right.
    Less,
    /// The two values are within the statistical margin.
    ApproxEqual,
    /// Left decodes significantly above right.
    Greater,
}

/// The arithmetic context of §4: dimensionality `D`, the random basis
/// `V₁` and the RNG that draws selection masks.
///
/// All values produced by one context share its basis; mixing vectors
/// from different contexts is not detected (they are just bits) and
/// yields garbage values, so keep one context per experiment.
///
/// ```
/// use hdface_stochastic::StochasticContext;
/// # fn main() -> Result<(), hdface_stochastic::StochasticError> {
/// let mut ctx = StochasticContext::new(8192, 1);
/// let half = ctx.encode(0.5)?;
/// assert!((ctx.decode(&half)? - 0.5).abs() < 0.06);
/// # Ok(())
/// # }
/// ```
pub struct StochasticContext {
    dim: usize,
    basis: Shv,
    /// `basis` negated (`V₋₁`), kept so encoding never re-derives it.
    neg_basis: Shv,
    rng: HdcRng,
}

impl StochasticContext {
    /// Default number of binary-search iterations for
    /// [`sqrt`](Self::sqrt) / [`div`](Self::div). Ten halvings reach a
    /// `2⁻¹⁰ ≈ 0.001` interval, already below the decode noise at any
    /// practical `D`.
    pub const DEFAULT_SEARCH_ITERS: usize = 10;

    /// The comparison margin in multiples of `1/√D`.
    const MARGIN_SIGMAS: f64 = 2.0;

    /// Creates a context with dimensionality `dim` and a deterministic
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`; use [`StochasticContext::try_new`] to
    /// handle that case as an error.
    #[must_use]
    pub fn new(dim: usize, seed: u64) -> Self {
        Self::try_new(dim, seed).expect("dimensionality must be non-zero")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::EmptyDimension`] if `dim == 0`.
    pub fn try_new(dim: usize, seed: u64) -> Result<Self, StochasticError> {
        if dim == 0 {
            return Err(StochasticError::EmptyDimension);
        }
        let mut rng = HdcRng::seed_from_u64(seed);
        let basis = Shv(BitVector::random(dim, &mut rng));
        Ok(StochasticContext {
            dim,
            neg_basis: basis.negated(),
            basis,
            rng,
        })
    }

    /// Dimensionality `D` of the context.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The basis hypervector `V₁` (representing the number 1).
    #[inline]
    #[must_use]
    pub fn basis(&self) -> &Shv {
        &self.basis
    }

    /// The hypervector representing `-1` (the basis negated).
    #[inline]
    #[must_use]
    pub fn neg_basis(&self) -> &Shv {
        &self.neg_basis
    }

    /// One standard deviation of decode noise for a value near zero:
    /// `1/√D`.
    #[inline]
    #[must_use]
    pub fn sigma(&self) -> f64 {
        1.0 / (self.dim as f64).sqrt()
    }

    /// The statistical margin used by [`compare`](Self::compare), in
    /// absolute decoded-value units.
    #[inline]
    #[must_use]
    pub fn margin(&self) -> f64 {
        Self::MARGIN_SIGMAS * self.sigma()
    }

    /// **Construction** (paper §4.2): encodes `a ∈ [-1, 1]` as
    /// `V_a = ((a+1)/2)·V₁ ⊕ ((1−a)/2)·(−V₁)`.
    ///
    /// Each component is taken from the basis with probability
    /// `(1+a)/2` and from its negation otherwise, so
    /// `E[δ(V_a, V₁)] = a` with standard deviation `√((1−a²)/D)`.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::ValueOutOfRange`] if `a ∉ [-1, 1]`.
    pub fn encode(&mut self, a: f64) -> Result<Shv, StochasticError> {
        self.on_own_rng(|ctx, rng| ctx.encode_with(a, rng))
    }

    /// Runs a shared-state (`_with`) operation on the context's own
    /// mask stream: the `&mut self` entry points are this plus their
    /// `_with` form, so each operation has one implementation.
    pub(crate) fn on_own_rng<T>(&mut self, op: impl FnOnce(&Self, &mut HdcRng) -> T) -> T {
        let mut rng = std::mem::replace(&mut self.rng, HdcRng::seed_from_u64(0));
        let result = op(self, &mut rng);
        self.rng = rng;
        result
    }

    /// [`encode`](Self::encode) drawing its selection mask from a
    /// caller-supplied RNG instead of the context stream. Shared-state
    /// (`&self`) variant for parallel workers that hold per-worker
    /// scratch RNGs over one read-only context.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::ValueOutOfRange`] if `a ∉ [-1, 1]`.
    pub fn encode_with(&self, a: f64, rng: &mut HdcRng) -> Result<Shv, StochasticError> {
        let mut mask = BitVector::zeros(self.dim);
        let mut out = Shv::zeros(self.dim);
        self.encode_into(a, rng, &mut mask, &mut out)?;
        Ok(out)
    }

    /// [`encode_with`](Self::encode_with) writing into caller-owned
    /// buffers: the selection mask is drawn into `mask` and the result
    /// lands in `out`, so nothing is allocated. Both must have the
    /// context's dimensionality. Draws exactly what `encode_with`
    /// draws.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::ValueOutOfRange`] if `a ∉ [-1, 1]`
    /// and [`StochasticError::DimensionMismatch`] for mis-sized
    /// buffers.
    pub fn encode_into(
        &self,
        a: f64,
        rng: &mut HdcRng,
        mask: &mut BitVector,
        out: &mut Shv,
    ) -> Result<(), StochasticError> {
        if !(-1.0..=1.0).contains(&a) {
            return Err(StochasticError::ValueOutOfRange(a));
        }
        mask.fill_with_density(encode_density(a), rng)
            .map_err(|_| StochasticError::ValueOutOfRange(a))?;
        let (basis, neg_basis) = (&self.basis.0, &self.neg_basis.0);
        Ok(basis.select_into(neg_basis, mask, &mut out.0)?)
    }

    /// **Decoding**: recovers the scalar as `δ(V, V₁)` — one XOR and
    /// one popcount in hardware.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` does not
    /// match the context dimensionality.
    pub fn decode(&self, v: &Shv) -> Result<f64, StochasticError> {
        Ok(v.0.similarity(&self.basis.0)?)
    }

    /// **Weighted average** (⊕): constructs `p·V_a + (1−p)·V_b` by
    /// componentwise random selection with a fresh mask of density
    /// `p`.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidWeight`] if `p ∉ [0, 1]` and
    /// [`StochasticError::DimensionMismatch`] for ragged operands.
    pub fn weighted_average(&mut self, a: &Shv, b: &Shv, p: f64) -> Result<Shv, StochasticError> {
        self.on_own_rng(|ctx, rng| ctx.weighted_average_with(a, b, p, rng))
    }

    /// [`weighted_average`](Self::weighted_average) drawing its
    /// selection mask from a caller-supplied RNG (`&self` variant).
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidWeight`] if `p ∉ [0, 1]` and
    /// [`StochasticError::DimensionMismatch`] for ragged operands.
    pub fn weighted_average_with(
        &self,
        a: &Shv,
        b: &Shv,
        p: f64,
        rng: &mut HdcRng,
    ) -> Result<Shv, StochasticError> {
        let mut mask = BitVector::zeros(a.dim());
        let mut out = Shv::zeros(a.dim());
        self.weighted_average_into(a, b, p, rng, &mut mask, &mut out)?;
        Ok(out)
    }

    /// [`weighted_average_with`](Self::weighted_average_with) writing
    /// into caller-owned buffers: the mask is drawn into `mask`, the
    /// selection lands in `out`.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidWeight`] if `p ∉ [0, 1]` and
    /// [`StochasticError::DimensionMismatch`] for ragged operands or
    /// buffers.
    pub fn weighted_average_into(
        &self,
        a: &Shv,
        b: &Shv,
        p: f64,
        rng: &mut HdcRng,
        mask: &mut BitVector,
        out: &mut Shv,
    ) -> Result<(), StochasticError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StochasticError::InvalidWeight(p));
        }
        mask.fill_with_density(p, rng)
            .map_err(|_| StochasticError::InvalidWeight(p))?;
        Ok(a.0.select_into(&b.0, mask, &mut out.0)?)
    }

    /// Halved addition `(a+b)/2 = 0.5·V_a ⊕ 0.5·V_b`.
    ///
    /// The paper keeps every intermediate inside `[-1, 1]` by folding
    /// the ½ factor of averages into later rescaling; sums therefore
    /// always appear in halved form.
    ///
    /// # Errors
    ///
    /// Propagates [`StochasticError::DimensionMismatch`].
    pub fn add_halved(&mut self, a: &Shv, b: &Shv) -> Result<Shv, StochasticError> {
        self.weighted_average(a, b, 0.5)
    }

    /// [`add_halved`](Self::add_halved) with a caller-supplied RNG
    /// (`&self` variant).
    ///
    /// # Errors
    ///
    /// Propagates [`StochasticError::DimensionMismatch`].
    pub fn add_halved_with(
        &self,
        a: &Shv,
        b: &Shv,
        rng: &mut HdcRng,
    ) -> Result<Shv, StochasticError> {
        self.weighted_average_with(a, b, 0.5, rng)
    }

    /// Halved subtraction `(a−b)/2 = 0.5·V_a ⊕ 0.5·(−V_b)` — exactly
    /// the gradient construction of §4.3.
    ///
    /// # Errors
    ///
    /// Propagates [`StochasticError::DimensionMismatch`].
    pub fn sub_halved(&mut self, a: &Shv, b: &Shv) -> Result<Shv, StochasticError> {
        self.on_own_rng(|ctx, rng| ctx.sub_halved_with(a, b, rng))
    }

    /// [`sub_halved`](Self::sub_halved) with a caller-supplied RNG
    /// (`&self` variant).
    ///
    /// # Errors
    ///
    /// Propagates [`StochasticError::DimensionMismatch`].
    pub fn sub_halved_with(
        &self,
        a: &Shv,
        b: &Shv,
        rng: &mut HdcRng,
    ) -> Result<Shv, StochasticError> {
        let mut mask = BitVector::zeros(a.dim());
        let mut out = Shv::zeros(a.dim());
        self.sub_halved_into(a, b, rng, &mut mask, &mut out)?;
        Ok(out)
    }

    /// [`sub_halved_with`](Self::sub_halved_with) writing into
    /// caller-owned buffers, without materializing `−b`: the 0.5 mask
    /// selects between `a` and `b`, then the bits taken from `b` (the
    /// mask's zeros) are flipped. `mask` is left holding the negated
    /// draw.
    ///
    /// # Errors
    ///
    /// Propagates [`StochasticError::DimensionMismatch`].
    pub fn sub_halved_into(
        &self,
        a: &Shv,
        b: &Shv,
        rng: &mut HdcRng,
        mask: &mut BitVector,
        out: &mut Shv,
    ) -> Result<(), StochasticError> {
        self.weighted_average_into(a, b, 0.5, rng, mask, out)?;
        mask.negate();
        Ok(out.0.xor_assign(mask)?)
    }

    /// **Multiplication** (⊗): `V_ab[i] = V₁[i]` where the operands
    /// agree and `−V₁[i]` where they differ, i.e. bitwise
    /// `V_a XOR V_b XOR V₁`. Decodes to `a·b`.
    ///
    /// The operands must carry **independent** encoding noise; see the
    /// crate-level *Independence discipline* notes. For squaring use
    /// [`square`](Self::square).
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] for ragged
    /// operands.
    pub fn mul(&self, a: &Shv, b: &Shv) -> Result<Shv, StochasticError> {
        let mut out = Shv::zeros(a.dim());
        self.mul_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`mul`](Self::mul) writing into a caller-owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] for ragged
    /// operands or buffer.
    pub fn mul_into(&self, a: &Shv, b: &Shv, out: &mut Shv) -> Result<(), StochasticError> {
        a.0.xor_into(&b.0, &mut out.0)?;
        Ok(out.0.xor_assign(&self.basis.0)?)
    }

    /// Draws a fresh hypervector encoding the same value as `v` but
    /// with independent noise: a popcount (decode) followed by a fresh
    /// construction.
    ///
    /// The decoded value is clamped to `[-1, 1]` so that decode noise
    /// on extreme values cannot produce an out-of-range error.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` does not
    /// match the context.
    pub fn resample(&mut self, v: &Shv) -> Result<Shv, StochasticError> {
        self.on_own_rng(|ctx, rng| ctx.resample_with(v, rng))
    }

    /// [`resample`](Self::resample) with a caller-supplied RNG
    /// (`&self` variant).
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` does not
    /// match the context.
    pub fn resample_with(&self, v: &Shv, rng: &mut HdcRng) -> Result<Shv, StochasticError> {
        let value = self.decode(v)?.clamp(-1.0, 1.0);
        self.encode_with(value, rng)
    }

    /// Squares a value: `V_a ↦ V_{a²}`, resampling first so that the
    /// two multiplication operands carry independent noise.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` does not
    /// match the context.
    pub fn square(&mut self, v: &Shv) -> Result<Shv, StochasticError> {
        self.on_own_rng(|ctx, rng| ctx.square_with(v, rng))
    }

    /// [`square`](Self::square) with a caller-supplied RNG (`&self`
    /// variant).
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` does not
    /// match the context.
    pub fn square_with(&self, v: &Shv, rng: &mut HdcRng) -> Result<Shv, StochasticError> {
        let mut mask = BitVector::zeros(self.dim);
        let mut out = Shv::zeros(self.dim);
        self.square_into(v, rng, &mut mask, &mut out)?;
        Ok(out)
    }

    /// [`square_with`](Self::square_with) writing into caller-owned
    /// buffers: the independent instance is encoded straight into
    /// `out`, then multiplied by `v` in place.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` or a
    /// buffer does not match the context.
    pub fn square_into(
        &self,
        v: &Shv,
        rng: &mut HdcRng,
        mask: &mut BitVector,
        out: &mut Shv,
    ) -> Result<(), StochasticError> {
        let value = self.decode(v)?.clamp(-1.0, 1.0);
        self.encode_into(value, rng, mask, out)?;
        // V_v ⊗ V_independent = V_v ⊕ V_independent ⊕ V₁.
        out.0.xor_assign(&v.0)?;
        Ok(out.0.xor_assign(&self.basis.0)?)
    }

    /// A draw of `decode(square_with(v))` for a `v` at Hamming
    /// distance `h` from `V₁`, from its exact law, without building the
    /// square.
    ///
    /// With `p` the density [`square_with`](Self::square_with)'s
    /// independent instance is drawn at, the square agrees with `V₁`
    /// where the instance copies `v`: at `Bin(D−h, p) + Bin(h, 1−p)`
    /// positions. Two binomial draws replace a mask of arbitrary
    /// density, so only the noise bits differ from the vector path,
    /// never the law.
    pub(crate) fn decode_square_at(&self, h: usize, rng: &mut HdcRng) -> f64 {
        let p = self.instance_density(h);
        let agree = binomial(self.dim - h, p, rng) + binomial(h, 1.0 - p, rng);
        self.value_at_distance(self.dim - agree)
    }

    /// The decode of a vector at Hamming distance `h` from `V₁`,
    /// bit for bit what [`decode`](Self::decode) returns for it.
    #[must_use]
    pub fn value_at_distance(&self, h: usize) -> f64 {
        (self.dim as i64 - 2 * h as i64) as f64 / self.dim as f64
    }

    /// The density [`square_into`](Self::square_into) draws the
    /// independent instance of a vector at distance `h` from `V₁` at:
    /// the encode density of its decode.
    fn instance_density(&self, h: usize) -> f64 {
        encode_density(self.value_at_distance(h))
    }

    /// Statistical sign of a value: `true` if it decodes non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` does not
    /// match the context.
    pub fn is_non_negative(&self, v: &Shv) -> Result<bool, StochasticError> {
        Ok(self.decode(v)? >= 0.0)
    }

    /// Absolute value: negates the vector when it decodes negative.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] if `v` does not
    /// match the context.
    pub fn abs(&self, v: &Shv) -> Result<Shv, StochasticError> {
        if self.is_non_negative(v)? {
            Ok(v.clone())
        } else {
            Ok(v.negated())
        }
    }

    /// Three-way comparison of two stochastic values with the
    /// context's statistical margin.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::DimensionMismatch`] for ragged
    /// operands.
    pub fn compare(&self, a: &Shv, b: &Shv) -> Result<Comparison, StochasticError> {
        let da = self.decode(a)?;
        let db = self.decode(b)?;
        Ok(self.compare_values(da, db))
    }

    /// Comparison of already-decoded values under the context margin.
    #[must_use]
    pub fn compare_values(&self, a: f64, b: f64) -> Comparison {
        let m = self.margin();
        if a - b > m {
            Comparison::Greater
        } else if b - a > m {
            Comparison::Less
        } else {
            Comparison::ApproxEqual
        }
    }

    /// Exclusive access to the context RNG, for callers that need to
    /// draw auxiliary randomness from the same deterministic stream.
    pub fn rng_mut(&mut self) -> &mut HdcRng {
        &mut self.rng
    }
}

impl fmt::Debug for StochasticContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StochasticContext(D={}, margin={:.4})",
            self.dim,
            self.margin()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_same_law;

    const D: usize = 32_768;
    const TOL: f64 = 0.04;

    #[test]
    fn encode_decode_roundtrip_across_range() {
        let mut ctx = StochasticContext::new(D, 1);
        for &a in &[-1.0, -0.75, -0.5, -0.1, 0.0, 0.3, 0.5, 0.9, 1.0] {
            let v = ctx.encode(a).unwrap();
            let d = ctx.decode(&v).unwrap();
            assert!((d - a).abs() < TOL, "a={a} decoded {d}");
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut ctx = StochasticContext::new(2048, 2);
        let one = ctx.encode(1.0).unwrap();
        let neg = ctx.encode(-1.0).unwrap();
        assert_eq!(ctx.decode(&one).unwrap(), 1.0);
        assert_eq!(ctx.decode(&neg).unwrap(), -1.0);
        assert_eq!(one, *ctx.basis());
        assert_eq!(&neg, ctx.neg_basis());
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let mut ctx = StochasticContext::new(64, 3);
        assert!(matches!(
            ctx.encode(1.5),
            Err(StochasticError::ValueOutOfRange(_))
        ));
        assert!(matches!(
            ctx.encode(f64::NAN),
            Err(StochasticError::ValueOutOfRange(_))
        ));
    }

    #[test]
    fn negation_negates_value() {
        let mut ctx = StochasticContext::new(D, 4);
        let v = ctx.encode(0.4).unwrap();
        let d = ctx.decode(&v.negated()).unwrap();
        assert!((d + 0.4).abs() < TOL);
    }

    #[test]
    fn weighted_average_matches_formula() {
        let mut ctx = StochasticContext::new(D, 5);
        let a = ctx.encode(0.8).unwrap();
        let b = ctx.encode(-0.6).unwrap();
        for &p in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let c = ctx.weighted_average(&a, &b, p).unwrap();
            let expected = p * 0.8 + (1.0 - p) * (-0.6);
            let d = ctx.decode(&c).unwrap();
            assert!((d - expected).abs() < TOL, "p={p} got {d} want {expected}");
        }
    }

    #[test]
    fn sub_halved_computes_half_difference() {
        let mut ctx = StochasticContext::new(D, 6);
        let a = ctx.encode(0.9).unwrap();
        let b = ctx.encode(0.3).unwrap();
        let c = ctx.sub_halved(&a, &b).unwrap();
        assert!((ctx.decode(&c).unwrap() - 0.3).abs() < TOL);
    }

    #[test]
    fn add_halved_computes_half_sum() {
        let mut ctx = StochasticContext::new(D, 7);
        let a = ctx.encode(0.5).unwrap();
        let b = ctx.encode(0.1).unwrap();
        let c = ctx.add_halved(&a, &b).unwrap();
        assert!((ctx.decode(&c).unwrap() - 0.3).abs() < TOL);
    }

    #[test]
    fn multiplication_decodes_to_product() {
        let mut ctx = StochasticContext::new(D, 8);
        for &(x, y) in &[
            (0.5, 0.5),
            (0.9, -0.7),
            (-0.4, -0.6),
            (0.0, 0.8),
            (1.0, 0.3),
        ] {
            let a = ctx.encode(x).unwrap();
            let b = ctx.encode(y).unwrap();
            let p = ctx.mul(&a, &b).unwrap();
            let d = ctx.decode(&p).unwrap();
            assert!((d - x * y).abs() < TOL, "{x}*{y} got {d}");
        }
    }

    #[test]
    fn mul_by_basis_is_identity_value() {
        let mut ctx = StochasticContext::new(D, 9);
        let a = ctx.encode(0.35).unwrap();
        let basis = ctx.basis().clone();
        let p = ctx.mul(&a, &basis).unwrap();
        // V_a ⊗ V₁ = V_a exactly (XOR with V₁ twice cancels).
        assert_eq!(p, a);
    }

    #[test]
    fn naive_self_multiplication_collapses_to_one() {
        // The documented failure mode: V ⊗ V decodes to 1, not a².
        let mut ctx = StochasticContext::new(D, 10);
        let a = ctx.encode(0.3).unwrap();
        let naive = ctx.mul(&a, &a).unwrap();
        assert_eq!(ctx.decode(&naive).unwrap(), 1.0);
    }

    #[test]
    fn square_with_resampling_is_correct() {
        let mut ctx = StochasticContext::new(D, 11);
        for &x in &[-0.9, -0.5, 0.0, 0.4, 0.8] {
            let a = ctx.encode(x).unwrap();
            let sq = ctx.square(&a).unwrap();
            let d = ctx.decode(&sq).unwrap();
            assert!((d - x * x).abs() < TOL, "sq({x}) got {d}");
        }
    }

    #[test]
    fn resample_preserves_value_and_decorrelates() {
        let mut ctx = StochasticContext::new(D, 12);
        let a = ctx.encode(0.5).unwrap();
        let b = ctx.resample(&a).unwrap();
        assert!((ctx.decode(&b).unwrap() - 0.5).abs() < TOL);
        // Agreement between two independent 0.5-encodings should be
        // well below 1 (they differ in many bits).
        assert!(a.as_bits().hamming(b.as_bits()).unwrap() > D / 10);
    }

    #[test]
    fn abs_and_sign() {
        let mut ctx = StochasticContext::new(D, 13);
        let neg = ctx.encode(-0.6).unwrap();
        let pos = ctx.encode(0.6).unwrap();
        assert!(!ctx.is_non_negative(&neg).unwrap());
        assert!(ctx.is_non_negative(&pos).unwrap());
        let a = ctx.abs(&neg).unwrap();
        assert!((ctx.decode(&a).unwrap() - 0.6).abs() < TOL);
    }

    #[test]
    fn comparison_with_margin() {
        let mut ctx = StochasticContext::new(D, 14);
        let lo = ctx.encode(-0.5).unwrap();
        let hi = ctx.encode(0.5).unwrap();
        assert_eq!(ctx.compare(&lo, &hi).unwrap(), Comparison::Less);
        assert_eq!(ctx.compare(&hi, &lo).unwrap(), Comparison::Greater);
        assert_eq!(ctx.compare(&hi, &hi).unwrap(), Comparison::ApproxEqual);
        let hi2 = ctx.resample(&hi).unwrap();
        assert_eq!(ctx.compare(&hi, &hi2).unwrap(), Comparison::ApproxEqual);
    }

    #[test]
    fn margin_is_two_sigmas() {
        let ctx = StochasticContext::new(10_000, 15);
        assert!((ctx.sigma() - 0.01).abs() < 1e-12);
        assert!((ctx.margin() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn try_new_rejects_zero_dim() {
        assert!(matches!(
            StochasticContext::try_new(0, 1),
            Err(StochasticError::EmptyDimension)
        ));
    }

    #[test]
    fn weighted_average_rejects_bad_weight() {
        let mut ctx = StochasticContext::new(64, 16);
        let a = ctx.encode(0.0).unwrap();
        assert!(matches!(
            ctx.weighted_average(&a, &a, 1.2),
            Err(StochasticError::InvalidWeight(_))
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let mut ctx = StochasticContext::new(64, 17);
        let a = ctx.encode(0.0).unwrap();
        let alien = Shv::from_bits(BitVector::zeros(65));
        assert!(matches!(
            ctx.decode(&alien),
            Err(StochasticError::DimensionMismatch(_))
        ));
        assert!(ctx.mul(&a, &alien).is_err());
        assert!(ctx.weighted_average(&a, &alien, 0.5).is_err());
    }

    #[test]
    fn coord_seeds_are_pure_and_distinct() {
        // Purity: the same inputs always give the same seed.
        assert_eq!(derive_coord_seed(7, 3, 9), derive_coord_seed(7, 3, 9));
        // Distinctness: neighbors, transposes, and different bases all
        // land in different streams.
        let s = derive_coord_seed(7, 3, 9);
        assert_ne!(s, derive_coord_seed(7, 4, 9));
        assert_ne!(s, derive_coord_seed(7, 3, 10));
        assert_ne!(s, derive_coord_seed(7, 9, 3));
        assert_ne!(s, derive_coord_seed(8, 3, 9));
        // No collisions over a realistic cell grid.
        let mut seen = std::collections::HashSet::new();
        for y in 0..64u64 {
            for x in 0..64u64 {
                assert!(seen.insert(derive_coord_seed(42, x, y)));
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut c1 = StochasticContext::new(1024, 99);
        let mut c2 = StochasticContext::new(1024, 99);
        assert_eq!(c1.encode(0.33).unwrap(), c2.encode(0.33).unwrap());
    }

    const LAW_DRAWS: usize = 60_000;
    const LAW_DIMS: [usize; 3] = [512, 4096, 8193];

    #[test]
    fn square_decode_follows_the_vector_law() {
        for dim in LAW_DIMS {
            let mut ctx = StochasticContext::new(dim, 40);
            for v in [0.02, 0.5, -0.48, 0.9] {
                let x = ctx.encode(v).unwrap();
                let h = x.as_bits().hamming(ctx.basis().as_bits()).unwrap();
                let mut rng = HdcRng::seed_from_u64(41);
                let got: Vec<f64> = (0..LAW_DRAWS)
                    .map(|_| ctx.decode_square_at(h, &mut rng))
                    .collect();
                let want: Vec<f64> = (0..LAW_DRAWS)
                    .map(|_| {
                        let sq = ctx.square_with(&x, &mut rng).unwrap();
                        ctx.decode(&sq).unwrap()
                    })
                    .collect();
                assert_same_law(&format!("D={dim} ({v})²"), &got, &want);
            }
        }
    }

    #[test]
    fn decode_laws_reach_the_exact_ends() {
        // ±1 squares to exactly 1: the instance is V₁ or V₋₁ and the
        // draws are degenerate.
        let ctx = StochasticContext::new(1000, 44);
        let mut rng = HdcRng::seed_from_u64(45);
        assert_eq!(ctx.decode_square_at(0, &mut rng), 1.0);
        assert_eq!(ctx.decode_square_at(1000, &mut rng), 1.0);
    }

    /// The count root as it drew before its laws were tabulated: every
    /// draw builds its law through the reference sampler.
    mod per_draw {
        use crate::binomial::reference::binomial;
        use crate::StochasticContext;
        use hdface_hdc::HdcRng;

        pub fn decode_square_at(ctx: &StochasticContext, h: usize, rng: &mut HdcRng) -> f64 {
            let p = ctx.instance_density(h);
            let agree = binomial(ctx.dim - h, p, rng) + binomial(h, 1.0 - p, rng);
            ctx.value_at_distance(ctx.dim - agree)
        }

        pub fn sqrt_distance(
            ctx: &StochasticContext,
            target: f64,
            iters: usize,
            rng: &mut HdcRng,
        ) -> usize {
            let dim = ctx.dim();
            let mut h = binomial(dim, 0.25, rng);
            if iters == 0 {
                return h;
            }
            let (mut diff, mut dis) = if decode_square_at(ctx, h, rng) > target {
                (binomial(dim - h, 1.0 / 3.0, rng), h)
            } else {
                (h, 0)
            };
            for _ in 1..iters {
                let k = binomial(diff, 0.5, rng);
                h = dis + diff - k;
                if decode_square_at(ctx, h, rng) > target {
                    (dis, diff) = (h, k);
                } else {
                    diff -= k;
                }
            }
            dis + diff - binomial(diff, 0.5, rng)
        }
    }

    #[test]
    fn tabulated_laws_draw_what_the_per_draw_chain_draws() {
        for dim in [512, 4096, 8193, 1 << 14] {
            let ctx = StochasticContext::new(dim, 70);
            let mut rng = HdcRng::seed_from_u64(71);
            let mut chain = HdcRng::seed_from_u64(71);
            for h in (0..=dim).step_by(7).chain([dim]) {
                let got = ctx.decode_square_at(h, &mut rng);
                let want = per_draw::decode_square_at(&ctx, h, &mut chain);
                assert_eq!(got.to_bits(), want.to_bits(), "D={dim} probe at {h}");
            }
            for target in [-0.5, -ctx.sigma(), 0.0, 0.02, 0.26, 0.5, 0.9, 1.0] {
                for iters in [0, 1, 6, 10] {
                    for draw in 0..300 {
                        assert_eq!(
                            ctx.sqrt_distance_with(target, iters, &mut rng),
                            per_draw::sqrt_distance(&ctx, target, iters, &mut chain),
                            "D={dim} √{target} in {iters} steps, draw {draw}"
                        );
                    }
                }
            }
            assert_eq!(rng.next_u64(), chain.next_u64(), "D={dim}: stream");
        }
    }

    #[test]
    fn shv_conversions() {
        let bits = BitVector::zeros(8);
        let shv = Shv::from_bits(bits.clone());
        assert_eq!(shv.as_bits(), &bits);
        assert_eq!(shv.as_ref(), &bits);
        let back: BitVector = shv.clone().into_bits();
        assert_eq!(back, bits);
        let via_from: Shv = bits.clone().into();
        assert_eq!(via_from, shv);
        assert_eq!(format!("{shv:?}"), "Shv(D=8)");
    }
}
