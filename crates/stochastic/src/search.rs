//! Noisy binary-search routines: square root and division (§4.2).
//!
//! Both follow the paper's scheme: maintain `V_low`/`V_high`
//! hypervectors, take the midpoint with a 0.5/0.5 weighted average,
//! test it with stochastic multiplication, and narrow until the test
//! agrees with the target "up to statistical margins of error". The
//! square root reads its interval only through counts, so it runs the
//! same scheme on the counts themselves (`DESIGN.md` §17).

use hdface_hdc::{DimensionMismatchError, HdcRng};

use crate::binomial::binomial;
use crate::context::{Shv, StochasticContext};
use crate::error::StochasticError;

impl StochasticContext {
    /// **Square root** of a non-negative stochastic value:
    /// `V_a ↦ V_√a`.
    ///
    /// Runs [`StochasticContext::DEFAULT_SEARCH_ITERS`] bisection
    /// steps; each step compares the decode of the squared midpoint
    /// (squared with resampling, see the crate-level independence
    /// notes) to the target.
    ///
    /// # Errors
    ///
    /// * [`StochasticError::NegativeSqrt`] if the operand decodes
    ///   below the statistical margin of zero.
    /// * [`StochasticError::DimensionMismatch`] for foreign vectors.
    ///
    /// ```
    /// use hdface_stochastic::StochasticContext;
    /// # fn main() -> Result<(), hdface_stochastic::StochasticError> {
    /// let mut ctx = StochasticContext::new(16_384, 5);
    /// let a = ctx.encode(0.25)?;
    /// let r = ctx.sqrt(&a)?;
    /// assert!((ctx.decode(&r)? - 0.5).abs() < 0.08);
    /// # Ok(())
    /// # }
    /// ```
    pub fn sqrt(&mut self, a: &Shv) -> Result<Shv, StochasticError> {
        self.sqrt_with_iters(a, Self::DEFAULT_SEARCH_ITERS)
    }

    /// [`sqrt`](Self::sqrt) with an explicit bisection-iteration
    /// budget (exposed for the accuracy-vs-iterations ablation).
    ///
    /// # Errors
    ///
    /// Same as [`sqrt`](Self::sqrt).
    pub fn sqrt_with_iters(&mut self, a: &Shv, iters: usize) -> Result<Shv, StochasticError> {
        self.on_own_rng(|ctx, rng| ctx.sqrt_with_iters_rng(a, iters, rng))
    }

    /// [`sqrt_with_iters`](Self::sqrt_with_iters) drawing all masks
    /// from a caller-supplied RNG (`&self` variant for parallel
    /// workers sharing one read-only context).
    ///
    /// # Errors
    ///
    /// Same as [`sqrt`](Self::sqrt).
    pub fn sqrt_with_iters_rng(
        &self,
        a: &Shv,
        iters: usize,
        rng: &mut HdcRng,
    ) -> Result<Shv, StochasticError> {
        let target = self.decode(a)?;
        // An operand that is a true zero can decode a few sigmas
        // negative when it carries compounded noise from upstream
        // stochastic stages, so the rejection threshold is three
        // margins (6σ); genuinely negative values sit tens of sigmas
        // below zero at practical dimensionalities. Slightly negative
        // targets converge to V₀ through the ordinary bisection.
        if target < -3.0 * self.margin() {
            return Err(StochasticError::NegativeSqrt(target));
        }
        let mut out = Shv::zeros(self.dim());
        self.sqrt_with_iters_into(target, iters, rng, &mut out)?;
        Ok(out)
    }

    /// The square root of the decoded value `target`, written into
    /// `out`: [`sqrt_distance_with`](Self::sqrt_distance_with)'s root,
    /// materialized as `V₁ ⊕ W` with `W` drawn uniformly among the
    /// patterns of the root's weight. That is the law of the vector
    /// bisection's root (DESIGN.md §17): every step of it treats all
    /// positions alike and reads only counts, so given its distance
    /// from `V₁` its disagreements fall on a uniform set of positions,
    /// independent of every other vector. Every square root runs
    /// here; [`sqrt_with_iters_rng`](Self::sqrt_with_iters_rng)
    /// decodes its operand and makes exactly these draws.
    ///
    /// Any target is rooted: one below zero roots near `V₀`.
    ///
    /// # Errors
    ///
    /// [`StochasticError::DimensionMismatch`] for a mis-sized `out`.
    pub fn sqrt_with_iters_into(
        &self,
        target: f64,
        iters: usize,
        rng: &mut HdcRng,
        out: &mut Shv,
    ) -> Result<(), StochasticError> {
        if out.dim() != self.dim() {
            return Err(DimensionMismatchError {
                left: out.dim(),
                right: self.dim(),
            }
            .into());
        }
        let h = self.sqrt_distance_with(target, iters, rng);
        let out = out.as_bits_mut();
        out.fill_with_weight(h, rng)
            .expect("a distance from V₁ never exceeds D");
        Ok(out.xor_assign(self.basis().as_bits())?)
    }

    /// The Hamming distance from `V₁` of the square root of `target`:
    /// the noisy bisection of §4.2, run on counts.
    ///
    /// The bisection keeps `low`, `high` and their midpoints only to
    /// decode them, so it tracks two counts instead. `diff` counts the
    /// positions where `low` and `high` differ; there `low` disagrees
    /// with `V₁` and `high` agrees, and a ½ selection between them
    /// never flips that orientation. `dis` counts the positions where
    /// both disagree; everywhere else both agree. A midpoint takes
    /// `high`'s bit at `k ~ Bin(diff, ½)` of the `diff` positions, so
    /// it sits at distance `dis + diff − k`, and its squared probe is
    /// drawn from the square's decode law at that distance. After
    /// `iters` probes, one more midpoint is the root.
    ///
    /// It starts from `low = encode(0)` (each bit disagrees with `V₁`
    /// with probability ½) and `high = V₁`, whose first midpoint
    /// disagrees with probability ¼ at every position. Every draw
    /// comes from `rng`, and the root is infallible: a target below
    /// zero roots near `V₀`.
    #[must_use]
    pub fn sqrt_distance_with(&self, target: f64, iters: usize, rng: &mut HdcRng) -> usize {
        let dim = self.dim();
        let mut h = binomial(dim, 0.25, rng);
        if iters == 0 {
            return h;
        }
        let (mut diff, mut dis) = if self.decode_square_at(h, rng) > target {
            // The midpoint becomes `high`. `low` differs from it where
            // `low` disagrees and the midpoint took V₁'s bit: ⅓ of the
            // positions where the midpoint agrees.
            (binomial(dim - h, 1.0 / 3.0, rng), h)
        } else {
            (h, 0)
        };
        for _ in 1..iters {
            let k = self.fair_law(diff).draw(rng);
            h = dis + diff - k;
            // Direction from the raw decoded comparison: an early
            // "approximately equal" exit is tempting but fragile near
            // zero, where the interval must keep shrinking for the
            // absolute error to fall below the noise floor.
            if self.decode_square_at(h, rng) > target {
                (dis, diff) = (h, k);
            } else {
                diff -= k;
            }
        }
        dis + diff - self.fair_law(diff).draw(rng)
    }

    /// **Division** `V_a, V_b ↦ V_{a/b}` via binary search on the
    /// quotient: find `c` such that `c·|b|` matches `|a|`, then apply
    /// the sign `sign(a)·sign(b)`.
    ///
    /// # Errors
    ///
    /// * [`StochasticError::DivisorTooSmall`] when `|b|` decodes below
    ///   the statistical margin (the quotient would be pure noise).
    /// * [`StochasticError::QuotientOutOfRange`] when `|a| > |b|`
    ///   beyond the margin, since results must lie in `[-1, 1]`.
    /// * [`StochasticError::DimensionMismatch`] for foreign vectors.
    ///
    /// ```
    /// use hdface_stochastic::StochasticContext;
    /// # fn main() -> Result<(), hdface_stochastic::StochasticError> {
    /// let mut ctx = StochasticContext::new(16_384, 6);
    /// let a = ctx.encode(0.3)?;
    /// let b = ctx.encode(-0.6)?;
    /// let q = ctx.div(&a, &b)?;
    /// assert!((ctx.decode(&q)? - (-0.5)).abs() < 0.08);
    /// # Ok(())
    /// # }
    /// ```
    pub fn div(&mut self, a: &Shv, b: &Shv) -> Result<Shv, StochasticError> {
        self.div_with_iters(a, b, Self::DEFAULT_SEARCH_ITERS)
    }

    /// [`div`](Self::div) with an explicit bisection-iteration budget.
    ///
    /// # Errors
    ///
    /// Same as [`div`](Self::div).
    pub fn div_with_iters(
        &mut self,
        a: &Shv,
        b: &Shv,
        iters: usize,
    ) -> Result<Shv, StochasticError> {
        let da = self.decode(a)?;
        let db = self.decode(b)?;
        if db.abs() <= self.margin() {
            return Err(StochasticError::DivisorTooSmall(db));
        }
        if da.abs() > db.abs() + self.margin() {
            return Err(StochasticError::QuotientOutOfRange {
                numerator: da,
                denominator: db,
            });
        }
        let negative = (da < 0.0) != (db < 0.0);
        let abs_a = self.abs(a)?;
        let abs_b = self.abs(b)?;

        let mut low = self.encode(0.0)?;
        let mut high = self.basis().clone();
        let mut mid = self.weighted_average(&low, &high, 0.5)?;
        for _ in 0..iters {
            // prod = mid · |b|, with an independent instance of |b|.
            let b_inst = self.resample(&abs_b)?;
            let prod = self.mul(&mid, &b_inst)?;
            if self.decode(&prod)? > self.decode(&abs_a)? {
                high = mid;
            } else {
                low = mid;
            }
            mid = self.weighted_average(&low, &high, 0.5)?;
        }
        Ok(if negative { mid.negated() } else { mid })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_same_distribution;
    use hdface_hdc::{BitVector, SeedableRng};

    /// The vector bisection the count process replaces: `low`, `high`
    /// and every midpoint built as hypervectors, each probe a draw of
    /// the squared midpoint's decode.
    fn vector_root(ctx: &StochasticContext, target: f64, iters: usize, rng: &mut HdcRng) -> Shv {
        let mut low = ctx.encode_with(0.0, rng).unwrap();
        let mut high = ctx.basis().clone();
        let mut mid = ctx.weighted_average_with(&low, &high, 0.5, rng).unwrap();
        for _ in 0..iters {
            let h = mid.as_bits().hamming(ctx.basis().as_bits()).unwrap();
            if ctx.decode_square_at(h, rng) > target {
                high = mid;
            } else {
                low = mid;
            }
            mid = ctx.weighted_average_with(&low, &high, 0.5, rng).unwrap();
        }
        mid
    }

    /// Draws per side. A root's distance is heavy-tailed (kurtosis
    /// ~5 just below zero), so at 40k draws the sample variances of two
    /// equal laws differ by 1.5% (one standard error); 100k puts the
    /// 3% bound past three.
    const ROOT_DRAWS: usize = 100_000;

    #[test]
    fn count_root_follows_the_vector_bisection() {
        for dim in [512, 4096, 8193] {
            let ctx = StochasticContext::new(dim, 60);
            let basis = ctx.basis().as_bits();
            for target in [0.0, -ctx.sigma(), 0.02, 0.26, 0.9, 1.0] {
                for iters in [1, 6, 10] {
                    let mut rng = HdcRng::seed_from_u64(61);
                    let got: Vec<usize> = (0..ROOT_DRAWS)
                        .map(|_| ctx.sqrt_distance_with(target, iters, &mut rng))
                        .collect();
                    let want: Vec<usize> = (0..ROOT_DRAWS)
                        .map(|_| {
                            let root = vector_root(&ctx, target, iters, &mut rng);
                            root.as_bits().hamming(basis).unwrap()
                        })
                        .collect();
                    let case = format!("D={dim} √{target} in {iters} steps");
                    assert_same_distribution(&case, &got, &want);
                }
            }
        }
    }

    #[test]
    fn materialized_root_follows_the_vector_bisection() {
        // The distance to a vector independent of V₁ sees where the
        // root's disagreements fall, not only how many there are.
        for dim in [512, 4096] {
            let ctx = StochasticContext::new(dim, 62);
            let fixed = BitVector::random(dim, &mut HdcRng::seed_from_u64(63));
            for target in [0.02, 0.26, 0.9] {
                let mut rng = HdcRng::seed_from_u64(64);
                let mut out = Shv::zeros(dim);
                let got: Vec<usize> = (0..ROOT_DRAWS)
                    .map(|_| {
                        ctx.sqrt_with_iters_into(target, 6, &mut rng, &mut out)
                            .unwrap();
                        out.as_bits().hamming(&fixed).unwrap()
                    })
                    .collect();
                let want: Vec<usize> = (0..ROOT_DRAWS)
                    .map(|_| {
                        let root = vector_root(&ctx, target, 6, &mut rng);
                        root.as_bits().hamming(&fixed).unwrap()
                    })
                    .collect();
                let case = format!("D={dim} √{target} against a fixed vector");
                assert_same_distribution(&case, &got, &want);
            }
        }
    }

    #[test]
    fn count_root_of_a_negative_target_is_near_zero() {
        // A halved sum of squares can draw below zero; its root is then
        // the noise floor's, never an error.
        let ctx = StochasticContext::new(D, 65);
        let mut rng = HdcRng::seed_from_u64(66);
        for target in [-0.5, -0.0986] {
            let h =
                ctx.sqrt_distance_with(target, StochasticContext::DEFAULT_SEARCH_ITERS, &mut rng);
            let root = ctx.value_at_distance(h);
            assert!(root.abs() < 2.0 * TOL, "√{target} rooted at {root}");
        }
        let mut out = Shv::zeros(D);
        ctx.sqrt_with_iters_into(-0.5, 6, &mut rng, &mut out)
            .unwrap();
        assert!(ctx.decode(&out).unwrap().abs() < 2.0 * TOL);
        let mut foreign = Shv::zeros(D - 1);
        assert!(matches!(
            ctx.sqrt_with_iters_into(0.5, 6, &mut rng, &mut foreign),
            Err(StochasticError::DimensionMismatch(_))
        ));
    }

    const D: usize = 32_768;
    // Binary search stacks decode noise over iterations; allow a
    // looser tolerance than single ops.
    const TOL: f64 = 0.08;

    #[test]
    fn sqrt_of_grid_values() {
        let mut ctx = StochasticContext::new(D, 20);
        for &x in &[0.0, 0.04, 0.25, 0.5, 0.81, 1.0] {
            let a = ctx.encode(x).unwrap();
            let r = ctx.sqrt(&a).unwrap();
            let d = ctx.decode(&r).unwrap();
            // Near zero the bisection cannot see below the decode noise
            // of the squared midpoint (σ = 1/√D): it stops shrinking
            // where mid² ≈ 1/√D, i.e. mid ≈ D^(-1/4) ≈ 0.074 at
            // D = 32768, so sqrt(0) sits that far from its root by
            // construction and TOL = 0.08 leaves no room for the
            // result's own noise. Zero gets the 2·TOL bound that
            // `sqrt_tolerates_noise_level_negative` uses.
            let tol = if x == 0.0 { 2.0 * TOL } else { TOL };
            assert!((d - x.sqrt()).abs() < tol, "sqrt({x}) got {d}");
        }
    }

    #[test]
    fn sqrt_rejects_clearly_negative() {
        let mut ctx = StochasticContext::new(D, 21);
        let a = ctx.encode(-0.5).unwrap();
        assert!(matches!(
            ctx.sqrt(&a),
            Err(StochasticError::NegativeSqrt(_))
        ));
    }

    #[test]
    fn sqrt_tolerates_noise_level_negative() {
        // A true zero decodes slightly negative half the time; sqrt
        // must not error on that.
        let mut ctx = StochasticContext::new(D, 22);
        let zero = ctx.encode(0.0).unwrap();
        let r = ctx.sqrt(&zero).unwrap();
        assert!(ctx.decode(&r).unwrap().abs() < 2.0 * TOL);
    }

    #[test]
    fn sqrt_accuracy_improves_with_iterations() {
        let mut ctx = StochasticContext::new(D, 23);
        let a = ctx.encode(0.49).unwrap();
        let crude = ctx.sqrt_with_iters(&a, 1).unwrap();
        // One iteration can only land on 0.25 or 0.75-ish midpoints.
        let _ = crude;
        let fine = ctx.sqrt_with_iters(&a, 12).unwrap();
        let d = ctx.decode(&fine).unwrap();
        assert!((d - 0.7).abs() < TOL, "got {d}");
    }

    #[test]
    fn div_quadrant_signs() {
        let mut ctx = StochasticContext::new(D, 24);
        for &(x, y) in &[(0.3f64, 0.6f64), (-0.3, 0.6), (0.3, -0.6), (-0.3, -0.6)] {
            let a = ctx.encode(x).unwrap();
            let b = ctx.encode(y).unwrap();
            let q = ctx.div(&a, &b).unwrap();
            let d = ctx.decode(&q).unwrap();
            assert!((d - x / y).abs() < TOL, "{x}/{y} got {d}");
        }
    }

    #[test]
    fn div_by_noise_floor_errors() {
        let mut ctx = StochasticContext::new(D, 25);
        let a = ctx.encode(0.1).unwrap();
        let z = ctx.encode(0.0).unwrap();
        assert!(matches!(
            ctx.div(&a, &z),
            Err(StochasticError::DivisorTooSmall(_))
        ));
    }

    #[test]
    fn div_out_of_range_errors() {
        let mut ctx = StochasticContext::new(D, 26);
        let a = ctx.encode(0.9).unwrap();
        let b = ctx.encode(0.2).unwrap();
        assert!(matches!(
            ctx.div(&a, &b),
            Err(StochasticError::QuotientOutOfRange { .. })
        ));
    }

    #[test]
    fn div_of_equal_values_is_one() {
        let mut ctx = StochasticContext::new(D, 27);
        let a = ctx.encode(0.5).unwrap();
        let a2 = ctx.resample(&a).unwrap();
        let q = ctx.div(&a, &a2).unwrap();
        assert!((ctx.decode(&q).unwrap() - 1.0).abs() < 1.5 * TOL);
    }
}
