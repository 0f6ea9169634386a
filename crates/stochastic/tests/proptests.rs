//! Property-based tests for the stochastic arithmetic invariants.
//!
//! These run at moderate dimensionality (D = 8192) with tolerances
//! derived from the analytic noise bound `σ = 1/√D ≈ 0.011`; six
//! sigmas keeps the false-failure probability negligible across the
//! proptest case count.

use hdface_hdc::{cell_sweep, BitVector, HdcRng, MaskLanes, SeedableRng, SweepCodes, PIXEL_COUNTS};
use hdface_stochastic::{expected_sigma, Shv, StochasticContext};
use proptest::prelude::*;

const D: usize = 8192;
const SIGMAS: f64 = 6.0;

fn tol() -> f64 {
    SIGMAS * expected_sigma(D, 0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_decode_within_bound(a in -1.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let v = ctx.encode(a).unwrap();
        let d = ctx.decode(&v).unwrap();
        prop_assert!((d - a).abs() < tol(), "a={a} d={d}");
    }

    #[test]
    fn decode_is_always_in_range(a in -1.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let v = ctx.encode(a).unwrap();
        let d = ctx.decode(&v).unwrap();
        prop_assert!((-1.0..=1.0).contains(&d));
    }

    #[test]
    fn negation_is_exactly_antisymmetric(a in -1.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let v = ctx.encode(a).unwrap();
        let d = ctx.decode(&v).unwrap();
        let dn = ctx.decode(&v.negated()).unwrap();
        // Negation is deterministic bit-complement: exact relation.
        prop_assert!((d + dn).abs() < 1e-12);
    }

    #[test]
    fn average_linearity(
        a in -1.0f64..=1.0,
        b in -1.0f64..=1.0,
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut ctx = StochasticContext::new(D, seed);
        let va = ctx.encode(a).unwrap();
        let vb = ctx.encode(b).unwrap();
        let c = ctx.weighted_average(&va, &vb, p).unwrap();
        let d = ctx.decode(&c).unwrap();
        prop_assert!((d - (p * a + (1.0 - p) * b)).abs() < tol());
    }

    #[test]
    fn multiplication_commutes_in_value(
        a in -1.0f64..=1.0,
        b in -1.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut ctx = StochasticContext::new(D, seed);
        let va = ctx.encode(a).unwrap();
        let vb = ctx.encode(b).unwrap();
        let ab = ctx.mul(&va, &vb).unwrap();
        let ba = ctx.mul(&vb, &va).unwrap();
        // ⊗ is bitwise XOR-based: exactly commutative.
        prop_assert_eq!(ab.clone(), ba);
        let d = ctx.decode(&ab).unwrap();
        prop_assert!((d - a * b).abs() < tol(), "{a}*{b} got {d}");
    }

    #[test]
    fn multiplication_by_basis_is_exact_identity(a in -1.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let va = ctx.encode(a).unwrap();
        let basis = ctx.basis().clone();
        prop_assert_eq!(ctx.mul(&va, &basis).unwrap(), va.clone());
        // And by −V₁ is exact negation.
        prop_assert_eq!(ctx.mul(&va, &basis.negated()).unwrap(), va.negated());
    }

    #[test]
    fn square_matches_value(a in -1.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let va = ctx.encode(a).unwrap();
        let sq = ctx.square(&va).unwrap();
        let d = ctx.decode(&sq).unwrap();
        // Two noisy stages: allow double tolerance.
        prop_assert!((d - a * a).abs() < 2.0 * tol(), "sq({a}) got {d}");
    }

    #[test]
    fn sqrt_squares_back(a in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let va = ctx.encode(a).unwrap();
        let r = ctx.sqrt(&va).unwrap();
        let d = ctx.decode(&r).unwrap();
        // Bisection noise stacks; compare in the squared domain with a
        // generous bound (d² vs a).
        prop_assert!((d * d - a).abs() < 4.0 * tol(), "sqrt({a}) got {d}");
    }

    #[test]
    fn abs_is_non_negative_within_noise(a in -1.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let va = ctx.encode(a).unwrap();
        let ab = ctx.abs(&va).unwrap();
        let d = ctx.decode(&ab).unwrap();
        prop_assert!(d >= -tol());
        prop_assert!((d - a.abs()).abs() < tol());
    }

    #[test]
    fn resample_preserves_value(a in -1.0f64..=1.0, seed in any::<u64>()) {
        let mut ctx = StochasticContext::new(D, seed);
        let va = ctx.encode(a).unwrap();
        let rv = ctx.resample(&va).unwrap();
        let d = ctx.decode(&rv).unwrap();
        prop_assert!((d - a).abs() < 2.0 * tol());
    }

    #[test]
    fn encode_rejects_all_out_of_range(a in prop::num::f64::ANY) {
        prop_assume!(!(-1.0..=1.0).contains(&a));
        let mut ctx = StochasticContext::new(64, 0);
        prop_assert!(ctx.encode(a).is_err());
    }
}

/// One pixel's `count` ½ masks, stepped group by group in the cell
/// sweep's order: every mask's group `g` before any mask's group
/// `g + 1`.
fn pixel_masks(lanes: &mut MaskLanes, dim: usize, count: usize) -> Vec<BitVector> {
    let groups = dim.div_ceil(64).div_ceil(8);
    let mut words = vec![vec![0u64; groups * 8]; count];
    for g in 0..groups {
        for mask in &mut words {
            mask[g * 8..(g + 1) * 8].copy_from_slice(&lanes.next_group());
        }
    }
    words
        .into_iter()
        .map(|w| BitVector::from_words(dim, w))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `cell_sweep` counts what the context's vector ops build under the
    /// same masks — `Gx` and `Gy` as halved differences, the halved sum
    /// of their `abs` values, each `α` through `mul` — and leaves the
    /// lanes where stepping those masks leaves them: on ragged
    /// dimensions, with 0–4 codes of either kind, two to a mask.
    #[test]
    fn cell_sweep_counts_what_the_context_ops_build(
        dim in 1usize..=1100,
        n_pixels in 0usize..=6,
        n_codes in 0usize..=4,
        seed in any::<u64>(),
        stream in any::<u64>(),
    ) {
        let ctx = StochasticContext::new(dim, seed);
        let mut data = HdcRng::seed_from_u64(seed ^ 1);
        let mut random = || Shv::from_bits(BitVector::random(dim, &mut data));
        let pixels: Vec<[Shv; 4]> = (0..n_pixels).map(|_| std::array::from_fn(|_| random())).collect();
        let codes: Vec<(Shv, bool)> = (0..n_codes).map(|k| (random(), k % 3 == 1)).collect();
        let layout: Vec<(&BitVector, bool, usize)> =
            codes.iter().enumerate().map(|(k, (c, cot))| (c.as_bits(), *cot, k / 2)).collect();
        let sweep_codes = SweepCodes::new(dim, &layout).unwrap();
        let refs: Vec<[&BitVector; 4]> = pixels.iter().map(|p| p.each_ref().map(Shv::as_bits)).collect();
        let stride = PIXEL_COUNTS + n_codes;

        let mut lanes = MaskLanes::from_rng(&mut HdcRng::seed_from_u64(stream));
        let mut want_lanes = lanes.clone();
        let mut counts = vec![0; n_pixels * stride];
        cell_sweep(&mut lanes, &refs, ctx.basis().as_bits(), &sweep_codes, &mut counts).unwrap();

        let h = |v: &Shv| v.as_bits().hamming(ctx.basis().as_bits()).unwrap();
        let half = |a: &Shv, b: &Shv, m: &BitVector| {
            Shv::from_bits(a.as_bits().select(b.negated().as_bits(), m).unwrap())
        };
        for ([right, left, down, up], got) in pixels.iter().zip(counts.chunks_exact(stride)) {
            let masks = pixel_masks(&mut want_lanes, dim, 3 + sweep_codes.masks());
            let gx = half(right, left, &masks[0]);
            let gy = half(down, up, &masks[1]);
            prop_assert_eq!(got[0], h(&gx));
            prop_assert_eq!(got[1], h(&gy));
            let (ax, ay) = (ctx.abs(&gx).unwrap(), ctx.abs(&gy).unwrap());
            let sum = Shv::from_bits(ax.as_bits().select(ay.as_bits(), &masks[2]).unwrap());
            let (gx_pos, gy_pos) = (ctx.is_non_negative(&gx).unwrap(), ctx.is_non_negative(&gy).unwrap());
            let picked = if gx_pos == gy_pos { got[2] } else { got[3] };
            prop_assert_eq!(if gx_pos { picked } else { dim - picked }, h(&sum));
            for (k, (code, cot)) in codes.iter().enumerate() {
                let m = &masks[3 + k / 2];
                let alpha = if *cot {
                    half(&ctx.mul(code, &gy).unwrap(), &gx, m)
                } else {
                    half(&gy, &ctx.mul(code, &gx).unwrap(), m)
                };
                prop_assert_eq!(got[PIXEL_COUNTS + k], h(&alpha));
            }
        }
        prop_assert_eq!(lanes, want_lanes);
    }
}
