//! Property-based tests for the stochastic arithmetic invariants.
//!
//! These run at moderate dimensionality (D = 8192) with tolerances
//! derived from the analytic noise bound `σ = 1/√D ≈ 0.011`; six
//! sigmas keeps the false-failure probability negligible across the
//! proptest case count.

use hdface_hdc::{BitVector, HdcRng, SeedableRng, SweepCodes};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gradient_sweep` counts what building both gradients with
    /// `sub_halved_into` and counting them gives, and leaves the mask
    /// stream where those two calls leave it — on ragged dimensions,
    /// with 0–4 boundary codes against either gradient.
    #[test]
    fn gradient_sweep_counts_and_draws_like_two_sub_halved_calls(
        dim in 1usize..=1100,
        n_codes in 0usize..=4,
        seed in any::<u64>(),
        stream in any::<u64>(),
    ) {
        let ctx = StochasticContext::new(dim, seed);
        let mut data = HdcRng::seed_from_u64(seed ^ 1);
        let ops: Vec<Shv> = (0..4).map(|_| Shv::from_bits(BitVector::random(dim, &mut data))).collect();
        let codes: Vec<(BitVector, bool)> = (0..n_codes)
            .map(|_| (BitVector::random(dim, &mut data), data.random_bool(0.5)))
            .collect();
        let layout: Vec<(&BitVector, bool)> = codes.iter().map(|(c, gy)| (c, *gy)).collect();
        let sweep_codes = SweepCodes::new(dim, &layout).unwrap();

        let mut rng = HdcRng::seed_from_u64(stream);
        let mut code_counts = vec![[0; 2]; n_codes];
        let got = ctx
            .gradient_sweep([&ops[0], &ops[1]], [&ops[2], &ops[3]], &sweep_codes, &mut rng, &mut code_counts)
            .unwrap();

        let mut want_rng = HdcRng::seed_from_u64(stream);
        let (mut mask, mut gx, mut gy) = (BitVector::zeros(dim), Shv::zeros(dim), Shv::zeros(dim));
        ctx.sub_halved_into(&ops[0], &ops[1], &mut want_rng, &mut mask, &mut gx).unwrap();
        ctx.sub_halved_into(&ops[2], &ops[3], &mut want_rng, &mut mask, &mut gy).unwrap();
        let gxy = ctx.mul(&gx, &gy).unwrap();
        let basis = ctx.basis().as_bits();
        let (gx, gy) = (gx.as_bits(), gy.as_bits());
        prop_assert_eq!(got.hx, gx.hamming(basis).unwrap());
        prop_assert_eq!(got.hy, gy.hamming(basis).unwrap());
        prop_assert_eq!(got.hxy, gx.hamming(gy).unwrap());
        for ((code, against_gy), counts) in codes.iter().zip(&code_counts) {
            let g = if *against_gy { gy } else { gx };
            prop_assert_eq!(counts[0], code.hamming(g).unwrap());
            prop_assert_eq!(counts[1], code.hamming(gxy.as_bits()).unwrap());
        }
        prop_assert_eq!(rng.next_u64(), want_rng.next_u64());

        // A mis-sized operand is refused before anything is drawn.
        let short = Shv::zeros(dim + 1);
        let mut untouched = HdcRng::seed_from_u64(stream);
        prop_assert!(ctx
            .gradient_sweep([&short, &ops[1]], [&ops[2], &ops[3]], &sweep_codes, &mut untouched, &mut code_counts)
            .is_err());
        prop_assert_eq!(untouched.next_u64(), HdcRng::seed_from_u64(stream).next_u64());
    }
}
