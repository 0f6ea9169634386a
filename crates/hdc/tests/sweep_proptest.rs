//! Differential tests for the cell sweep: on every backend, called
//! explicitly, `cell_sweep_on` must return exactly the counts of the
//! vector pipeline — each ½ mask stepped from a cloned `MaskLanes` in
//! the sweep's order, each vector built with `select_into`, `negate`
//! and `xor`, `|G|` by the sign test, every count by `hamming` — and
//! leave the lanes where the pipeline leaves them.
//!
//! Dimensions straddle the 64-bit word and the 8-word lane group, so
//! every kernel's ragged last group and partial last word are hit;
//! code lists run from none to sixteen, each code a tan or a cot code
//! under one of up to four shared `α` masks, and cells from no pixel
//! to seventy.

use hdface_hdc::{
    active_backend, cell_sweep, cell_sweep_on, BitVector, HdcRng, MaskLanes, SeedableRng,
    SimdBackend, SweepCodes, PIXEL_COUNTS,
};
use proptest::prelude::*;

/// Every backend variant. One this CPU cannot run falls back to scalar
/// (as `every_mask_kernel_matches_scalar` relies on), so every kernel
/// the CPU supports is held to the vector pipeline.
const BACKENDS: [SimdBackend; 4] = [
    SimdBackend::Scalar,
    SimdBackend::Avx2,
    SimdBackend::Avx512,
    SimdBackend::Neon,
];

/// Random dimensions in 1–1100 mixed with the word and lane-group
/// edges and two large ones (8193 bits = 129 words: 16 full groups and
/// one word).
fn arb_dim() -> impl Strategy<Value = usize> {
    (0usize..2, 1usize..=1100, 0usize..6).prop_map(|(kind, random, edge)| {
        if kind == 0 {
            random
        } else {
            [64, 511, 512, 513, 4096, 8193][edge]
        }
    })
}

/// A boundary code: its vector, whether it is a cot code, its `α` mask.
type Code = (BitVector, bool, usize);

/// One pixel's `count` ½ masks, stepped group by group in the sweep's
/// order: every mask's group `g` before any mask's group `g + 1`.
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

/// `m ? x : y`.
fn select(x: &BitVector, y: &BitVector, m: &BitVector) -> BitVector {
    let mut out = BitVector::zeros(x.dim());
    x.select_into(y, m, &mut out).unwrap();
    out
}

/// `¬v`.
fn negated(v: &BitVector) -> BitVector {
    let mut out = v.clone();
    out.negate();
    out
}

/// The stochastic product `x ⊗ y = x ⊕ y ⊕ V₁`.
fn mul(x: &BitVector, y: &BitVector, basis: &BitVector) -> BitVector {
    x.xor(y).unwrap().xor(basis).unwrap()
}

/// `|G|`: `G` negated if it decodes negative (is closer to `V₋₁`).
fn abs(g: &BitVector, basis: &BitVector) -> BitVector {
    if 2 * g.hamming(basis).unwrap() <= g.dim() {
        g.clone()
    } else {
        negated(g)
    }
}

/// The counts the sweep must write, and the lanes it must leave, from
/// the vector pipeline.
fn pipeline(
    lanes: &MaskLanes,
    pixels: &[[BitVector; 4]],
    basis: &BitVector,
    codes: &[Code],
) -> (Vec<usize>, MaskLanes) {
    let mut lanes = lanes.clone();
    let dim = basis.dim();
    let alpha_masks = codes.iter().map(|c| c.2 + 1).max().unwrap_or(0);
    let h = |v: &BitVector| v.hamming(basis).unwrap();
    let mut counts = Vec::new();
    for [a, b, c, d] in pixels {
        let masks = pixel_masks(&mut lanes, dim, 3 + alpha_masks);
        let gx = select(a, &negated(b), &masks[0]);
        let gy = select(c, &negated(d), &masks[1]);
        let m = &masks[2];
        counts.extend([
            h(&gx),
            h(&gy),
            h(&select(&gx, &gy, m)),
            h(&select(&gx, &negated(&gy), m)),
        ]);
        // The two selections give the magnitude for the signs at hand.
        let sum = select(&abs(&gx, basis), &abs(&gy, basis), m);
        let (gx_pos, gy_pos) = (2 * h(&gx) <= dim, 2 * h(&gy) <= dim);
        let picked = counts[counts.len() - 2 + usize::from(gx_pos != gy_pos)];
        assert_eq!(h(&sum), if gx_pos { picked } else { dim - picked });
        for (code, cot, mask) in codes {
            let (x, y) = if *cot {
                (mul(code, &gy, basis), gx.clone())
            } else {
                (gy.clone(), mul(code, &gx, basis))
            };
            counts.push(h(&select(&x, &negated(&y), &masks[3 + mask])));
        }
    }
    (counts, lanes)
}

/// Holds every backend and the dispatched entry point to the vector
/// pipeline.
fn check(seed: u64, pixels: &[[BitVector; 4]], basis: &BitVector, codes: &[Code]) {
    let lanes = MaskLanes::from_rng(&mut HdcRng::seed_from_u64(seed));
    let (want, want_lanes) = pipeline(&lanes, pixels, basis, codes);
    let layout: Vec<(&BitVector, bool, usize)> =
        codes.iter().map(|(c, cot, m)| (c, *cot, *m)).collect();
    let sweep_codes = SweepCodes::new(basis.dim(), &layout).unwrap();
    let refs: Vec<[&BitVector; 4]> = pixels.iter().map(|p| p.each_ref()).collect();
    let dim = basis.dim();
    for backend in BACKENDS {
        let mut got_lanes = lanes.clone();
        let mut got = vec![usize::MAX; pixels.len() * (PIXEL_COUNTS + codes.len())];
        cell_sweep_on(
            backend,
            &mut got_lanes,
            &refs,
            basis,
            &sweep_codes,
            &mut got,
        )
        .unwrap();
        assert_eq!(got, want, "D={dim} backend {}", backend.name());
        assert_eq!(got_lanes, want_lanes, "D={dim} backend {}", backend.name());
    }
    let mut got_lanes = lanes.clone();
    let mut got = vec![0; want.len()];
    cell_sweep(&mut got_lanes, &refs, basis, &sweep_codes, &mut got).unwrap();
    assert_eq!(
        got,
        want,
        "D={dim} active backend {}",
        active_backend().name()
    );
    assert_eq!(got_lanes, want_lanes);
}

fn random_pixels(n: usize, dim: usize, rng: &mut HdcRng) -> Vec<[BitVector; 4]> {
    (0..n)
        .map(|_| std::array::from_fn(|_| BitVector::random(dim, rng)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random operands, basis, codes and lanes: every backend's counts
    /// and lanes equal the vector pipeline's.
    #[test]
    fn every_backend_counts_what_the_vector_pipeline_builds(
        dim in arb_dim(),
        n_pixels in 0usize..=70,
        n_codes in 0usize..=16,
        data_seed in any::<u64>(),
        lane_seed in any::<u64>(),
    ) {
        let mut rng = HdcRng::seed_from_u64(data_seed);
        // Fewer pixels at the large dimensions keep a case quick.
        let n_pixels = if dim > 2000 { n_pixels / 8 } else { n_pixels };
        let pixels = random_pixels(n_pixels, dim, &mut rng);
        let basis = BitVector::random(dim, &mut rng);
        let codes: Vec<Code> = (0..n_codes)
            .map(|_| {
                let code = BitVector::random(dim, &mut rng);
                (code, rng.random_bool(0.5), rng.random_range(0..4))
            })
            .collect();
        check(lane_seed, &pixels, &basis, &codes);
    }

    /// Degenerate operands — each gradient's two neighbours equal, or
    /// the basis itself and its negation, and codes equal to either —
    /// where whole words of a count are zero or full.
    #[test]
    fn degenerate_operands_count_alike(dim in arb_dim(), lane_seed in any::<u64>(), data_seed in any::<u64>()) {
        let mut rng = HdcRng::seed_from_u64(data_seed);
        let basis = BitVector::random(dim, &mut rng);
        let same = BitVector::random(dim, &mut rng);
        let pixels = vec![
            [same.clone(), same.clone(), basis.clone(), negated(&basis)],
            [basis.clone(), basis.clone(), negated(&basis), negated(&basis)],
        ];
        let codes = vec![(basis.clone(), false, 0), (negated(&basis), true, 0), (same, true, 1)];
        check(lane_seed, &pixels, &basis, &codes);
    }
}

/// The HD-HOG layout at 16 bins: three boundaries per quadrant parity,
/// the even and odd code of each sharing its `α` mask.
#[test]
fn paired_parity_codes_share_their_masks() {
    for dim in [1usize, 65, 4096, 8193] {
        let mut rng = HdcRng::seed_from_u64(dim as u64);
        let pixels = random_pixels(9, dim, &mut rng);
        let basis = BitVector::random(dim, &mut rng);
        let codes: Vec<Code> = (0..6)
            .map(|k| (BitVector::random(dim, &mut rng), k % 3 == 2, k % 3))
            .collect();
        check(7, &pixels, &basis, &codes);
    }
}

#[test]
fn mis_sized_operands_are_refused_before_any_lane_steps() {
    let mut rng = HdcRng::seed_from_u64(1);
    let v = BitVector::random(100, &mut rng);
    let short = BitVector::random(99, &mut rng);
    let codes = SweepCodes::new(100, &[(&v, false, 0)]).unwrap();
    let fresh = MaskLanes::from_rng(&mut HdcRng::seed_from_u64(3));
    let mut out = vec![0; 2 * (PIXEL_COUNTS + 1)];
    for backend in BACKENDS {
        let mut lanes = fresh.clone();
        let bad_pixel = [[&v, &v, &v, &v], [&v, &v, &v, &short]];
        assert!(cell_sweep_on(backend, &mut lanes, &bad_pixel, &v, &codes, &mut out).is_err());
        let good = [[&v, &v, &v, &v], [&v, &v, &v, &v]];
        assert!(cell_sweep_on(backend, &mut lanes, &good, &short, &codes, &mut out).is_err());
        assert_eq!(lanes, fresh, "backend {}", backend.name());
    }
    let short_codes = SweepCodes::new(99, &[(&short, true, 0)]).unwrap();
    let mut lanes = fresh.clone();
    let good = [[&v, &v, &v, &v], [&v, &v, &v, &v]];
    assert!(cell_sweep(&mut lanes, &good, &v, &short_codes, &mut out).is_err());
    assert_eq!(lanes, fresh);
    assert!(SweepCodes::new(100, &[(&short, true, 0)]).is_err());
    assert!(cell_sweep(&mut lanes, &good, &v, &codes, &mut out).is_ok());
    assert_ne!(lanes, fresh);
}
