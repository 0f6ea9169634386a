//! Differential tests for the per-pixel gradient sweep: on every
//! backend, called explicitly, `gradient_sweep_on` must return exactly
//! the counts the unfused ops produce — two ½ masks from
//! `fill_with_density` on the generator the seeds come from,
//! `select_into`, `negate` and `xor_assign` for each gradient, the
//! product by `xor_assign`, and `hamming` for every count.
//!
//! Dimensions straddle the 64-bit word and the 8-word lane group, so
//! every kernel's ragged last group and partial last word are hit;
//! probe (boundary-code) counts run from none to four, each compared
//! against either gradient, and one directed case crosses the sweep's
//! eight-code chunk.

use hdface_hdc::{
    active_backend, gradient_sweep, gradient_sweep_on, BitVector, GradientCounts, HdcRng,
    SeedableRng, SimdBackend, SweepCodes,
};
use proptest::prelude::*;

/// Every backend variant. One this CPU cannot run falls back to scalar
/// (as `every_mask_kernel_matches_scalar` relies on), so every kernel
/// the CPU supports is held to the unfused ops.
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

/// `sub_halved_into(a, b)` as the cell pass built it before the sweep.
fn unfused_sub_halved(a: &BitVector, b: &BitVector, rng: &mut HdcRng) -> BitVector {
    let mut mask = BitVector::zeros(a.dim());
    mask.fill_with_density(0.5, rng).unwrap();
    let mut out = BitVector::zeros(a.dim());
    a.select_into(b, &mask, &mut out).unwrap();
    mask.negate();
    out.xor_assign(&mask).unwrap();
    out
}

/// The counts the sweep must return, from the unfused ops.
fn unfused_counts(
    seed: u64,
    ops: &[BitVector; 4],
    basis: &BitVector,
    probes: &[(BitVector, bool)],
) -> (GradientCounts, Vec<[usize; 2]>) {
    let mut rng = HdcRng::seed_from_u64(seed);
    let gx = unfused_sub_halved(&ops[0], &ops[1], &mut rng);
    let gy = unfused_sub_halved(&ops[2], &ops[3], &mut rng);
    let mut gxy = gx.clone();
    gxy.xor_assign(&gy).unwrap();
    gxy.xor_assign(basis).unwrap();
    let counts = GradientCounts {
        hx: gx.hamming(basis).unwrap(),
        hy: gy.hamming(basis).unwrap(),
        hxy: gx.hamming(&gy).unwrap(),
    };
    let probe_counts = probes
        .iter()
        .map(|(code, against_gy)| {
            let g = if *against_gy { &gy } else { &gx };
            [code.hamming(g).unwrap(), code.hamming(&gxy).unwrap()]
        })
        .collect();
    (counts, probe_counts)
}

/// The two mask seeds `fill_with_density` draws from `seed`'s
/// generator, one per ½ mask.
fn mask_seeds(seed: u64) -> [u64; 2] {
    let mut rng = HdcRng::seed_from_u64(seed);
    [rng.next_u64(), rng.next_u64()]
}

/// Holds every backend and the dispatched entry point to the unfused
/// counts.
fn check(seed: u64, ops: &[BitVector; 4], basis: &BitVector, probes: &[(BitVector, bool)]) {
    let (want, want_probes) = unfused_counts(seed, ops, basis, probes);
    let layout: Vec<(&BitVector, bool)> = probes.iter().map(|(c, gy)| (c, *gy)).collect();
    let codes = SweepCodes::new(basis.dim(), &layout).unwrap();
    let seeds = mask_seeds(seed);
    for backend in BACKENDS {
        let mut got_probes = vec![[usize::MAX; 2]; probes.len()];
        let got = gradient_sweep_on(
            backend,
            seeds,
            [&ops[0], &ops[1]],
            [&ops[2], &ops[3]],
            basis,
            &codes,
            &mut got_probes,
        )
        .unwrap();
        assert_eq!(got, want, "D={} backend {}", basis.dim(), backend.name());
        assert_eq!(
            got_probes,
            want_probes,
            "D={} backend {}",
            basis.dim(),
            backend.name()
        );
    }
    let mut got_probes = vec![[0; 2]; probes.len()];
    let got = gradient_sweep(
        seeds,
        [&ops[0], &ops[1]],
        [&ops[2], &ops[3]],
        basis,
        &codes,
        &mut got_probes,
    )
    .unwrap();
    assert_eq!(got, want, "active backend {}", active_backend().name());
    assert_eq!(got_probes, want_probes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random operands, basis, probes and seeds: every backend's counts
    /// equal the unfused ops' counts.
    #[test]
    fn every_backend_counts_what_the_unfused_ops_count(
        dim in arb_dim(),
        n_probes in 0usize..=4,
        data_seed in any::<u64>(),
        mask_seed in any::<u64>(),
    ) {
        let mut rng = HdcRng::seed_from_u64(data_seed);
        let ops = std::array::from_fn(|_| BitVector::random(dim, &mut rng));
        let basis = BitVector::random(dim, &mut rng);
        let probes: Vec<(BitVector, bool)> = (0..n_probes)
            .map(|_| (BitVector::random(dim, &mut rng), rng.random_bool(0.5)))
            .collect();
        check(mask_seed, &ops, &basis, &probes);
    }

    /// Degenerate operands — each gradient's two neighbours equal, or
    /// the basis itself and its negation — where whole words of a
    /// count are zero or full.
    #[test]
    fn degenerate_operands_count_alike(dim in arb_dim(), mask_seed in any::<u64>(), data_seed in any::<u64>()) {
        let mut rng = HdcRng::seed_from_u64(data_seed);
        let basis = BitVector::random(dim, &mut rng);
        let same = BitVector::random(dim, &mut rng);
        let ops = [same.clone(), same, basis.clone(), basis.negated()];
        let probes = vec![(basis.clone(), false), (basis.negated(), true)];
        check(mask_seed, &ops, &basis, &probes);
    }
}

/// More codes than one pass holds: the sweep runs them in chunks, and
/// every chunk's counts still match.
#[test]
fn code_lists_longer_than_one_pass_match() {
    for dim in [1usize, 65, 4096, 8193] {
        let mut rng = HdcRng::seed_from_u64(dim as u64);
        let ops = std::array::from_fn(|_| BitVector::random(dim, &mut rng));
        let basis = BitVector::random(dim, &mut rng);
        let probes: Vec<(BitVector, bool)> = (0..19)
            .map(|k| (BitVector::random(dim, &mut rng), k % 3 == 0))
            .collect();
        check(7, &ops, &basis, &probes);
    }
}

#[test]
fn mismatched_dimensions_are_errors() {
    let mut rng = HdcRng::seed_from_u64(1);
    let v = BitVector::random(100, &mut rng);
    let short = BitVector::random(99, &mut rng);
    let codes = SweepCodes::new(100, &[(&v, false)]).unwrap();
    let mut out = [[0; 2]];
    assert!(gradient_sweep([1, 2], [&v, &short], [&v, &v], &v, &codes, &mut out).is_err());
    assert!(gradient_sweep([1, 2], [&v, &v], [&v, &v], &short, &codes, &mut out).is_err());
    assert!(SweepCodes::new(100, &[(&short, true)]).is_err());
    assert!(gradient_sweep([1, 2], [&v, &v], [&v, &v], &v, &codes, &mut out).is_ok());
}
