//! Property-based tests for the hypervector substrate invariants.

use hdface_hdc::{Accumulator, BitVector, HdcRng, SeedableRng};
use proptest::prelude::*;

/// Strategy: an arbitrary bit vector of dimension 1..=300.
fn arb_bitvec() -> impl Strategy<Value = BitVector> {
    prop::collection::vec(any::<bool>(), 1..=300).prop_map(|b| BitVector::from_bools(&b))
}

/// Strategy: a pair of equal-dimension bit vectors.
fn arb_pair() -> impl Strategy<Value = (BitVector, BitVector)> {
    (1usize..=300).prop_flat_map(|d| {
        (
            prop::collection::vec(any::<bool>(), d),
            prop::collection::vec(any::<bool>(), d),
        )
            .prop_map(|(a, b)| (BitVector::from_bools(&a), BitVector::from_bools(&b)))
    })
}

/// Strategy: a triple of equal-dimension bit vectors.
fn arb_triple() -> impl Strategy<Value = (BitVector, BitVector, BitVector)> {
    (1usize..=200).prop_flat_map(|d| {
        (
            prop::collection::vec(any::<bool>(), d),
            prop::collection::vec(any::<bool>(), d),
            prop::collection::vec(any::<bool>(), d),
        )
            .prop_map(|(a, b, c)| {
                (
                    BitVector::from_bools(&a),
                    BitVector::from_bools(&b),
                    BitVector::from_bools(&c),
                )
            })
    })
}

proptest! {
    #[test]
    fn double_negation_is_identity(v in arb_bitvec()) {
        prop_assert_eq!(v.negated().negated(), v);
    }

    #[test]
    fn negation_complements_popcount(v in arb_bitvec()) {
        prop_assert_eq!(v.negated().count_ones(), v.count_zeros());
    }

    #[test]
    fn xor_self_is_zero(v in arb_bitvec()) {
        let z = v.xor(&v).unwrap();
        prop_assert_eq!(z.count_ones(), 0);
    }

    #[test]
    fn xor_is_commutative((a, b) in arb_pair()) {
        prop_assert_eq!(a.xor(&b).unwrap(), b.xor(&a).unwrap());
    }

    #[test]
    fn xor_is_associative((a, b, c) in arb_triple()) {
        let l = a.xor(&b).unwrap().xor(&c).unwrap();
        let r = a.xor(&b.xor(&c).unwrap()).unwrap();
        prop_assert_eq!(l, r);
    }

    #[test]
    fn binding_preserves_hamming((a, b, c) in arb_triple()) {
        let h = a.hamming(&b).unwrap();
        let hb = a.xor(&c).unwrap().hamming(&b.xor(&c).unwrap()).unwrap();
        prop_assert_eq!(h, hb);
    }

    #[test]
    fn hamming_is_a_metric((a, b, c) in arb_triple()) {
        let ab = a.hamming(&b).unwrap();
        let ba = b.hamming(&a).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(a.hamming(&a).unwrap(), 0);
        // Triangle inequality.
        let ac = a.hamming(&c).unwrap();
        let cb = c.hamming(&b).unwrap();
        prop_assert!(ab <= ac + cb);
    }

    #[test]
    fn dot_matches_bipolar_sum((a, b) in arb_pair()) {
        let expected: i64 = (0..a.dim())
            .map(|i| i64::from(a.bipolar(i)) * i64::from(b.bipolar(i)))
            .sum();
        prop_assert_eq!(a.dot(&b).unwrap(), expected);
    }

    #[test]
    fn similarity_is_bounded((a, b) in arb_pair()) {
        let s = a.similarity(&b).unwrap();
        prop_assert!((-1.0..=1.0).contains(&s));
        let h = a.hamming_similarity(&b).unwrap();
        prop_assert!((0.0..=1.0).contains(&h));
        // δ = 2·hamming_similarity − 1.
        prop_assert!((s - (2.0 * h - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn rotation_composes(v in arb_bitvec(), j in 0usize..500, k in 0usize..500) {
        prop_assert_eq!(v.rotated(j).rotated(k), v.rotated(j + k));
    }

    #[test]
    fn rotation_preserves_popcount(v in arb_bitvec(), k in 0usize..500) {
        prop_assert_eq!(v.rotated(k).count_ones(), v.count_ones());
    }

    #[test]
    fn rotate_back_inverts(v in arb_bitvec(), k in 0usize..500) {
        prop_assert_eq!(v.rotated(k).rotated_back(k), v);
    }

    #[test]
    fn select_mask_extremes((a, b) in arb_pair()) {
        let all = BitVector::ones(a.dim());
        let none = BitVector::zeros(a.dim());
        prop_assert_eq!(a.select(&b, &all).unwrap(), a.clone());
        prop_assert_eq!(a.select(&b, &none).unwrap(), b);
    }

    #[test]
    fn bools_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let v = BitVector::from_bools(&bits);
        prop_assert_eq!(v.to_bools(), bits);
    }

    #[test]
    fn accumulator_threshold_of_single_vector_is_identity(v in arb_bitvec(), seed in any::<u64>()) {
        let mut acc = Accumulator::new(v.dim());
        acc.add(&v).unwrap();
        let mut rng = HdcRng::seed_from_u64(seed);
        prop_assert_eq!(acc.threshold(&mut rng), v);
    }

    #[test]
    fn majority_is_order_invariant((a, b, c) in arb_triple(), seed in any::<u64>()) {
        // With an odd number of vectors there are no ties, so the
        // result is RNG-independent and permutation-invariant.
        let majority = |vs: [&BitVector; 3], seed: u64| {
            let mut acc = Accumulator::new(a.dim());
            for v in vs {
                acc.add(v).unwrap();
            }
            acc.threshold(&mut HdcRng::seed_from_u64(seed))
        };
        prop_assert_eq!(majority([&a, &b, &c], seed), majority([&c, &a, &b], seed.wrapping_add(1)));
    }

    #[test]
    fn bit_error_zero_is_identity(v in arb_bitvec(), seed in any::<u64>()) {
        let mut rng = HdcRng::seed_from_u64(seed);
        prop_assert_eq!(v.with_bit_errors(0.0, &mut rng).unwrap(), v);
    }

    #[test]
    fn bit_error_one_is_negation(v in arb_bitvec(), seed in any::<u64>()) {
        let mut rng = HdcRng::seed_from_u64(seed);
        prop_assert_eq!(v.with_bit_errors(1.0, &mut rng).unwrap(), v.negated());
    }
}
