//! Differential property tests: the bit-sliced bundling kernel must
//! be bit-identical to the scalar [`Accumulator`] reference on any
//! input — same bundles, same tie-breaks, same RNG consumption.
//!
//! These are the randomized counterpart to the directed tests inside
//! `bundler.rs`: dimensions land on and off 64-bit word boundaries so
//! the padding tail is exercised, streams are arbitrary, and one
//! generator engineers exact majority ties at every dimension.

use hdface_hdc::{Accumulator, BitSlicedBundler, BitVector, HdcRng, SeedableRng};
use proptest::prelude::*;

/// Strategy: a dimension biased toward 64-bit word-boundary edges so
/// most cases exercise a padding tail, mixed with off-boundary and
/// mid-range sizes.
fn arb_dim() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![
        1usize, 2, 3, 5, 17, 63, 64, 65, 100, 127, 128, 129, 130, 150, 191, 192, 193, 200,
    ])
}

/// Strategy: a stream of `(value, key)` pairs of one shared dimension,
/// plus a tie-break seed. Streams may be empty: an empty bundle ties
/// at every dimension, the harshest RNG-consumption case.
fn arb_stream() -> impl Strategy<Value = (usize, Vec<(BitVector, BitVector)>, u64)> {
    arb_dim().prop_flat_map(|dim| {
        (
            prop::collection::vec(
                (
                    prop::collection::vec(any::<bool>(), dim),
                    prop::collection::vec(any::<bool>(), dim),
                ),
                0..=12,
            ),
            any::<u64>(),
        )
            .prop_map(move |(pairs, seed)| {
                let pairs = pairs
                    .into_iter()
                    .map(|(v, k)| (BitVector::from_bools(&v), BitVector::from_bools(&k)))
                    .collect();
                (dim, pairs, seed)
            })
    })
}

/// Scalar reference: xor-bind each pair, accumulate into f64 counters,
/// per-bit majority threshold.
fn reference_bundle(pairs: &[(BitVector, BitVector)], dim: usize, rng: &mut HdcRng) -> BitVector {
    let mut acc = Accumulator::new(dim);
    for (v, k) in pairs {
        acc.add(&v.xor(k).unwrap()).unwrap();
    }
    acc.threshold(rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any stream, any dimension: the kernel's bundle equals the
    /// scalar reference's bit for bit, and both consume exactly the
    /// same number of tie-break draws (checked by comparing the next
    /// value out of each residual RNG).
    #[test]
    fn kernel_matches_scalar_reference((dim, pairs, seed) in arb_stream()) {
        let mut b = BitSlicedBundler::new(dim);
        for (v, k) in &pairs {
            b.bind_accumulate(v, k).unwrap();
        }
        let mut kernel_rng = HdcRng::seed_from_u64(seed);
        let mut scalar_rng = HdcRng::seed_from_u64(seed);
        prop_assert_eq!(
            b.threshold(&mut kernel_rng),
            reference_bundle(&pairs, dim, &mut scalar_rng)
        );
        prop_assert_eq!(
            kernel_rng.next_u64(),
            scalar_rng.next_u64()
        );
    }

    /// Engineered worst case: `reps` copies of `v` and of `!v` tie at
    /// *every* dimension, so the whole output is tie-break draws —
    /// they must come out in ascending dimension order on both paths,
    /// with padding bits (dim is often off a word boundary) consuming
    /// nothing.
    #[test]
    fn engineered_full_tie_resolves_identically(
        dim in arb_dim(),
        reps in 1usize..=3,
        vseed in any::<u64>(),
        tseed in any::<u64>(),
    ) {
        let mut vrng = HdcRng::seed_from_u64(vseed);
        let v = BitVector::random(dim, &mut vrng);
        let pairs: Vec<(BitVector, BitVector)> = (0..2 * reps)
            .map(|i| {
                let val = if i % 2 == 0 { v.clone() } else { v.negated() };
                (val, BitVector::zeros(dim))
            })
            .collect();

        let mut b = BitSlicedBundler::new(dim);
        for (val, key) in &pairs {
            b.bind_accumulate(val, key).unwrap();
        }
        // Every dimension holds exactly half the stream's ones.
        for i in 0..dim {
            prop_assert_eq!(b.ones_count(i), reps);
        }
        let mut kernel_rng = HdcRng::seed_from_u64(tseed);
        let mut scalar_rng = HdcRng::seed_from_u64(tseed);
        prop_assert_eq!(
            b.threshold(&mut kernel_rng),
            reference_bundle(&pairs, dim, &mut scalar_rng)
        );
        prop_assert_eq!(
            kernel_rng.next_u64(),
            scalar_rng.next_u64()
        );
    }

    /// Deterministic thresholding (ties resolve to 0) also matches,
    /// and never sets a padding bit: re-round-tripping the output
    /// through its boolean view is the identity.
    #[test]
    fn deterministic_threshold_matches_and_masks_padding(
        (dim, pairs, _) in arb_stream(),
    ) {
        let mut b = BitSlicedBundler::new(dim);
        let mut acc = Accumulator::new(dim);
        for (v, k) in &pairs {
            b.bind_accumulate(v, k).unwrap();
            acc.add(&v.xor(k).unwrap()).unwrap();
        }
        let out = b.threshold_deterministic();
        prop_assert_eq!(&out, &acc.threshold_deterministic());
        let bools: Vec<bool> = (0..dim).map(|i| out.get(i)).collect();
        prop_assert_eq!(BitVector::from_bools(&bools), out);
    }
}

/// `count` random `(value, key)` pairs of dimension `dim`.
fn random_pairs(dim: usize, count: usize, rng: &mut HdcRng) -> Vec<(BitVector, BitVector)> {
    (0..count)
        .map(|_| (BitVector::random(dim, rng), BitVector::random(dim, rng)))
        .collect()
}

/// Holds a bundler to the `Accumulator` fed the same pairs: count,
/// live planes (⌈log₂(count + 1)⌉), every ones count, the
/// deterministic threshold, and the random threshold with the state it
/// leaves the tie-break RNG in.
fn assert_matches_reference(
    b: &BitSlicedBundler,
    acc: &Accumulator,
    tseed: u64,
) -> Result<(), String> {
    let count = acc.count();
    prop_assert_eq!(b.count(), count);
    prop_assert_eq!(b.planes(), (usize::BITS - count.leading_zeros()) as usize);
    for i in 0..acc.dim() {
        let ones = (acc.component(i) + count as f64) / 2.0;
        prop_assert!(b.ones_count(i) as f64 == ones, "dimension {}", i);
    }
    prop_assert_eq!(b.threshold_deterministic(), acc.threshold_deterministic());
    let mut kernel_rng = HdcRng::seed_from_u64(tseed);
    let mut scalar_rng = HdcRng::seed_from_u64(tseed);
    prop_assert_eq!(b.threshold(&mut kernel_rng), acc.threshold(&mut scalar_rng));
    prop_assert_eq!(kernel_rng.next_u64(), scalar_rng.next_u64());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole lists through `bind_accumulate_all`, one to three batches
    /// in a row of 0–40 pairs each: lengths straddle the eight-pair
    /// block and every plane-growth count 2ᵏ − 1, and a later batch
    /// starts wherever the last one left the planes. After every batch
    /// the planes read what the `Accumulator` reference holds, and a
    /// bundler fed the same pairs one at a time agrees with both.
    #[test]
    fn batched_ingest_matches_the_reference(
        dim in arb_dim(),
        lengths in prop::collection::vec(0usize..=40, 1..=3),
        pseed in any::<u64>(),
        tseed in any::<u64>(),
    ) {
        let mut prng = HdcRng::seed_from_u64(pseed);
        let mut batched = BitSlicedBundler::new(dim);
        let mut one_by_one = BitSlicedBundler::new(dim);
        let mut acc = Accumulator::new(dim);
        for len in lengths {
            let pairs = random_pairs(dim, len, &mut prng);
            batched.bind_accumulate_all(pairs.iter().map(|(v, k)| (v, k))).unwrap();
            for (v, k) in &pairs {
                one_by_one.bind_accumulate(v, k).unwrap();
                acc.add(&v.xor(k).unwrap()).unwrap();
            }
            assert_matches_reference(&batched, &acc, tseed)?;
            assert_matches_reference(&one_by_one, &acc, tseed)?;
        }
    }

    /// All-tie batches: every dimension holds exactly half the ones, so
    /// the whole threshold is tie-break draws, for batch lengths on
    /// both sides of the block size.
    #[test]
    fn batched_full_ties_resolve_identically(
        dim in arb_dim(),
        halves in prop::collection::vec(0usize..=20, 1..=3),
        vseed in any::<u64>(),
        tseed in any::<u64>(),
    ) {
        let mut vrng = HdcRng::seed_from_u64(vseed);
        let mut b = BitSlicedBundler::new(dim);
        let mut acc = Accumulator::new(dim);
        let key = BitVector::random(dim, &mut vrng);
        for half in halves {
            let v = BitVector::random(dim, &mut vrng);
            let nv = v.negated();
            let batch: Vec<&BitVector> = (0..2 * half).map(|i| if i % 2 == 0 { &v } else { &nv }).collect();
            b.bind_accumulate_all(batch.iter().map(|&x| (x, &key))).unwrap();
            for x in &batch {
                acc.add(&x.xor(&key).unwrap()).unwrap();
            }
            for i in 0..dim {
                prop_assert_eq!(2 * b.ones_count(i), b.count());
            }
            assert_matches_reference(&b, &acc, tseed)?;
        }
    }
}

/// A mismatched pair stops the list there: the pairs before it are
/// added, it and the ones after are not.
#[test]
fn a_mismatched_pair_stops_the_list() {
    let mut rng = HdcRng::seed_from_u64(4);
    let pairs = random_pairs(70, 12, &mut rng);
    let short = BitVector::random(69, &mut rng);
    for bad in [0usize, 3, 8, 11] {
        let mut list: Vec<(&BitVector, &BitVector)> = pairs.iter().map(|(v, k)| (v, k)).collect();
        list[bad].1 = &short;
        let mut b = BitSlicedBundler::new(70);
        assert!(b.bind_accumulate_all(list.iter().copied()).is_err());
        let mut want = BitSlicedBundler::new(70);
        want.bind_accumulate_all(list[..bad].iter().copied())
            .unwrap();
        assert_eq!(b.count(), bad);
        assert_eq!(b.planes(), want.planes());
        assert!((0..70).all(|i| b.ones_count(i) == want.ones_count(i)));
    }
}
