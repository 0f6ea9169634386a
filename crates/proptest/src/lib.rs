//! Seeded property tests for the HDFace workspace.
//!
//! The workspace names this crate `proptest`, so tests write
//! `use proptest::prelude::*` and the `proptest!` macro as usual. Each
//! property runs over a fixed number of cases (256 unless
//! [`ProptestConfig::with_cases`](prelude::ProptestConfig) says
//! otherwise) drawn from a splitmix64 stream seeded by the FNV-1a hash
//! of the test's module path and name, so every run of a test checks
//! the same cases. There is no shrinking and no failure persistence: a
//! failing case is reported by its index.

/// Runner configuration and the case stream.
pub mod test_runner {
    /// How many cases each property runs.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each property is checked with.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// The splitmix64 stream strategies draw from.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Seeds from the FNV-1a hash of `name`.
        pub fn deterministic(name: &str) -> Self {
            TestRng(name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            }))
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `0..n` (`n > 0`).
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Builds a dependent strategy from each generated value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.gen_value(rng)).gen_value(rng)
        }
    }

    /// `lo + draw % span` over an integer range.
    fn int_between(rng: &mut TestRng, lo: i128, span: i128) -> i128 {
        lo + (u128::from(rng.next_u64()) % span as u128) as i128
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let lo = self.start as i128;
                    int_between(rng, lo, self.end as i128 - lo) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty strategy range");
                    int_between(rng, lo, hi - lo + 1) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u64, usize);

    macro_rules! float_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + rng.unit() as $t * (self.end - self.start)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    lo + rng.unit() as $t * (hi - lo)
                }
            }
        )*};
    }
    float_ranges!(f32, f64);

    macro_rules! tuples {
        ($(($($s:ident $idx:tt),+);)+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        )+};
    }
    tuples! {
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
    }
}

/// `any::<T>()` over a type's full domain.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a full-domain strategy.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// Strategy over a type's full domain.
    pub struct Any<T>(PhantomData<T>);

    /// The full-domain strategy of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_ints!(u8, u32, u64);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }
}

/// `prop::collection::vec`.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.lo + rng.below(self.size.hi - self.size.lo + 1);
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// `prop::sample::select`.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy selecting one of a fixed set of options.
    pub struct Select<T: Clone>(Vec<T>);

    /// Uniformly selects one element of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select of empty options");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }
}

/// `prop::num::f64::ANY`.
pub mod num {
    /// `f64` strategies.
    pub mod f64 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// See [`ANY`].
        #[derive(Clone, Copy, Debug)]
        pub struct Any;

        /// Every representable `f64`: one case in five is a special
        /// value (zeros, ±1, π, infinities, NaN, extremes), the rest
        /// are raw bit patterns.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = f64;
            fn gen_value(&self, rng: &mut TestRng) -> f64 {
                use std::primitive::f64 as F;
                const SPECIALS: [F; 10] = [
                    0.0,
                    -0.0,
                    1.0,
                    -1.0,
                    std::f64::consts::PI,
                    F::INFINITY,
                    F::NEG_INFINITY,
                    F::NAN,
                    F::MAX,
                    F::MIN_POSITIVE,
                ];
                if rng.below(5) == 0 {
                    SPECIALS[rng.below(SPECIALS.len())]
                } else {
                    F::from_bits(rng.next_u64())
                }
            }
        }
    }
}

/// Everything tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// Module-style access (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::{collection, num, sample};
    }
}

/// Defines property tests over strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut __rng);)+
                let __outcome: ::core::result::Result<(), ::std::string::String> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "property '{}' failed at case {}/{}: {}",
                        stringify!($name), __case + 1, __config.cases, __msg,
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fails the current property case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        if !(__l == __r) {
            return ::core::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
            ));
        }
    }};
}

/// Skips the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_vecs(x in 1usize..10, v in prop::collection::vec(0.0f64..1.0, 0..8)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(v.len() < 8);
            for e in &v {
                prop_assert!((0.0..1.0).contains(e), "element {e} out of range");
            }
        }

        #[test]
        fn tuples_map_and_select(
            (a, b) in (0u64..5, 0u64..5).prop_map(|(a, b)| (a * 2, b)),
            pick in prop::sample::select(vec![8usize, 16, 32]),
        ) {
            prop_assert!(a % 2 == 0);
            prop_assert!(b < 5);
            prop_assert!(pick == 8 || pick == 16 || pick == 32);
        }

        #[test]
        fn flat_map_dependent_lengths(v in (1usize..6).prop_flat_map(|n| {
            prop::collection::vec(any::<bool>(), n)
        })) {
            prop_assert!(!v.is_empty() && v.len() < 6);
        }

        #[test]
        fn assume_skips(x in 0u64..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }

    /// The case stream every property in the workspace runs: FNV-1a
    /// of the test path seeds splitmix64, and the strategies map its
    /// draws as below. A change here changes which cases each test
    /// checks.
    #[test]
    fn case_stream_matches_the_known_answers() {
        use crate::test_runner::TestRng;
        let mut rng = TestRng::deterministic("hdface::cases");
        let draws = [(); 3].map(|()| rng.next_u64());
        assert_eq!(
            draws,
            [
                0x2028_42ee_208f_4ed6,
                0x462f_76b9_6361_6008,
                0x28a4_18f5_a45b_89be
            ]
        );

        let strategy = (
            1usize..=300,
            prop::collection::vec(any::<u8>(), 1..6),
            0.0f64..1.0,
            prop::sample::select(vec![8usize, 16, 32]),
        );
        let (n, bytes, unit, pick) =
            strategy.gen_value(&mut TestRng::deterministic("hdface::cases"));
        assert_eq!((n, bytes, pick), (199, vec![190], 32));
        assert_eq!(unit.to_bits(), 0x3f9f_22c4_df47_7620);
    }
}
