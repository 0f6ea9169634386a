//! An exact binomial sampler over the caller's mask stream.
//!
//! A [`Binomial`] is one law with the constants its draws read; a law
//! drawn many times is built once (`StochasticContext` keeps the fair
//! laws the cell pass draws), and [`binomial`] builds one per draw.
//!
//! The decode of a vector that is built only to be decoded is a sum
//! of binomial counts (see `DESIGN.md` §17), so drawing those counts
//! stands in for building the vector. Every branch is scalar code fed
//! by 64-bit draws from the caller's [`HdcRng`]: there is no SIMD
//! dispatch, so a draw is the same on every backend.
//!
//! * `n = 0`, `p = 0` and `p = 1` are exact and draw nothing.
//! * `p > ½` is reflected: `Bin(n, p) = n − Bin(n, 1 − p)`.
//! * A fair count (`p = ½`) of fewer than 256 trials is the popcount
//!   of `n` random bits.
//! * Otherwise, below a mean of 10, sequential inversion of the CDF.
//! * From a mean of 10, Hörmann's BTRD: transformed rejection with a
//!   decomposition, accepting against the exact probability ratio
//!   (W. Hörmann, "The generation of binomial random variates",
//!   J. Statist. Comput. Simul. 46, 1993).

use std::sync::OnceLock;

use hdface_hdc::HdcRng;

/// Means from which BTRD replaces inversion. Inversion walks the CDF
/// from zero, so its cost grows with the mean; BTRD's does not.
const BTRD_MIN_MEAN: f64 = 10.0;

/// Fair counts of fewer trials than this popcount random words: at
/// most four draws, cheaper than BTRD's setup and hat.
const FAIR_POPCOUNT_TRIALS: usize = 256;

/// Entries of the `ln k!` table: every count of a hypervector up to
/// `D = 16383`, which covers the paper's dimensionalities.
const LN_FACTORIAL_TABLE: usize = 1 << 14;

/// The law `Bin(n, p)`: the number of successes in `n` independent
/// trials of probability `p ∈ [0, 1]`, with every constant a draw
/// reads computed once, by [`Binomial::new`]. A law that is drawn many
/// times (a fair law, see `StochasticContext`) pays its set-up once;
/// [`binomial`] builds one per draw. Either way a draw reads the
/// same `f64`s, evaluated in the same order, so it consumes the same
/// words of the caller's stream and returns the same count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Binomial {
    n: usize,
    /// Whether `p > ½` was reflected: a draw is then `n − Bin(n, 1 − p)`.
    reflected: bool,
    sampler: Sampler,
}

/// The branch a law draws from, with its constants.
#[derive(Debug, Clone, Copy)]
enum Sampler {
    /// `n = 0`, `p = 0` or `p = 1`: this count, drawing nothing.
    Exact(usize),
    /// A fair count of fewer than [`FAIR_POPCOUNT_TRIALS`] trials.
    FairPopcount,
    Inversion(Inversion),
    Btrd(Btrd),
}

impl Binomial {
    /// The law `Bin(n, p)` for `p ∈ [0, 1]`.
    #[inline(always)]
    pub(crate) fn new(n: usize, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p}");
        let exact = |count| Binomial {
            n,
            reflected: false,
            sampler: Sampler::Exact(count),
        };
        if n == 0 || p <= 0.0 {
            return exact(0);
        }
        if p >= 1.0 {
            return exact(n);
        }
        let (reflected, p) = if p > 0.5 { (true, 1.0 - p) } else { (false, p) };
        let sampler = if p == 0.5 && n < FAIR_POPCOUNT_TRIALS {
            Sampler::FairPopcount
        } else if n as f64 * p >= BTRD_MIN_MEAN {
            Sampler::Btrd(Btrd::new(n, p))
        } else {
            Sampler::Inversion(Inversion::new(n, p))
        };
        Binomial {
            n,
            reflected,
            sampler,
        }
    }

    /// One draw of the law.
    #[inline]
    pub(crate) fn draw(&self, rng: &mut HdcRng) -> usize {
        let x = match &self.sampler {
            Sampler::Exact(count) => return *count,
            Sampler::FairPopcount => fair_popcount(self.n, rng),
            Sampler::Inversion(law) => law.draw(self.n, rng),
            Sampler::Btrd(law) => law.draw(self.n, rng),
        };
        if self.reflected {
            self.n - x
        } else {
            x
        }
    }
}

/// A draw of `Bin(n, p)`, building its law for this one draw.
///
/// The law's constructor and its branches' constructors and loops are
/// all inlined here, into one out-of-line function, so the law never
/// leaves registers: built in memory and read back, a one-draw law
/// costs ~20% more than the set-up did before laws could be built
/// once. Inlining the loops also took ~3% off a level cell.
#[inline(never)]
pub(crate) fn binomial(n: usize, p: f64, rng: &mut HdcRng) -> usize {
    Binomial::new(n, p).draw(rng)
}

/// `Bin(n, ½)` as the number of ones among `n` random bits.
fn fair_popcount(n: usize, rng: &mut HdcRng) -> usize {
    let (full, rest) = (n / 64, n % 64);
    let mut ones: u32 = (0..full).map(|_| rng.next_u64().count_ones()).sum();
    if rest > 0 {
        ones += (rng.next_u64() >> (64 - rest)).count_ones();
    }
    ones as usize
}

/// A uniform draw from `[0, 1)` with 53 random bits (converted as a
/// signed integer, which baseline x86-64 does in one instruction).
#[inline]
fn unit(rng: &mut HdcRng) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    ((rng.next_u64() >> 11) as i64) as f64 * SCALE
}

/// Sequential inversion for `n·p < 10`, `p ≤ ½`: walk the
/// probabilities `f(0), f(1), …`, each from the last by
/// `f(x) = f(x−1)·((n+1)/x − 1)·p/(1−p)`, until they cover the uniform
/// draw. With `n·p < 10` and `p ≤ ½`, `f(0) = (1−p)ⁿ > e⁻¹⁴`, so the
/// walk neither underflows nor runs long. A draw that rounding carries
/// past `n` is redrawn.
#[derive(Debug, Clone, Copy)]
struct Inversion {
    /// `p/(1−p)`.
    s: f64,
    /// `(n+1)·p/(1−p)`.
    a: f64,
    /// `f(0) = (1−p)ⁿ`.
    f0: f64,
}

impl Inversion {
    #[inline(always)]
    fn new(n: usize, p: f64) -> Self {
        let q = 1.0 - p;
        let s = p / q;
        Inversion {
            s,
            a: (n as f64 + 1.0) * s,
            f0: q.powf(n as f64),
        }
    }

    #[inline(always)]
    fn draw(&self, n: usize, rng: &mut HdcRng) -> usize {
        'draw: loop {
            let mut u = unit(rng);
            let mut f = self.f0;
            let mut x = 0usize;
            while u >= f {
                u -= f;
                x += 1;
                if x > n {
                    continue 'draw;
                }
                f *= self.a / x as f64 - self.s;
            }
            return x;
        }
    }
}

/// Algorithm BTRD for `n·p ≥ 10`, `p ≤ ½`. The hat is a transformed
/// rejection from a uniform pair; most draws return from the central
/// box without evaluating the distribution, the rest are accepted
/// against `ln f(k)/f(m)` at the mode `m`, read from the `ln k!`
/// table.
///
/// The fields are the draw's subexpressions that depend only on
/// `(n, p)`: each is a parenthesized term or the leading partial sum
/// of the formula that reads it, so caching it reorders no
/// floating-point sum or product, and a draw is bit for bit the one
/// the formulas evaluated in full would make.
#[derive(Debug, Clone, Copy)]
struct Btrd {
    /// `√(n·p·(1−p))`.
    sqrt_npq: f64,
    b: f64,
    a: f64,
    c: f64,
    v_r: f64,
    /// `u_r·v_r`: below it a draw lands in the central box.
    u_rv_r: f64,
    /// `α`'s first factor, `2.83 + 5.1/b`.
    height_scale: f64,
    /// `n + 1`: candidates lie in `[0, n + 1)`.
    upper: f64,
    /// The mode `m = ⌊(n + 1)·p⌋`.
    mode: f64,
    /// `ln m! + ln (n−m)!`.
    ln_mode: f64,
    /// `ln(p/(1−p))`.
    ln_odds: f64,
}

impl Btrd {
    #[inline(always)]
    fn new(n: usize, p: f64) -> Self {
        let nf = n as f64;
        let sqrt_npq = (nf * p * (1.0 - p)).sqrt();
        let b = 1.15 + 2.53 * sqrt_npq;
        let v_r = 0.92 - 4.2 / b;
        let m = ((nf + 1.0) * p) as usize;
        Btrd {
            sqrt_npq,
            b,
            a: -0.0873 + 0.0248 * b + 0.01 * p,
            c: nf * p + 0.5,
            v_r,
            u_rv_r: 0.86 * v_r,
            height_scale: 2.83 + 5.1 / b,
            upper: nf + 1.0,
            mode: m as f64,
            ln_mode: ln_factorial(m) + ln_factorial(n - m),
            ln_odds: (p / (1.0 - p)).ln(),
        }
    }

    #[inline(always)]
    fn draw(&self, n: usize, rng: &mut HdcRng) -> usize {
        let Btrd { a, b, c, v_r, .. } = *self;
        loop {
            // Step 1: the box under the distribution, accepted outright.
            // Candidates are floored by truncation: each is checked to be
            // non-negative first, and `f64::floor` is a libm call on
            // baseline x86-64.
            let mut v = unit(rng);
            if v <= self.u_rv_r {
                let u = v / v_r - 0.43;
                let x = (2.0 * a / (0.5 - u.abs()) + b) * u + c;
                debug_assert!((0.0..self.upper).contains(&x));
                return x as usize;
            }
            // Step 2: a point under the hat outside the box.
            let u = if v >= v_r {
                unit(rng) - 0.5
            } else {
                let w = v / v_r - 0.93;
                v = unit(rng) * v_r;
                0.5f64.copysign(w) - w
            };
            // Step 3: the candidate, accepted where its scaled height lies
            // under `f(k)/f(m) = m!·(n−m)!/(k!·(n−k)!)·(p/(1−p))^(k−m)`.
            let us = 0.5 - u.abs();
            let x = (2.0 * a / us + b) * u + c;
            if !(0.0..self.upper).contains(&x) {
                continue;
            }
            let k = x as usize;
            let height = v * self.height_scale * self.sqrt_npq / (a / (us * us) + b);
            let ratio = self.ln_mode - ln_factorial(k) - ln_factorial(n - k)
                + (k as f64 - self.mode) * self.ln_odds;
            if height.ln() <= ratio {
                return k;
            }
        }
    }
}

/// `ln k!`: tabulated up to [`LN_FACTORIAL_TABLE`] on first use, and
/// evaluated past it by the same formula the table holds, so a draw
/// does not depend on which side of the table a count falls.
fn ln_factorial(k: usize) -> f64 {
    static TABLE: OnceLock<Box<[f64]>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..LN_FACTORIAL_TABLE).map(ln_factorial_series).collect());
    match table.get(k) {
        Some(&ln) => ln,
        None => ln_factorial_past_table(k),
    }
}

/// The series past the table, kept out of line: inlined next to four
/// table reads it slows every BTRD draw by a fifth.
#[cold]
#[inline(never)]
fn ln_factorial_past_table(k: usize) -> f64 {
    ln_factorial_series(k)
}

/// `ln k!` through Stirling's series:
/// `(k + ½)·ln(k + 1) − (k + 1) + ½·ln 2π` plus its remainder.
fn ln_factorial_series(k: usize) -> f64 {
    let kf = k as f64;
    (kf + 0.5) * (kf + 1.0).ln() - (kf + 1.0)
        + 0.5 * (2.0 * std::f64::consts::PI).ln()
        + stirling_tail(kf)
}

/// The remainder of Stirling's series,
/// `ln k! − ((k + ½)·ln(k + 1) − (k + 1) + ½·ln 2π)`: tabulated below
/// 10, three terms of the asymptotic series from there (error below
/// `1/(1680·11⁷) ≈ 3·10⁻¹¹`).
fn stirling_tail(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_26,
        0.041_340_695_955_409_29,
        0.027_677_925_684_998_34,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_19,
        0.013_876_128_823_070_75,
        0.011_896_709_945_891_77,
        0.010_411_265_261_972_09,
        0.009_255_462_182_712_733,
        0.008_330_563_433_362_87,
    ];
    if k < 10.0 {
        return TABLE[k as usize];
    }
    let inv = 1.0 / (k + 1.0);
    let inv2 = inv * inv;
    (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv
}

/// The per-draw sampler as it was before laws were built once, kept
/// verbatim so tests can check that a law, prebuilt or not, draws
/// exactly what it drew: the same counts from the same words.
#[cfg(test)]
pub(crate) mod reference {
    use super::{fair_popcount, ln_factorial, unit, BTRD_MIN_MEAN, FAIR_POPCOUNT_TRIALS};
    use hdface_hdc::HdcRng;

    pub(crate) fn binomial(n: usize, p: f64, rng: &mut HdcRng) -> usize {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p}");
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        if p > 0.5 {
            return n - binomial_low(n, 1.0 - p, rng);
        }
        binomial_low(n, p, rng)
    }

    /// The constants `inversion` reads: `s`, `a` and `f0`.
    pub(crate) fn inversion_constants(n: usize, p: f64) -> [f64; 3] {
        let q = 1.0 - p;
        let s = p / q;
        [s, (n as f64 + 1.0) * s, q.powf(n as f64)]
    }

    /// The constants `btrd` reads, in `Btrd`'s field order: its set-up,
    /// then the terms of step 3 that depend only on `(n, p)`.
    pub(crate) fn btrd_constants(n: usize, p: f64) -> [f64; 11] {
        let nf = n as f64;
        let sqrt_npq = (nf * p * (1.0 - p)).sqrt();
        let b = 1.15 + 2.53 * sqrt_npq;
        let a = -0.0873 + 0.0248 * b + 0.01 * p;
        let c = nf * p + 0.5;
        let v_r = 0.92 - 4.2 / b;
        let u_rv_r = 0.86 * v_r;
        let m = ((nf + 1.0) * p) as usize;
        [
            sqrt_npq,
            b,
            a,
            c,
            v_r,
            u_rv_r,
            2.83 + 5.1 / b,
            nf + 1.0,
            m as f64,
            ln_factorial(m) + ln_factorial(n - m),
            (p / (1.0 - p)).ln(),
        ]
    }

    fn binomial_low(n: usize, p: f64, rng: &mut HdcRng) -> usize {
        if p == 0.5 && n < FAIR_POPCOUNT_TRIALS {
            fair_popcount(n, rng)
        } else if n as f64 * p >= BTRD_MIN_MEAN {
            btrd(n, p, rng)
        } else {
            inversion(n, p, rng)
        }
    }

    fn inversion(n: usize, p: f64, rng: &mut HdcRng) -> usize {
        let q = 1.0 - p;
        let s = p / q;
        let a = (n as f64 + 1.0) * s;
        let f0 = q.powf(n as f64);
        'draw: loop {
            let mut u = unit(rng);
            let mut f = f0;
            let mut x = 0usize;
            while u >= f {
                u -= f;
                x += 1;
                if x > n {
                    continue 'draw;
                }
                f *= a / x as f64 - s;
            }
            return x;
        }
    }

    fn btrd(n: usize, p: f64, rng: &mut HdcRng) -> usize {
        let nf = n as f64;
        let sqrt_npq = (nf * p * (1.0 - p)).sqrt();
        let b = 1.15 + 2.53 * sqrt_npq;
        let a = -0.0873 + 0.0248 * b + 0.01 * p;
        let c = nf * p + 0.5;
        let v_r = 0.92 - 4.2 / b;
        let u_rv_r = 0.86 * v_r;
        loop {
            // Step 1: the box under the distribution, accepted outright.
            // Candidates are floored by truncation: each is checked to be
            // non-negative first, and `f64::floor` is a libm call on
            // baseline x86-64.
            let mut v = unit(rng);
            if v <= u_rv_r {
                let u = v / v_r - 0.43;
                let x = (2.0 * a / (0.5 - u.abs()) + b) * u + c;
                debug_assert!((0.0..nf + 1.0).contains(&x));
                return x as usize;
            }
            // Step 2: a point under the hat outside the box.
            let u = if v >= v_r {
                unit(rng) - 0.5
            } else {
                let w = v / v_r - 0.93;
                v = unit(rng) * v_r;
                0.5f64.copysign(w) - w
            };
            // Step 3: the candidate, accepted where its scaled height lies
            // under `f(k)/f(m) = m!·(n−m)!/(k!·(n−k)!)·(p/(1−p))^(k−m)`.
            let us = 0.5 - u.abs();
            let x = (2.0 * a / us + b) * u + c;
            if !(0.0..nf + 1.0).contains(&x) {
                continue;
            }
            let (k, m) = (x as usize, ((nf + 1.0) * p) as usize);
            let height = v * (2.83 + 5.1 / b) * sqrt_npq / (a / (us * us) + b);
            let ratio =
                ln_factorial(m) + ln_factorial(n - m) - ln_factorial(k) - ln_factorial(n - k)
                    + (k as f64 - m as f64) * (p / (1.0 - p)).ln();
            if height.ln() <= ratio {
                return k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdface_hdc::{BitVector, SeedableRng};

    /// `ln C(n, k)`, summed exactly enough for the `n` tested here.
    fn ln_choose(n: usize, k: usize) -> f64 {
        let ln_fact = |m: usize| (1..=m).map(|i| (i as f64).ln()).sum::<f64>();
        ln_fact(n) - ln_fact(k) - ln_fact(n - k)
    }

    fn pmf(n: usize, p: f64) -> Vec<f64> {
        (0..=n)
            .map(|k| (ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp())
            .collect()
    }

    fn draws(n: usize, p: f64, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = HdcRng::seed_from_u64(seed);
        (0..count).map(|_| binomial(n, p, &mut rng)).collect()
    }

    /// The upper `0.001` quantile of χ² with `df` degrees of freedom
    /// (Wilson–Hilferty; within 1% for `df ≥ 3`).
    fn chi2_critical(df: usize) -> f64 {
        let df = df as f64;
        let z = 3.090_2;
        let c = 2.0 / (9.0 * df);
        df * (1.0 - c + z * c.sqrt()).powi(3)
    }

    /// χ² of `count` draws against the exact PMF, with the tails pooled
    /// until every class expects at least 5 draws.
    fn chi_square(n: usize, p: f64, count: usize, seed: u64) -> (f64, usize) {
        let f = pmf(n, p);
        let mut observed = vec![0usize; n + 1];
        for k in draws(n, p, count, seed) {
            observed[k] += 1;
        }
        let expected: Vec<f64> = f.iter().map(|&q| q * count as f64).collect();
        // Classes: [0, lo], then singletons, then [hi, n].
        let mut lo = 0;
        let mut acc = expected[0];
        while acc < 5.0 {
            lo += 1;
            acc += expected[lo];
        }
        let mut hi = n;
        let mut acc = expected[hi];
        while acc < 5.0 {
            hi -= 1;
            acc += expected[hi];
        }
        let mut classes: Vec<(f64, usize)> =
            vec![(expected[..=lo].iter().sum(), observed[..=lo].iter().sum())];
        for k in lo + 1..hi {
            classes.push((expected[k], observed[k]));
        }
        classes.push((expected[hi..].iter().sum(), observed[hi..].iter().sum()));
        let stat = classes
            .iter()
            .map(|&(e, o)| (o as f64 - e).powi(2) / e)
            .sum();
        (stat, classes.len() - 1)
    }

    #[test]
    fn degenerate_cases_are_exact_and_draw_nothing() {
        let mut rng = HdcRng::seed_from_u64(1);
        let mut untouched = HdcRng::seed_from_u64(1);
        assert_eq!(binomial(0, 0.3, &mut rng), 0);
        assert_eq!(binomial(0, 1.0, &mut rng), 0);
        assert_eq!(binomial(100, 0.0, &mut rng), 0);
        assert_eq!(binomial(100, 1.0, &mut rng), 100);
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn stirling_table_matches_the_log_factorials() {
        for k in 0..40usize {
            let kf = k as f64;
            let ln_fact: f64 = (1..=k).map(|i| (i as f64).ln()).sum();
            let want = ln_fact
                - ((kf + 0.5) * (kf + 1.0).ln() - (kf + 1.0)
                    + 0.5 * (2.0 * std::f64::consts::PI).ln());
            assert!((stirling_tail(kf) - want).abs() < 1e-10, "k = {k}");
        }
    }

    #[test]
    fn ln_factorial_matches_the_summed_logs_across_the_table_edge() {
        // Compensated summation keeps the reference within a few ulps.
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        for k in 0..=LN_FACTORIAL_TABLE + 100 {
            if k > 0 {
                let term = (k as f64).ln();
                let next = sum + term;
                carry += if sum.abs() >= term.abs() {
                    (sum - next) + term
                } else {
                    (term - next) + sum
                };
                sum = next;
            }
            if k < 50 || k + 50 > LN_FACTORIAL_TABLE {
                let tol = 1e-10 + 4e-15 * sum;
                assert!((ln_factorial(k) - (sum + carry)).abs() < tol, "k = {k}");
            }
        }
    }

    #[test]
    fn moments_match_across_branches() {
        // (n, p): inversion, inversion reflected, BTRD near and far
        // from the mode, BTRD reflected, and the D-sized counts of the
        // cell pass.
        let cases = [
            (40usize, 0.1),
            (40, 0.93),
            (64, 0.5),
            (4096, 0.3),
            (4096, 0.77),
            (8193, 0.000_5),
            (8193, 0.499_992_370_605_468_75),
            (2, 0.5),
        ];
        let count = 100_000;
        for (i, &(n, p)) in cases.iter().enumerate() {
            let xs = draws(n, p, count, 100 + i as u64);
            let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / count as f64;
            let var =
                xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / (count - 1) as f64;
            let (want_mean, want_var) = (n as f64 * p, n as f64 * p * (1.0 - p));
            let se = (want_var / count as f64).sqrt();
            assert!(
                (mean - want_mean).abs() < 3.0 * se,
                "Bin({n}, {p}): mean {mean} vs {want_mean} (se {se})"
            );
            assert!(
                (var / want_var - 1.0).abs() < 0.03,
                "Bin({n}, {p}): variance {var} vs {want_var}"
            );
        }
    }

    #[test]
    fn small_n_draws_follow_the_exact_pmf() {
        // One case per branch: inversion, BTRD, and each reflected.
        for (i, &(n, p)) in [(64usize, 0.1), (64, 0.5), (64, 0.9), (50, 0.7)]
            .iter()
            .enumerate()
        {
            let (stat, df) = chi_square(n, p, 200_000, 200 + i as u64);
            assert!(
                stat < chi2_critical(df),
                "Bin({n}, {p}): χ² = {stat:.1} on {df} df"
            );
        }
    }

    #[test]
    fn btrd_tails_follow_the_exact_pmf() {
        // Wide enough that most draws land more than 15 from the mode,
        // where the squeeze and the Stirling bound decide.
        let (stat, df) = chi_square(2000, 0.35, 200_000, 300);
        assert!(stat < chi2_critical(df), "χ² = {stat:.1} on {df} df");
    }

    /// The density of the count root's squared probe at distance `h`
    /// from `V₁` in dimensionality `dim`.
    fn rho(dim: usize, h: usize) -> f64 {
        let v = (dim as i64 - 2 * h as i64) as f64 / dim as f64;
        BitVector::realized_density((1.0 + v) / 2.0)
    }

    /// The branch a law draws from, and whether it is reflected.
    fn branch(law: &Binomial) -> (&'static str, bool) {
        let name = match law.sampler {
            Sampler::Exact(_) => "exact",
            Sampler::FairPopcount => "popcount",
            Sampler::Inversion(_) => "inversion",
            Sampler::Btrd(_) => "btrd",
        };
        (name, law.reflected)
    }

    #[test]
    fn law_constants_are_the_reference_expressions_bit_for_bit() {
        // A reordered expression changes a constant's last bit for some
        // law, but moves a draw only where that bit decides a truncation
        // or an acceptance, which the draws of the test below almost
        // never hit. So the constants themselves of every law the count
        // tables hold at three dimensionalities, and of the root's ⅓
        // laws, are compared with the reference's.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut btrd, mut inversion) = (0, 0);
        for dim in [512usize, 4096, 8193] {
            let laws = (0..=dim)
                .flat_map(|h| {
                    let p = rho(dim, h);
                    [(dim - h, p), (h, 1.0 - p), (h, 0.5), (dim - h, 1.0 / 3.0)]
                })
                .chain([(dim, 0.25)]);
            for (n, p) in laws {
                let law = Binomial::new(n, p);
                let p = if p > 0.5 { 1.0 - p } else { p };
                match law.sampler {
                    Sampler::Btrd(got) => {
                        let got = [
                            got.sqrt_npq,
                            got.b,
                            got.a,
                            got.c,
                            got.v_r,
                            got.u_rv_r,
                            got.height_scale,
                            got.upper,
                            got.mode,
                            got.ln_mode,
                            got.ln_odds,
                        ];
                        let want = reference::btrd_constants(n, p);
                        assert_eq!(bits(&got), bits(&want), "Bin({n}, {p})");
                        btrd += 1;
                    }
                    Sampler::Inversion(got) => {
                        let want = reference::inversion_constants(n, p);
                        assert_eq!(bits(&[got.s, got.a, got.f0]), bits(&want), "Bin({n}, {p})");
                        inversion += 1;
                    }
                    Sampler::Exact(_) | Sampler::FairPopcount => {}
                }
            }
        }
        assert!(
            btrd > 40_000 && inversion > 100,
            "{btrd} BTRD, {inversion} inversion laws"
        );
    }

    #[test]
    fn prebuilt_and_per_draw_laws_draw_what_the_reference_sampler_draws() {
        // The probe pair of the count root at D = 4096, h = 1500, and at
        // D = 8193, h = 2000: `Bin(D − h, ρ)` and `Bin(h, 1 − ρ)`.
        let (rho_4096, rho_8193) = (rho(4096, 1500), rho(8193, 2000));
        let cases = [
            (0usize, 0.3, ("exact", false)),
            (100, 0.0, ("exact", false)),
            (100, 1.0, ("exact", false)),
            (1, 0.5, ("popcount", false)),
            (200, 0.5, ("popcount", false)),
            (255, 0.5, ("popcount", false)),
            (40, 0.1, ("inversion", false)),
            (5000, 0.001, ("inversion", false)),
            (40, 0.93, ("inversion", true)),
            (5000, 0.999, ("inversion", true)),
            (64, 0.3, ("btrd", false)),
            (2000, 0.35, ("btrd", false)),
            (256, 0.5, ("btrd", false)),
            (2000, 0.65, ("btrd", true)),
            (4096, 0.77, ("btrd", true)),
            // The D-sized counts of the cell pass: the root's first
            // midpoint, its ⅓ law, probe pairs and fair counts, and the
            // sign law's fair count.
            (4096, 0.25, ("btrd", false)),
            (2596, 1.0 / 3.0, ("btrd", false)),
            (4096 - 1500, rho_4096, ("btrd", true)),
            (1500, 1.0 - rho_4096, ("btrd", false)),
            (8193 - 2000, rho_8193, ("btrd", true)),
            (2000, 1.0 - rho_8193, ("btrd", false)),
            (4096, 0.5, ("btrd", false)),
            (8193, 0.5, ("btrd", false)),
        ];
        for (i, &(n, p, want_branch)) in cases.iter().enumerate() {
            let law = Binomial::new(n, p);
            assert_eq!(branch(&law), want_branch, "Bin({n}, {p})");
            let seed = 400 + i as u64;
            let mut prebuilt = HdcRng::seed_from_u64(seed);
            let mut fresh = HdcRng::seed_from_u64(seed);
            let mut old = HdcRng::seed_from_u64(seed);
            for draw in 0..100_000 {
                let want = reference::binomial(n, p, &mut old);
                assert_eq!(law.draw(&mut prebuilt), want, "Bin({n}, {p}), draw {draw}");
                assert_eq!(
                    binomial(n, p, &mut fresh),
                    want,
                    "Bin({n}, {p}), draw {draw}"
                );
            }
            let next = old.next_u64();
            assert_eq!(prebuilt.next_u64(), next, "Bin({n}, {p}): stream");
            assert_eq!(fresh.next_u64(), next, "Bin({n}, {p}): stream");
        }
    }
}
