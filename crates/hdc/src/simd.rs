//! Runtime-dispatched word kernels: XOR+popcount, the stochastic
//! mask stream and the HD-HOG pixel sweep.
//!
//! All Hamming-distance work in this crate bottoms out in one
//! primitive: XOR two equal-length `u64` slices and count the set
//! bits of the result. This module provides that primitive in three
//! flavours — a portable scalar loop, an AVX2 path (x86_64) and a
//! NEON path (aarch64) — and picks one **once per process** based on
//! what the CPU reports at runtime. The biased mask words behind
//! [`BitVector::random_with_density`](crate::BitVector::random_with_density)
//! come from the same dispatch: eight interleaved xoshiro256++ lanes,
//! stepped eight words at a time in one 512-bit register on AVX-512,
//! in two 256-bit registers on AVX2, and one lane pair at a time
//! elsewhere. The gradient sweep behind
//! [`gradient_sweep`](crate::gradient_sweep) fuses one pixel of the
//! cell pass into a single pass over the D bits: it steps both ½
//! masks' lanes in registers, forms each gradient word from them and
//! takes every count the pixel reads as it goes.
//!
//! Three backends can be active on x86_64 ([`SimdBackend`]):
//!
//! - **`Avx512`** (`avx512f` + `avx512dq` + the AVX2 set below): the
//!   512-bit mask kernel, and the 512-bit sweep where
//!   `avx512vpopcntdq` is found too — that feature has its own probe,
//!   and a CPU without it runs the AVX2 sweep. Hamming queries keep
//!   the AVX2 kernels, so similarity search is unchanged on these
//!   CPUs.
//! - **`Avx2`** (`avx2` + `popcnt`): the 256-bit mask kernel and sweep
//!   and the nibble-LUT Hamming kernels.
//! - **`Scalar`**: portable loops; always available.
//!
//! aarch64 has `Neon` (Hamming only; its masks and sweep use the
//! scalar kernels) and `Scalar`.
//!
//! Dispatch policy:
//!
//! - `HDFACE_NO_SIMD=1` in the environment forces the scalar path,
//!   regardless of what the CPU supports. Any other value (or an
//!   unset variable) leaves detection in charge.
//! - On x86_64 the best supported backend wins; every feature is
//!   probed with [`std::arch::is_x86_feature_detected!`].
//! - On aarch64 the NEON path is used when `neon` is detected (it is
//!   architecturally mandatory, so this is effectively always).
//! - Everywhere else, or when detection fails, the scalar loop runs.
//!
//! Determinism: a Hamming distance is a sum of per-word popcounts —
//! non-negative integers — so any grouping or vector lane order
//! produces the same total. Every backend is therefore bit-identical
//! by construction, and the differential proptests in
//! `tests/kernels_proptest.rs` verify it on random inputs. The mask
//! stream is defined lane by lane (word `j` of every digit pass comes
//! from lane `j mod 8`), so stepping the lanes side by side or one
//! after another yields the same words; `tests/mask_stream_proptest.rs`
//! pins that word for word on every backend the CPU supports. The
//! sweep's masks are those words and its outputs are counts, so
//! `tests/sweep_proptest.rs` holds every sweep to the unfused ops.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it, and each call site documents why it is
//! sound (the target feature was runtime-detected before the function
//! pointer was ever taken).
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::bundler::full_add;

/// Which word-kernel implementation services Hamming queries,
/// stochastic mask generation and the pixel sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable word-at-a-time loops; always available.
    Scalar,
    /// 256-bit AVX2: nibble-LUT popcount and a two-register mask
    /// stream and sweep (x86_64 only).
    Avx2,
    /// 512-bit AVX-512 (`avx512f` + `avx512dq`) mask stream, all eight
    /// lanes in one register, and the 512-bit VPOPCNTDQ sweep where
    /// `avx512vpopcntdq` is detected (the AVX2 sweep otherwise);
    /// Hamming queries keep the AVX2 kernels (x86_64 only).
    Avx512,
    /// 128-bit NEON `vcnt`-based popcount; masks and the sweep use the
    /// scalar kernels (aarch64 only).
    Neon,
}

impl SimdBackend {
    /// Stable lowercase name, used in benchmark reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512 => "avx512",
            SimdBackend::Neon => "neon",
        }
    }
}

/// `avx2` and `popcnt`, the AVX2 kernels' features.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

/// `avx512f` and `avx512dq` on top of the AVX2 set: the AVX-512
/// backend also runs the AVX2 Hamming kernels.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_detected() -> bool {
    avx2_detected()
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// The backend the CPU supports, ignoring the `HDFACE_NO_SIMD`
/// override. Probed fresh on every call (cheap: feature detection is
/// cached by `std`).
pub fn detected_backend() -> SimdBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_detected() {
            return SimdBackend::Avx512;
        }
        if avx2_detected() {
            return SimdBackend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdBackend::Neon;
        }
    }
    SimdBackend::Scalar
}

/// The backend actually used by the dispatched kernels, decided once
/// per process: [`detected_backend`] unless `HDFACE_NO_SIMD=1` forces
/// the scalar path.
pub fn active_backend() -> SimdBackend {
    static ACTIVE: OnceLock<SimdBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let disabled = std::env::var("HDFACE_NO_SIMD")
            .map(|v| v.trim() == "1")
            .unwrap_or(false);
        if disabled {
            SimdBackend::Scalar
        } else {
            detected_backend()
        }
    })
}

/// XOR+popcount over two equal-length word slices using an explicit
/// backend. Falls back to scalar if the requested backend is not
/// compiled for (or supported by) this machine, so callers may pass
/// any variant safely.
#[inline]
pub(crate) fn hamming_words_with(backend: SimdBackend, a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 | SimdBackend::Avx512 if avx2_detected() => {
            // SAFETY: avx2 and popcnt were just runtime-detected.
            unsafe { hamming_words_avx2(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon if std::arch::is_aarch64_feature_detected!("neon") => {
            // SAFETY: neon was just runtime-detected.
            unsafe { hamming_words_neon(a, b) }
        }
        _ => hamming_words_scalar(a, b),
    }
}

/// XOR+popcount over two equal-length word slices with the process-
/// wide [`active_backend`].
#[inline]
pub(crate) fn hamming_words(a: &[u64], b: &[u64]) -> u64 {
    hamming_words_with(active_backend(), a, b)
}

/// One tile of the blocked distance kernel: fills
/// `out[j * cands.len() + ci]` with the Hamming distance between tile
/// query `j` and candidate `ci`. On the SIMD backends the whole
/// candidate × query loop nest runs inside a single
/// `#[target_feature]` region, so the per-pair word kernel inlines
/// instead of paying an uninlinable cross-feature call per pair —
/// this is where the blocked kernels' throughput edge over per-pair
/// dispatch comes from. Falls back to scalar exactly like
/// [`hamming_words_with`].
pub(crate) fn hamming_tile_into_with(
    backend: SimdBackend,
    queries: &[&[u64]],
    cands: &[&[u64]],
    out: &mut [u64],
) {
    debug_assert_eq!(out.len(), queries.len() * cands.len());
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 | SimdBackend::Avx512 if avx2_detected() => {
            // SAFETY: avx2 and popcnt were just runtime-detected.
            unsafe { hamming_tile_avx2(queries, cands, out) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon if std::arch::is_aarch64_feature_detected!("neon") => {
            // SAFETY: neon was just runtime-detected.
            unsafe { hamming_tile_neon(queries, cands, out) }
        }
        _ => hamming_tile_scalar(queries, cands, out),
    }
}

/// Portable tile loop: candidates outer so each candidate's words
/// stay hot across the tile's queries — the loop order every backend
/// shares (the output layout stays row-major by query regardless).
fn hamming_tile_scalar(queries: &[&[u64]], cands: &[&[u64]], out: &mut [u64]) {
    let ncand = cands.len();
    for (ci, c) in cands.iter().enumerate() {
        for (j, q) in queries.iter().enumerate() {
            out[j * ncand + ci] = hamming_words_scalar(q, c);
        }
    }
}

/// AVX2 tile loop (see [`hamming_tile_into_with`]): queries outer,
/// candidates walked in pairs through [`hamming_words_avx2_pair`],
/// which shares each query load between both candidates and folds
/// both horizontal reductions into one interleave-add — the per-pair
/// reduction is what dominates the plain kernel at short dimensions.
/// An odd trailing candidate falls back to the single-pair kernel.
/// All inner calls inline because caller and callees share the same
/// target features.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2` and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn hamming_tile_avx2(queries: &[&[u64]], cands: &[&[u64]], out: &mut [u64]) {
    let ncand = cands.len();
    for (j, q) in queries.iter().enumerate() {
        let row = &mut out[j * ncand..][..ncand];
        let mut ci = 0;
        while ci + 2 <= ncand {
            // SAFETY: this function's own contract guarantees avx2 +
            // popcnt.
            let (d0, d1) = unsafe { hamming_words_avx2_pair(q, cands[ci], cands[ci + 1]) };
            row[ci] = d0;
            row[ci + 1] = d1;
            ci += 2;
        }
        if ci < ncand {
            // SAFETY: as above.
            row[ci] = unsafe { hamming_words_avx2(q, cands[ci]) };
        }
    }
}

/// Distances from one query to two candidates in a single pass: the
/// query's words are loaded once per iteration and XORed against both
/// candidates, two `psadbw` accumulators run in parallel (better port
/// utilization than back-to-back single-pair calls), and one
/// interleave-add folds both four-lane accumulators down to the two
/// totals — halving the horizontal-reduction cost that dominates
/// short vectors.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2` and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[inline]
unsafe fn hamming_words_avx2_pair(q: &[u64], c0: &[u64], c1: &[u64]) -> (u64, u64) {
    use std::arch::x86_64::*;

    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let mut acc0 = zero;
    let mut acc1 = zero;

    let chunks = q.len() / 4;
    for i in 0..chunks {
        // SAFETY: i * 4 + 3 < q.len() == c0.len() == c1.len(); loads
        // are unaligned.
        let vq = unsafe { _mm256_loadu_si256(q.as_ptr().add(i * 4).cast()) };
        let v0 = unsafe { _mm256_loadu_si256(c0.as_ptr().add(i * 4).cast()) };
        let v1 = unsafe { _mm256_loadu_si256(c1.as_ptr().add(i * 4).cast()) };
        let x0 = _mm256_xor_si256(vq, v0);
        let x1 = _mm256_xor_si256(vq, v1);
        let n0 = _mm256_add_epi8(
            _mm256_shuffle_epi8(lut, _mm256_and_si256(x0, low_mask)),
            _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16(x0, 4), low_mask)),
        );
        let n1 = _mm256_add_epi8(
            _mm256_shuffle_epi8(lut, _mm256_and_si256(x1, low_mask)),
            _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16(x1, 4), low_mask)),
        );
        acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(n0, zero));
        acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(n1, zero));
    }

    // Grouped reduction: interleave the two accumulators so one
    // vector add folds lanes {0,1} and {2,3} of both at once, then
    // collapse the two 128-bit halves — both totals emerge from a
    // single 128-bit vector.
    let lo = _mm256_unpacklo_epi64(acc0, acc1); // [a0, b0, a2, b2]
    let hi = _mm256_unpackhi_epi64(acc0, acc1); // [a1, b1, a3, b3]
    let sum = _mm256_add_epi64(lo, hi); // [a0+a1, b0+b1, a2+a3, b2+b3]
    let folded = _mm_add_epi64(
        _mm256_castsi256_si128(sum),
        _mm256_extracti128_si256(sum, 1),
    ); // [a_total, b_total]
    let mut pair = [0u64; 2];
    // SAFETY: `pair` is 16 bytes; store is unaligned.
    unsafe { _mm_storeu_si128(pair.as_mut_ptr().cast(), folded) };
    let (mut d0, mut d1) = (pair[0], pair[1]);

    for i in chunks * 4..q.len() {
        d0 += u64::from((q[i] ^ c0[i]).count_ones());
        d1 += u64::from((q[i] ^ c1[i]).count_ones());
    }
    (d0, d1)
}

/// NEON tile loop (see [`hamming_tile_into_with`]).
///
/// # Safety
///
/// Callers must ensure the CPU supports `neon`.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn hamming_tile_neon(queries: &[&[u64]], cands: &[&[u64]], out: &mut [u64]) {
    let ncand = cands.len();
    for (ci, c) in cands.iter().enumerate() {
        for (j, q) in queries.iter().enumerate() {
            // SAFETY: this function's own contract guarantees neon.
            out[j * ncand + ci] = unsafe { hamming_words_neon(q, c) };
        }
    }
}

/// Portable reference: one `count_ones` per word pair.
#[inline]
fn hamming_words_scalar(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// Word count below which the AVX2 kernel runs on hardware `popcnt`
/// instead of the vector LUT: for short slices (D = 1024 is 16
/// words) the LUT's setup and horizontal `psadbw` reduction cost
/// more than one `popcnt` per word, which issues every cycle.
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_WORDS: usize = 32;

/// AVX2 kernel. Short slices (< [`AVX2_MIN_WORDS`] words) XOR and
/// hardware-`popcnt` word by word — under this function's target
/// features `count_ones` lowers to the `popcnt` instruction. Longer
/// slices XOR 4 words (256 bits) per iteration and popcount bytes
/// via the classic nibble lookup (`pshufb`), widened with `psadbw`
/// into four u64 lanes. Per-byte counts peak at 8 before the
/// immediate `psadbw` widening, so no iteration count can overflow.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2` and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[inline]
unsafe fn hamming_words_avx2(a: &[u64], b: &[u64]) -> u64 {
    use std::arch::x86_64::*;

    if a.len() < AVX2_MIN_WORDS {
        // Four independent accumulators so the popcnt results retire
        // in parallel instead of serializing on one running sum.
        let mut sums = [0u64; 4];
        for (ca, cb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
            sums[0] += u64::from((ca[0] ^ cb[0]).count_ones());
            sums[1] += u64::from((ca[1] ^ cb[1]).count_ones());
            sums[2] += u64::from((ca[2] ^ cb[2]).count_ones());
            sums[3] += u64::from((ca[3] ^ cb[3]).count_ones());
        }
        let mut total = sums[0] + sums[1] + sums[2] + sums[3];
        let rem = a.len() - a.len() % 4;
        for (x, y) in a[rem..].iter().zip(&b[rem..]) {
            total += u64::from((x ^ y).count_ones());
        }
        return total;
    }

    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let mut acc = zero;

    let chunks = a.len() / 4;
    for i in 0..chunks {
        // SAFETY: i * 4 + 3 < a.len() == b.len(); loads are unaligned.
        let va = unsafe { _mm256_loadu_si256(a.as_ptr().add(i * 4).cast()) };
        let vb = unsafe { _mm256_loadu_si256(b.as_ptr().add(i * 4).cast()) };
        let x = _mm256_xor_si256(va, vb);
        let lo = _mm256_and_si256(x, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
        let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, zero));
    }

    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is 32 bytes; store is unaligned.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];

    for i in chunks * 4..a.len() {
        total += u64::from((a[i] ^ b[i]).count_ones());
    }
    total
}

/// NEON kernel: XOR 2 words (128 bits) per iteration, byte popcount
/// with `vcnt`, pairwise-widen to a u64 accumulator pair.
///
/// # Safety
///
/// Callers must ensure the CPU supports `neon` (architecturally
/// mandatory on aarch64, but detected anyway).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[inline]
unsafe fn hamming_words_neon(a: &[u64], b: &[u64]) -> u64 {
    use std::arch::aarch64::*;

    let mut acc = vdupq_n_u64(0);
    let chunks = a.len() / 2;
    for i in 0..chunks {
        // SAFETY: i * 2 + 1 < a.len() == b.len().
        let va = unsafe { vld1q_u64(a.as_ptr().add(i * 2)) };
        let vb = unsafe { vld1q_u64(b.as_ptr().add(i * 2)) };
        let x = veorq_u64(va, vb);
        let counts = vcntq_u8(vreinterpretq_u8_u64(x));
        acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(counts))));
    }
    let mut total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);

    for i in chunks * 2..a.len() {
        total += u64::from((a[i] ^ b[i]).count_ones());
    }
    total
}

/// Number of interleaved xoshiro256++ generators behind the mask
/// stream: one 512-bit register's (two 256-bit registers') worth of
/// 64-bit lanes.
pub(crate) const MASK_LANES: usize = 8;

/// splitmix64's state increment.
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// splitmix64's two output multipliers.
const SPLITMIX_M1: u64 = 0xbf58_476d_1ce4_e5b9;
const SPLITMIX_M2: u64 = 0x94d0_49bb_1331_11eb;

/// splitmix64's output mix: a bijection on `u64`.
#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(SPLITMIX_M1);
    z = (z ^ (z >> 27)).wrapping_mul(SPLITMIX_M2);
    z ^ (z >> 31)
}

/// splitmix64 state `i` of the walk from `seed`: `seed + i·γ`.
#[inline]
fn splitmix64_state(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(SPLITMIX_GAMMA))
}

/// Seeds one lane. The lanes take consecutive outputs of a single
/// splitmix64 walk from `seed`, four per lane, lane 0 first; output
/// `i` (from 1) is `mix(seed + i·γ)`, so any lane is seeded in closed
/// form without walking past the others. The walk's 32 states are
/// distinct and the mix is a bijection, so at most one of the 32
/// words is zero and no lane starts in the all-zero state xoshiro
/// never leaves.
#[inline]
fn mask_lane_state(seed: u64, lane: usize) -> [u64; 4] {
    std::array::from_fn(|k| splitmix64_mix(splitmix64_state(seed, 4 * lane + k + 1)))
}

/// One xoshiro256++ step on a single lane's state.
#[inline]
fn xoshiro_next(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// Fills `words` with a mask whose bits are set independently with
/// probability `q / 2^bits` (`0 < q < 2^bits`), using an explicit
/// backend. Falls back to scalar like [`hamming_words_with`].
///
/// `words` must start zeroed. For each binary digit of `q`, LSB first
/// from its lowest set digit, one pass draws a fresh word `r` per
/// storage word and applies `w ← digit ? (w | r) : (w & r)`. Word `j`
/// of every pass comes from lane `j mod 8` of the generators seeded by
/// [`mask_lane_state`], so the stream is a pure function of
/// `(seed, q, bits, words.len())` on every backend.
pub(crate) fn density_mask_into_with(
    backend: SimdBackend,
    seed: u64,
    q: u32,
    bits: u32,
    words: &mut [u64],
) {
    debug_assert!(q > 0 && q < 1 << bits);
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 if avx512_detected() => {
            // SAFETY: avx512f and avx512dq were just runtime-detected.
            unsafe { density_mask_avx512(seed, q, bits, words) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: avx2 was just runtime-detected.
            unsafe { density_mask_avx2(seed, q, bits, words) }
        }
        _ => density_mask_scalar(seed, q, bits, words),
    }
}

/// Portable mask kernel, lane-major: lanes `2i` and `2i + 1` run all
/// of their digit passes over words `2i, 2i + 1, 2i + 8, 2i + 9, …`
/// before the next pair starts, so only those two lanes' four state
/// words each are live — two independent dependency chains without
/// spilling. Lanes never share state, which is why this order yields
/// the same words as stepping all eight side by side. Lanes with no
/// word are never stepped.
///
/// Each pair replays the digit sequence of `q`, so a branch on the
/// digit would mispredict on about half of the short per-pair passes;
/// the combine is branchless instead: with `m` all ones for a set
/// digit, `((w ^ m) & (r ^ m)) ^ m` is `w | r`, and with `m = 0` it
/// is `w & r`.
fn density_mask_scalar(seed: u64, q: u32, bits: u32, words: &mut [u64]) {
    for first in (0..MASK_LANES.min(words.len())).step_by(2) {
        let mut pair = [
            mask_lane_state(seed, first),
            mask_lane_state(seed, first + 1),
        ];
        let from_first = &mut words[first..];
        for digit in q.trailing_zeros()..bits {
            let m = 0u64.wrapping_sub(u64::from((q >> digit) & 1));
            scalar_pair_pass(from_first, &mut pair, |w, r| ((w ^ m) & (r ^ m)) ^ m);
        }
    }
}

/// One digit pass of a lane pair over `words` (which starts at the
/// pair's first word): the first two words of every 8-word group.
#[inline]
fn scalar_pair_pass(
    words: &mut [u64],
    [a, b]: &mut [[u64; 4]; 2],
    combine: impl Fn(u64, u64) -> u64,
) {
    let mut groups = words.chunks_exact_mut(MASK_LANES);
    for group in &mut groups {
        let (ra, rb) = (xoshiro_next(a), xoshiro_next(b));
        group[0] = combine(group[0], ra);
        group[1] = combine(group[1], rb);
    }
    let tail = groups.into_remainder();
    if let Some(w) = tail.first_mut() {
        *w = combine(*w, xoshiro_next(a));
    }
    if let Some(w) = tail.get_mut(1) {
        *w = combine(*w, xoshiro_next(b));
    }
}

/// Four xoshiro256++ lanes stepped at once: `s[k]` holds state word
/// `k` of each lane. Returns the four outputs.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn xoshiro_next_x4(s: &mut [std::arch::x86_64::__m256i; 4]) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;

    let sum = _mm256_add_epi64(s[0], s[3]);
    let rot = _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
    let result = _mm256_add_epi64(rot, s[0]);
    let t = _mm256_slli_epi64::<17>(s[1]);
    s[2] = _mm256_xor_si256(s[2], s[0]);
    s[3] = _mm256_xor_si256(s[3], s[1]);
    s[1] = _mm256_xor_si256(s[1], s[2]);
    s[0] = _mm256_xor_si256(s[0], s[3]);
    s[2] = _mm256_xor_si256(s[2], t);
    s[3] = _mm256_or_si256(_mm256_slli_epi64::<45>(s[3]), _mm256_srli_epi64::<19>(s[3]));
    result
}

/// `a · m` per 64-bit lane, modulo 2⁶⁴ (AVX2 has no 64-bit multiply):
/// the low product plus both cross products shifted up 32 bits.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mul_u64_x4(a: std::arch::x86_64::__m256i, m: u64) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;

    let m_lo = _mm256_set1_epi64x(i64::from(m as u32));
    let m_hi = _mm256_set1_epi64x((m >> 32) as i64);
    let low = _mm256_mul_epu32(a, m_lo);
    let cross = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), m_lo),
        _mm256_mul_epu32(a, m_hi),
    );
    _mm256_add_epi64(low, _mm256_slli_epi64::<32>(cross))
}

/// [`splitmix64_mix`] on four lanes.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn splitmix64_mix_x4(z: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;

    // SAFETY: avx2 is guaranteed by this function's contract.
    unsafe {
        let z = mul_u64_x4(_mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)), SPLITMIX_M1);
        let z = mul_u64_x4(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), SPLITMIX_M2);
        _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
    }
}

/// Lanes `first..first + 4` of the mask stream from `seed`, seeded in
/// place: register `k` holds state word `k` of the four lanes
/// ([`mask_lane_state`]), the splitmix64 mix run on all four at once.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mask_lanes_x4(seed: u64, first: usize) -> [std::arch::x86_64::__m256i; 4] {
    use std::arch::x86_64::*;

    let seeds = _mm256_set1_epi64x(seed as i64);
    std::array::from_fn(|k| {
        let step = |l: usize| splitmix64_state(0, 4 * (first + l) + k + 1) as i64;
        let z = _mm256_add_epi64(
            seeds,
            _mm256_setr_epi64x(step(0), step(1), step(2), step(3)),
        );
        // SAFETY: avx2 is guaranteed by this function's contract.
        unsafe { splitmix64_mix_x4(z) }
    })
}

/// AVX2 mask kernel: lanes 0–3 live in `lo`, lanes 4–7 in `hi`, so
/// one step of both yields the eight words `j..j + 8` of a pass. A
/// ragged tail of `rem < 8` words steps every lane but keeps the new
/// state only for lanes `< rem` (a per-lane blend), exactly as if the
/// idle lanes had not been stepped — which is what the lane-major
/// scalar kernel does.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn density_mask_avx2(seed: u64, q: u32, bits: u32, words: &mut [u64]) {
    use std::arch::x86_64::*;

    // SAFETY: avx2 is guaranteed by this function's contract.
    let (mut lo, mut hi) = unsafe { (mask_lanes_x4(seed, 0), mask_lanes_x4(seed, 4)) };

    let full = words.len() / MASK_LANES * MASK_LANES;
    let rem = words.len() - full;
    // All-ones in the 64-bit lanes that produce a tail word.
    let active = |first: usize| -> __m256i {
        let on = |l: usize| if first + l < rem { -1i64 } else { 0 };
        _mm256_setr_epi64x(on(0), on(1), on(2), on(3))
    };
    let (active_lo, active_hi) = (active(0), active(4));

    for digit in q.trailing_zeros()..bits {
        let set = (q >> digit) & 1 == 1;
        let combine = |w: __m256i, r: __m256i| {
            if set {
                _mm256_or_si256(w, r)
            } else {
                _mm256_and_si256(w, r)
            }
        };
        for chunk in words[..full].chunks_exact_mut(MASK_LANES) {
            // SAFETY: avx2 is guaranteed by this function's contract.
            let (r_lo, r_hi) = unsafe { (xoshiro_next_x4(&mut lo), xoshiro_next_x4(&mut hi)) };
            let p = chunk.as_mut_ptr();
            // SAFETY: `chunk` holds exactly 8 words; loads and stores
            // are unaligned.
            unsafe {
                let w_lo = _mm256_loadu_si256(p.cast());
                let w_hi = _mm256_loadu_si256(p.add(4).cast());
                _mm256_storeu_si256(p.cast(), combine(w_lo, r_lo));
                _mm256_storeu_si256(p.add(4).cast(), combine(w_hi, r_hi));
            }
        }
        if rem > 0 {
            let (old_lo, old_hi) = (lo, hi);
            // SAFETY: avx2 is guaranteed by this function's contract.
            let (r_lo, r_hi) = unsafe { (xoshiro_next_x4(&mut lo), xoshiro_next_x4(&mut hi)) };
            for k in 0..4 {
                lo[k] = _mm256_blendv_epi8(old_lo[k], lo[k], active_lo);
                hi[k] = _mm256_blendv_epi8(old_hi[k], hi[k], active_hi);
            }
            let mut r = [0u64; MASK_LANES];
            // SAFETY: `r` is 8 words; stores are unaligned.
            unsafe {
                _mm256_storeu_si256(r.as_mut_ptr().cast(), r_lo);
                _mm256_storeu_si256(r.as_mut_ptr().add(4).cast(), r_hi);
            }
            for (w, r) in words[full..].iter_mut().zip(r) {
                *w = if set { *w | r } else { *w & r };
            }
        }
    }
}

/// Eight xoshiro256++ lanes stepped at once: `s[k]` holds state word
/// `k` of every lane, lane `l` in 64-bit element `l`. Returns the
/// eight outputs, lane 0 lowest.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn xoshiro_next_x8(s: &mut [std::arch::x86_64::__m512i; 4]) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;

    let result = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s[0], s[3])), s[0]);
    let t = _mm512_slli_epi64::<17>(s[1]);
    s[2] = _mm512_xor_si512(s[2], s[0]);
    s[3] = _mm512_xor_si512(s[3], s[1]);
    s[1] = _mm512_xor_si512(s[1], s[2]);
    s[0] = _mm512_xor_si512(s[0], s[3]);
    s[2] = _mm512_xor_si512(s[2], t);
    s[3] = _mm512_rol_epi64::<45>(s[3]);
    result
}

/// The eight lanes of the mask stream from `seed`, seeded in place:
/// element `l` of register `k` is splitmix64 output `4l + k + 1` of
/// the walk from `seed` ([`mask_lane_state`]), mixed eight lanes at a
/// time with native 64-bit multiplies.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
unsafe fn mask_lanes_x8(seed: u64) -> [std::arch::x86_64::__m512i; 4] {
    use std::arch::x86_64::*;

    let seeds = _mm512_set1_epi64(seed as i64);
    let mix = |z: __m512i| {
        let m1 = _mm512_set1_epi64(SPLITMIX_M1 as i64);
        let m2 = _mm512_set1_epi64(SPLITMIX_M2 as i64);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    };
    std::array::from_fn(|k| {
        let step = |l: usize| splitmix64_state(0, 4 * l + k + 1) as i64;
        mix(_mm512_add_epi64(
            seeds,
            _mm512_setr_epi64(
                step(0),
                step(1),
                step(2),
                step(3),
                step(4),
                step(5),
                step(6),
                step(7),
            ),
        ))
    })
}

/// AVX-512 mask kernel: register `k` holds state word `k` of all eight
/// lanes, so one step yields the eight words `j..j + 8` of a pass and
/// one load/combine/store writes them. A ragged tail of `rem < 8`
/// words runs under the lane mask `(1 << rem) - 1`: a masked load and
/// store touch only the tail words, and a masked move keeps the
/// stepped state only for lanes `< rem`, exactly as if the idle lanes
/// had not been stepped — what the lane-major scalar kernel does.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn density_mask_avx512(seed: u64, q: u32, bits: u32, words: &mut [u64]) {
    use std::arch::x86_64::*;

    // SAFETY: avx512f and avx512dq are guaranteed by this function's
    // contract.
    let mut s = unsafe { mask_lanes_x8(seed) };

    let full = words.len() / MASK_LANES * MASK_LANES;
    let rem = words.len() - full;
    let tail: __mmask8 = (1u8 << rem).wrapping_sub(1);

    for digit in q.trailing_zeros()..bits {
        let set = (q >> digit) & 1 == 1;
        let combine = |w: __m512i, r: __m512i| {
            if set {
                _mm512_or_si512(w, r)
            } else {
                _mm512_and_si512(w, r)
            }
        };
        for chunk in words[..full].chunks_exact_mut(MASK_LANES) {
            // SAFETY: avx512f is guaranteed by this function's contract.
            let r = unsafe { xoshiro_next_x8(&mut s) };
            let p = chunk.as_mut_ptr();
            // SAFETY: `chunk` holds exactly 8 words; loads and stores
            // are unaligned.
            unsafe {
                let w = _mm512_loadu_si512(p.cast());
                _mm512_storeu_si512(p.cast(), combine(w, r));
            }
        }
        if rem > 0 {
            let old = s;
            // SAFETY: avx512f is guaranteed by this function's contract.
            let r = unsafe { xoshiro_next_x8(&mut s) };
            for (new, old) in s.iter_mut().zip(old) {
                *new = _mm512_mask_mov_epi64(old, tail, *new);
            }
            let p = words[full..].as_mut_ptr().cast::<i64>();
            // SAFETY: the mask enables exactly the `rem` words present
            // at `p`; masked-off elements are neither read nor written.
            unsafe {
                let w = _mm512_maskz_loadu_epi64(tail, p);
                _mm512_mask_storeu_epi64(p, tail, combine(w, r));
            }
        }
    }
}

/// Boundary codes one kernel call sweeps: each keeps two count
/// accumulators live for the whole pass, so a longer list is swept in
/// chunks of this many (see [`crate::SweepCodes`]).
pub(crate) const SWEEP_CODES_PER_PASS: usize = 8;

/// What one pass of the gradient sweep reads. Every slice but `codes`
/// is the operands' word count long.
pub(crate) struct SweepInput<'a> {
    /// The seeds of the `Gx` and `Gy` ½ masks, as
    /// [`density_mask_into_with`] takes them.
    pub(crate) seeds: [u64; 2],
    /// `[a, b, c, d]`: `Gx = sub_halved(a, b)`, `Gy = sub_halved(c, d)`.
    pub(crate) operands: [&'a [u64]; 4],
    /// `V₁`.
    pub(crate) basis: &'a [u64],
    /// The valid bits of the final word.
    pub(crate) tail: u64,
    /// At most [`SWEEP_CODES_PER_PASS`] codes, group-interleaved: word
    /// `8g + j` of code `k` is `codes[(g·n + k)·8 + j]` for `n` codes,
    /// zero past the last word up to a whole 8-word group.
    pub(crate) codes: &'a [u64],
    /// Whether code `k` is compared against `Gy` (else `Gx`).
    pub(crate) against_gy: &'a [bool],
}

/// One pixel's gradient sweep on an explicit backend: the two ½ masks'
/// words are generated in registers exactly as
/// [`density_mask_into_with`] generates them, each gradient word is
/// `(a ∧ m) ∨ ¬(b ∨ m)` — `select(a, b, m) ⊕ ¬m`, which is what
/// `sub_halved_into` leaves — and every count is taken in the same
/// pass. Returns `[h(Gx, V₁), h(Gy, V₁), h(Gx, Gy)]` and writes
/// `[h(code, G), h(code, Gx ⊗ Gy)]` for each code into `code_counts`,
/// with `G` the gradient the code is compared against and
/// `Gx ⊗ Gy = Gx ⊕ Gy ⊕ V₁`. Falls back like [`hamming_words_with`];
/// AVX-512 needs its own `avx512vpopcntdq` probe, and an AVX-512 CPU
/// without it runs the AVX2 sweep.
pub(crate) fn gradient_sweep_with(
    backend: SimdBackend,
    input: &SweepInput<'_>,
    code_counts: &mut [[u64; 2]],
) -> [u64; 3] {
    debug_assert_eq!(code_counts.len(), input.against_gy.len());
    debug_assert!(code_counts.len() <= SWEEP_CODES_PER_PASS);
    debug_assert_eq!(
        input.codes.len(),
        input.basis.len().div_ceil(MASK_LANES) * MASK_LANES * code_counts.len()
    );
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 if avx512_sweep_detected() => {
            // SAFETY: avx512f, avx512dq and avx512vpopcntdq were just
            // runtime-detected.
            unsafe { gradient_sweep_avx512(input, code_counts) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 | SimdBackend::Avx512 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: avx2 was just runtime-detected.
            unsafe { gradient_sweep_avx2(input, code_counts) }
        }
        _ => gradient_sweep_scalar(input, code_counts),
    }
}

/// The AVX-512 sweep's features: the mask kernel's set plus
/// `avx512vpopcntdq`, probed on its own.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_sweep_detected() -> bool {
    avx512_detected() && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
}

/// One word of `sub_halved(a, b)` under mask word `m`: `a` where the
/// mask is set, `¬b` where it is clear.
#[inline]
fn sub_halved_word(a: u64, b: u64, m: u64) -> u64 {
    (a & m) | !(b | m)
}

/// A running popcount over 8-word groups (Harley–Seal): full adders
/// carry each group's bits into `ones`, `twos` and `fours` planes, and
/// only the overflow into eights is popcounted, one count per group
/// instead of eight — the portable sweep's seven counts per word would
/// otherwise be most of its work.
#[derive(Clone, Copy, Default)]
struct GroupPopcount {
    ones: u64,
    twos: u64,
    fours: u64,
    eights: u64,
}

impl GroupPopcount {
    #[inline]
    fn add(&mut self, x: [u64; MASK_LANES]) {
        let (ones, twos_a) = full_add(self.ones, x[0], x[1]);
        let (ones, twos_b) = full_add(ones, x[2], x[3]);
        let (twos, fours_a) = full_add(self.twos, twos_a, twos_b);
        let (ones, twos_a) = full_add(ones, x[4], x[5]);
        let (ones, twos_b) = full_add(ones, x[6], x[7]);
        let (twos, fours_b) = full_add(twos, twos_a, twos_b);
        let (fours, eights) = full_add(self.fours, fours_a, fours_b);
        (self.ones, self.twos, self.fours) = (ones, twos, fours);
        self.eights += u64::from(eights.count_ones());
    }

    fn total(&self) -> u64 {
        let pop = |x: u64| u64::from(x.count_ones());
        8 * self.eights + 4 * pop(self.fours) + 2 * pop(self.twos) + pop(self.ones)
    }
}

/// Portable sweep, one 8-word group at a time: word `j` of a group
/// takes the next output of lane `j` of each mask, as the mask kernels
/// do. The final group is read into zero-padded copies, and its
/// gradients keep only the valid bits, so padding counts nothing.
fn gradient_sweep_scalar(input: &SweepInput<'_>, code_counts: &mut [[u64; 2]]) -> [u64; 3] {
    let [a, b, c, d] = input.operands;
    let words = a.len();
    let n = input.against_gy.len();
    let lanes =
        |seed: u64| -> [[u64; 4]; MASK_LANES] { std::array::from_fn(|l| mask_lane_state(seed, l)) };
    let (mut x_lanes, mut y_lanes) = (lanes(input.seeds[0]), lanes(input.seeds[1]));
    let mut counts = [GroupPopcount::default(); 3];
    let mut code_sums = [[GroupPopcount::default(); 2]; SWEEP_CODES_PER_PASS];
    for g in 0..words.div_ceil(MASK_LANES) {
        let at = g * MASK_LANES;
        let group = |s: &[u64]| -> [u64; MASK_LANES] {
            match s.get(at..at + MASK_LANES) {
                Some(whole) => whole.try_into().expect("8 words"),
                None => std::array::from_fn(|j| s.get(at + j).copied().unwrap_or(0)),
            }
        };
        let valid: [u64; MASK_LANES] = if at + MASK_LANES < words {
            [u64::MAX; MASK_LANES]
        } else {
            std::array::from_fn(|j| match (at + j + 1).cmp(&words) {
                std::cmp::Ordering::Less => u64::MAX,
                std::cmp::Ordering::Equal => input.tail,
                std::cmp::Ordering::Greater => 0,
            })
        };
        let (a, b, c, d, v) = (group(a), group(b), group(c), group(d), group(input.basis));
        let gx: [u64; MASK_LANES] = std::array::from_fn(|j| {
            sub_halved_word(a[j], b[j], xoshiro_next(&mut x_lanes[j])) & valid[j]
        });
        let gy: [u64; MASK_LANES] = std::array::from_fn(|j| {
            sub_halved_word(c[j], d[j], xoshiro_next(&mut y_lanes[j])) & valid[j]
        });
        let xor = |p: &[u64; MASK_LANES], q: &[u64]| std::array::from_fn(|j| p[j] ^ q[j]);
        counts[0].add(xor(&gx, &v));
        counts[1].add(xor(&gy, &v));
        counts[2].add(xor(&gx, &gy));
        let gxy = xor(&xor(&gx, &gy), &v);
        let codes = &input.codes[g * n * MASK_LANES..(g + 1) * n * MASK_LANES];
        for ((sums, &against_gy), code) in code_sums
            .iter_mut()
            .zip(input.against_gy)
            .zip(codes.chunks_exact(MASK_LANES))
        {
            let g = if against_gy { &gy } else { &gx };
            sums[0].add(xor(g, code));
            sums[1].add(xor(&gxy, code));
        }
    }
    for (out, sums) in code_counts.iter_mut().zip(code_sums) {
        *out = [sums[0].total(), sums[1].total()];
    }
    counts.map(|c| c.total())
}

/// AVX2 sweep: lanes 0–3 of both masks first, over words `8g..8g + 4`
/// of every group, then lanes 4–7 over the other half, so only one
/// half's eight state registers are live at a time (the counts are
/// sums, so the order cannot change them). Popcounts use the nibble
/// lookup of [`hamming_words_avx2`]. The final group is read with
/// masked loads, and its gradients keep only the valid bits.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gradient_sweep_avx2(input: &SweepInput<'_>, code_counts: &mut [[u64; 2]]) -> [u64; 3] {
    use std::arch::x86_64::*;

    let [a, b, c, d] = input.operands;
    let words = a.len();
    let n = input.against_gy.len();
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let ones = _mm256_set1_epi64x(-1);
    let zero = _mm256_setzero_si256();
    // Adds the popcount of each 64-bit element of `x` to `acc`.
    let count = |acc: &mut __m256i, x: __m256i| {
        let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_mask));
        let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16::<4>(x), low_mask));
        *acc = _mm256_add_epi64(*acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi), zero));
    };
    let sub_halved = |a: __m256i, b: __m256i, m: __m256i| {
        _mm256_or_si256(
            _mm256_and_si256(a, m),
            _mm256_andnot_si256(_mm256_or_si256(b, m), ones),
        )
    };
    // SAFETY: the slice holds the 4 words; loads are unaligned.
    let load = |s: &[u64], at: usize| unsafe { _mm256_loadu_si256(s[at..at + 4].as_ptr().cast()) };

    let mut acc = [zero; 3];
    let mut code_acc = [[zero; 2]; SWEEP_CODES_PER_PASS];
    let groups = words.div_ceil(MASK_LANES);
    for half in [0, 4] {
        // SAFETY: avx2 is guaranteed by this function's contract.
        let (mut sx, mut sy) = unsafe {
            (
                mask_lanes_x4(input.seeds[0], half),
                mask_lanes_x4(input.seeds[1], half),
            )
        };
        for g in 0..groups {
            let at = g * MASK_LANES + half;
            if at >= words {
                break;
            }
            // SAFETY: avx2 is guaranteed by this function's contract.
            let (mx, my) = unsafe { (xoshiro_next_x4(&mut sx), xoshiro_next_x4(&mut sy)) };
            let (gx, gy, v);
            if g + 1 < groups {
                gx = sub_halved(load(a, at), load(b, at), mx);
                gy = sub_halved(load(c, at), load(d, at), my);
                v = load(input.basis, at);
            } else {
                let live = (words - at).min(4);
                let lane = _mm256_setr_epi64x(0, 1, 2, 3);
                let live_lanes = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live as i64), lane);
                // SAFETY: the mask enables exactly the `live` words
                // present from `at`; masked-off elements are not read.
                let padded = |s: &[u64]| unsafe {
                    _mm256_maskload_epi64(s[at..].as_ptr().cast(), live_lanes)
                };
                // All ones in the live words, the final word's valid
                // bits in its lane, built in registers.
                let last = if at + live == words {
                    input.tail
                } else {
                    u64::MAX
                };
                let is_last = _mm256_cmpeq_epi64(lane, _mm256_set1_epi64x(live as i64 - 1));
                let valid =
                    _mm256_blendv_epi8(live_lanes, _mm256_set1_epi64x(last as i64), is_last);
                gx = _mm256_and_si256(sub_halved(padded(a), padded(b), mx), valid);
                gy = _mm256_and_si256(sub_halved(padded(c), padded(d), my), valid);
                v = padded(input.basis);
            }
            count(&mut acc[0], _mm256_xor_si256(gx, v));
            count(&mut acc[1], _mm256_xor_si256(gy, v));
            count(&mut acc[2], _mm256_xor_si256(gx, gy));
            let gxy = _mm256_xor_si256(_mm256_xor_si256(gx, gy), v);
            for (k, (sums, &against_gy)) in code_acc.iter_mut().zip(input.against_gy).enumerate() {
                let code = load(input.codes, (g * n + k) * MASK_LANES + half);
                let g = if against_gy { gy } else { gx };
                count(&mut sums[0], _mm256_xor_si256(code, g));
                count(&mut sums[1], _mm256_xor_si256(code, gxy));
            }
        }
    }
    let total = |x: __m256i| {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 32 bytes; store is unaligned.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), x) };
        lanes.iter().sum::<u64>()
    };
    for (out, sums) in code_counts.iter_mut().zip(code_acc) {
        *out = [total(sums[0]), total(sums[1])];
    }
    acc.map(total)
}

/// AVX-512 sweep: one register per mask holds all eight lanes, so each
/// 8-word group is one step of each, one ternary-logic op per gradient
/// and a VPOPCNTDQ count per distance. The final group is read with
/// masked loads, and its gradients keep only the valid bits.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx512f`, `avx512dq` and
/// `avx512vpopcntdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
unsafe fn gradient_sweep_avx512(input: &SweepInput<'_>, code_counts: &mut [[u64; 2]]) -> [u64; 3] {
    use std::arch::x86_64::*;

    /// `ternarylogic` table of `m ? a : ¬b` over `(a, b, m)`.
    const SUB_HALVED: i32 = 0xb1;
    /// `ternarylogic` table of `a ⊕ b ⊕ c`.
    const XOR3: i32 = 0x96;

    let [a, b, c, d] = input.operands;
    let words = a.len();
    let n = input.against_gy.len();
    let zero = _mm512_setzero_si512();
    let mut acc = [zero; 3];
    let mut code_acc = [[zero; 2]; SWEEP_CODES_PER_PASS];
    // SAFETY: avx512f and avx512dq are guaranteed by this function's
    // contract.
    let (mut sx, mut sy) =
        unsafe { (mask_lanes_x8(input.seeds[0]), mask_lanes_x8(input.seeds[1])) };
    let mut sweep = |ops: [__m512i; 4], v: __m512i, valid: __m512i, codes: &[u64]| {
        // SAFETY: avx512f is guaranteed by this function's contract.
        let (mx, my) = unsafe { (xoshiro_next_x8(&mut sx), xoshiro_next_x8(&mut sy)) };
        let gx = _mm512_and_si512(
            _mm512_ternarylogic_epi64::<SUB_HALVED>(ops[0], ops[1], mx),
            valid,
        );
        let gy = _mm512_and_si512(
            _mm512_ternarylogic_epi64::<SUB_HALVED>(ops[2], ops[3], my),
            valid,
        );
        let count = |acc: &mut __m512i, x: __m512i| {
            *acc = _mm512_add_epi64(*acc, _mm512_popcnt_epi64(x));
        };
        count(&mut acc[0], _mm512_xor_si512(gx, v));
        count(&mut acc[1], _mm512_xor_si512(gy, v));
        count(&mut acc[2], _mm512_xor_si512(gx, gy));
        let gxy = _mm512_ternarylogic_epi64::<XOR3>(gx, gy, v);
        for (k, (sums, &against_gy)) in code_acc.iter_mut().zip(input.against_gy).enumerate() {
            // SAFETY: a code's group is 8 words of `codes`; the load is
            // unaligned.
            let code = unsafe {
                _mm512_loadu_si512(codes[k * MASK_LANES..][..MASK_LANES].as_ptr().cast())
            };
            let g = if against_gy { gy } else { gx };
            count(&mut sums[0], _mm512_xor_si512(code, g));
            count(&mut sums[1], _mm512_xor_si512(code, gxy));
        }
    };

    let groups = words.div_ceil(MASK_LANES);
    let group_codes = |g: usize| &input.codes[g * n * MASK_LANES..(g + 1) * n * MASK_LANES];
    for g in 0..groups.saturating_sub(1) {
        let at = g * MASK_LANES;
        // SAFETY: a group before the last holds 8 words of every
        // operand; loads are unaligned.
        let load =
            |s: &[u64]| unsafe { _mm512_loadu_si512(s[at..at + MASK_LANES].as_ptr().cast()) };
        let ops = [load(a), load(b), load(c), load(d)];
        sweep(
            ops,
            load(input.basis),
            _mm512_set1_epi64(-1),
            group_codes(g),
        );
    }
    if groups > 0 {
        let at = (groups - 1) * MASK_LANES;
        let live = words - at;
        let lanes: __mmask8 = (1u16 << live).wrapping_sub(1) as u8;
        // SAFETY: the mask enables exactly the `live` words present
        // from `at`; masked-off elements are not read.
        let load = |s: &[u64]| unsafe { _mm512_maskz_loadu_epi64(lanes, s[at..].as_ptr().cast()) };
        // All ones in the live words, the final word's valid bits in
        // the last: built in registers, as a store-and-load or a fill
        // here cost more than the whole group.
        let ones = _mm512_maskz_mov_epi64(lanes, _mm512_set1_epi64(-1));
        let last: __mmask8 = 1 << (live - 1);
        let valid = _mm512_mask_mov_epi64(ones, last, _mm512_set1_epi64(input.tail as i64));
        let ops = [load(a), load(b), load(c), load(d)];
        sweep(ops, load(input.basis), valid, group_codes(groups - 1));
    }
    for (out, sums) in code_counts.iter_mut().zip(code_acc) {
        *out = [
            _mm512_reduce_add_epi64(sums[0]) as u64,
            _mm512_reduce_add_epi64(sums[1]) as u64,
        ];
    }
    acc.map(|x| _mm512_reduce_add_epi64(x) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant: unsupported ones must fall back to scalar.
    const ALL_BACKENDS: [SimdBackend; 4] = [
        SimdBackend::Scalar,
        SimdBackend::Avx2,
        SimdBackend::Avx512,
        SimdBackend::Neon,
    ];

    fn patterned(len: usize, salt: u64) -> Vec<u64> {
        (0..len)
            .map(|i| {
                let mut x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
                x ^= x >> 31;
                x.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            })
            .collect()
    }

    #[test]
    fn every_backend_matches_scalar_on_all_lengths() {
        // Lengths straddle the 4-word AVX2 and 2-word NEON chunk
        // sizes so every tail shape is hit.
        for len in 0..=17 {
            let a = patterned(len, 1);
            let b = patterned(len, 2);
            let want = hamming_words_scalar(&a, &b);
            for backend in ALL_BACKENDS {
                assert_eq!(
                    hamming_words_with(backend, &a, &b),
                    want,
                    "len {len} backend {}",
                    backend.name()
                );
            }
            assert_eq!(hamming_words(&a, &b), want, "len {len} active");
        }
    }

    #[test]
    fn tile_kernel_matches_per_pair_on_every_backend() {
        // Ragged word lengths and a 3×2 tile: out[j * ncand + ci]
        // must equal the per-pair kernel for every backend.
        for len in [0usize, 1, 3, 4, 7, 8, 9] {
            let queries: Vec<Vec<u64>> = (0..3).map(|s| patterned(len, 10 + s)).collect();
            let cands: Vec<Vec<u64>> = (0..2).map(|s| patterned(len, 20 + s)).collect();
            let qrefs: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
            let crefs: Vec<&[u64]> = cands.iter().map(Vec::as_slice).collect();
            for backend in ALL_BACKENDS {
                let mut out = vec![0u64; qrefs.len() * crefs.len()];
                hamming_tile_into_with(backend, &qrefs, &crefs, &mut out);
                for (j, q) in qrefs.iter().enumerate() {
                    for (ci, c) in crefs.iter().enumerate() {
                        assert_eq!(
                            out[j * crefs.len() + ci],
                            hamming_words_scalar(q, c),
                            "len {len} backend {} pair ({j},{ci})",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unsupported_backends_fall_back_to_scalar() {
        // Requesting the other architecture's backend must not panic.
        let a = patterned(9, 3);
        let b = patterned(9, 4);
        let want = hamming_words_scalar(&a, &b);
        for backend in ALL_BACKENDS {
            assert_eq!(hamming_words_with(backend, &a, &b), want);
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SimdBackend::Scalar.name(), "scalar");
        assert_eq!(SimdBackend::Avx2.name(), "avx2");
        assert_eq!(SimdBackend::Avx512.name(), "avx512");
        assert_eq!(SimdBackend::Neon.name(), "neon");
    }

    #[test]
    fn every_mask_kernel_matches_scalar() {
        // Word counts straddle the 8-word lane group so every tail
        // mask (0..8 live lanes) is hit, at a one-pass density (q =
        // 2^15), a sixteen-pass one (q = 1) and a mixed one.
        for len in 0..=25 {
            for (seed, q) in [(1u64, 1u32 << 15), (2, 1), (3, 0xa5a5), (4, 0xffff)] {
                let mut want = vec![0u64; len];
                density_mask_scalar(seed, q, 16, &mut want);
                for backend in ALL_BACKENDS {
                    let mut got = vec![0u64; len];
                    density_mask_into_with(backend, seed, q, 16, &mut got);
                    assert_eq!(got, want, "len {len} q {q:#x} backend {}", backend.name());
                }
            }
        }
    }
}
