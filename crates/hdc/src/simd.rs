//! Runtime-dispatched word kernels: XOR+popcount, the stochastic
//! mask stream and the HD-HOG cell sweep.
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
//! elsewhere. The cell sweep behind [`cell_sweep`](crate::cell_sweep)
//! runs a whole level cell of the HD-HOG pass in one call: it keeps
//! the caller's [`MaskLanes`](crate::MaskLanes) in registers for the
//! whole cell, steps them for every ½ mask a pixel's vector pipeline
//! uses, forms each vector's words from them and counts every
//! distance from `V₁` the pixel reads as it goes.
//!
//! Three backends can be active on x86_64 ([`SimdBackend`]):
//!
//! - **`Avx512`** (`avx512f` + `avx512dq` + the AVX2 set below): the
//!   512-bit mask kernel, and the 512-bit cell sweep (all eight lanes
//!   in one register per state word) where `avx512vpopcntdq` is found
//!   too — that feature has its own probe, and a CPU without it runs
//!   the AVX2 sweep. Hamming queries keep the AVX2 kernels, so
//!   similarity search is unchanged on these CPUs.
//! - **`Avx2`** (`avx2` + `popcnt`): the 256-bit mask kernel, the
//!   256-bit cell sweep (lanes 0–3 over the whole cell, then lanes
//!   4–7) and the nibble-LUT Hamming kernels.
//! - **`Scalar`**: portable loops; always available. Its cell sweep
//!   steps all eight lanes side by side and counts with Harley–Seal
//!   adder planes.
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
//! cell sweep's lanes are stepped the same way (word `j` of every
//! group from lane `j`) and its outputs are counts, so
//! `tests/sweep_proptest.rs` holds every backend to the vector
//! pipeline built op by op from the same lanes, lane state included.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it, and each call site documents why it is
//! sound (the target feature was runtime-detected before the function
//! pointer was ever taken).
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::bitvec::BitVector;
use crate::bundler::full_add;
use crate::error::DimensionMismatchError;
use crate::sweep::{MaskLanes, SweepCodes, PIXEL_COUNTS};

/// Which word-kernel implementation services Hamming queries,
/// stochastic mask generation and the cell sweep.
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

/// One step of all eight lanes of a [`MaskLanes`](crate::MaskLanes)
/// state (state word `k` of lane `l` at `s[k][l]`): word `j` of the
/// result is lane `j`'s output. Written lane-wise over the state
/// rows, so the compiler can step several lanes per vector register.
#[inline]
pub(crate) fn step_lanes(s: &mut [[u64; MASK_LANES]; 4]) -> [u64; MASK_LANES] {
    let [s0, s1, s2, s3] = s;
    let out = std::array::from_fn(|l| {
        s0[l]
            .wrapping_add(s3[l])
            .rotate_left(23)
            .wrapping_add(s0[l])
    });
    let t: [u64; MASK_LANES] = std::array::from_fn(|l| s1[l] << 17);
    for l in 0..MASK_LANES {
        s2[l] ^= s0[l];
        s3[l] ^= s1[l];
    }
    for l in 0..MASK_LANES {
        s1[l] ^= s2[l];
        s0[l] ^= s3[l];
    }
    for l in 0..MASK_LANES {
        s2[l] ^= t[l];
        s3[l] = s3[l].rotate_left(45);
    }
    out
}

/// What one cell sweep reads, built by [`cell_sweep_with`] only after
/// it has checked every operand's dimensions: the kernels' unchecked
/// loads rely on every pixel operand holding `basis.len()` words.
struct CellInput<'a> {
    /// `[P(x+1), P(x−1), P(y+1), P(y−1)]` per pixel.
    pixels: &'a [[&'a BitVector; 4]],
    /// `V₁`.
    basis: &'a [u64],
    /// The valid bits of the final word.
    tail: u64,
    /// The tan tests' codes.
    codes: &'a SweepCodes,
}

/// One cell's sweep on an explicit backend (see
/// [`cell_sweep`](crate::cell_sweep) for the step order and the
/// counts). Every backend steps each lane through the same words and
/// takes the same counts, so all agree exactly; they differ only in
/// how many lanes share a register. Falls back like
/// [`hamming_words_with`]; AVX-512 needs its own `avx512vpopcntdq`
/// probe, and an AVX-512 CPU without it runs the AVX2 sweep.
///
/// Returns [`DimensionMismatchError`], with `lanes` untouched, if an
/// operand or the codes differ from the basis in dimensionality.
///
/// # Panics
///
/// Panics if `counts.len() != pixels.len() · (PIXEL_COUNTS + codes.len())`.
pub(crate) fn cell_sweep_with(
    backend: SimdBackend,
    lanes: &mut MaskLanes,
    pixels: &[[&BitVector; 4]],
    basis: &BitVector,
    codes: &SweepCodes,
    counts: &mut [usize],
) -> Result<(), DimensionMismatchError> {
    let dim = basis.dim();
    if let Some(right) = pixels
        .iter()
        .flatten()
        .map(|v| v.dim())
        .chain([codes.dim()])
        .find(|&d| d != dim)
    {
        return Err(DimensionMismatchError { left: dim, right });
    }
    assert_eq!(
        counts.len(),
        pixels.len() * (PIXEL_COUNTS + codes.len()),
        "PIXEL_COUNTS + codes.len() counts per pixel"
    );
    let rem = dim % 64;
    let input = CellInput {
        pixels,
        basis: basis.as_words(),
        tail: if rem == 0 { u64::MAX } else { (1 << rem) - 1 },
        codes,
    };
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 if avx512_sweep_detected() => {
            // SAFETY: avx512f, avx512dq and avx512vpopcntdq were just
            // runtime-detected.
            unsafe { cell_sweep_avx512(lanes, &input, counts) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 | SimdBackend::Avx512 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: avx2 was just runtime-detected.
            unsafe { cell_sweep_avx2(lanes, &input, counts) }
        }
        _ => cell_sweep_scalar(lanes, &input, counts),
    }
    Ok(())
}

/// The AVX-512 sweep's features: the mask kernel's set plus
/// `avx512vpopcntdq`, probed on its own.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_sweep_detected() -> bool {
    avx512_detected() && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
}

/// `m ? x : y`, bit by bit.
#[inline]
fn select_word(m: u64, x: u64, y: u64) -> u64 {
    (m & x) | (!m & y)
}

/// A running popcount over 8-word groups (Harley–Seal): full adders
/// carry each group's bits into `ones`, `twos` and `fours` planes, and
/// only the overflow into eights is popcounted, one count per group
/// instead of eight — the portable sweep's counts per word would
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

    fn total(&self) -> usize {
        let pop = |x: u64| x.count_ones() as usize;
        8 * self.eights as usize + 4 * pop(self.fours) + 2 * pop(self.twos) + pop(self.ones)
    }
}

/// One 8-word group of one pixel in the portable sweep: steps the
/// lanes for every mask in order, builds each vector's words and adds
/// their distances from `V₁` to `sums` (the pixel's four, then its
/// codes' in mask order). `valid` keeps the bits inside `D`; inlined
/// with the all-ones of a whole group, its masking folds away.
#[inline(always)]
fn scalar_group(
    s: &mut [[u64; MASK_LANES]; 4],
    [a, b, c, d]: [[u64; MASK_LANES]; 4],
    v: [u64; MASK_LANES],
    valid: [u64; MASK_LANES],
    codes: &SweepCodes,
    code_words: &[u64],
    sums: &mut [GroupPopcount],
) {
    use std::array::from_fn;
    let keep = |j: usize, x: u64| x & valid[j];
    let (mx, my, ms) = (step_lanes(s), step_lanes(s), step_lanes(s));
    let gx: [u64; MASK_LANES] = from_fn(|j| keep(j, select_word(mx[j], a[j], !b[j])));
    let gy: [u64; MASK_LANES] = from_fn(|j| keep(j, select_word(my[j], c[j], !d[j])));
    // `Gx ⊕ V₁` and `Gy ⊕ V₁`: where each gradient differs from V₁.
    let dx: [u64; MASK_LANES] = from_fn(|j| gx[j] ^ v[j]);
    let dy: [u64; MASK_LANES] = from_fn(|j| gy[j] ^ v[j]);
    sums[0].add(dx);
    sums[1].add(dy);
    sums[2].add(from_fn(|j| select_word(ms[j], dx[j], dy[j])));
    sums[3].add(from_fn(|j| keep(j, select_word(ms[j], dx[j], !dy[j]))));
    for i in 0..codes.masks {
        let m = step_lanes(s);
        for k in codes.starts[i]..codes.starts[i + 1] {
            let code = &code_words[k * MASK_LANES..][..MASK_LANES];
            // `α ⊕ V₁`: `m ? V ⊕ Gy : ¬dx` for a cot code (`V ⊗ Gy ⊕ V₁
            // = V ⊕ Gy`), `m ? dy : ¬(V ⊕ Gx)` for a tan code.
            let alpha = if codes.cot[k] {
                from_fn(|j| keep(j, select_word(m[j], code[j] ^ gy[j], !dx[j])))
            } else {
                from_fn(|j| keep(j, select_word(m[j], dy[j], !(code[j] ^ gx[j]))))
            };
            sums[PIXEL_COUNTS + k].add(alpha);
        }
    }
}

/// Portable sweep, one 8-word group at a time with all eight lanes
/// side by side ([`scalar_group`]), every count a [`GroupPopcount`].
/// Whole groups are read and counted as they are; the final group is
/// read into zero-padded copies and its vectors keep only the valid
/// bits, so padding counts nothing.
fn cell_sweep_scalar(lanes: &mut MaskLanes, input: &CellInput<'_>, counts: &mut [usize]) {
    let words = input.basis.len();
    let groups = words.div_ceil(MASK_LANES);
    let codes = input.codes;
    let n = codes.len();
    let mut s = lanes.state;
    let mut sums = vec![GroupPopcount::default(); PIXEL_COUNTS + n];
    let last = groups.saturating_sub(1) * MASK_LANES;
    let last_valid: [u64; MASK_LANES] = std::array::from_fn(|j| match (last + j + 1).cmp(&words) {
        std::cmp::Ordering::Less => u64::MAX,
        std::cmp::Ordering::Equal => input.tail,
        std::cmp::Ordering::Greater => 0,
    });
    for (ops, out) in input
        .pixels
        .iter()
        .zip(counts.chunks_exact_mut(PIXEL_COUNTS + n))
    {
        let ops = ops.map(BitVector::as_words);
        sums.fill(GroupPopcount::default());
        for at in (0..last).step_by(MASK_LANES) {
            let group = |s: &[u64]| -> [u64; MASK_LANES] {
                s[at..at + MASK_LANES].try_into().expect("8 words")
            };
            let code_words = &codes.words[at * n..(at + MASK_LANES) * n];
            scalar_group(
                &mut s,
                ops.map(group),
                group(input.basis),
                [u64::MAX; MASK_LANES],
                codes,
                code_words,
                &mut sums,
            );
        }
        if groups > 0 {
            let group = |s: &[u64]| -> [u64; MASK_LANES] {
                std::array::from_fn(|j| s.get(last + j).copied().unwrap_or(0))
            };
            let code_words = &codes.words[last * n..(last + MASK_LANES) * n];
            scalar_group(
                &mut s,
                ops.map(group),
                group(input.basis),
                last_valid,
                codes,
                code_words,
                &mut sums,
            );
        }
        for (o, sum) in out.iter_mut().zip(&sums[..PIXEL_COUNTS]) {
            *o = sum.total();
        }
        for (&slot, sum) in codes.slot.iter().zip(&sums[PIXEL_COUNTS..]) {
            out[PIXEL_COUNTS + slot] = sum.total();
        }
    }
    lanes.state = s;
}

/// AVX2 sweep: lanes 0–3 of the whole cell first, over words
/// `8g..8g + 4` of every group, then lanes 4–7 over the other half, so
/// only one half's four state registers are live (lanes never share
/// state, and the counts are sums, so the order cannot change them).
/// Popcounts use the nibble lookup of [`hamming_words_avx2`]. A chunk
/// holding the final word is read with masked loads, and its vectors
/// keep only the valid bits.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cell_sweep_avx2(lanes: &mut MaskLanes, input: &CellInput<'_>, counts: &mut [usize]) {
    use std::arch::x86_64::*;

    let words = input.basis.len();
    let groups = words.div_ceil(MASK_LANES);
    let codes = input.codes;
    let n = codes.len();
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
    // `m ? x : y` and `m ? x : ¬y`.
    let select = |m: __m256i, x: __m256i, y: __m256i| {
        _mm256_or_si256(_mm256_and_si256(m, x), _mm256_andnot_si256(m, y))
    };
    let select_not = |m: __m256i, x: __m256i, y: __m256i| {
        _mm256_or_si256(
            _mm256_and_si256(m, x),
            _mm256_andnot_si256(_mm256_or_si256(m, y), ones),
        )
    };
    let total = |x: __m256i| {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 32 bytes; the store is unaligned.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), x) };
        lanes.iter().sum::<u64>() as usize
    };

    counts.fill(0);
    let mut acc = vec![zero; PIXEL_COUNTS + n];
    for half in [0, 4] {
        // SAFETY: each state row holds 8 words; loads are unaligned.
        let mut s: [__m256i; 4] = std::array::from_fn(|k| unsafe {
            _mm256_loadu_si256(lanes.state[k][half..half + 4].as_ptr().cast())
        });
        for (ops, out) in input
            .pixels
            .iter()
            .zip(counts.chunks_exact_mut(PIXEL_COUNTS + n))
        {
            let ops = ops.map(BitVector::as_words);
            acc.fill(zero);
            for g in 0..groups {
                let at = g * MASK_LANES + half;
                // SAFETY: avx2 is guaranteed by this function's contract.
                let (mx, my, ms) = unsafe {
                    (
                        xoshiro_next_x4(&mut s),
                        xoshiro_next_x4(&mut s),
                        xoshiro_next_x4(&mut s),
                    )
                };
                if at >= words {
                    // A ragged last group: these lanes still step.
                    for _ in 0..codes.masks {
                        // SAFETY: avx2 is guaranteed by this function's
                        // contract.
                        unsafe { xoshiro_next_x4(&mut s) };
                    }
                    continue;
                }
                let ([a, b, c, d], v, valid);
                if at + 4 < words {
                    // SAFETY: the slice holds the 4 words; loads are
                    // unaligned.
                    let load =
                        |s: &[u64]| unsafe { _mm256_loadu_si256(s[at..at + 4].as_ptr().cast()) };
                    [a, b, c, d] = ops.map(load);
                    v = load(input.basis);
                    valid = ones;
                } else {
                    let live = words - at;
                    let lane = _mm256_setr_epi64x(0, 1, 2, 3);
                    let live_lanes = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live as i64), lane);
                    // SAFETY: the mask enables exactly the `live` words
                    // present from `at`; masked-off elements are not
                    // read.
                    let load = |s: &[u64]| unsafe {
                        _mm256_maskload_epi64(s[at..].as_ptr().cast(), live_lanes)
                    };
                    [a, b, c, d] = ops.map(load);
                    v = load(input.basis);
                    // All ones in the live words but the final one,
                    // which keeps its valid bits.
                    let is_last = _mm256_cmpeq_epi64(lane, _mm256_set1_epi64x(live as i64 - 1));
                    valid = _mm256_blendv_epi8(
                        live_lanes,
                        _mm256_set1_epi64x(input.tail as i64),
                        is_last,
                    );
                }
                let gx = _mm256_and_si256(select_not(mx, a, b), valid);
                let gy = _mm256_and_si256(select_not(my, c, d), valid);
                let (dx, dy) = (_mm256_xor_si256(gx, v), _mm256_xor_si256(gy, v));
                count(&mut acc[0], dx);
                count(&mut acc[1], dy);
                count(&mut acc[2], select(ms, dx, dy));
                count(&mut acc[3], _mm256_and_si256(select_not(ms, dx, dy), valid));
                for i in 0..codes.masks {
                    // SAFETY: avx2 is guaranteed by this function's
                    // contract.
                    let m = unsafe { xoshiro_next_x4(&mut s) };
                    for k in codes.starts[i]..codes.starts[i + 1] {
                        // SAFETY: codes are padded to whole groups, so
                        // the 4 words are present; the load is
                        // unaligned.
                        let code = unsafe {
                            _mm256_loadu_si256(
                                codes.words[(g * n + k) * MASK_LANES + half..][..4]
                                    .as_ptr()
                                    .cast(),
                            )
                        };
                        let alpha = if codes.cot[k] {
                            select_not(m, _mm256_xor_si256(code, gy), dx)
                        } else {
                            select_not(m, dy, _mm256_xor_si256(code, gx))
                        };
                        count(&mut acc[PIXEL_COUNTS + k], _mm256_and_si256(alpha, valid));
                    }
                }
            }
            for (o, &x) in out.iter_mut().zip(&acc[..PIXEL_COUNTS]) {
                *o += total(x);
            }
            for (&slot, &x) in codes.slot.iter().zip(&acc[PIXEL_COUNTS..]) {
                out[PIXEL_COUNTS + slot] += total(x);
            }
        }
        for (k, row) in s.iter().enumerate() {
            // SAFETY: each state row holds 8 words; the store is
            // unaligned.
            unsafe {
                _mm256_storeu_si256(lanes.state[k][half..half + 4].as_mut_ptr().cast(), *row);
            }
        }
    }
}

/// AVX-512 sweep: one register per state word holds all eight lanes
/// for the whole cell, so each 8-word group of a mask is one step, each
/// vector one ternary-logic op and each count one VPOPCNTDQ. The final
/// group is read with masked loads, and its vectors keep only the
/// valid bits; the others read whole groups and mask nothing.
///
/// # Safety
///
/// Callers must ensure the CPU supports `avx512f`, `avx512dq` and
/// `avx512vpopcntdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
unsafe fn cell_sweep_avx512(lanes: &mut MaskLanes, input: &CellInput<'_>, counts: &mut [usize]) {
    use std::arch::x86_64::*;

    /// `ternarylogic` table of `m ? x : y` over `(m, x, y)`.
    const SELECT: i32 = 0xca;
    /// `ternarylogic` table of `m ? x : ¬y` over `(m, x, y)`.
    const SELECT_NOT: i32 = 0xc5;

    let words = input.basis.len();
    let groups = words.div_ceil(MASK_LANES);
    let codes = input.codes;
    let n = codes.len();
    let zero = _mm512_setzero_si512();
    // SAFETY: each state row holds 8 words; loads are unaligned.
    let mut s: [__m512i; 4] =
        std::array::from_fn(|k| unsafe { _mm512_loadu_si512(lanes.state[k].as_ptr().cast()) });
    let mut fixed = [zero; PIXEL_COUNTS];
    let mut code_acc = vec![zero; n];
    // The final group's live words, and its valid bits: all ones in the
    // live words but the last, which keeps the final word's, built in
    // registers.
    let live = words - groups.saturating_sub(1) * MASK_LANES;
    let last_lanes: __mmask8 = (1u16 << live).wrapping_sub(1) as u8;
    let last_ones = _mm512_maskz_mov_epi64(last_lanes, _mm512_set1_epi64(-1));
    let last_word: __mmask8 = (1u16 << live >> 1) as u8;
    let last_valid =
        _mm512_mask_mov_epi64(last_ones, last_word, _mm512_set1_epi64(input.tail as i64));

    // One group of one pixel: `$load` reads 8 words of a slice from
    // `$at`, and `$keep` masks a vector to the valid bits. A macro, so
    // the whole groups, whose `$keep` is the identity, carry no mask.
    macro_rules! group {
        ($ops:expr, $at:expr, $load:expr, $keep:expr) => {{
            let [a, b, c, d] = $ops.map($load);
            let v = $load(input.basis);
            // SAFETY: avx512f is guaranteed by this function's contract.
            let (mx, my, ms) = unsafe {
                (
                    xoshiro_next_x8(&mut s),
                    xoshiro_next_x8(&mut s),
                    xoshiro_next_x8(&mut s),
                )
            };
            let count = |acc: &mut __m512i, x: __m512i| {
                *acc = _mm512_add_epi64(*acc, _mm512_popcnt_epi64(x));
            };
            let gx = $keep(_mm512_ternarylogic_epi64::<SELECT_NOT>(mx, a, b));
            let gy = $keep(_mm512_ternarylogic_epi64::<SELECT_NOT>(my, c, d));
            let (dx, dy) = (_mm512_xor_si512(gx, v), _mm512_xor_si512(gy, v));
            count(&mut fixed[0], dx);
            count(&mut fixed[1], dy);
            count(
                &mut fixed[2],
                _mm512_ternarylogic_epi64::<SELECT>(ms, dx, dy),
            );
            count(
                &mut fixed[3],
                $keep(_mm512_ternarylogic_epi64::<SELECT_NOT>(ms, dx, dy)),
            );
            let group_codes = &codes.words[$at * n..($at + MASK_LANES) * n];
            for i in 0..codes.masks {
                // SAFETY: avx512f is guaranteed by this function's
                // contract.
                let m = unsafe { xoshiro_next_x8(&mut s) };
                for k in codes.starts[i]..codes.starts[i + 1] {
                    // SAFETY: a code's group is 8 words of the group's
                    // codes; the load is unaligned.
                    let code = unsafe {
                        _mm512_loadu_si512(
                            group_codes[k * MASK_LANES..][..MASK_LANES].as_ptr().cast(),
                        )
                    };
                    // `α ⊕ V₁`: `m ? V ⊕ Gy : ¬dx` for a cot code,
                    // `m ? dy : ¬(V ⊕ Gx)` for a tan code.
                    let alpha = if codes.cot[k] {
                        _mm512_ternarylogic_epi64::<SELECT_NOT>(m, _mm512_xor_si512(code, gy), dx)
                    } else {
                        _mm512_ternarylogic_epi64::<SELECT_NOT>(m, dy, _mm512_xor_si512(code, gx))
                    };
                    count(&mut code_acc[k], $keep(alpha));
                }
            }
        }};
    }

    for (ops, out) in input
        .pixels
        .iter()
        .zip(counts.chunks_exact_mut(PIXEL_COUNTS + n))
    {
        let ops = ops.map(BitVector::as_words);
        for g in 0..groups.saturating_sub(1) {
            let at = g * MASK_LANES;
            // SAFETY: every operand and the basis hold `words` words
            // (`cell_sweep_on` checked their dimensions), and a group
            // before the last lies inside them; loads are unaligned.
            let load = |s: &[u64]| unsafe { _mm512_loadu_si512(s.as_ptr().add(at).cast()) };
            group!(ops, at, load, |x| x);
        }
        if groups > 0 {
            let at = (groups - 1) * MASK_LANES;
            // SAFETY: as above, and the mask enables only the final
            // group's live words; masked-off elements are not read.
            let load = |s: &[u64]| unsafe {
                _mm512_maskz_loadu_epi64(last_lanes, s.as_ptr().add(at).cast())
            };
            group!(ops, at, load, |x| _mm512_and_si512(x, last_valid));
        }
        for (o, x) in out.iter_mut().zip(&mut fixed) {
            *o = _mm512_reduce_add_epi64(*x) as usize;
            *x = zero;
        }
        for (&slot, x) in codes.slot.iter().zip(&mut code_acc) {
            out[PIXEL_COUNTS + slot] = _mm512_reduce_add_epi64(*x) as usize;
            *x = zero;
        }
    }
    for (k, row) in s.iter().enumerate() {
        // SAFETY: each state row holds 8 words; the store is unaligned.
        unsafe { _mm512_storeu_si512(lanes.state[k].as_mut_ptr().cast(), *row) };
    }
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
