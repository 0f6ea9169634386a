//! The hyperdimensional HOG extractor (paper §4.3).
//!
//! Every stage runs on stochastic binary hypervectors:
//!
//! 1. **Pixel encoding** — each normalized pixel `v ∈ [0, 1]` reads
//!    level `round(255·v)` of a correlative codebook, built once per
//!    extractor by vector quantization between the basis (white) and
//!    a vector orthogonal to it (black), as §3 of the paper describes:
//!    level `i` is `V₁` with `round((1 − i/255)·D/2)` bits of one
//!    fixed random order flipped, so `δ(V_v, V₁) = v` and equal pixels
//!    share one vector.
//! 2. **Gradient** — `V_Gx = 0.5·V_C(x+1,y) ⊕ 0.5·(−V_C(x−1,y))` and
//!    likewise for `Gy` (halved central differences).
//! 3. **Magnitude** — the L1 magnitude `V_(|Gx|+|Gy|)/2`: each
//!    gradient negated where its statistical sign is negative, then a
//!    halved addition. The paper takes `√((Gx²+Gy²)/2)` by stochastic
//!    squaring and a binary-search root instead; that root cannot
//!    resolve a value below its squared probe's decode noise, so every
//!    magnitude sat on a floor of ≈ 0.6·D^(−1/4) (DESIGN.md §2).
//! 4. **Angle bin** — quadrant localization from the statistical signs
//!    of `Gx`, `Gy`, then monotone-tan comparisons against precomputed
//!    `V_tanθᵢ` / `V_cotθᵢ` hypervectors via the paper's
//!    `α = (σ|G_y| − r|G_x|)/2` construction. No arctangent anywhere.
//! 5. **Histogram read-out** — each pixel's magnitude is read out of
//!    hyperspace by a popcount (its distance from `V₁`) and summed into
//!    its (cell, bin) slot, so slot values equal (sum of magnitudes ÷
//!    cell area), matching the classic extractor in expectation with
//!    the per-pixel noise averaged down by `√count`.
//! 6. **Feature bundling** — each slot value is vector-quantized onto a
//!    correlative level codebook (§3: equal values share one
//!    hypervector, nearby values stay similar), bound (XOR) to a random
//!    slot key, and the bound slots are majority-bundled into a single
//!    feature hypervector ready for HDC learning — "there is no need
//!    for HDC encoding to map data points into high-dimension".
//!
//! Stages 2–4 read their vectors only through Hamming counts, so a
//! whole cell is one sweep ([`hdface_hdc::cell_sweep`]) on the
//! scratch's mask lanes: for every pixel it builds `Gx`, `Gy`, the
//! magnitude's halved sum and each tan test's `α` under their own ½
//! masks, word by word, and counts each one's distance from `V₁` as it
//! goes. The cell pass is thus the paper's vector pipeline bit for
//! bit; no vector of a pixel is stored and no sampler runs in it.
//! Stage 6 bundles a window's bound slots as one list, eight at a time
//! through a carry-save tree
//! ([`BitSlicedBundler::bind_accumulate_all`]).

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

use hdface_hdc::{
    cell_sweep, BitSlicedBundler, BitVector, HdcRng, MaskLanes, SeedableRng, SweepCodes,
    PIXEL_COUNTS,
};
use hdface_imaging::GrayImage;
use hdface_stochastic::{derive_coord_seed, Shv, StochasticContext, StochasticError};

use crate::binning::BinBoundaries;
use crate::config::HyperHogConfig;
use crate::features::HogFeatures;

/// Errors raised by the hyperdimensional extractor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HyperHogError {
    /// The image is smaller than one cell, so no features exist.
    NoCells {
        /// Image width supplied.
        width: usize,
        /// Image height supplied.
        height: usize,
        /// Configured cell size.
        cell_size: usize,
    },
    /// An underlying stochastic arithmetic failure (indicates a bug:
    /// all pipeline values are range-checked by construction).
    Stochastic(StochasticError),
}

impl fmt::Display for HyperHogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HyperHogError::NoCells {
                width,
                height,
                cell_size,
            } => write!(
                f,
                "image {width}x{height} is smaller than one {cell_size}x{cell_size} cell"
            ),
            HyperHogError::Stochastic(e) => write!(f, "stochastic arithmetic failed: {e}"),
        }
    }
}

impl Error for HyperHogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HyperHogError::Stochastic(e) => Some(e),
            HyperHogError::NoCells { .. } => None,
        }
    }
}

impl From<StochasticError> for HyperHogError {
    fn from(e: StochasticError) -> Self {
        HyperHogError::Stochastic(e)
    }
}

/// Per-worker mutable extraction state: the mask lanes every ½
/// selection of the cell pass steps, the RNG stream they are seeded
/// from (which then breaks the bundler's ties), and the reusable
/// bundler and count buffer.
///
/// Everything value-defining (basis, codebooks, slot keys) lives in
/// the shared, read-only [`HyperHog`]; a `HogScratch` is the only
/// state a worker mutates while scoring, so one extractor can serve
/// any number of threads through
/// [`HyperHog::extract_with`]. Build one per work item with
/// [`HyperHog::scratch_for_stream`] — the resulting feature depends
/// only on the stream number, never on which thread ran it (the
/// bundler carries no information from one use to the next).
#[derive(Debug)]
pub struct HogScratch {
    mask_rng: HdcRng,
    /// Seeded once from `mask_rng`; every cell pass on this scratch
    /// steps them on.
    lanes: MaskLanes,
    /// Reusable bit-sliced bundling kernel: reset per window, so the
    /// steady-state bind-and-accumulate loop never allocates.
    bundler: BitSlicedBundler,
    /// Reusable per-pixel counts of a cell's sweep.
    counts: Vec<usize>,
}

impl HogScratch {
    fn new(mut mask_rng: HdcRng) -> Self {
        HogScratch {
            lanes: MaskLanes::from_rng(&mut mask_rng),
            mask_rng,
            bundler: BitSlicedBundler::new(0),
            counts: Vec::new(),
        }
    }
}

/// A precomputed comparison hypervector for one bin boundary in one
/// quadrant parity.
#[derive(Debug, Clone)]
struct BoundaryCode {
    /// The boundary tangent value `t` being compared against.
    t: f64,
    /// Encodes `t` when `use_cot` is false, `1/t` otherwise (so the
    /// encoded scalar always lies inside `[-1, 1]`).
    shv: Shv,
    use_cot: bool,
}

/// The hyperdimensional HOG extractor.
///
/// Construction precomputes the boundary-tangent codebook, the pixel
/// and slot level codebooks and nothing else; per-image work happens in
/// [`extract`](Self::extract) and needs `&mut self` because stochastic
/// masks are drawn from the context RNG.
///
/// ```
/// use hdface_hog::{HyperHog, HyperHogConfig};
/// use hdface_imaging::GrayImage;
///
/// # fn main() -> Result<(), hdface_hog::HyperHogError> {
/// let mut hog = HyperHog::new(HyperHogConfig::with_dim(2048), 7);
/// let img = GrayImage::from_fn(16, 16, |x, _| (x as f32) / 15.0);
/// let feature = hog.extract(&img)?;
/// assert_eq!(feature.dim(), 2048);
/// # Ok(())
/// # }
/// ```
pub struct HyperHog {
    config: HyperHogConfig,
    ctx: StochasticContext,
    boundaries: BinBoundaries,
    /// Boundary codes for even quadrants (0, 2), increasing angle.
    even_codes: Vec<BoundaryCode>,
    /// Boundary codes for odd quadrants (1, 3), increasing angle.
    odd_codes: Vec<BoundaryCode>,
    /// The even codes then the odd ones, laid out for the cell sweep;
    /// boundary `i`'s two codes share `α` mask `i`.
    sweep_codes: SweepCodes,
    /// Correlative level codebook spanning the slot value range
    /// `[0, LEVEL_RANGE_MAX]` in `L = SLOT_LEVELS` levels:
    /// `δ(levelᵢ, levelⱼ) = 1 − |i−j|/(L−1)`.
    level_codes: Vec<BitVector>,
    /// Correlative pixel codebook: level `i` of `PIXEL_LEVELS` encodes
    /// the pixel value `i/255` as `V₁` with its first
    /// `round((1 − i/255)·D/2)` positions of one random order flipped.
    pixel_codes: Vec<Shv>,
    /// Slot binding keys, grown on demand behind a read-write lock so
    /// any shared-state extraction can warm the cache for everyone
    /// (each key derived independently from `key_seed` and its index,
    /// so key identity never depends on generation order — parallel
    /// workers and the original extractor always agree).
    slot_keys: RwLock<Vec<BitVector>>,
    /// Extractions that found every slot key already cached.
    key_warm: AtomicU64,
    /// Extractions that had to derive and install missing slot keys.
    key_cold: AtomicU64,
    key_seed: u64,
}

/// Salt for the per-cell stochastic-mask streams.
const CELL_MASK_SALT: u64 = 0x1656_67b1_9e37_79f9;

/// One cached (cell, bin) histogram slot of a pyramid level: its
/// level code, ready for slot-key binding, plus the scalar read-out
/// for diagnostics.
#[derive(Debug, Clone)]
pub struct CachedSlot {
    bits: BitVector,
    value: f64,
}

impl CachedSlot {
    /// The slot's level code: its value quantized onto the extractor's
    /// correlative level codebook.
    #[must_use]
    pub fn bits(&self) -> &BitVector {
        &self.bits
    }

    /// The decoded scalar slot value (sum of magnitudes ÷ cell area).
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Rebuilds the slot around replacement bits, keeping the scalar
    /// read-out — the hook the runtime fault-injection layer uses to
    /// flip bits in cached cells without re-deriving their values.
    #[must_use]
    pub fn with_bits(&self, bits: BitVector) -> Self {
        CachedSlot {
            bits,
            value: self.value,
        }
    }
}

/// All per-(cell, bin) hypervectors of one pyramid level, computed
/// once and shared read-only across every window that overlaps the
/// level.
///
/// Built by [`HyperHog::build_level_cache`] (serially) or assembled
/// with [`LevelCellCache::from_cells`] from
/// [`HyperHog::compute_level_cell`] results computed in any order or
/// on any thread — cells are position-pure, so the cache contents are
/// identical either way. Windows whose geometry is cell-aligned
/// assemble their feature via [`HyperHog::extract_from_cache`].
#[derive(Debug, Clone)]
pub struct LevelCellCache {
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    dim: usize,
    /// Row-major `(cy * cells_x + cx) * bins + bin` slot layout.
    slots: Vec<CachedSlot>,
}

impl LevelCellCache {
    /// Assembles a cache from per-cell results in row-major cell order
    /// (the order [`HyperHog::build_level_cache`] produces, however
    /// the cells were actually computed).
    ///
    /// # Panics
    ///
    /// Panics if the number of cells or the per-cell bin count does
    /// not match the grid shape.
    #[must_use]
    pub fn from_cells(
        cells_x: usize,
        cells_y: usize,
        bins: usize,
        dim: usize,
        cells: Vec<Vec<CachedSlot>>,
    ) -> Self {
        assert_eq!(cells.len(), cells_x * cells_y, "cell count mismatch");
        let mut slots = Vec::with_capacity(cells_x * cells_y * bins);
        for cell in cells {
            assert_eq!(cell.len(), bins, "per-cell bin count mismatch");
            slots.extend(cell);
        }
        LevelCellCache {
            cells_x,
            cells_y,
            bins,
            dim,
            slots,
        }
    }

    /// Cells across the level.
    #[must_use]
    pub fn cells_x(&self) -> usize {
        self.cells_x
    }

    /// Cells down the level.
    #[must_use]
    pub fn cells_y(&self) -> usize {
        self.cells_y
    }

    /// Orientation bins per cell.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Hypervector dimensionality of the cached slots.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cached slot of `(cx, cy, bin)`.
    #[must_use]
    pub fn slot(&self, cx: usize, cy: usize, bin: usize) -> &CachedSlot {
        &self.slots[(cy * self.cells_x + cx) * self.bins + bin]
    }
}

/// Builds a correlative level codebook: level `k` is `start` with the
/// first `flips[k]` positions of one fixed random order flipped, so
/// the levels are nested (`h(levelⱼ, levelₖ) = |flipsⱼ − flipsₖ|`)
/// and equal values map to identical vectors.
fn build_level_codes(
    start: &BitVector,
    flips: impl Iterator<Item = usize>,
    rng: &mut HdcRng,
) -> Vec<BitVector> {
    let dim = start.dim();
    let mut order: Vec<usize> = (0..dim).collect();
    for i in (1..dim).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    flips
        .map(|n| {
            let mut v = start.clone();
            for &idx in &order[..n] {
                v.flip(idx);
            }
            v
        })
        .collect()
}

impl HyperHog {
    /// Creates an extractor; `seed` fixes the basis, every stochastic
    /// mask and the slot keys.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`HogConfig::validate`])
    /// or `dim == 0`.
    ///
    /// [`HogConfig::validate`]: crate::HogConfig::validate
    #[must_use]
    pub fn new(config: HyperHogConfig, seed: u64) -> Self {
        config.hog.validate();
        let mut ctx = StochasticContext::new(config.dim, seed);
        let boundaries = BinBoundaries::new(config.hog.bins);

        let mut make_code = |t: f64| -> BoundaryCode {
            let use_cot = t.abs() > 1.0;
            let value = if use_cot { 1.0 / t } else { t };
            let shv = ctx.encode(value).expect("boundary value in range");
            BoundaryCode { t, shv, use_cot }
        };
        let even_codes: Vec<BoundaryCode> = boundaries
            .tangents()
            .to_vec()
            .iter()
            .map(|&(r, _)| make_code(r))
            .collect();
        // Odd quadrants compare against tangents −1/r (the same
        // boundary angles shifted by π/2).
        let odd_codes: Vec<BoundaryCode> = boundaries
            .tangents()
            .to_vec()
            .iter()
            .map(|&(r, _)| make_code(-1.0 / r))
            .collect();

        let sweep_layout: Vec<(&BitVector, bool, usize)> = even_codes
            .iter()
            .enumerate()
            .chain(odd_codes.iter().enumerate())
            .map(|(i, code)| (code.shv.as_bits(), code.use_cot, i))
            .collect();
        let sweep_codes =
            SweepCodes::new(config.dim, &sweep_layout).expect("codes have the context's D");

        // Slot levels flip a random half of the dimensions away from a
        // random low endpoint; pixel levels flip up to half of them
        // away from V₁ (white), on a second order.
        let key_seed = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut code_rng = HdcRng::seed_from_u64(key_seed);
        let lo = BitVector::random(config.dim, &mut code_rng);
        let (slot_top, half) = ((Self::SLOT_LEVELS - 1) as f64, (config.dim / 2) as f64);
        let slot_flips =
            (0..Self::SLOT_LEVELS).map(|k| (k as f64 / slot_top * half).round() as usize);
        let level_codes = build_level_codes(&lo, slot_flips, &mut code_rng);
        let (pixel_top, half) = ((Self::PIXEL_LEVELS - 1) as f64, config.dim as f64 / 2.0);
        let pixel_flips =
            (0..Self::PIXEL_LEVELS).map(|i| ((1.0 - i as f64 / pixel_top) * half).round() as usize);
        let pixel_codes = build_level_codes(ctx.basis().as_bits(), pixel_flips, &mut code_rng)
            .into_iter()
            .map(Shv::from_bits)
            .collect();

        HyperHog {
            config,
            ctx,
            boundaries,
            even_codes,
            odd_codes,
            sweep_codes,
            level_codes,
            pixel_codes,
            slot_keys: RwLock::new(Vec::new()),
            key_warm: AtomicU64::new(0),
            key_cold: AtomicU64::new(0),
            key_seed,
        }
    }

    /// Upper edge of the slot-value quantization range. Slot values
    /// are L1 magnitude sums divided by cell area; on FACE2 crops at
    /// `D = 4096` they read p50 0.0045, p99 0.039 and max 0.066, so
    /// the codebook spans `[0, 1/32]` to spend its resolution where the
    /// data lives: every level is used and ~3% of slots saturate to the
    /// top one. At `[0, 0.25]` 80% of slots fell in levels 0–1.
    const LEVEL_RANGE_MAX: f64 = 1.0 / 32.0;

    /// Levels of the correlative slot codebook spanning
    /// `[0, LEVEL_RANGE_MAX]`.
    const SLOT_LEVELS: usize = 32;

    /// Levels of the correlative pixel codebook: one per 8-bit grey
    /// value.
    const PIXEL_LEVELS: usize = 256;

    /// The codebook vector of the pixel at `(x, y)`, coordinates
    /// clamped into the image: value `v ∈ [0, 1]` reads level
    /// `round(255·v)`. For an `f32` pixel `255·v` is exact in `f64`, and
    /// so is adding ½, so truncating that sum rounds half away from
    /// zero exactly as `round` does, without its out-of-line call on
    /// baseline x86-64.
    fn pixel_code(&self, image: &GrayImage, x: isize, y: isize) -> &Shv {
        let x = x.clamp(0, image.width() as isize - 1) as usize;
        let y = y.clamp(0, image.height() as isize - 1) as usize;
        let v = f64::from(image.get(x, y)).clamp(0.0, 1.0);
        &self.pixel_codes[(v * (Self::PIXEL_LEVELS - 1) as f64 + 0.5) as usize]
    }

    /// Maps a slot scalar (the popcount read-out produced during
    /// accumulation) to its correlative level vector.
    fn quantize_slot(&self, value: f64) -> &BitVector {
        let v = value.clamp(0.0, Self::LEVEL_RANGE_MAX);
        let levels = self.level_codes.len();
        let idx = ((v / Self::LEVEL_RANGE_MAX) * (levels - 1) as f64).round() as usize;
        &self.level_codes[idx.min(levels - 1)]
    }

    /// The extractor configuration.
    #[must_use]
    pub fn config(&self) -> &HyperHogConfig {
        &self.config
    }

    /// The stochastic context (exposes the basis for decoding
    /// experiments).
    #[must_use]
    pub fn context(&self) -> &StochasticContext {
        &self.ctx
    }

    /// Builds per-worker scratch state for `stream`: the stochastic-mask
    /// RNG stream seeded from `stream`, so workers sharing one
    /// extractor draw independent masks while their features live in
    /// one space. The same `stream` gives the
    /// same feature whether or not the slot-key cache covers the image
    /// ([`prepare_for_image`](Self::prepare_for_image) warms it; an
    /// uncached key is derived on the fly to the same bits).
    #[must_use]
    pub fn scratch_for_stream(&self, stream: u64) -> HogScratch {
        HogScratch::new(HdcRng::seed_from_u64(
            stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bf0_3635,
        ))
    }

    /// The per-pixel gradient → magnitude → angle-bin pipeline over
    /// one cell of `image` whose top-left pixel is `(x0, y0)`, adding
    /// each pixel's read-out magnitude to its bin of `sums` (a
    /// `bins`-long slice). Pixels are read from the pixel codebook,
    /// clamped at the image border, and the cell's pixels with their
    /// one-pixel border are looked up once.
    ///
    /// The whole cell is one [`cell_sweep`] on the scratch's mask
    /// lanes: for every pixel it builds `Gx`, `Gy`, the magnitude's
    /// halved sum and each tan test's `α` under their own ½ masks,
    /// word by word, and counts each vector's distance from `V₁`. So
    /// the pass is the paper's vector pipeline bit for bit, no vector
    /// is stored and no law is sampled; what is left here reads the
    /// signs and the magnitude off those counts.
    ///
    /// Shared by the per-window path
    /// ([`extract_slots_with`](Self::extract_slots_with)) and the
    /// level-cache path
    /// ([`compute_level_cell`](Self::compute_level_cell)), which run
    /// it on different scratches.
    fn cell_pass(
        &self,
        image: &GrayImage,
        x0: usize,
        y0: usize,
        sums: &mut [f64],
        scratch: &mut HogScratch,
    ) -> Result<(), HyperHogError> {
        let c = self.config.hog.cell_size;
        let side = c + 2;
        let grid: Vec<&BitVector> = (0..side * side)
            .map(|i| {
                let x = (x0 + i % side) as isize - 1;
                let y = (y0 + i / side) as isize - 1;
                self.pixel_code(image, x, y).as_bits()
            })
            .collect();
        let pixels: Vec<[&BitVector; 4]> = (0..c * c)
            .map(|p| {
                let at = (p / c + 1) * side + p % c + 1;
                [grid[at + 1], grid[at - 1], grid[at + side], grid[at - side]]
            })
            .collect();
        let ctx = &self.ctx;
        let stride = PIXEL_COUNTS + self.sweep_codes.len();
        scratch.counts.resize(pixels.len() * stride, 0);
        cell_sweep(
            &mut scratch.lanes,
            &pixels,
            ctx.basis().as_bits(),
            &self.sweep_codes,
            &mut scratch.counts,
        )
        .map_err(StochasticError::from)?;

        let n_bounds = self.boundaries.tangents().len();
        // A vector decodes non-negative when it is at most D/2 from V₁.
        let non_negative = |h: usize| 2 * h <= self.config.dim;
        for counts in scratch.counts.chunks_exact(stride) {
            let (&[hx, hy, same, cross], alphas) = counts
                .split_first_chunk::<PIXEL_COUNTS>()
                .expect("a pixel's counts");
            let (gx_pos, gy_pos) = (non_negative(hx), non_negative(hy));

            // Magnitude: (|Gx| + |Gy|)/2, the selection `m ? |Gx| : |Gy|`.
            // It is `m ? Gx : Gy` where the signs agree and
            // `m ? Gx : ¬Gy` where they differ, negated if Gx is
            // negative. Only its read-out is used, so it stays a
            // distance from V₁.
            let h = if gx_pos == gy_pos { same } else { cross };
            let h = if gx_pos { h } else { self.config.dim - h };
            let magnitude = ctx.value_at_distance(h);

            // Angle bin: quadrant, then the chain of tan tests on the
            // quadrant parity's codes, each decided by the sign of its α.
            let quadrant = crate::binning::quadrant_of(gx_pos, gy_pos);
            let (codes, alphas) = if quadrant.is_multiple_of(2) {
                (&self.even_codes, &alphas[..n_bounds])
            } else {
                (&self.odd_codes, &alphas[n_bounds..])
            };
            let in_q = codes
                .iter()
                .zip(alphas)
                .take_while(|&(code, &h)| {
                    let alpha_pos = non_negative(h);
                    if code.use_cot {
                        // α = (Gy·(1/t) − Gx)/2 ;
                        // sign(Gy − t·Gx) = sign(t)·sign(α).
                        (alpha_pos == (code.t >= 0.0)) == gx_pos
                    } else {
                        // α = (Gy − t·Gx)/2 ; Gy/Gx > t ⟺ sign(α) = sign(Gx).
                        alpha_pos == gx_pos
                    }
                })
                .count();
            let bin = self.boundaries.global_bin(quadrant, in_q);

            // Popcount read-out: scalar summation.
            sums[bin] += magnitude.max(0.0);
        }
        Ok(())
    }

    /// Runs the full per-pixel pipeline and accumulates per-slot
    /// histogram values; returns the slot values (sum of magnitudes ÷
    /// cell area) along with the grid shape.
    fn extract_slots_with(
        &self,
        image: &GrayImage,
        scratch: &mut HogScratch,
    ) -> Result<(Vec<f64>, usize, usize), HyperHogError> {
        let c = self.config.hog.cell_size;
        let cells_x = self.config.hog.cells_for(image.width());
        let cells_y = self.config.hog.cells_for(image.height());
        if cells_x == 0 || cells_y == 0 {
            return Err(HyperHogError::NoCells {
                width: image.width(),
                height: image.height(),
                cell_size: c,
            });
        }
        let bins = self.config.hog.bins;
        let mut sums: Vec<f64> = vec![0.0; cells_x * cells_y * bins];
        for cy in 0..cells_y {
            for cx in 0..cells_x {
                let base = (cy * cells_x + cx) * bins;
                let cell_sums = &mut sums[base..base + bins];
                self.cell_pass(image, cx * c, cy * c, cell_sums, scratch)?;
            }
        }
        let values = sums.into_iter().map(|sum| self.slot_value(sum)).collect();
        Ok((values, cells_x, cells_y))
    }

    /// A slot's value from its bin's magnitude sum: the sum over the
    /// cell area, clamped into `[0, 1]`.
    fn slot_value(&self, sum: f64) -> f64 {
        let c = self.config.hog.cell_size;
        (sum / (c * c) as f64).clamp(0.0, 1.0)
    }

    /// Number of histogram slots an image of the given size produces
    /// (zero when the image is smaller than one cell).
    #[must_use]
    pub fn slots_for(&self, width: usize, height: usize) -> usize {
        self.config.hog.cells_for(width) * self.config.hog.cells_for(height) * self.config.hog.bins
    }

    /// Pre-generates the slot-key cache for images up to the given
    /// size, so subsequent shared-state extraction
    /// ([`extract_with`](Self::extract_with)) never has to re-derive a
    /// key. Idempotent; keys are identity-stable regardless of
    /// generation order. Does not count toward
    /// [`key_cache_stats`](Self::key_cache_stats) — it is a warm-up,
    /// not a lookup.
    pub fn prepare_for_image(&self, width: usize, height: usize) {
        let n = self.slots_for(width, height);
        if self.slot_keys.read().expect("slot-key lock poisoned").len() < n {
            self.grow_keys(n);
        }
    }

    /// Grows the shared slot-key cache to at least `n` keys.
    fn grow_keys(&self, n: usize) {
        let mut keys = self.slot_keys.write().expect("slot-key lock poisoned");
        while keys.len() < n {
            let i = keys.len() as u64;
            keys.push(Self::derive_slot_key(self.key_seed, i, self.config.dim));
        }
    }

    /// Read access to at least the first `n` slot keys. A warm lookup
    /// finds them all cached; a cold one derives and installs the
    /// missing keys first (so the *next* same-geometry extraction is
    /// warm, from any thread). Key identity depends only on
    /// `(key_seed, index)`, so growth order is irrelevant.
    fn slot_keys_for(&self, n: usize) -> RwLockReadGuard<'_, Vec<BitVector>> {
        {
            let keys = self.slot_keys.read().expect("slot-key lock poisoned");
            if keys.len() >= n {
                self.key_warm.fetch_add(1, Ordering::Relaxed);
                return keys;
            }
        }
        self.grow_keys(n);
        self.key_cold.fetch_add(1, Ordering::Relaxed);
        self.slot_keys.read().expect("slot-key lock poisoned")
    }

    /// Cumulative `(warm, cold)` slot-key lookups: warm extractions
    /// found every key already cached, cold ones had to derive and
    /// install keys. The split a serving layer should watch — steady
    /// traffic at fixed image dimensions must be all-warm after the
    /// first request.
    #[must_use]
    pub fn key_cache_stats(&self) -> (u64, u64) {
        (
            self.key_warm.load(Ordering::Relaxed),
            self.key_cold.load(Ordering::Relaxed),
        )
    }

    /// Derives the binding key of slot `i` from the extractor seed.
    /// Each key depends only on `(key_seed, i)`, never on generation
    /// order, so cached and freshly-derived keys always agree.
    fn derive_slot_key(key_seed: u64, i: u64, dim: usize) -> BitVector {
        let mut rng =
            HdcRng::seed_from_u64(key_seed ^ i.wrapping_mul(0xff51_afd7_ed55_8ccd).wrapping_add(1));
        BitVector::random(dim, &mut rng)
    }

    /// Extracts the decoded per-(cell, bin) histogram — the parity
    /// view used to compare against [`ClassicHog`].
    ///
    /// # Errors
    ///
    /// Returns [`HyperHogError::NoCells`] when the image is smaller
    /// than one cell.
    ///
    /// [`ClassicHog`]: crate::ClassicHog
    pub fn extract_histogram(&mut self, image: &GrayImage) -> Result<HogFeatures, HyperHogError> {
        let mut scratch = self.take_own_scratch();
        let result = self.extract_histogram_with(image, &mut scratch);
        self.restore_own_scratch(scratch);
        result
    }

    /// [`extract_histogram`](Self::extract_histogram) against the
    /// shared read-only extractor state, drawing all randomness from
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`HyperHogError::NoCells`] when the image is smaller
    /// than one cell.
    pub fn extract_histogram_with(
        &self,
        image: &GrayImage,
        scratch: &mut HogScratch,
    ) -> Result<HogFeatures, HyperHogError> {
        let (slots, cells_x, cells_y) = self.extract_slots_with(image, scratch)?;
        Ok(self.histogram_of(&slots, cells_x, cells_y))
    }

    /// The decoded slot values laid out as a per-(cell, bin) histogram.
    fn histogram_of(&self, slots: &[f64], cells_x: usize, cells_y: usize) -> HogFeatures {
        let bins = self.config.hog.bins;
        let mut feats = HogFeatures::zeroed(cells_x, cells_y, bins);
        for (i, &value) in slots.iter().enumerate() {
            let bin = i % bins;
            let cell = i / bins;
            feats.set(cell % cells_x, cell / cells_x, bin, value);
        }
        feats
    }

    /// Moves the context's own mask stream out into a scratch so the
    /// legacy `&mut self` entry points can delegate to the shared-state
    /// implementations while consuming the exact same stream.
    fn take_own_scratch(&mut self) -> HogScratch {
        HogScratch::new(std::mem::replace(
            self.ctx.rng_mut(),
            HdcRng::seed_from_u64(0),
        ))
    }

    /// Puts the context's mask stream back after delegation.
    fn restore_own_scratch(&mut self, scratch: HogScratch) {
        *self.ctx.rng_mut() = scratch.mask_rng;
    }

    /// Extracts the bundled feature hypervector: every slot value
    /// bound to its slot key, majority-bundled — the input the HDC
    /// classifier consumes directly.
    ///
    /// # Errors
    ///
    /// Returns [`HyperHogError::NoCells`] when the image is smaller
    /// than one cell.
    pub fn extract(&mut self, image: &GrayImage) -> Result<BitVector, HyperHogError> {
        // Grow the key cache up front (the shared-state path cannot),
        // then delegate on the extractor's own mask stream.
        self.prepare_for_image(image.width(), image.height());
        let mut scratch = self.take_own_scratch();
        let result = self.extract_with(image, &mut scratch);
        self.restore_own_scratch(scratch);
        result
    }

    /// [`extract`](Self::extract) against the shared read-only
    /// extractor state: all mutation happens in `scratch`, so any
    /// number of workers can extract concurrently from one `&HyperHog`.
    /// The result is a pure function of `(extractor, image, scratch
    /// streams)` — identical no matter which thread runs it.
    ///
    /// Slot keys missing from the shared cache are derived once and
    /// installed for everyone (a "cold" lookup; see
    /// [`key_cache_stats`](Self::key_cache_stats)), so repeated
    /// extraction at the same geometry never re-derives keys.
    ///
    /// # Errors
    ///
    /// Returns [`HyperHogError::NoCells`] when the image is smaller
    /// than one cell.
    pub fn extract_with(
        &self,
        image: &GrayImage,
        scratch: &mut HogScratch,
    ) -> Result<BitVector, HyperHogError> {
        let (slots, _, _) = self.extract_slots_with(image, scratch)?;
        Ok(self.bundle_slots(&slots, scratch))
    }

    /// Binds every slot's level code to its key and majority-bundles
    /// them into the feature hypervector.
    fn bundle_slots(&self, slots: &[f64], scratch: &mut HogScratch) -> BitVector {
        let keys = self.slot_keys_for(slots.len());
        // One block-wise bind+carry-save pass over all slots —
        // bit-identical to the scalar xor + `Accumulator::add` +
        // `threshold` reference (tie-break RNG draws included).
        scratch.bundler.reset(self.config.dim);
        let bound = slots.iter().map(|&value| self.quantize_slot(value));
        scratch
            .bundler
            .bind_accumulate_all(bound.zip(keys.iter()))
            .expect("dims equal");
        drop(keys);
        scratch.bundler.threshold(&mut scratch.mask_rng)
    }

    /// The cell grid an image of the given size induces.
    #[must_use]
    pub fn cell_grid(&self, width: usize, height: usize) -> (usize, usize) {
        (
            self.config.hog.cells_for(width),
            self.config.hog.cells_for(height),
        )
    }

    /// Per-cell scratch stream keyed by absolute cell coordinates.
    fn scratch_for_cell(level_seed: u64, cx: usize, cy: usize) -> HogScratch {
        HogScratch::new(HdcRng::seed_from_u64(derive_coord_seed(
            level_seed ^ CELL_MASK_SALT,
            cx as u64,
            cy as u64,
        )))
    }

    /// Computes the `bins` cached slots of cell `(cx, cy)` of `image`
    /// (an already-normalized pyramid level).
    ///
    /// All randomness comes from a stream keyed by `(level_seed, cx,
    /// cy)` and pixels come from the extractor's codebook, so the
    /// result is a pure function of the extractor, the image contents,
    /// the seed and the cell coordinates, independent of visit order
    /// and thread count.
    ///
    /// # Errors
    ///
    /// Returns [`HyperHogError::NoCells`] when the cell coordinates
    /// fall outside the image's cell grid.
    pub fn compute_level_cell(
        &self,
        image: &GrayImage,
        cx: usize,
        cy: usize,
        level_seed: u64,
    ) -> Result<Vec<CachedSlot>, HyperHogError> {
        let c = self.config.hog.cell_size;
        let (cells_x, cells_y) = self.cell_grid(image.width(), image.height());
        if cx >= cells_x || cy >= cells_y {
            return Err(HyperHogError::NoCells {
                width: image.width(),
                height: image.height(),
                cell_size: c,
            });
        }
        let mut scratch = Self::scratch_for_cell(level_seed, cx, cy);
        let mut sums = vec![0.0; self.config.hog.bins];
        self.cell_pass(image, cx * c, cy * c, &mut sums, &mut scratch)?;
        // Quantize each bin as the per-window path's bundle does, so
        // windows only bind and bundle.
        Ok(sums
            .into_iter()
            .map(|sum| {
                let value = self.slot_value(sum);
                CachedSlot {
                    bits: self.quantize_slot(value).clone(),
                    value,
                }
            })
            .collect())
    }

    /// Builds the full cell cache of one pyramid level serially (the
    /// parallel path fans [`compute_level_cell`](Self::compute_level_cell)
    /// out across an engine and assembles with
    /// [`LevelCellCache::from_cells`] — the contents are identical).
    ///
    /// # Errors
    ///
    /// Returns [`HyperHogError::NoCells`] when the image is smaller
    /// than one cell.
    pub fn build_level_cache(
        &self,
        image: &GrayImage,
        level_seed: u64,
    ) -> Result<LevelCellCache, HyperHogError> {
        let (cells_x, cells_y) = self.cell_grid(image.width(), image.height());
        if cells_x == 0 || cells_y == 0 {
            return Err(HyperHogError::NoCells {
                width: image.width(),
                height: image.height(),
                cell_size: self.config.hog.cell_size,
            });
        }
        let mut cells = Vec::with_capacity(cells_x * cells_y);
        for cy in 0..cells_y {
            for cx in 0..cells_x {
                cells.push(self.compute_level_cell(image, cx, cy, level_seed)?);
            }
        }
        Ok(LevelCellCache::from_cells(
            cells_x,
            cells_y,
            self.config.hog.bins,
            self.config.dim,
            cells,
        ))
    }

    /// Assembles the feature hypervector of the window spanning
    /// `cells_w × cells_h` cells with top-left cell `(cell_x0,
    /// cell_y0)`, from cached cell slots: each slot's bits are bound
    /// to its *window-relative* slot key and majority-bundled —
    /// exactly the keys and bundling the per-window path uses, so
    /// cached features live in the same space as
    /// [`extract_with`](Self::extract_with)'s and a classifier trained
    /// on either consumes both.
    ///
    /// Per-window cost is O(cells · D) binding plus one threshold —
    /// the O(pixels · D) gradient/magnitude/bin pipeline was paid once
    /// for the whole level when the cache was built.
    ///
    /// # Panics
    ///
    /// Panics if the requested cell span exceeds the cache grid or the
    /// cache dimensionality differs from the extractor's.
    ///
    /// # Errors
    ///
    /// Currently infallible for in-grid requests; returns the same
    /// error type as the sibling extraction entry points for call-site
    /// uniformity.
    pub fn extract_from_cache(
        &self,
        cache: &LevelCellCache,
        cell_x0: usize,
        cell_y0: usize,
        cells_w: usize,
        cells_h: usize,
        scratch: &mut HogScratch,
    ) -> Result<BitVector, HyperHogError> {
        assert_eq!(cache.dim, self.config.dim, "cache dimensionality mismatch");
        assert!(
            cell_x0 + cells_w <= cache.cells_x && cell_y0 + cells_h <= cache.cells_y,
            "window cells [{cell_x0}+{cells_w}, {cell_y0}+{cells_h}] exceed cache grid \
             {}x{}",
            cache.cells_x,
            cache.cells_y,
        );
        let bins = cache.bins;
        let keys = self.slot_keys_for(cells_w * cells_h * bins);
        // Per-window cost is one block-wise bind+carry-save pass over
        // the cached cells — no per-slot bound vector, no per-bit
        // floats — bit-identical to the scalar `Accumulator` reference.
        scratch.bundler.reset(self.config.dim);
        let slots = (cell_y0..cell_y0 + cells_h).flat_map(|cy| {
            let row = cy * cache.cells_x;
            let span = (row + cell_x0) * bins..(row + cell_x0 + cells_w) * bins;
            cache.slots[span].iter().map(CachedSlot::bits)
        });
        scratch
            .bundler
            .bind_accumulate_all(slots.zip(keys.iter()))
            .expect("dims equal");
        drop(keys);
        Ok(scratch.bundler.threshold(&mut scratch.mask_rng))
    }
}

impl fmt::Debug for HyperHog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HyperHog(D={}, cell={}, bins={})",
            self.config.dim, self.config.hog.cell_size, self.config.hog.bins
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::ClassicHog;

    fn small_config(dim: usize) -> HyperHogConfig {
        HyperHogConfig::with_dim(dim.max(64))
    }

    #[test]
    fn rejects_images_smaller_than_a_cell() {
        let mut hog = HyperHog::new(small_config(512), 1);
        let img = GrayImage::new(4, 4);
        assert!(matches!(
            hog.extract(&img),
            Err(HyperHogError::NoCells { .. })
        ));
        let e = hog.extract_histogram(&img).unwrap_err();
        assert!(e.to_string().contains("4x4"));
    }

    #[test]
    fn flat_image_histogram_is_near_zero() {
        let mut hog = HyperHog::new(small_config(4096), 2);
        let img = GrayImage::filled(16, 16, 0.5);
        let f = hog.extract_histogram(&img).unwrap();
        for &v in f.as_slice() {
            assert!(v.abs() < 0.08, "slot value {v} should be ≈ 0");
        }
    }

    #[test]
    fn flat_image_magnitude_has_no_noise_floor() {
        // A flat image has no gradient: its magnitude is decode noise
        // alone, |N(0, 1/D)|-like, so 16× the dimensions cut it 4×. A
        // root that cannot resolve values below its own noise would
        // sit on a floor that only halves.
        let img = GrayImage::filled(32, 32, 0.5);
        let mean_magnitude = |dim: usize| {
            let hog = HyperHog::new(small_config(dim), 12);
            let f = hog
                .extract_histogram_with(&img, &mut hog.scratch_for_stream(1))
                .unwrap();
            // A cell's slots sum to its mean pixel magnitude.
            let cells = f.as_slice().len() / hog.config.hog.bins;
            f.as_slice().iter().sum::<f64>() / cells as f64
        };
        let (low, high) = (mean_magnitude(1024), mean_magnitude(16_384));
        assert!(
            low >= 3.0 * high,
            "mean magnitude {low} at D = 1024 vs {high} at D = 16384"
        );
    }

    #[test]
    fn ramp_histogram_matches_classic_direction() {
        let mut hog = HyperHog::new(small_config(8192), 3);
        // Gradient direction θ = atan(1/2) ≈ 26.6° sits mid-bin; a
        // pure horizontal ramp would land exactly on the bin-7/bin-0
        // boundary, where sign noise legitimately splits the mass.
        let img = GrayImage::from_fn(16, 16, |x, y| (2 * x + y) as f32 / 45.0);
        let hd = hog.extract_histogram(&img).unwrap();
        let classic = ClassicHog::new(small_config(0x0).hog).extract(&img);
        // East bin (0) dominates in both; compare cell (1, 1).
        let hd_hist = hd.cell_histogram(1, 1);
        let cl_hist = classic.cell_histogram(1, 1);
        let hd_max = hd_hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let cl_max = cl_hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(
            hd_max, cl_max,
            "dominant bin differs: hd {hd_hist:?} vs classic {cl_hist:?}"
        );
    }

    #[test]
    fn histogram_parity_with_classic_within_noise() {
        let mut hog = HyperHog::new(small_config(8192), 4);
        let img = GrayImage::from_fn(16, 16, |x, y| {
            0.5 + 0.4 * ((x as f32 * 0.7).sin() * (y as f32 * 0.5).cos())
        });
        let hd = hog.extract_histogram(&img).unwrap();
        let classic = ClassicHog::new(small_config(0).hog).extract(&img);
        let diff = hd.mean_abs_diff(&classic);
        assert!(diff < 0.05, "mean abs diff {diff} too large");
    }

    #[test]
    fn feature_vector_has_context_dimension() {
        let mut hog = HyperHog::new(small_config(1024), 5);
        let img = GrayImage::from_fn(16, 16, |x, y| ((x + y) % 3) as f32 / 2.0);
        let f = hog.extract(&img).unwrap();
        assert_eq!(f.dim(), 1024);
    }

    #[test]
    fn similar_images_produce_similar_features() {
        let mut hog = HyperHog::new(small_config(4096), 6);
        // Horizontal sawtooth: strong, consistently east-oriented
        // gradients in every cell (period 8 avoids the aliasing that
        // zeroes central differences on period-2 patterns).
        let saw_h = GrayImage::from_fn(32, 32, |x, _| (x % 8) as f32 / 7.0);
        // Same orientations, slightly weaker magnitudes — close.
        let saw_h_scaled = GrayImage::from_fn(32, 32, |x, _| 0.05 + 0.8 * (x % 8) as f32 / 7.0);
        // Vertical sawtooth: the same magnitudes in orthogonal bins —
        // far.
        let saw_v = GrayImage::from_fn(32, 32, |_, y| (y % 8) as f32 / 7.0);
        let fa = hog.extract(&saw_h).unwrap();
        let fb = hog.extract(&saw_h_scaled).unwrap();
        let fc = hog.extract(&saw_v).unwrap();
        let sim_close = fa.similarity(&fb).unwrap();
        let sim_far = fa.similarity(&fc).unwrap();
        assert!(
            sim_close > sim_far,
            "close {sim_close} should exceed far {sim_far}"
        );
    }

    #[test]
    fn extraction_is_reproducible_per_seed() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * y) % 5) as f32 / 4.0);
        let a = HyperHog::new(small_config(1024), 9).extract(&img).unwrap();
        let b = HyperHog::new(small_config(1024), 9).extract(&img).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn level_codebook_similarity_is_linear_in_distance() {
        let mut rng = HdcRng::seed_from_u64(3);
        let lo = BitVector::random(8192, &mut rng);
        let codes = build_level_codes(&lo, (0..9).map(|k| k * 512), &mut rng);
        assert_eq!(codes.len(), 9);
        for i in 0..9 {
            for j in 0..9 {
                let want = 1.0 - (i as f64 - j as f64).abs() / 8.0;
                let got = codes[i].similarity(&codes[j]).unwrap();
                assert!(
                    (got - want).abs() < 0.05,
                    "levels {i},{j}: sim {got} want {want}"
                );
            }
        }
    }

    /// `round((1 − i/255)·D/2)`: how many bits pixel level `i` differs
    /// from `V₁` in.
    fn pixel_flips(dim: usize, i: usize) -> usize {
        ((1.0 - i as f64 / 255.0) * (dim as f64 / 2.0)).round() as usize
    }

    #[test]
    fn pixel_levels_are_nested_flips_of_the_basis() {
        for dim in [64usize, 1000, 4096, 8193] {
            let hog = HyperHog::new(small_config(dim), 41);
            let basis = hog.ctx.basis().as_bits();
            assert_eq!(hog.pixel_codes.len(), 256);
            for (i, a) in hog.pixel_codes.iter().enumerate() {
                let a = a.as_bits();
                assert_eq!(
                    a.hamming(basis).unwrap(),
                    pixel_flips(dim, i),
                    "D={dim} level {i}"
                );
                for (j, b) in hog.pixel_codes.iter().enumerate() {
                    let want = pixel_flips(dim, i).abs_diff(pixel_flips(dim, j));
                    assert_eq!(
                        a.hamming(b.as_bits()).unwrap(),
                        want,
                        "D={dim} levels {i},{j}"
                    );
                }
            }
            // White is V₁ itself; black sits round(D/2) bits away.
            let code_of = |v: f32| hog.pixel_code(&GrayImage::filled(1, 1, v), 0, 0).clone();
            assert_eq!(code_of(1.0).as_bits(), basis, "D={dim}");
            let black = code_of(0.0).as_bits().hamming(basis).unwrap();
            assert_eq!(black, (dim as f64 / 2.0).round() as usize, "D={dim}");
        }
    }

    #[test]
    fn pixel_codebook_is_fixed_by_the_seed() {
        // The bits each level flips away from its extractor's V₁.
        let flipped = |seed: u64| -> Vec<BitVector> {
            let hog = HyperHog::new(small_config(1000), seed);
            let basis = hog.ctx.basis().as_bits();
            let flips = hog
                .pixel_codes
                .iter()
                .map(|c| c.as_bits().xor(basis).unwrap());
            flips.collect()
        };
        let codes = |seed: u64| -> Vec<BitVector> {
            let hog = HyperHog::new(small_config(1000), seed);
            hog.pixel_codes
                .iter()
                .map(|c| c.as_bits().clone())
                .collect()
        };
        assert_eq!(codes(8), codes(8));
        let (a, b) = (flipped(8), flipped(9));
        for level in [0, 128, 254] {
            assert_ne!(a[level], b[level], "level {level} flips the same bits");
        }
    }

    #[test]
    fn quantized_features_of_same_image_are_nearly_identical() {
        // The deterministic codebook makes repeated extraction of the
        // same image agree strongly despite fresh stochastic masks.
        let img = GrayImage::from_fn(16, 16, |x, _| x as f32 / 15.0);
        let mut hog = HyperHog::new(small_config(4096), 11);
        let a = hog.extract(&img).unwrap();
        let b = hog.extract(&img).unwrap();
        let sim = a.similarity(&b).unwrap();
        assert!(sim > 0.7, "repeat extraction similarity {sim}");
    }

    #[test]
    fn debug_formats() {
        let hog = HyperHog::new(small_config(256), 0);
        let s = format!("{hog:?}");
        assert!(s.contains("D=256"));
    }

    #[test]
    fn slot_keys_do_not_depend_on_growth_order() {
        // Two extractors must agree bit for bit on the same stream even
        // when they grow their key caches in different orders: keys are
        // derived per index, never from the order they were needed in.
        let img = GrayImage::from_fn(32, 32, |x, _| (x % 8) as f32 / 7.0);
        let small = GrayImage::from_fn(16, 16, |x, _| (x % 8) as f32 / 7.0);
        let large_first = HyperHog::new(small_config(4096), 5);
        let small_first = HyperHog::new(small_config(4096), 5);
        let mut s = large_first.scratch_for_stream(2);
        let want = large_first.extract_with(&img, &mut s).unwrap();
        let mut s = small_first.scratch_for_stream(1);
        small_first.extract_with(&small, &mut s).unwrap();
        let mut s = small_first.scratch_for_stream(2);
        assert_eq!(small_first.extract_with(&img, &mut s).unwrap(), want);
    }

    #[test]
    fn shared_state_extraction_ignores_the_key_cache() {
        // scratch_for_stream + extract_with gives the same bits with or
        // without a warm slot-key cache.
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 3 + y) % 7) as f32 / 6.0);
        let prepared = HyperHog::new(small_config(2048), 7);
        prepared.prepare_for_image(16, 16);
        let mut scratch = prepared.scratch_for_stream(3);
        let expect = prepared.extract_with(&img, &mut scratch).unwrap();

        // Cold cache: keys derive on the fly to the same bits.
        let cold = HyperHog::new(small_config(2048), 7);
        let mut scratch = cold.scratch_for_stream(3);
        assert_eq!(cold.extract_with(&img, &mut scratch).unwrap(), expect);
    }

    #[test]
    fn level_cache_cells_are_position_pure() {
        // A cached cell must be a pure function of (extractor, image,
        // level_seed, cx, cy): recomputation and unrelated extractor
        // history give the same bits.
        let img = GrayImage::from_fn(24, 24, |x, y| ((x * 5 + y * 3) % 11) as f32 / 10.0);
        let hog = HyperHog::new(small_config(1024), 21);
        let a = hog.compute_level_cell(&img, 1, 2, 77).unwrap();
        let b = hog.compute_level_cell(&img, 1, 2, 77).unwrap();
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.bits(), sb.bits());
            assert_eq!(sa.value(), sb.value());
        }
        // A second extractor whose own streams have moved on agrees
        // too — the cell streams are position-keyed, not
        // extractor-stream-keyed.
        let mut used = HyperHog::new(small_config(1024), 21);
        used.extract(&img).unwrap();
        let c = used.compute_level_cell(&img, 1, 2, 77).unwrap();
        for (sa, sc) in a.iter().zip(&c) {
            assert_eq!(sa.bits(), sc.bits());
        }
        // Different cells and different level seeds give different
        // slots (the image is textured, so values differ).
        let other = hog.compute_level_cell(&img, 2, 1, 77).unwrap();
        assert!(a.iter().zip(&other).any(|(x, y)| x.bits() != y.bits()));
        let reseeded = hog.compute_level_cell(&img, 1, 2, 78).unwrap();
        assert!(a.iter().zip(&reseeded).any(|(x, y)| x.bits() != y.bits()));
    }

    #[test]
    fn cached_assembly_is_visit_order_free() {
        // Assembling the cache from cells computed in reverse order
        // must give bit-identical window features: the determinism
        // contract the parallel cache build relies on.
        let img = GrayImage::from_fn(32, 24, |x, y| ((x * 3 + y * 7) % 13) as f32 / 12.0);
        let hog = HyperHog::new(small_config(2048), 5);
        let (cells_x, cells_y) = hog.cell_grid(img.width(), img.height());
        assert_eq!((cells_x, cells_y), (4, 3));

        let forward = hog.build_level_cache(&img, 123).unwrap();
        let mut reversed: Vec<Vec<CachedSlot>> = Vec::new();
        for cy in (0..cells_y).rev() {
            for cx in (0..cells_x).rev() {
                reversed.push(hog.compute_level_cell(&img, cx, cy, 123).unwrap());
            }
        }
        reversed.reverse();
        let backward = LevelCellCache::from_cells(cells_x, cells_y, 8, 2048, reversed);

        let mut s1 = hog.scratch_for_stream(4);
        let mut s2 = hog.scratch_for_stream(4);
        let f1 = hog
            .extract_from_cache(&forward, 1, 0, 2, 2, &mut s1)
            .unwrap();
        let f2 = hog
            .extract_from_cache(&backward, 1, 0, 2, 2, &mut s2)
            .unwrap();
        assert_eq!(f1, f2);
        // And repeated assembly with the same stream is reproducible.
        let mut s3 = hog.scratch_for_stream(4);
        assert_eq!(
            hog.extract_from_cache(&forward, 1, 0, 2, 2, &mut s3)
                .unwrap(),
            f1
        );
    }

    #[test]
    fn cached_features_track_per_window_features() {
        // A cache-assembled window must land near the legacy
        // per-window feature of the same crop (the stochastic streams
        // differ by construction, so equality is not expected) and far
        // from the feature of a different crop.
        let img = GrayImage::from_fn(32, 32, |x, _| (x % 8) as f32 / 7.0);
        let vertical = GrayImage::from_fn(16, 16, |_, y| (y % 8) as f32 / 7.0);
        let hog = HyperHog::new(small_config(4096), 13);
        let cache = hog.build_level_cache(&img, 55).unwrap();

        let mut s = hog.scratch_for_stream(1);
        let cached = hog.extract_from_cache(&cache, 0, 0, 2, 2, &mut s).unwrap();
        let crop = img.crop(0, 0, 16, 16).unwrap();
        let mut s = hog.scratch_for_stream(2);
        let per_window = hog.extract_with(&crop, &mut s).unwrap();
        let mut s = hog.scratch_for_stream(3);
        let far = hog.extract_with(&vertical, &mut s).unwrap();

        let sim_same = cached.similarity(&per_window).unwrap();
        let sim_far = cached.similarity(&far).unwrap();
        assert!(
            sim_same > sim_far + 0.05,
            "cached-vs-window {sim_same} should clearly beat unrelated {sim_far}"
        );
    }

    #[test]
    fn slot_key_cache_reports_warm_and_cold_lookups() {
        let img = GrayImage::from_fn(16, 16, |x, _| x as f32 / 15.0);
        let hog = HyperHog::new(small_config(512), 2);
        assert_eq!(hog.key_cache_stats(), (0, 0));

        // First shared-state extraction at a new geometry: cold.
        let mut s = hog.scratch_for_stream(1);
        hog.extract_with(&img, &mut s).unwrap();
        assert_eq!(hog.key_cache_stats(), (0, 1));

        // Same geometry again: warm — the cold lookup installed the
        // keys for everyone.
        let mut s = hog.scratch_for_stream(2);
        hog.extract_with(&img, &mut s).unwrap();
        assert_eq!(hog.key_cache_stats(), (1, 1));

        // prepare_for_image is a warm-up, not a lookup: it grows the
        // cache without touching the counters, and the extraction
        // after it is warm.
        hog.prepare_for_image(32, 32);
        let big = GrayImage::from_fn(32, 32, |x, _| x as f32 / 31.0);
        let mut s = hog.scratch_for_stream(3);
        hog.extract_with(&big, &mut s).unwrap();
        assert_eq!(hog.key_cache_stats(), (2, 1));
    }

    #[test]
    fn worker_streams_are_independent() {
        let img = GrayImage::from_fn(16, 16, |x, _| x as f32 / 15.0);
        let base = HyperHog::new(small_config(1024), 6);
        let fa = base
            .extract_with(&img, &mut base.scratch_for_stream(1))
            .unwrap();
        let fb = base
            .extract_with(&img, &mut base.scratch_for_stream(2))
            .unwrap();
        // Same space (similar) but not bit-identical (different mask
        // streams).
        assert_ne!(fa, fb);
        assert!(fa.similarity(&fb).unwrap() > 0.3);
    }

    /// The allocating cell pass and the two extraction paths built on
    /// it, kept as the bit-for-bit reference for the swept pass: every
    /// op returns a fresh vector, and the mask order is the one the
    /// production pass must reproduce.
    ///
    /// [`Path::Vectors`] builds both gradients, both absolute values,
    /// their halved sum and each tan comparison's `α` as hypervectors,
    /// each ½ mask stepped from the scratch's lanes in the sweep's
    /// order. It anchors the distribution tests as well.
    mod reference {
        use super::*;

        /// Which pipeline the reference pass runs.
        #[derive(Debug, Clone, Copy)]
        pub(super) enum Path {
            /// Every intermediate a hypervector.
            Vectors,
        }

        /// One pixel's `count` ½ masks, stepped group by group in the
        /// sweep's order: every mask's group `g` before any mask's
        /// group `g + 1`.
        pub(super) fn pixel_masks(
            lanes: &mut MaskLanes,
            dim: usize,
            count: usize,
        ) -> Vec<BitVector> {
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

        /// `m ? a : ¬b`, the halved difference under mask `m`.
        pub(super) fn sub_halved(a: &Shv, b: &Shv, m: &BitVector) -> Shv {
            Shv::from_bits(a.as_bits().select(b.negated().as_bits(), m).unwrap())
        }

        /// Boundary `index`'s `α` for the parity `code_even` under mask
        /// `m`: `(Gy − t·Gx)/2` for a tan code, `(Gy·(1/t) − Gx)/2` for
        /// a cot code.
        pub(super) fn alpha(
            hog: &HyperHog,
            gx: &Shv,
            gy: &Shv,
            code_even: bool,
            index: usize,
            m: &BitVector,
        ) -> Shv {
            let code = if code_even {
                &hog.even_codes[index]
            } else {
                &hog.odd_codes[index]
            };
            let ctx = &hog.ctx;
            if code.use_cot {
                sub_halved(&ctx.mul(&code.shv, gy).unwrap(), gx, m)
            } else {
                sub_halved(gy, &ctx.mul(&code.shv, gx).unwrap(), m)
            }
        }

        fn cell_pass(
            hog: &HyperHog,
            Path::Vectors: Path,
            image: &GrayImage,
            x0: usize,
            y0: usize,
            sums: &mut [f64],
            lanes: &mut MaskLanes,
        ) {
            let ctx = &hog.ctx;
            let at = |x: isize, y: isize| hog.pixel_code(image, x, y);
            let c = hog.config.hog.cell_size;
            let n_bounds = hog.boundaries.tangents().len();
            for py in 0..c {
                for px in 0..c {
                    let x = (x0 + px) as isize;
                    let y = (y0 + py) as isize;
                    let masks = pixel_masks(lanes, hog.config.dim, 3 + n_bounds);
                    let gx = sub_halved(at(x + 1, y), at(x - 1, y), &masks[0]);
                    let gy = sub_halved(at(x, y + 1), at(x, y - 1), &masks[1]);
                    let (ax, ay) = (ctx.abs(&gx).unwrap(), ctx.abs(&gy).unwrap());
                    let sum = Shv::from_bits(ax.as_bits().select(ay.as_bits(), &masks[2]).unwrap());
                    let value = ctx.decode(&sum).unwrap();

                    let gx_pos = ctx.is_non_negative(&gx).unwrap();
                    let gy_pos = ctx.is_non_negative(&gy).unwrap();
                    let quadrant = crate::binning::quadrant_of(gx_pos, gy_pos);
                    let even = quadrant.is_multiple_of(2);
                    let mut in_q = 0;
                    for i in 0..n_bounds {
                        let code = if even {
                            &hog.even_codes[i]
                        } else {
                            &hog.odd_codes[i]
                        };
                        let alpha = alpha(hog, &gx, &gy, even, i, &masks[3 + i]);
                        let alpha_pos = ctx.is_non_negative(&alpha).unwrap();
                        let exceeds = if code.use_cot {
                            (alpha_pos == (code.t >= 0.0)) == gx_pos
                        } else {
                            alpha_pos == gx_pos
                        };
                        if exceeds {
                            in_q = i + 1;
                        } else {
                            break;
                        }
                    }
                    let bin = hog.boundaries.global_bin(quadrant, in_q);
                    sums[bin] += value.max(0.0);
                }
            }
        }

        /// Slot values of the per-window path.
        pub(super) fn slots(
            hog: &HyperHog,
            image: &GrayImage,
            scratch: &mut HogScratch,
        ) -> (Vec<f64>, usize, usize) {
            let c = hog.config.hog.cell_size;
            let bins = hog.config.hog.bins;
            let (cells_x, cells_y) = hog.cell_grid(image.width(), image.height());
            let mut sums = vec![0.0; cells_x * cells_y * bins];
            for cy in 0..cells_y {
                for cx in 0..cells_x {
                    let base = (cy * cells_x + cx) * bins;
                    cell_pass(
                        hog,
                        Path::Vectors,
                        image,
                        cx * c,
                        cy * c,
                        &mut sums[base..base + bins],
                        &mut scratch.lanes,
                    );
                }
            }
            let area = (c * c) as f64;
            let slots = sums.iter().map(|sum| (sum / area).clamp(0.0, 1.0));
            (slots.collect(), cells_x, cells_y)
        }

        /// Cached slots of one level cell.
        pub(super) fn level_cell(
            hog: &HyperHog,
            path: Path,
            image: &GrayImage,
            cx: usize,
            cy: usize,
            level_seed: u64,
        ) -> Vec<CachedSlot> {
            let c = hog.config.hog.cell_size;
            let mut scratch = HyperHog::scratch_for_cell(level_seed, cx, cy);
            let mut sums = vec![0.0; hog.config.hog.bins];
            cell_pass(
                hog,
                path,
                image,
                cx * c,
                cy * c,
                &mut sums,
                &mut scratch.lanes,
            );
            let area = (c * c) as f64;
            sums.into_iter()
                .map(|sum| {
                    let value = (sum / area).clamp(0.0, 1.0);
                    let bits = hog.quantize_slot(value).clone();
                    CachedSlot { bits, value }
                })
                .collect()
        }
    }

    #[test]
    fn level_cell_slots_follow_the_vector_path_law() {
        // Mean and unbiased variance of one slot over many streams.
        let moments = |xs: &[f64]| {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            (mean, var)
        };
        // One 4×4 cell of a high-contrast image, its pixels clamped at
        // every border; each level seed is an independent stream. The
        // read-out slot value is the cell's mean decoded magnitude per
        // bin, so it carries the magnitude's law undiluted.
        let img = GrayImage::from_fn(4, 4, |x, y| ((x * 37 + y * 91) % 11) as f32 / 10.0);
        let mut config = small_config(512);
        config.hog.cell_size = 4;
        let hog = HyperHog::new(config, 33);
        let bins = hog.config.hog.bins;
        let streams = 50_000u64;
        let (mut got, mut want) = (vec![Vec::new(); bins], vec![Vec::new(); bins]);
        for seed in 0..streams {
            let laws = hog.compute_level_cell(&img, 0, 0, seed).unwrap();
            let vectors =
                reference::level_cell(&hog, reference::Path::Vectors, &img, 0, 0, streams + seed);
            for bin in 0..bins {
                got[bin].push(laws[bin].value());
                want[bin].push(vectors[bin].value());
            }
        }
        let n = streams as f64;
        let mut compared = 0;
        for bin in 0..bins {
            let ((gm, gv), (wm, wv)) = (moments(&got[bin]), moments(&want[bin]));
            let se = ((gv + wv) / n).sqrt();
            assert!(
                (gm - wm).abs() < 3.0 * se,
                "bin {bin}: mean {gm} vs {wm} (se {se})"
            );
            // A bin that most pixels miss is zero in most streams: its
            // value is a rare event, whose sample variance cannot
            // resolve 3% at this many streams, so its law is pinned by
            // how often it is hit instead.
            let hit = |xs: &[f64]| xs.iter().filter(|&&x| x > 0.0).count() as f64 / n;
            let (gh, wh) = (hit(&got[bin]), hit(&want[bin]));
            let se = ((gh * (1.0 - gh) + wh * (1.0 - wh)) / n).sqrt();
            assert!(
                (gh - wh).abs() <= 3.0 * se,
                "bin {bin}: hit rate {gh} vs {wh}"
            );
            if wh >= 0.5 {
                assert!(
                    (gv / wv - 1.0).abs() < 0.03,
                    "bin {bin}: variance {gv} vs {wv}"
                );
                compared += 1;
            }
        }
        assert!(
            compared >= bins / 2,
            "only {compared} bins are hit in most streams"
        );
    }

    #[test]
    fn tan_comparisons_follow_the_vector_alpha_law() {
        // 16 bins put interior boundaries at 22.5°, 45° and 67.5°, so
        // both parities compare against tangents (|t| ≤ 1) and
        // cotangents (|t| > 1). Each pixel's neighbours are codebook
        // levels giving gradients of every sign, large and near zero.
        let levels: [[usize; 4]; 6] = [
            [200, 120, 150, 140],
            [90, 160, 210, 40],
            [128, 131, 126, 129],
            [128, 128, 128, 128],
            [160, 120, 250, 10],
            [30, 220, 60, 190],
        ];
        for dim in [512usize, 4096] {
            let mut config = small_config(dim);
            config.hog.bins = 16;
            let hog = HyperHog::new(config, 34);
            let n_bounds = hog.boundaries.tangents().len();
            let code_at = |level: usize| hog.pixel_codes[level].as_bits();
            let pixels: Vec<[&BitVector; 4]> = levels.iter().map(|l| l.map(code_at)).collect();
            let mut lanes = hog.scratch_for_stream(35).lanes;
            let mut want_lanes = lanes.clone();
            let stride = PIXEL_COUNTS + hog.sweep_codes.len();
            let mut counts = vec![0; pixels.len() * stride];
            let basis = hog.ctx.basis().as_bits();
            cell_sweep(&mut lanes, &pixels, basis, &hog.sweep_codes, &mut counts).unwrap();
            let (mut cot, mut tan) = (0, 0);
            for (pixel, got) in pixels.iter().zip(counts.chunks_exact(stride)) {
                let masks = reference::pixel_masks(&mut want_lanes, dim, 3 + n_bounds);
                let [right, left, down, up] = pixel.map(|v| Shv::from_bits(v.clone()));
                let gx = reference::sub_halved(&right, &left, &masks[0]);
                let gy = reference::sub_halved(&down, &up, &masks[1]);
                for (k, &h) in got[PIXEL_COUNTS..].iter().enumerate() {
                    let (even, i) = (k < n_bounds, k % n_bounds);
                    let alpha = reference::alpha(&hog, &gx, &gy, even, i, &masks[3 + i]);
                    assert_eq!(
                        h,
                        alpha.as_bits().hamming(basis).unwrap(),
                        "D={dim} levels {pixel:?} code {k}"
                    );
                    let codes = if even {
                        &hog.even_codes
                    } else {
                        &hog.odd_codes
                    };
                    if codes[i].use_cot {
                        cot += 1;
                    } else {
                        tan += 1;
                    }
                }
            }
            assert_eq!(lanes, want_lanes, "D={dim}");
            assert!(
                cot > 0 && tan > 0,
                "{cot} cotangent and {tan} tangent codes"
            );
        }
    }

    #[test]
    fn arena_pass_matches_the_allocating_reference_bit_for_bit() {
        // Textured, with a ragged right and bottom edge: every cell of
        // the 3×2 grid touches the border, and the right-hand cells
        // read a real pixel past their last column.
        let img = GrayImage::from_fn(26, 21, |x, y| {
            (0.5 + 0.45 * ((x as f32 * 0.9).sin() * (y as f32 * 0.6 + 0.3).cos())).clamp(0.0, 1.0)
        });
        for dim in [64usize, 1000, 4096, 8193] {
            let hog = HyperHog::new(small_config(dim), 31);
            let (cells_x, cells_y) = hog.cell_grid(img.width(), img.height());
            assert_eq!((cells_x, cells_y), (3, 2));
            for cy in 0..cells_y {
                for cx in 0..cells_x {
                    let got = hog.compute_level_cell(&img, cx, cy, 5).unwrap();
                    let want =
                        reference::level_cell(&hog, reference::Path::Vectors, &img, cx, cy, 5);
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.bits(), w.bits(), "D={dim} cell ({cx},{cy})");
                        assert_eq!(
                            g.value().to_bits(),
                            w.value().to_bits(),
                            "D={dim} cell ({cx},{cy})"
                        );
                    }
                }
            }

            let got = hog
                .extract_histogram_with(&img, &mut hog.scratch_for_stream(2))
                .unwrap();
            let (slots, cx, cy) = reference::slots(&hog, &img, &mut hog.scratch_for_stream(2));
            let want = hog.histogram_of(&slots, cx, cy);
            let bits = |f: &HogFeatures| -> Vec<u64> {
                f.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "D={dim} histogram");

            let got = hog
                .extract_with(&img, &mut hog.scratch_for_stream(3))
                .unwrap();
            let mut scratch = hog.scratch_for_stream(3);
            let (slots, _, _) = reference::slots(&hog, &img, &mut scratch);
            let want = hog.bundle_slots(&slots, &mut scratch);
            assert_eq!(got, want, "D={dim} feature");
        }
    }
}
