//! Prints checksums of extracted hyper-HOG features for a fixed
//! image, seed, and stream layout — a quick cross-revision probe that
//! the window-encoding path (including the bit-sliced bundling
//! kernel) is bit-identical to earlier builds in both the per-window
//! and cached extraction modes, one line per dimensionality of the
//! one extractor.
//!
//! ```sh
//! cargo run --release -p hdface-hog --example feature_hash
//! ```
//!
//! Expected output with the workspace's `HdcRng` (xoshiro256++), the
//! pixel codebook, each cell pass one cell sweep on its scratch's
//! mask lanes (the vector pipeline bit for bit: every ½ mask stepped
//! from the lanes, the L1 magnitude and each tan test's `α` counted,
//! nothing drawn from a binomial law) and the `[0, 1/32]` slot
//! codebook, identical under `HDFACE_NO_SIMD=0` and `HDFACE_NO_SIMD=1`:
//!
//! ```text
//! dim 1024: window 60d7f8af7f9ea5fb cached dff9d944dc112238
//! dim 4096: window df28a2fe51434474 cached 6b715cae078f3fa3
//! dim 8193: window b984df6b1f374f92 cached a0abba5accff6354
//! ```
//!
//! `scripts/check-pins.sh` diffs this program's output against the
//! block above; CI runs it on every (threads, SIMD) cell.

use hdface_hog::{HyperHog, HyperHogConfig};
use hdface_imaging::GrayImage;

/// Checksums of the per-window and cached features at `dim`.
fn checksums(dim: usize) -> (u64, u64) {
    let img = GrayImage::from_fn(32, 32, |x, y| ((x * 3 + y * 7) % 13) as f32 / 12.0);
    let hog = HyperHog::new(HyperHogConfig::with_dim(dim), 7);
    let mut s = hog.scratch_for_stream(3);
    let f = hog.extract_with(&img, &mut s).unwrap();
    let cache = hog.build_level_cache(&img.normalized(), 99).unwrap();
    let mut s2 = hog.scratch_for_stream(4);
    let g = hog.extract_from_cache(&cache, 0, 0, 2, 2, &mut s2).unwrap();
    (f.checksum(), g.checksum())
}

fn main() {
    for dim in [1024usize, 4096, 8193] {
        let (window, cached) = checksums(dim);
        println!("dim {dim}: window {window:016x} cached {cached:016x}");
    }
}
