//! # hdface-hog — histogram-of-oriented-gradients, classic and hyperdimensional
//!
//! Two implementations of the same feature extractor:
//!
//! * [`ClassicHog`] — the float reference: central-difference
//!   gradients, magnitude `√((Gx²+Gy²)/2)`, signed orientation
//!   binning, per-cell histograms.
//! * [`HyperHog`] — the paper's contribution (§4.3): the *entire*
//!   pipeline runs on stochastic binary hypervectors. Pixels are
//!   quantized into correlative hypervectors, gradients are halved
//!   subtractions (⊕), magnitudes are the L1 `(|Gx|+|Gy|)/2` from the
//!   statistical sign, negation and a halved addition (the paper's
//!   squaring and binary-search root sat on a noise floor), and the
//!   angle bin is found by
//!   quadrant localization plus monotone-tan comparisons against
//!   precomputed `V_tanθᵢ` / `V_cotθᵢ` codebooks — never computing an
//!   arctangent.
//!
//! The crate also ships the two sibling feature families §2 of the
//! paper names — [`Lbp`] (local binary patterns) and [`HaarBank`]
//! (HAAR-like rectangular features over integral images) — so
//! extractor comparisons stay in-repo.
//!
//! Both HOG implementations produce per-(cell, bin) histogram values with identical
//! normalization (sum of magnitudes ÷ cell area), so their outputs are
//! directly comparable (the L1 magnitude lies between `1/√2` and 1 of
//! the classic L2); `HyperHog` additionally bundles the slots into
//! a single feature hypervector for the HDC classifier.
//!
//! ```
//! use hdface_hog::{ClassicHog, HogConfig};
//! use hdface_imaging::GrayImage;
//!
//! let img = GrayImage::from_fn(16, 16, |x, _| (x % 2) as f32);
//! let hog = ClassicHog::new(HogConfig::default());
//! let feats = hog.extract(&img);
//! assert_eq!(feats.cells_x(), 2); // 16 / 8
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binning;
mod classic;
mod config;
mod features;
mod haar;
mod hyper;
mod lbp;

pub use binning::{bin_of_angle, quadrant_of, BinBoundaries};
pub use classic::{gradient_at, ClassicHog};
pub use config::{HogConfig, HyperHogConfig};
pub use features::HogFeatures;
pub use haar::{HaarBank, HaarFeature, HaarKind};
pub use hyper::{CachedSlot, HogScratch, HyperHog, HyperHogError, LevelCellCache};
pub use lbp::{Lbp, LbpConfig};
