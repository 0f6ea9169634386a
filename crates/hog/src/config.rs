//! HOG configuration.

/// Geometry and binning parameters shared by the classic and
/// hyperdimensional extractors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HogConfig {
    /// Side length of a square cell in pixels.
    pub cell_size: usize,
    /// Number of signed orientation bins over the full circle.
    /// Must be a positive multiple of 4 so quadrant boundaries
    /// (π/2, π, 3π/2 — where tan is non-monotonic) coincide with bin
    /// boundaries, as the paper's angle-bin scheme requires.
    pub bins: usize,
}

impl HogConfig {
    /// The paper's configuration: 8×8 cells, 8 signed bins (its bin
    /// boundaries are indexed i = 1…8).
    #[must_use]
    pub fn paper() -> Self {
        HogConfig {
            cell_size: 8,
            bins: 8,
        }
    }

    /// Validates the invariants documented on the fields.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size == 0` or `bins` is not a positive multiple
    /// of 4.
    pub fn validate(&self) {
        assert!(self.cell_size > 0, "cell_size must be positive");
        assert!(
            self.bins > 0 && self.bins.is_multiple_of(4),
            "bins must be a positive multiple of 4 (got {})",
            self.bins
        );
    }

    /// Number of whole cells that fit horizontally in a `width`-pixel
    /// image.
    #[must_use]
    pub fn cells_for(&self, extent: usize) -> usize {
        extent / self.cell_size
    }

    /// Total feature length for an image of the given size
    /// (cells × bins).
    #[must_use]
    pub fn feature_len(&self, width: usize, height: usize) -> usize {
        self.cells_for(width) * self.cells_for(height) * self.bins
    }
}

impl Default for HogConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Additional parameters of the hyperdimensional extractor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperHogConfig {
    /// Shared geometry/binning parameters.
    pub hog: HogConfig,
    /// Hypervector dimensionality `D` (the paper sweeps 1k–10k and
    /// settles on 4k).
    pub dim: usize,
    /// Bisection iterations of the paper's magnitude square root. The
    /// extractor takes an L1 magnitude and runs no root; only the
    /// benchmark's per-op replay (`benchmark/src/profile.rs`) reads
    /// this, until that replay follows the cell pass (ROADMAP item 1).
    pub sqrt_iters: usize,
}

impl HyperHogConfig {
    /// Paper defaults at the given dimensionality.
    #[must_use]
    pub fn with_dim(dim: usize) -> Self {
        HyperHogConfig {
            hog: HogConfig::paper(),
            dim,
            sqrt_iters: 6,
        }
    }
}

impl Default for HyperHogConfig {
    fn default() -> Self {
        Self::with_dim(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_values() {
        let c = HogConfig::paper();
        assert_eq!(c.cell_size, 8);
        assert_eq!(c.bins, 8);
        c.validate();
        assert_eq!(HogConfig::default(), c);
    }

    #[test]
    fn feature_len_matches_grid() {
        let c = HogConfig::paper();
        assert_eq!(c.cells_for(48), 6);
        assert_eq!(c.feature_len(48, 48), 6 * 6 * 8);
        // Non-multiple sizes truncate.
        assert_eq!(c.cells_for(47), 5);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn validate_rejects_odd_bins() {
        let mut c = HogConfig::paper();
        c.bins = 9;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn validate_rejects_zero_cell() {
        let mut c = HogConfig::paper();
        c.cell_size = 0;
        c.validate();
    }

    #[test]
    fn hyper_defaults() {
        let h = HyperHogConfig::default();
        assert_eq!(h.dim, 4096);
        assert_eq!(h.sqrt_iters, 6);
        assert_eq!(HyperHogConfig::with_dim(1024).dim, 1024);
    }
}
