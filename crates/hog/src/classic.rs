//! The float reference HOG extractor.

use hdface_imaging::GrayImage;

use crate::binning::bin_of_angle;
use crate::config::HogConfig;
use crate::features::HogFeatures;

/// Central-difference gradient at `(x, y)` with clamped borders:
/// `((I(x+1,y) − I(x−1,y))/2, (I(x,y+1) − I(x,y−1))/2)`.
///
/// Matches the paper's `Gx = (C₂,₁ − C₀,₁)/2`, `Gy = (C₁,₂ − C₁,₀)/2`
/// on the 3×3 cell around the pixel. Components lie in `[-0.5, 0.5]`.
#[must_use]
pub fn gradient_at(image: &GrayImage, x: usize, y: usize) -> (f64, f64) {
    let xi = x as isize;
    let yi = y as isize;
    let gx =
        (f64::from(image.get_clamped(xi + 1, yi)) - f64::from(image.get_clamped(xi - 1, yi))) / 2.0;
    let gy =
        (f64::from(image.get_clamped(xi, yi + 1)) - f64::from(image.get_clamped(xi, yi - 1))) / 2.0;
    (gx, gy)
}

/// The float reference implementation of the HOG pipeline.
///
/// Gradient magnitude uses the paper's scaled form
/// `√((Gx² + Gy²)/2)` (a uniform `1/√2` of the true magnitude —
/// irrelevant after normalization, and it keeps every intermediate
/// inside the `[-1, 1]` range the stochastic twin requires). Cell
/// histograms divide by cell area so values land in `[0, 0.5]`.
///
/// ```
/// use hdface_hog::{ClassicHog, HogConfig};
/// use hdface_imaging::GrayImage;
///
/// let hog = ClassicHog::new(HogConfig::paper());
/// let img = GrayImage::from_fn(16, 16, |x, _| if x < 8 { 0.0 } else { 1.0 });
/// let f = hog.extract(&img);
/// // The vertical edge produces horizontal gradients: bin 0 (east)
/// // dominates in the cells straddling the edge.
/// assert!(f.get(0, 0, 0) >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClassicHog {
    config: HogConfig,
}

impl ClassicHog {
    /// Creates an extractor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`HogConfig::validate`]).
    #[must_use]
    pub fn new(config: HogConfig) -> Self {
        config.validate();
        ClassicHog { config }
    }

    /// The extractor's configuration.
    #[must_use]
    pub fn config(&self) -> &HogConfig {
        &self.config
    }

    /// Extracts HOG features from an image.
    ///
    /// Only whole cells are processed; right/bottom remainder pixels
    /// are ignored (standard HOG cropping behavior).
    #[must_use]
    pub fn extract(&self, image: &GrayImage) -> HogFeatures {
        let c = self.config.cell_size;
        let cells_x = self.config.cells_for(image.width());
        let cells_y = self.config.cells_for(image.height());
        let mut feats = HogFeatures::zeroed(cells_x, cells_y, self.config.bins);
        let cell_area = (c * c) as f64;

        for cy in 0..cells_y {
            for cx in 0..cells_x {
                for py in 0..c {
                    for px in 0..c {
                        let x = cx * c + px;
                        let y = cy * c + py;
                        let (gx, gy) = gradient_at(image, x, y);
                        let mag = ((gx * gx + gy * gy) / 2.0).sqrt();
                        if mag == 0.0 {
                            continue;
                        }
                        let bin = bin_of_angle(gx, gy, self.config.bins);
                        feats.add(cx, cy, bin, mag / cell_area);
                    }
                }
            }
        }
        feats
    }

    /// Extracts and flattens to a plain feature vector — the input
    /// format of the DNN/SVM baselines and the non-HD encoders.
    #[must_use]
    pub fn extract_vec(&self, image: &GrayImage) -> Vec<f64> {
        self.extract(image).into_vec()
    }
}

impl Default for ClassicHog {
    fn default() -> Self {
        Self::new(HogConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_ramp_is_constant() {
        // I(x, y) = x/15: Gx = 1/15/2 interior, Gy = 0.
        let img = GrayImage::from_fn(16, 16, |x, _| x as f32 / 15.0);
        let (gx, gy) = gradient_at(&img, 8, 8);
        assert!((gx - 1.0 / 15.0).abs() < 1e-6);
        assert_eq!(gy, 0.0);
    }

    #[test]
    fn gradient_clamps_at_borders() {
        let img = GrayImage::from_fn(4, 4, |x, _| x as f32 / 3.0);
        // At x=0 the backward sample is clamped: (I(1)-I(0))/2.
        let (gx, _) = gradient_at(&img, 0, 2);
        assert!((gx - (1.0 / 3.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn flat_image_produces_zero_features() {
        let hog = ClassicHog::default();
        let img = GrayImage::filled(16, 16, 0.5);
        let f = hog.extract(&img);
        assert!(f.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn horizontal_ramp_concentrates_in_east_bin() {
        let hog = ClassicHog::default();
        let img = GrayImage::from_fn(16, 16, |x, _| x as f32 / 15.0);
        let f = hog.extract(&img);
        // Gradient points east (+x): every magnitude in bin 0.
        for cy in 0..f.cells_y() {
            for cx in 0..f.cells_x() {
                let h = f.cell_histogram(cx, cy);
                assert!(h[0] > 0.0, "cell ({cx},{cy}) east bin empty");
                for (b, &v) in h.iter().enumerate().skip(1) {
                    assert_eq!(v, 0.0, "cell ({cx},{cy}) bin {b}");
                }
            }
        }
    }

    #[test]
    fn vertical_ramp_concentrates_in_south_bin() {
        // I increasing with y: Gy > 0 → θ = 90° → bin 2 of 8.
        let hog = ClassicHog::default();
        let img = GrayImage::from_fn(16, 16, |_, y| y as f32 / 15.0);
        let f = hog.extract(&img);
        let h = f.cell_histogram(0, 0);
        assert!(h[2] > 0.0);
        assert_eq!(h[0], 0.0);
    }

    #[test]
    fn opposite_ramps_land_in_opposite_bins() {
        let hog = ClassicHog::default();
        let inc = GrayImage::from_fn(16, 16, |x, _| x as f32 / 15.0);
        let dec = GrayImage::from_fn(16, 16, |x, _| 1.0 - x as f32 / 15.0);
        let fi = hog.extract(&inc);
        let fd = hog.extract(&dec);
        // Signed binning distinguishes east (bin 0) from west (bin 4).
        assert!(fi.get(1, 1, 0) > 0.0);
        assert!(fd.get(1, 1, 4) > 0.0);
        assert_eq!(fi.get(1, 1, 4), 0.0);
        assert_eq!(fd.get(1, 1, 0), 0.0);
    }

    #[test]
    fn histogram_values_bounded_by_half() {
        // Max gradient magnitude is √((0.5² + 0.5²)/2) = 0.5; after
        // dividing by cell area the per-bin sum cannot exceed 0.5.
        let hog = ClassicHog::default();
        let img = GrayImage::from_fn(32, 32, |x, y| ((x + y) % 2) as f32);
        let f = hog.extract(&img);
        for &v in f.as_slice() {
            assert!((0.0..=0.5).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn remainder_pixels_are_cropped() {
        let hog = ClassicHog::default();
        let img = GrayImage::new(20, 17);
        let f = hog.extract(&img);
        assert_eq!(f.cells_x(), 2);
        assert_eq!(f.cells_y(), 2);
    }

    #[test]
    fn extract_vec_flattens() {
        let hog = ClassicHog::default();
        let img = GrayImage::new(16, 16);
        assert_eq!(hog.extract_vec(&img).len(), 2 * 2 * 8);
    }
}
