//! The HOG feature container.

use std::fmt;

/// A grid of per-cell orientation histograms.
///
/// Values are laid out row-major by cell, then by bin:
/// `values[(cy * cells_x + cx) * bins + bin]`. Each value is the sum
/// of gradient magnitudes assigned to that bin divided by the cell
/// area, which keeps every entry inside `[0, 0.5]` — the range the
/// stochastic representation needs.
#[derive(Clone, PartialEq)]
pub struct HogFeatures {
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    values: Vec<f64>,
}

impl HogFeatures {
    /// Creates a zeroed feature grid.
    #[must_use]
    pub fn zeroed(cells_x: usize, cells_y: usize, bins: usize) -> Self {
        HogFeatures {
            cells_x,
            cells_y,
            bins,
            values: vec![0.0; cells_x * cells_y * bins],
        }
    }

    /// Wraps an existing value buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not `cells_x · cells_y · bins`.
    #[must_use]
    pub fn from_values(cells_x: usize, cells_y: usize, bins: usize, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            cells_x * cells_y * bins,
            "value buffer length mismatch"
        );
        HogFeatures {
            cells_x,
            cells_y,
            bins,
            values,
        }
    }

    /// Number of cell columns.
    #[must_use]
    pub fn cells_x(&self) -> usize {
        self.cells_x
    }

    /// Number of cell rows.
    #[must_use]
    pub fn cells_y(&self) -> usize {
        self.cells_y
    }

    /// Number of orientation bins per cell.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Total number of feature values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the grid holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads one histogram value.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    #[must_use]
    pub fn get(&self, cx: usize, cy: usize, bin: usize) -> f64 {
        self.values[self.index(cx, cy, bin)]
    }

    /// Writes one histogram value.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    pub fn set(&mut self, cx: usize, cy: usize, bin: usize, value: f64) {
        let i = self.index(cx, cy, bin);
        self.values[i] = value;
    }

    /// Adds to one histogram value.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    pub fn add(&mut self, cx: usize, cy: usize, bin: usize, delta: f64) {
        let i = self.index(cx, cy, bin);
        self.values[i] += delta;
    }

    fn index(&self, cx: usize, cy: usize, bin: usize) -> usize {
        assert!(
            cx < self.cells_x && cy < self.cells_y && bin < self.bins,
            "feature index ({cx},{cy},{bin}) out of range"
        );
        (cy * self.cells_x + cx) * self.bins + bin
    }

    /// The flat feature vector (layout documented on the type).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Consumes into the flat feature vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// One cell's histogram as a slice of `bins` values.
    ///
    /// # Panics
    ///
    /// Panics when the cell coordinate is out of range.
    #[must_use]
    pub fn cell_histogram(&self, cx: usize, cy: usize) -> &[f64] {
        let start = self.index(cx, cy, 0);
        &self.values[start..start + self.bins]
    }

    /// Mean absolute difference to another feature grid — the
    /// fidelity metric of the classic-vs-hyper parity experiments.
    ///
    /// # Panics
    ///
    /// Panics when the grids have different shapes.
    #[must_use]
    pub fn mean_abs_diff(&self, other: &HogFeatures) -> f64 {
        assert_eq!(
            (self.cells_x, self.cells_y, self.bins),
            (other.cells_x, other.cells_y, other.bins),
            "feature grid shapes differ"
        );
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / self.values.len() as f64
    }
}

impl fmt::Debug for HogFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HogFeatures({}x{} cells, {} bins, mean={:.4})",
            self.cells_x,
            self.cells_y,
            self.bins,
            self.values.iter().sum::<f64>() / self.values.len().max(1) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_layout() {
        let f = HogFeatures::zeroed(3, 2, 4);
        assert_eq!(f.len(), 24);
        assert_eq!(f.cells_x(), 3);
        assert_eq!(f.cells_y(), 2);
        assert_eq!(f.bins(), 4);
        assert!(!f.is_empty());
    }

    #[test]
    fn get_set_add_roundtrip() {
        let mut f = HogFeatures::zeroed(2, 2, 3);
        f.set(1, 0, 2, 0.5);
        f.add(1, 0, 2, 0.25);
        assert_eq!(f.get(1, 0, 2), 0.75);
        // Row-major layout: (cy * cells_x + cx) * bins + bin.
        assert_eq!(f.as_slice()[3 + 2], 0.75);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let f = HogFeatures::zeroed(2, 2, 3);
        let _ = f.get(2, 0, 0);
    }

    #[test]
    fn cell_histogram_slices_one_cell() {
        let mut f = HogFeatures::zeroed(2, 1, 2);
        f.set(1, 0, 0, 0.1);
        f.set(1, 0, 1, 0.2);
        assert_eq!(f.cell_histogram(1, 0), &[0.1, 0.2]);
        assert_eq!(f.cell_histogram(0, 0), &[0.0, 0.0]);
    }

    #[test]
    fn mean_abs_diff_is_zero_on_self() {
        let mut f = HogFeatures::zeroed(2, 2, 2);
        f.set(0, 0, 0, 0.3);
        assert_eq!(f.mean_abs_diff(&f.clone()), 0.0);
        let g = HogFeatures::zeroed(2, 2, 2);
        assert!((f.mean_abs_diff(&g) - 0.3 / 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn mean_abs_diff_rejects_shape_mismatch() {
        let a = HogFeatures::zeroed(2, 2, 2);
        let b = HogFeatures::zeroed(2, 2, 4);
        let _ = a.mean_abs_diff(&b);
    }

    #[test]
    fn from_values_validates_length() {
        let f = HogFeatures::from_values(1, 1, 2, vec![0.1, 0.2]);
        assert_eq!(f.get(0, 0, 1), 0.2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_values_rejects_bad_length() {
        let _ = HogFeatures::from_values(1, 1, 2, vec![0.1]);
    }

    #[test]
    fn into_vec_returns_layout() {
        let f = HogFeatures::from_values(1, 1, 2, vec![0.1, 0.9]);
        assert_eq!(f.into_vec(), vec![0.1, 0.9]);
    }

    #[test]
    fn debug_is_compact() {
        let f = HogFeatures::zeroed(2, 2, 8);
        let s = format!("{f:?}");
        assert!(s.contains("2x2"));
        assert!(s.contains("8 bins"));
    }
}
