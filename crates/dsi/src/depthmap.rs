//! Semi-dense depth maps extracted from the DSI and the accuracy metrics used
//! by the paper (absolute relative error, AbsRel).

use crate::DsiError;

/// A semi-dense depth map at the virtual camera's resolution.
///
/// Pixels without a depth estimate hold `f64::INFINITY`.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthMap {
    width: usize,
    height: usize,
    depth: Vec<f64>,
    confidence: Vec<f64>,
}

/// Accuracy metrics of a depth map against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DepthMetrics {
    /// Mean absolute relative error `mean(|d - d_gt| / d_gt)` over pixels
    /// where both estimate and ground truth are valid.
    pub abs_rel: f64,
    /// Root-mean-square metric depth error over the same pixels.
    pub rmse: f64,
    /// Number of pixels compared.
    pub compared_pixels: usize,
    /// Number of estimated pixels (semi-dense coverage).
    pub estimated_pixels: usize,
    /// Estimated pixels as a fraction of ground-truth-valid pixels.
    pub completeness: f64,
    /// Fraction of compared pixels with relative error below 10 %.
    pub inlier_ratio_10: f64,
}

impl DepthMap {
    /// Creates an empty (all-invalid) depth map.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::EmptyVolume`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self, DsiError> {
        if width == 0 || height == 0 {
            return Err(DsiError::EmptyVolume { width, height });
        }
        Ok(Self {
            width,
            height,
            depth: vec![f64::INFINITY; width * height],
            confidence: vec![0.0; width * height],
        })
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Depth at `(x, y)` (`f64::INFINITY` when not estimated).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds coordinates.
    #[inline]
    pub fn depth(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height);
        self.depth[y * self.width + x]
    }

    /// Confidence (DSI score) at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds coordinates.
    #[inline]
    pub fn confidence(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height);
        self.confidence[y * self.width + x]
    }

    /// Sets the estimate at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds coordinates.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, depth: f64, confidence: f64) {
        assert!(x < self.width && y < self.height);
        self.depth[y * self.width + x] = depth;
        self.confidence[y * self.width + x] = confidence;
    }

    /// Marks `(x, y)` as not estimated.
    #[inline]
    pub fn invalidate(&mut self, x: usize, y: usize) {
        self.set(x, y, f64::INFINITY, 0.0);
    }

    /// Whether `(x, y)` carries a depth estimate.
    #[inline]
    pub fn is_valid(&self, x: usize, y: usize) -> bool {
        self.depth(x, y).is_finite()
    }

    /// Raw row-major depth values.
    pub fn depth_data(&self) -> &[f64] {
        &self.depth
    }

    /// Number of valid (estimated) pixels.
    pub fn valid_count(&self) -> usize {
        self.depth.iter().filter(|d| d.is_finite()).count()
    }

    /// Mean of the valid depths (zero if none).
    pub fn mean_depth(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &d in &self.depth {
            if d.is_finite() {
                sum += d;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Applies a `size × size` median filter to the valid depths (the
    /// depth-map cleanup step of the EMVS scene-structure detection). Pixels
    /// keep their validity; only valid neighbours contribute to the median.
    ///
    /// # Panics
    ///
    /// Panics if `size` is even or zero.
    pub fn median_filtered(&self, size: usize) -> Self {
        assert!(size % 2 == 1 && size > 0, "median filter size must be odd");
        let r = size / 2;
        let mut out = self.clone();
        let mut window: Vec<f64> = Vec::with_capacity(size * size);
        let w = self.width;
        for y in 0..self.height {
            for x in 0..w {
                if !self.depth[y * w + x].is_finite() {
                    continue;
                }
                window.clear();
                let (x0, x1) = (x.saturating_sub(r), (x + r).min(w - 1));
                for dy in y.saturating_sub(r)..=(y + r).min(self.height - 1) {
                    let row = &self.depth[dy * w + x0..=dy * w + x1];
                    window.extend(row.iter().copied().filter(|d| d.is_finite()));
                }
                // Only the middle order statistic is needed; depths are
                // finite and positive, so the selected value is the one a
                // full sort would put there, bit for bit.
                let mid = window.len() / 2;
                let (_, &mut median, _) = window.select_nth_unstable_by(mid, |a, b| {
                    a.partial_cmp(b).expect("depths are finite")
                });
                out.depth[y * w + x] = median;
            }
        }
        out
    }

    /// Compares against a ground-truth depth image (row-major, invalid pixels
    /// marked non-finite) of the same dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::DimensionMismatch`] when the ground truth has a
    /// different number of pixels.
    pub fn compare_to_ground_truth(&self, ground_truth: &[f64]) -> Result<DepthMetrics, DsiError> {
        if ground_truth.len() != self.depth.len() {
            return Err(DsiError::DimensionMismatch {
                expected: self.depth.len(),
                actual: ground_truth.len(),
            });
        }
        let mut abs_rel_sum = 0.0;
        let mut sq_sum = 0.0;
        let mut compared = 0usize;
        let mut inliers = 0usize;
        let mut gt_valid = 0usize;
        for (est, &gt) in self.depth.iter().zip(ground_truth) {
            if gt.is_finite() && gt > 0.0 {
                gt_valid += 1;
                if est.is_finite() {
                    let rel = (est - gt).abs() / gt;
                    abs_rel_sum += rel;
                    sq_sum += (est - gt) * (est - gt);
                    compared += 1;
                    if rel < 0.10 {
                        inliers += 1;
                    }
                }
            }
        }
        let estimated = self.valid_count();
        Ok(DepthMetrics {
            abs_rel: if compared > 0 {
                abs_rel_sum / compared as f64
            } else {
                0.0
            },
            rmse: if compared > 0 {
                (sq_sum / compared as f64).sqrt()
            } else {
                0.0
            },
            compared_pixels: compared,
            estimated_pixels: estimated,
            completeness: if gt_valid > 0 {
                compared as f64 / gt_valid as f64
            } else {
                0.0
            },
            inlier_ratio_10: if compared > 0 {
                inliers as f64 / compared as f64
            } else {
                0.0
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validity() {
        assert!(DepthMap::new(0, 4).is_err());
        let mut dm = DepthMap::new(4, 3).unwrap();
        assert_eq!(dm.valid_count(), 0);
        dm.set(1, 2, 2.5, 10.0);
        assert!(dm.is_valid(1, 2));
        assert_eq!(dm.depth(1, 2), 2.5);
        assert_eq!(dm.confidence(1, 2), 10.0);
        assert_eq!(dm.valid_count(), 1);
        dm.invalidate(1, 2);
        assert!(!dm.is_valid(1, 2));
    }

    #[test]
    fn mean_depth_ignores_invalid() {
        let mut dm = DepthMap::new(3, 1).unwrap();
        dm.set(0, 0, 1.0, 1.0);
        dm.set(1, 0, 3.0, 1.0);
        assert!((dm.mean_depth() - 2.0).abs() < 1e-12);
        assert_eq!(DepthMap::new(2, 2).unwrap().mean_depth(), 0.0);
    }

    #[test]
    fn abs_rel_exact_match_is_zero() {
        let mut dm = DepthMap::new(3, 3).unwrap();
        let gt = vec![2.0; 9];
        for y in 0..3 {
            for x in 0..3 {
                dm.set(x, y, 2.0, 1.0);
            }
        }
        let m = dm.compare_to_ground_truth(&gt).unwrap();
        assert_eq!(m.abs_rel, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.compared_pixels, 9);
        assert_eq!(m.completeness, 1.0);
        assert_eq!(m.inlier_ratio_10, 1.0);
    }

    #[test]
    fn abs_rel_known_error() {
        let mut dm = DepthMap::new(2, 1).unwrap();
        dm.set(0, 0, 2.2, 1.0); // 10% over a GT of 2.0
        dm.set(1, 0, 1.8, 1.0); // 10% under
        let m = dm.compare_to_ground_truth(&[2.0, 2.0]).unwrap();
        assert!((m.abs_rel - 0.10).abs() < 1e-9);
        assert!((m.rmse - 0.2).abs() < 1e-9);
    }

    #[test]
    fn comparison_skips_invalid_pixels_on_either_side() {
        let mut dm = DepthMap::new(3, 1).unwrap();
        dm.set(0, 0, 1.0, 1.0);
        // pixel 1 not estimated, pixel 2 estimated but GT invalid.
        dm.set(2, 0, 5.0, 1.0);
        let gt = vec![1.0, 1.0, f64::INFINITY];
        let m = dm.compare_to_ground_truth(&gt).unwrap();
        assert_eq!(m.compared_pixels, 1);
        assert_eq!(m.estimated_pixels, 2);
        assert!((m.completeness - 0.5).abs() < 1e-12);
        assert_eq!(m.abs_rel, 0.0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let dm = DepthMap::new(2, 2).unwrap();
        assert!(dm.compare_to_ground_truth(&[1.0; 3]).is_err());
    }

    #[test]
    fn median_filter_removes_spike() {
        let mut dm = DepthMap::new(5, 5).unwrap();
        for y in 0..5 {
            for x in 0..5 {
                dm.set(x, y, 2.0, 1.0);
            }
        }
        dm.set(2, 2, 50.0, 1.0); // outlier spike
        let filtered = dm.median_filtered(3);
        assert!((filtered.depth(2, 2) - 2.0).abs() < 1e-12);
        // Valid pixels unchanged in count.
        assert_eq!(filtered.valid_count(), 25);
    }

    #[test]
    fn median_filter_keeps_invalid_pixels_invalid() {
        let mut dm = DepthMap::new(3, 3).unwrap();
        dm.set(1, 1, 2.0, 1.0);
        let filtered = dm.median_filtered(3);
        assert_eq!(filtered.valid_count(), 1);
        assert!(!filtered.is_valid(0, 0));
    }

    #[test]
    fn median_filter_selects_the_sorted_window_median() {
        // Scattered valid pixels with repeated depths, every window size up
        // to 7, against the full-sort definition.
        let (w, h) = (9, 7);
        let mut dm = DepthMap::new(w, h).unwrap();
        for i in 0..w * h {
            if i % 3 != 1 {
                dm.set(i % w, i / w, 1.0 + ((i * 37) % 11) as f64 * 0.25, 1.0);
            }
        }
        for size in [1, 3, 5, 7] {
            let filtered = dm.median_filtered(size);
            let r = size / 2;
            for y in 0..h {
                for x in 0..w {
                    if !dm.is_valid(x, y) {
                        assert!(!filtered.is_valid(x, y));
                        continue;
                    }
                    let mut window: Vec<f64> = (y.saturating_sub(r)..=(y + r).min(h - 1))
                        .flat_map(|dy| {
                            (x.saturating_sub(r)..=(x + r).min(w - 1)).map(move |dx| (dx, dy))
                        })
                        .map(|(dx, dy)| dm.depth(dx, dy))
                        .filter(|d| d.is_finite())
                        .collect();
                    window.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let median = window[window.len() / 2];
                    assert_eq!(
                        filtered.depth(x, y).to_bits(),
                        median.to_bits(),
                        "size {size}"
                    );
                    assert_eq!(filtered.confidence(x, y), dm.confidence(x, y));
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn median_filter_even_size_panics() {
        let dm = DepthMap::new(3, 3).unwrap();
        let _ = dm.median_filtered(2);
    }
}
