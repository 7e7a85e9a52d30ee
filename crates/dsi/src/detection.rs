//! Scene structure detection (`𝒟` in the paper): extracting a semi-dense
//! depth map from the ray-density DSI.
//!
//! Following the EMVS reference algorithm, the detector
//!
//! 1. collapses the DSI to a per-pixel *confidence map* (maximum ray count
//!    along depth) and the corresponding best depth plane,
//! 2. keeps only pixels whose confidence exceeds an *adaptive threshold*
//!    (a Gaussian-blurred copy of the confidence map plus a constant offset) —
//!    the regions where many back-projected rays nearly intersect,
//! 3. median-filters the resulting semi-dense depth map to remove isolated
//!    outliers.

use crate::depthmap::DepthMap;
use crate::volume::{DsiVolume, VoxelScore};
use eventor_fixed::kernel::batch::{self, Dispatch, PlaneCollapse};

/// Parameters of the scene-structure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Standard deviation (in pixels) of the Gaussian blur applied to the
    /// confidence map when building the adaptive threshold surface.
    pub adaptive_sigma: f64,
    /// Constant added to the blurred confidence before thresholding
    /// (suppresses low-evidence regions).
    pub adaptive_offset: f64,
    /// Absolute minimum confidence for a pixel to be considered at all.
    pub min_confidence: f64,
    /// Minimum ratio between the per-pixel peak score and the per-pixel mean
    /// score along depth. Disabled at the default of 1.0: the adaptive offset
    /// is the primary filter, but the knob is kept for ablations (a high
    /// ratio keeps only isolated spikes, which favours sparse noise).
    pub min_peak_ratio: f64,
    /// Refine the detected depth below the plane spacing by fitting a
    /// parabola (in inverse depth) through the peak plane and its two
    /// neighbours.
    pub subplane_refinement: bool,
    /// Size of the square median filter applied to the depth map (odd; 1
    /// disables filtering).
    pub median_filter_size: usize,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        Self {
            adaptive_sigma: 4.0,
            adaptive_offset: 8.0,
            min_confidence: 5.0,
            min_peak_ratio: 1.0,
            subplane_refinement: true,
            median_filter_size: 5,
        }
    }
}

/// A 1-D Gaussian kernel of the given sigma, truncated at three sigmas.
fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    let radius = (3.0 * sigma).ceil().max(1.0) as usize;
    let mut kernel = Vec::with_capacity(2 * radius + 1);
    let denom = 2.0 * sigma * sigma;
    for i in 0..=(2 * radius) {
        let d = i as f64 - radius as f64;
        kernel.push((-d * d / denom).exp());
    }
    let sum: f64 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    kernel
}

/// Separable Gaussian blur of a row-major image with clamped borders.
///
/// Both passes add the taps in kernel order into a zeroed accumulator, one
/// whole row per tap, so every pixel sees the same operands in the same
/// summation order as the per-pixel clamped loop while the inner loops run
/// across contiguous pixels.
fn gaussian_blur(data: &[f64], width: usize, height: usize, sigma: f64) -> Vec<f64> {
    if sigma <= 0.0 {
        return data.to_vec();
    }
    let kernel = gaussian_kernel(sigma);
    let radius = kernel.len() / 2;
    let mut tmp = vec![0.0; data.len()];
    let mut out = vec![0.0; data.len()];
    // Horizontal pass over a clamp-padded copy of each row.
    let mut padded = vec![0.0; width + 2 * radius];
    for (row, tmp_row) in data.chunks_exact(width).zip(tmp.chunks_exact_mut(width)) {
        for (i, p) in padded.iter_mut().enumerate() {
            *p = row[i.saturating_sub(radius).min(width - 1)];
        }
        for (k, &w) in kernel.iter().enumerate() {
            for (acc, &v) in tmp_row.iter_mut().zip(&padded[k..k + width]) {
                *acc += w * v;
            }
        }
    }
    // Vertical pass: tap `k` of output row `y` is the whole clamped row
    // `y + k - radius` of the horizontal result.
    for (y, out_row) in out.chunks_exact_mut(width).enumerate() {
        for (k, &w) in kernel.iter().enumerate() {
            let yi = (y + k).saturating_sub(radius).min(height - 1);
            for (acc, &v) in out_row.iter_mut().zip(&tmp[yi * width..(yi + 1) * width]) {
                *acc += w * v;
            }
        }
    }
    out
}

/// The per-pixel maximum-score projection of a DSI: confidence map plus the
/// index of the best depth plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceMap {
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Row-major maximum score per pixel.
    pub confidence: Vec<f64>,
    /// Row-major mean score along depth per pixel.
    pub mean_score: Vec<f64>,
    /// Row-major index of the best depth plane per pixel.
    pub best_plane: Vec<usize>,
}

/// Pixels per chunk of the generic depth collapse: the chunk's three
/// accumulator rows stay L1-resident while every plane slab streams past.
const COLLAPSE_CHUNK: usize = 256;

/// Collapses a DSI along the depth axis into a [`ConfidenceMap`].
///
/// The volume is read once in its plane-major storage order. `u16` volumes
/// fold through the batched kernel face
/// [`batch::plane_collapse_batch`](eventor_fixed::kernel::batch::plane_collapse_batch)
/// on the session's dispatch tier; `f32` volumes, and `u16` volumes with
/// more planes than that face indexes, take the generic chunked body.
/// Either way the result equals the per-pixel definition bit for bit: the
/// first plane of a tie wins and the mean is the plane-order sum over the
/// plane count.
pub fn confidence_map<S: VoxelScore>(dsi: &DsiVolume<S>) -> ConfidenceMap {
    confidence_map_with(batch::active(), dsi)
}

/// [`confidence_map`] on an explicit dispatch tier.
fn confidence_map_with<S: VoxelScore>(tier: Dispatch, dsi: &DsiVolume<S>) -> ConfidenceMap {
    S::collapse_planes(dsi, tier)
}

/// The generic plane-major depth collapse: `f64` maximum (strict `>`, so the
/// first plane of a tie wins), its plane and the `f64` sum in plane order.
pub(crate) fn collapse_generic<S: VoxelScore>(dsi: &DsiVolume<S>) -> ConfidenceMap {
    let (width, height) = (dsi.width(), dsi.height());
    let slab_len = width * height;
    let mut confidence = vec![f64::NEG_INFINITY; slab_len];
    let mut mean_score = vec![0.0; slab_len];
    let mut best_plane = vec![0; slab_len];
    for start in (0..slab_len).step_by(COLLAPSE_CHUNK) {
        let end = (start + COLLAPSE_CHUNK).min(slab_len);
        for (p, slab) in dsi.raw_scores().chunks_exact(slab_len).enumerate() {
            for (((&v, best), sum), plane) in slab[start..end]
                .iter()
                .zip(&mut confidence[start..end])
                .zip(&mut mean_score[start..end])
                .zip(&mut best_plane[start..end])
            {
                let v = v.as_f64();
                if v > *best {
                    *best = v;
                    *plane = p;
                }
                *sum += v;
            }
        }
    }
    let n_planes = dsi.num_planes() as f64;
    for m in &mut mean_score {
        *m /= n_planes;
    }
    ConfidenceMap {
        width,
        height,
        confidence,
        mean_score,
        best_plane,
    }
}

/// The `u16` depth collapse through the batched kernel face. Integer sums
/// below 2⁵³ convert to the same `f64` the plane-order float sum reaches.
pub(crate) fn collapse_u16(dsi: &DsiVolume<u16>, tier: Dispatch) -> ConfidenceMap {
    if dsi.num_planes() > batch::COLLAPSE_MAX_PLANES {
        return collapse_generic(dsi);
    }
    let mut folded = PlaneCollapse::default();
    let (width, height) = (dsi.width(), dsi.height());
    batch::plane_collapse_batch_with(tier, dsi.raw_scores(), width * height, &mut folded);
    let n_planes = dsi.num_planes() as f64;
    ConfidenceMap {
        width,
        height,
        confidence: folded.best.iter().map(|&b| b as f64).collect(),
        mean_score: folded.sum.iter().map(|&s| s as f64 / n_planes).collect(),
        best_plane: folded.plane.iter().map(|&p| p as usize).collect(),
    }
}

/// Parabolic sub-plane refinement of the peak position, performed in inverse
/// depth (the domain in which the planes are uniformly spaced).
fn refine_depth<S: VoxelScore>(dsi: &DsiVolume<S>, x: usize, y: usize, plane: usize) -> f64 {
    let n = dsi.num_planes();
    if plane == 0 || plane + 1 >= n {
        return dsi.planes().depth(plane);
    }
    let s_prev = dsi.score(x, y, plane - 1);
    let s_peak = dsi.score(x, y, plane);
    let s_next = dsi.score(x, y, plane + 1);
    let denom = s_prev - 2.0 * s_peak + s_next;
    if denom.abs() < 1e-9 {
        return dsi.planes().depth(plane);
    }
    // Vertex offset of the parabola through the three samples, in plane units.
    let delta = (0.5 * (s_prev - s_next) / denom).clamp(-0.5, 0.5);
    let inv_here = 1.0 / dsi.planes().depth(plane);
    let inv_other = if delta >= 0.0 {
        1.0 / dsi.planes().depth(plane + 1)
    } else {
        1.0 / dsi.planes().depth(plane - 1)
    };
    let inv = inv_here + delta.abs() * (inv_other - inv_here);
    1.0 / inv
}

/// Runs the full scene-structure detection on a DSI, producing a semi-dense
/// depth map at the virtual camera.
pub fn detect_structure<S: VoxelScore>(dsi: &DsiVolume<S>, config: &DetectionConfig) -> DepthMap {
    let cmap = confidence_map(dsi);
    let blurred = gaussian_blur(
        &cmap.confidence,
        cmap.width,
        cmap.height,
        config.adaptive_sigma,
    );

    let mut depth_map = DepthMap::new(cmap.width, cmap.height).expect("dsi dimensions are nonzero");
    for y in 0..cmap.height {
        for x in 0..cmap.width {
            let idx = y * cmap.width + x;
            let c = cmap.confidence[idx];
            let threshold = blurred[idx] + config.adaptive_offset;
            let peak_ratio = if cmap.mean_score[idx] > 0.0 {
                c / cmap.mean_score[idx]
            } else {
                f64::INFINITY
            };
            if c >= config.min_confidence && c > threshold && peak_ratio >= config.min_peak_ratio {
                let plane = cmap.best_plane[idx];
                let depth = if config.subplane_refinement {
                    refine_depth(dsi, x, y, plane)
                } else {
                    dsi.planes().depth(plane)
                };
                depth_map.set(x, y, depth, c);
            }
        }
    }
    if config.median_filter_size > 1 {
        depth_map.median_filtered(config.median_filter_size)
    } else {
        depth_map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planes::DepthPlanes;

    fn planes() -> DepthPlanes {
        DepthPlanes::uniform_inverse_depth(1.0, 4.0, 10).unwrap()
    }

    /// Builds a DSI where a thin horizontal line of pixels has strong votes at
    /// one plane (the shape a textured edge produces) and the rest of the
    /// volume holds weak uniform noise.
    fn synthetic_dsi(signal_plane: usize, signal_votes: u32) -> DsiVolume<f32> {
        let mut dsi = DsiVolume::<f32>::new(40, 30, planes()).unwrap();
        // Weak background: one vote per pixel spread over random-ish planes.
        for y in 0..30 {
            for x in 0..40 {
                dsi.vote_nearest(x as f64, y as f64, (x + y) % 10, 1.0);
            }
        }
        // Strong signal line at y = 15.
        for x in 10..30 {
            for _ in 0..signal_votes {
                dsi.vote_nearest(x as f64, 15.0, signal_plane, 1.0);
            }
        }
        dsi
    }

    #[test]
    fn gaussian_kernel_normalised_and_symmetric() {
        let k = gaussian_kernel(2.0);
        let sum: f64 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(k.len() % 2, 1);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn blur_preserves_constant_images() {
        let data = vec![3.0; 20 * 10];
        let out = gaussian_blur(&data, 20, 10, 2.5);
        for v in out {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn blur_with_zero_sigma_is_identity() {
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert_eq!(gaussian_blur(&data, 10, 5, 0.0), data);
    }

    #[test]
    fn confidence_map_finds_signal_plane() {
        let dsi = synthetic_dsi(3, 8);
        let cmap = confidence_map(&dsi);
        let idx = 15 * 40 + 20; // on the signal line
        assert_eq!(cmap.best_plane[idx], 3);
        assert!(cmap.confidence[idx] >= 8.0);
    }

    #[test]
    fn confidence_map_finds_argmax() {
        let mut dsi = DsiVolume::<f32>::new(
            8,
            8,
            DepthPlanes::uniform_inverse_depth(1.0, 4.0, 5).unwrap(),
        )
        .unwrap();
        dsi.vote_nearest(3.0, 4.0, 2, 3.0);
        dsi.vote_nearest(3.0, 4.0, 4, 1.0);
        let cmap = confidence_map(&dsi);
        let idx = 4 * 8 + 3;
        assert_eq!(cmap.best_plane[idx], 2);
        assert_eq!(cmap.confidence[idx], 3.0);
        assert_eq!(dsi.max_score(), 3.0);
    }

    #[test]
    fn u16_collapse_beyond_the_kernel_plane_bound_stays_exact() {
        // 70 000 saturated planes: past the u16 plane index and the u32 sum
        // of the batched face, so the generic body must take over.
        let n = 70_000;
        let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, n).unwrap();
        let dsi = DsiVolume::<u16>::from_scores(1, 1, planes, vec![u16::MAX; n], 0).unwrap();
        for tier in Dispatch::ALL.into_iter().filter(|t| t.is_supported()) {
            let cmap = confidence_map_with(tier, &dsi);
            assert_eq!(
                cmap,
                reference::confidence_map(&dsi),
                "tier {}",
                tier.name()
            );
            assert_eq!(cmap.best_plane, [0]);
            assert_eq!(cmap.confidence, [u16::MAX as f64]);
            assert_eq!(cmap.mean_score, [u16::MAX as f64]);
        }
    }

    #[test]
    fn detection_recovers_signal_region_depth() {
        let dsi = synthetic_dsi(4, 30);
        let depth_map = detect_structure(&dsi, &DetectionConfig::default());
        // The detected pixels should predominantly carry the depth of plane 4.
        let expected_depth = dsi.planes().depth(4);
        let mut on_line = 0;
        let mut correct = 0;
        for x in 11..29 {
            if depth_map.is_valid(x, 15) {
                on_line += 1;
                if (depth_map.depth(x, 15) - expected_depth).abs() / expected_depth < 0.05 {
                    correct += 1;
                }
            }
        }
        assert!(
            on_line > 10,
            "too few detections on the signal line: {on_line}"
        );
        assert!(correct as f64 >= 0.9 * on_line as f64);
        // Background (far from the signal) should be mostly rejected.
        let mut false_positives = 0;
        for y in 0..8 {
            for x in 0..10 {
                if depth_map.is_valid(x, y) {
                    false_positives += 1;
                }
            }
        }
        assert!(
            false_positives < 10,
            "too many background detections: {false_positives}"
        );
    }

    #[test]
    fn empty_dsi_detects_nothing() {
        let dsi = DsiVolume::<u16>::new(20, 20, planes()).unwrap();
        let depth_map = detect_structure(&dsi, &DetectionConfig::default());
        assert_eq!(depth_map.valid_count(), 0);
    }

    #[test]
    fn min_confidence_suppresses_weak_evidence() {
        let mut dsi = DsiVolume::<u16>::new(20, 20, planes()).unwrap();
        dsi.vote_nearest(10.0, 10.0, 2, 1.0);
        let config = DetectionConfig {
            min_confidence: 3.0,
            ..Default::default()
        };
        let depth_map = detect_structure(&dsi, &config);
        assert_eq!(depth_map.valid_count(), 0);
        // With the threshold lowered the single vote becomes a detection.
        let config = DetectionConfig {
            min_confidence: 0.5,
            adaptive_offset: 0.0,
            median_filter_size: 1,
            ..Default::default()
        };
        let depth_map = detect_structure(&dsi, &config);
        assert!(depth_map.is_valid(10, 10));
    }

    #[test]
    fn detection_works_on_quantized_scores() {
        // Same scenario as the f32 test but with u16 scores.
        let mut dsi = DsiVolume::<u16>::new(40, 30, planes()).unwrap();
        for x in 10..30 {
            for _ in 0..30 {
                dsi.vote_nearest(x as f64, 15.0, 6, 1.0);
            }
        }
        let depth_map = detect_structure(&dsi, &DetectionConfig::default());
        assert!(depth_map.valid_count() > 10);
        let d = depth_map.depth(20, 15);
        let expected = dsi.planes().depth(6);
        assert!((d - expected).abs() / expected < 0.05, "{d} vs {expected}");
    }
}

/// The per-pixel detection stages as they read before the plane-major
/// rewrite: the definitions the streaming passes must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn confidence_map<S: VoxelScore>(dsi: &DsiVolume<S>) -> ConfidenceMap {
        let (width, height) = (dsi.width(), dsi.height());
        let n_planes = dsi.num_planes() as f64;
        let mut confidence = vec![0.0; width * height];
        let mut mean_score = vec![0.0; width * height];
        let mut best_plane = vec![0usize; width * height];
        for y in 0..height {
            for x in 0..width {
                let (mut plane, mut score) = (0, f64::NEG_INFINITY);
                let mut sum = 0.0;
                for p in 0..dsi.num_planes() {
                    let s = dsi.score(x, y, p);
                    if s > score {
                        score = s;
                        plane = p;
                    }
                    sum += s;
                }
                confidence[y * width + x] = score;
                mean_score[y * width + x] = sum / n_planes;
                best_plane[y * width + x] = plane;
            }
        }
        ConfidenceMap {
            width,
            height,
            confidence,
            mean_score,
            best_plane,
        }
    }

    pub(super) fn gaussian_blur(data: &[f64], width: usize, height: usize, sigma: f64) -> Vec<f64> {
        if sigma <= 0.0 {
            return data.to_vec();
        }
        let kernel = gaussian_kernel(sigma);
        let radius = kernel.len() as isize / 2;
        let mut tmp = vec![0.0; data.len()];
        let mut out = vec![0.0; data.len()];
        for y in 0..height {
            for x in 0..width {
                let mut acc = 0.0;
                for (k, &w) in kernel.iter().enumerate() {
                    let xi = (x as isize + k as isize - radius).clamp(0, width as isize - 1);
                    acc += w * data[y * width + xi as usize];
                }
                tmp[y * width + x] = acc;
            }
        }
        for y in 0..height {
            for x in 0..width {
                let mut acc = 0.0;
                for (k, &w) in kernel.iter().enumerate() {
                    let yi = (y as isize + k as isize - radius).clamp(0, height as isize - 1);
                    acc += w * tmp[yi as usize * width + x];
                }
                out[y * width + x] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::planes::DepthPlanes;
    use proptest::prelude::*;

    /// A deterministic xorshift stream, mapped to scores below.
    fn scores(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    /// Tie-rich scores: zeros, saturated values and a few small values
    /// repeat across planes, the rest spread.
    fn u16_score(r: u64) -> u16 {
        match r % 8 {
            0 | 1 => u16::MAX,
            2 | 3 => 0,
            4 | 5 => (r >> 8) as u16 % 4,
            _ => (r >> 16) as u16,
        }
    }

    fn f32_score(r: u64) -> f32 {
        match r % 8 {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => ((r >> 8) % 4) as f32 * 0.5,
            4 => -(((r >> 8) % 1000) as f32) / 7.0,
            _ => ((r >> 16) % 100_000) as f32 / 3.0,
        }
    }

    /// Runs the collapse on every supported tier and the blur on its
    /// confidence map, comparing bit patterns with the per-pixel references.
    fn check<S: VoxelScore>(dsi: &DsiVolume<S>, sigma: f64) -> Result<(), TestCaseError> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (w, h) = (dsi.width(), dsi.height());
        let expect = reference::confidence_map(dsi);
        let expect_blur = bits(&reference::gaussian_blur(&expect.confidence, w, h, sigma));
        for tier in Dispatch::ALL.into_iter().filter(|t| t.is_supported()) {
            let got = confidence_map_with(tier, dsi);
            let name = tier.name();
            prop_assert_eq!(
                bits(&got.confidence),
                bits(&expect.confidence),
                "tier {}",
                name
            );
            prop_assert_eq!(
                bits(&got.mean_score),
                bits(&expect.mean_score),
                "tier {}",
                name
            );
            prop_assert_eq!(&got.best_plane, &expect.best_plane, "tier {}", name);
            let blur = bits(&gaussian_blur(&got.confidence, w, h, sigma));
            prop_assert_eq!(&blur, &expect_blur, "tier {}", name);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The plane-major collapse and the row-wise blur equal the
        /// per-pixel definitions bit for bit, for `u16` and `f32` volumes,
        /// on images narrower or shorter than the blur radius and across
        /// the collapse's pixel chunks.
        #[test]
        fn streaming_detection_stages_match_the_per_pixel_reference(
            shape in 0usize..4,
            width in 1usize..48,
            height in 1usize..48,
            n_planes in 2usize..71,
            seed in 0u64..u64::MAX,
            sigma_tenths in 0u32..80,
        ) {
            let (width, height) = match shape {
                0 => (1, 1),
                1 => (3, 40),
                _ => (width, height),
            };
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, n_planes).unwrap();
            let raw = scores(seed, width * height * n_planes);
            let sigma = sigma_tenths as f64 / 10.0;
            let dsi16 = DsiVolume::<u16>::from_scores(
                width, height, planes.clone(), raw.iter().map(|&r| u16_score(r)).collect(), 0,
            ).unwrap();
            check(&dsi16, sigma)?;
            let dsi32 = DsiVolume::<f32>::from_scores(
                width, height, planes, raw.iter().map(|&r| f32_score(r)).collect(), 0,
            ).unwrap();
            check(&dsi32, sigma)?;
        }
    }
}
