//! The disparity space image (DSI): a `w × h × N_z` voxel grid of ray-count
//! scores attached to a virtual camera view.

use crate::planes::DepthPlanes;
use crate::DsiError;
use eventor_fixed::kernel::batch;
use eventor_fixed::kernel::PhiWords;
use eventor_fixed::PackedCoord;

/// Reusable scratch for [`DsiVolume::vote_batch`]: the packed slab-index
/// buffer the batched transfer writes and the vote deposit reads.
///
/// Owning the buffer outside the volume lets the sharded hot loop carry one
/// arena per shard across every packet segment instead of reallocating per
/// call; a fresh (empty) arena is always valid input.
#[derive(Debug, Default)]
pub struct VoteArena {
    idx: Vec<u32>,
}

impl VoteArena {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Canonical-coordinate block length of the cache-blocked vote loop: the
/// block (4 B/coord) plus its index buffer (4 B/entry) stay L1-resident
/// (16 KiB at 2048) while one plane slab (`width · height` scores, ~84 KiB
/// for a 240×180 `u16` DSI) is the L2-resident write set.
const VOTE_BLOCK: usize = 2048;

/// Score storage of a DSI voxel.
///
/// The baseline EMVS uses `f32` scores (bilinear voting deposits fractional
/// weights); the Eventor accelerator uses 16-bit integer scores (nearest
/// voting deposits unit votes, Table 1). The trait is sealed to these two
/// types so the two datapaths stay comparable.
pub trait VoxelScore:
    Copy + Default + PartialOrd + private::Sealed + std::fmt::Debug + Send
{
    /// Adds a vote of the given weight (implementations may round or
    /// saturate).
    fn add_vote(&mut self, weight: f64);
    /// The score as `f64` for detection and comparison.
    fn as_f64(self) -> f64;
    /// Accumulates another score of the same type — the shard-merge operation
    /// of the parallel voting engine. Integer scores saturate exactly like
    /// repeated unit votes would; float scores add.
    fn merge(&mut self, other: Self);
    /// Adds one unit vote — exactly equivalent to `add_vote(1.0)`, without
    /// the weight-rounding work. The parallel engine's fused kernels use this
    /// in their inner loop.
    #[inline]
    fn add_unit(&mut self) {
        self.add_vote(1.0);
    }
    /// Bytes one score occupies in the serialized vote state
    /// ([`DsiVolume::encode_vote_state`]).
    const ENCODED_BYTES: usize;
    /// Appends the score's little-endian bit pattern to `out` — bit-exact,
    /// so a decoded score is byte-identical to the encoded one.
    fn write_le(self, out: &mut Vec<u8>);
    /// Decodes one score from its little-endian bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`Self::ENCODED_BYTES`] (callers
    /// slice exactly).
    fn read_le(bytes: &[u8]) -> Self;
}

pub(crate) mod private {
    use crate::detection::{self, ConfidenceMap};
    use crate::volume::DsiVolume;
    use eventor_fixed::kernel::batch::Dispatch;

    /// Seals [`VoxelScore`](super::VoxelScore) to `f32` and `u16` and
    /// carries each type's body of the detection stage's depth collapse.
    pub trait Sealed: Sized {
        /// [`confidence_map`](crate::confidence_map) of `dsi` on `tier`.
        fn collapse_planes(dsi: &DsiVolume<Self>, tier: Dispatch) -> ConfidenceMap
        where
            Self: super::VoxelScore;
    }

    impl Sealed for f32 {
        fn collapse_planes(dsi: &DsiVolume<Self>, _: Dispatch) -> ConfidenceMap {
            detection::collapse_generic(dsi)
        }
    }

    impl Sealed for u16 {
        fn collapse_planes(dsi: &DsiVolume<Self>, tier: Dispatch) -> ConfidenceMap {
            detection::collapse_u16(dsi, tier)
        }
    }
}

impl VoxelScore for f32 {
    #[inline]
    fn add_vote(&mut self, weight: f64) {
        *self += weight as f32;
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn merge(&mut self, other: Self) {
        *self += other;
    }
    const ENCODED_BYTES: usize = 4;
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes[..4].try_into().expect("4 score bytes"))
    }
}

impl VoxelScore for u16 {
    #[inline]
    fn add_vote(&mut self, weight: f64) {
        // Integer votes with saturation — the quantized DSI of Table 1.
        let inc = weight.round().max(0.0) as u32;
        *self = (*self as u32).saturating_add(inc).min(u16::MAX as u32) as u16;
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn merge(&mut self, other: Self) {
        // Saturating accumulation: merging shard counts is exact with respect
        // to sequential unit voting because min(Σ min(cᵢ, MAX), MAX) equals
        // min(Σ cᵢ, MAX) for non-negative counts.
        *self = (*self).saturating_add(other);
    }
    #[inline]
    fn add_unit(&mut self) {
        // Identical to `add_vote(1.0)` (the weight 1.0 rounds to the integer
        // increment 1), skipping the float rounding.
        *self = (*self).saturating_add(1);
    }
    const ENCODED_BYTES: usize = 2;
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        u16::from_le_bytes(bytes[..2].try_into().expect("2 score bytes"))
    }
}

/// A disparity space image: per-voxel ray-count scores for a virtual camera
/// of `width × height` pixels and [`DepthPlanes::len`] depth slices.
///
/// Voxels are stored plane-major (`[plane][row][col]`): the vote stage writes
/// one plane at a time, and the detection stage reads the volume once in the
/// same order, folding each plane slab into per-pixel accumulators
/// ([`confidence_map`](crate::confidence_map)).
///
/// # Examples
///
/// ```
/// use eventor_dsi::{DepthPlanes, DsiVolume};
/// let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 8)?;
/// let mut dsi: DsiVolume<f32> = DsiVolume::new(32, 24, planes)?;
/// dsi.vote_nearest(10.2, 5.7, 3, 1.0);
/// assert_eq!(dsi.score(10, 6, 3), 1.0);
/// # Ok::<(), eventor_dsi::DsiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DsiVolume<S: VoxelScore> {
    width: usize,
    height: usize,
    planes: DepthPlanes,
    data: Vec<S>,
    votes_cast: u64,
    votes_missed: u64,
}

impl<S: VoxelScore> DsiVolume<S> {
    /// Creates a zero-initialised DSI.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::EmptyVolume`] when `width` or `height` is zero.
    pub fn new(width: usize, height: usize, planes: DepthPlanes) -> Result<Self, DsiError> {
        if width == 0 || height == 0 {
            return Err(DsiError::EmptyVolume { width, height });
        }
        let len = width * height * planes.len();
        Ok(Self {
            width,
            height,
            planes,
            data: vec![S::default(); len],
            votes_cast: 0,
            votes_missed: 0,
        })
    }

    /// Builds a DSI from an existing score array in `(plane, row, column)`
    /// order — the readback path from an accelerator that keeps the DSI in
    /// external memory.
    ///
    /// `votes_cast` records how many votes the producer applied, so the
    /// volume's counters stay meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::EmptyVolume`] when `width` or `height` is zero and
    /// [`DsiError::DimensionMismatch`] when the score array does not hold
    /// exactly `width * height * planes.len()` entries.
    pub fn from_scores(
        width: usize,
        height: usize,
        planes: DepthPlanes,
        scores: Vec<S>,
        votes_cast: u64,
    ) -> Result<Self, DsiError> {
        if width == 0 || height == 0 {
            return Err(DsiError::EmptyVolume { width, height });
        }
        let expected = width * height * planes.len();
        if scores.len() != expected {
            return Err(DsiError::DimensionMismatch {
                expected,
                actual: scores.len(),
            });
        }
        Ok(Self {
            width,
            height,
            planes,
            data: scores,
            votes_cast,
            votes_missed: 0,
        })
    }

    /// Serializes the volume's mutable vote state — the two vote counters
    /// followed by the raw score array in plane-major order, all
    /// little-endian — for the `eventor-evtr/1` `CKPT` checkpoint section.
    ///
    /// The encoding is deterministic and bit-exact: identical volumes produce
    /// identical bytes on every platform, and
    /// [`Self::decode_vote_state`] rebuilds a volume that compares equal
    /// (score bit patterns included).
    pub fn encode_vote_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.data.len() * S::ENCODED_BYTES);
        out.extend_from_slice(&self.votes_cast.to_le_bytes());
        out.extend_from_slice(&self.votes_missed.to_le_bytes());
        for &s in &self.data {
            s.write_le(&mut out);
        }
        out
    }

    /// Rebuilds a volume from [`Self::encode_vote_state`] bytes for the given
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::EmptyVolume`] for zero dimensions and
    /// [`DsiError::InvalidVoteState`] when the byte length does not match the
    /// geometry exactly.
    pub fn decode_vote_state(
        width: usize,
        height: usize,
        planes: DepthPlanes,
        bytes: &[u8],
    ) -> Result<Self, DsiError> {
        if width == 0 || height == 0 {
            return Err(DsiError::EmptyVolume { width, height });
        }
        // Checked arithmetic: the dimensions may come from an untrusted
        // checkpoint container, and a forged width/height pair must be a
        // typed error rather than an overflow.
        let voxels = width
            .checked_mul(height)
            .and_then(|v| v.checked_mul(planes.len()))
            .and_then(|v| v.checked_mul(S::ENCODED_BYTES))
            .and_then(|v| v.checked_add(16));
        let expected = match voxels {
            Some(total_bytes) => total_bytes,
            None => {
                return Err(DsiError::InvalidVoteState {
                    reason: format!(
                        "{width}x{height}x{} volume dimensions overflow the address space",
                        planes.len()
                    ),
                })
            }
        };
        if bytes.len() != expected {
            return Err(DsiError::InvalidVoteState {
                reason: format!(
                    "vote state holds {} bytes but a {width}x{height}x{} volume needs {expected}",
                    bytes.len(),
                    planes.len()
                ),
            });
        }
        let votes_cast = u64::from_le_bytes(bytes[0..8].try_into().expect("8 counter bytes"));
        let votes_missed = u64::from_le_bytes(bytes[8..16].try_into().expect("8 counter bytes"));
        let data: Vec<S> = bytes[16..]
            .chunks_exact(S::ENCODED_BYTES)
            .map(S::read_le)
            .collect();
        Ok(Self {
            width,
            height,
            planes,
            data,
            votes_cast,
            votes_missed,
        })
    }

    /// Image width (voxels per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height (voxel rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of depth planes.
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// The depth planes.
    pub fn planes(&self) -> &DepthPlanes {
        &self.planes
    }

    /// Total number of voxels.
    pub fn voxel_count(&self) -> usize {
        self.data.len()
    }

    /// Memory footprint of the score array in bytes.
    pub fn score_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<S>()
    }

    /// Number of votes deposited since the last reset.
    pub fn votes_cast(&self) -> u64 {
        self.votes_cast
    }

    /// Number of vote attempts that fell outside the volume ("projection
    /// missing" in the paper's terminology).
    pub fn votes_missed(&self) -> u64 {
        self.votes_missed
    }

    #[inline]
    fn index(&self, x: usize, y: usize, plane: usize) -> usize {
        (plane * self.height + y) * self.width + x
    }

    /// The score of voxel `(x, y, plane)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[inline]
    pub fn score(&self, x: usize, y: usize, plane: usize) -> f64 {
        assert!(x < self.width && y < self.height && plane < self.planes.len());
        self.data[self.index(x, y, plane)].as_f64()
    }

    /// The whole raw score array, plane-major then row-major — the exact
    /// layout of the accelerator's DSI region in external memory, so a
    /// checkpointed volume can be imaged back into the device model
    /// verbatim.
    pub fn raw_scores(&self) -> &[S] {
        &self.data
    }

    /// Raw scores of one depth plane, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn plane_scores(&self, plane: usize) -> &[S] {
        assert!(plane < self.planes.len());
        let start = plane * self.width * self.height;
        &self.data[start..start + self.width * self.height]
    }

    /// Mutable raw scores of one depth plane, row-major — the parallel
    /// engine's fused kernels vote plane by plane directly into the slab
    /// (index `y * width + x`), then account the deposited votes in bulk via
    /// [`Self::add_cast_votes`].
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn plane_scores_mut(&mut self, plane: usize) -> &mut [S] {
        assert!(plane < self.planes.len());
        let start = plane * self.width * self.height;
        let len = self.width * self.height;
        &mut self.data[start..start + len]
    }

    /// Bulk-accounts `n` votes deposited directly into plane slabs obtained
    /// from [`Self::plane_scores_mut`].
    pub fn add_cast_votes(&mut self, n: u64) {
        self.votes_cast += n;
    }

    /// Resets every score to zero (the "Reset DSI" step performed when a new
    /// key frame is selected) and clears the vote counters.
    pub fn reset(&mut self) {
        for v in &mut self.data {
            *v = S::default();
        }
        self.votes_cast = 0;
        self.votes_missed = 0;
    }

    /// Deposits a unit (or weighted) vote at the voxel *nearest* to the
    /// projected point — the approximate voting mode used by the accelerator.
    ///
    /// Out-of-volume projections are counted as missed and ignored.
    #[inline]
    pub fn vote_nearest(&mut self, x: f64, y: f64, plane: usize, weight: f64) {
        if plane >= self.planes.len() || !x.is_finite() || !y.is_finite() {
            self.votes_missed += 1;
            return;
        }
        let xi = x.round();
        let yi = y.round();
        if xi < 0.0 || yi < 0.0 || xi >= self.width as f64 || yi >= self.height as f64 {
            self.votes_missed += 1;
            return;
        }
        let idx = self.index(xi as usize, yi as usize, plane);
        self.data[idx].add_vote(weight);
        self.votes_cast += 1;
    }

    /// Deposits one unit vote at an exact integer voxel address — the
    /// integer entry point of the quantized nearest datapath, fed directly
    /// by the Nearest Voxel Finder's in-sensor addresses (no `f64` round
    /// trip, no re-rounding).
    ///
    /// The caller has already performed the in-sensor judgement; addresses
    /// outside the volume are counted as missed, like
    /// [`Self::vote_nearest`].
    #[inline]
    pub fn vote_at(&mut self, x: u16, y: u16, plane: usize) {
        if plane >= self.planes.len() || x as usize >= self.width || y as usize >= self.height {
            self.votes_missed += 1;
            return;
        }
        let idx = self.index(x as usize, y as usize, plane);
        self.data[idx].add_unit();
        self.votes_cast += 1;
    }

    /// Deposits a vote split over the four voxels surrounding the projected
    /// point, weighted by bilinear interpolation — the exact voting mode of
    /// the baseline EMVS.
    ///
    /// Out-of-volume projections are counted as missed and ignored; points in
    /// the border half-pixel deposit only the in-bounds portion of their
    /// weight.
    pub fn vote_bilinear(&mut self, x: f64, y: f64, plane: usize, weight: f64) {
        if plane >= self.planes.len() || !x.is_finite() || !y.is_finite() {
            self.votes_missed += 1;
            return;
        }
        if x < -0.5 || y < -0.5 || x > self.width as f64 - 0.5 || y > self.height as f64 - 0.5 {
            self.votes_missed += 1;
            return;
        }
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let mut deposited = false;
        for (dx, dy, w) in [
            (0.0, 0.0, (1.0 - fx) * (1.0 - fy)),
            (1.0, 0.0, fx * (1.0 - fy)),
            (0.0, 1.0, (1.0 - fx) * fy),
            (1.0, 1.0, fx * fy),
        ] {
            let xi = x0 + dx;
            let yi = y0 + dy;
            if w <= 0.0
                || xi < 0.0
                || yi < 0.0
                || xi >= self.width as f64
                || yi >= self.height as f64
            {
                continue;
            }
            let idx = self.index(xi as usize, yi as usize, plane);
            self.data[idx].add_vote(weight * w);
            deposited = true;
        }
        if deposited {
            self.votes_cast += 1;
        } else {
            self.votes_missed += 1;
        }
    }

    /// Deposits one unit vote at an integer voxel address — the
    /// bounds-checked single-vote entry point for producers whose addresses
    /// are already rounded (e.g. a Nearest Voxel Finder that performed the
    /// projection-missing judgement upstream).
    ///
    /// Bit-identical to `vote_nearest(x as f64, y as f64, plane, 1.0)` for
    /// in-range addresses; out-of-range addresses are counted as missed, like
    /// the float entry points do. The parallel engine's hot kernel instead
    /// writes plane slabs directly ([`Self::plane_scores_mut`] +
    /// [`Self::add_cast_votes`]) to keep the bounds work per plane rather
    /// than per vote; this method is the safe equivalent for one-off votes.
    #[inline]
    pub fn vote_unit_at(&mut self, x: u16, y: u16, plane: usize) {
        let (x, y) = (x as usize, y as usize);
        if x >= self.width || y >= self.height || plane >= self.planes.len() {
            self.votes_missed += 1;
            return;
        }
        let idx = self.index(x, y, plane);
        self.data[idx].add_vote(1.0);
        self.votes_cast += 1;
    }

    /// The batched, cache-blocked spelling of the quantized nearest vote
    /// loop: for every depth plane, transfers every canonical coordinate
    /// through the batched `PE_Zi` kernel
    /// ([`batch::transfer_nearest_batch`], vectorized per the session's
    /// dispatch tier) and deposits one unit vote per in-sensor address
    /// directly into the plane slab.
    ///
    /// **Bit-identical to the scalar loop** (`transfer_nearest` +
    /// [`Self::vote_at`] per event and plane): unit votes accumulate by
    /// saturating/exact addition, which is order-independent, so the
    /// plane-major blocked order changes no byte of the score array.
    /// Counter semantics match the fused packet kernels: in-sensor deposits
    /// count as cast, per-plane projection-missing transfers are dropped
    /// without touching the missed counter (they are per-plane outcomes,
    /// not lost events).
    ///
    /// The loop is blocked for the cache hierarchy: canonical coordinates
    /// stream in `VOTE_BLOCK`-sized chunks whose index buffer (reused
    /// across calls via `arena`) stays L1-resident, while the current plane
    /// slab is the only large write set.
    ///
    /// # Panics
    ///
    /// Panics when `coefficients` holds more entries than the volume has
    /// depth planes.
    pub fn vote_batch(
        &mut self,
        canon: &[PackedCoord],
        coefficients: &[PhiWords],
        arena: &mut VoteArena,
    ) {
        assert!(
            coefficients.len() <= self.planes.len(),
            "more φ coefficient entries than depth planes"
        );
        let (width, height) = (self.width as u32, self.height as u32);
        let slab_len = self.width * self.height;
        let mut cast = 0u64;
        for (plane, phi) in coefficients.iter().enumerate() {
            let slab = &mut self.data[plane * slab_len..(plane + 1) * slab_len];
            for block in canon.chunks(VOTE_BLOCK) {
                batch::transfer_nearest_batch(phi, block, width, height, &mut arena.idx);
                for &idx in &arena.idx {
                    if idx != batch::MISS {
                        slab[idx as usize].add_unit();
                        cast += 1;
                    }
                }
            }
        }
        self.votes_cast += cast;
    }

    /// Accumulates another volume of identical dimensions into this one —
    /// the shard-merge step of the parallel voting engine. Scores merge
    /// voxel-wise through [`VoxelScore::merge`]; the vote counters add.
    ///
    /// # Panics
    ///
    /// Panics if the two volumes have different dimensions or plane counts.
    pub fn merge_from(&mut self, other: &Self) {
        assert!(
            self.width == other.width
                && self.height == other.height
                && self.planes.len() == other.planes.len(),
            "cannot merge DSI volumes of different dimensions"
        );
        for (dst, src) in self.data.iter_mut().zip(&other.data) {
            dst.merge(*src);
        }
        self.votes_cast += other.votes_cast;
        self.votes_missed += other.votes_missed;
    }

    /// Merges a set of per-shard volumes into `tiles[0]` with a fixed-shape
    /// binary tree reduction: pass 1 merges tile `i+1` into tile `i` for even
    /// `i`, pass 2 merges stride 2, and so on. The reduction shape depends
    /// only on `tiles.len()`, never on thread timing, so the result is
    /// deterministic for a given shard count (and — for integer scores and
    /// unit votes — bit-identical to sequential voting regardless of the
    /// shard count).
    ///
    /// Returns `None` when `tiles` is empty.
    pub fn tree_reduce(tiles: &mut [Self]) -> Option<&mut Self> {
        let mut refs: Vec<&mut Self> = tiles.iter_mut().collect();
        Self::tree_reduce_refs(&mut refs);
        tiles.first_mut()
    }

    /// [`Self::tree_reduce`] over a slice of mutable references (used when
    /// the tiles are embedded in larger per-shard state structs). The merged
    /// result lands in `tiles[0]`.
    pub fn tree_reduce_refs(tiles: &mut [&mut Self]) {
        let mut stride = 1;
        while stride < tiles.len() {
            let mut i = 0;
            while i + stride < tiles.len() {
                let (head, tail) = tiles.split_at_mut(i + stride);
                head[i].merge_from(&*tail[0]);
                i += 2 * stride;
            }
            stride *= 2;
        }
    }

    /// The maximum score over the whole volume.
    pub fn max_score(&self) -> f64 {
        self.data.iter().map(|s| s.as_f64()).fold(0.0, f64::max)
    }

    /// Sum of all scores.
    pub fn total_score(&self) -> f64 {
        self.data.iter().map(|s| s.as_f64()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes(n: usize) -> DepthPlanes {
        DepthPlanes::uniform_inverse_depth(1.0, 4.0, n).unwrap()
    }

    #[test]
    fn construction_validates_size() {
        assert!(DsiVolume::<f32>::new(0, 10, planes(4)).is_err());
        assert!(DsiVolume::<f32>::new(10, 0, planes(4)).is_err());
        let dsi = DsiVolume::<f32>::new(8, 6, planes(4)).unwrap();
        assert_eq!(dsi.voxel_count(), 8 * 6 * 4);
        assert_eq!(dsi.score_bytes(), 8 * 6 * 4 * 4);
        let dsi16 = DsiVolume::<u16>::new(8, 6, planes(4)).unwrap();
        assert_eq!(dsi16.score_bytes(), 8 * 6 * 4 * 2);
    }

    #[test]
    fn nearest_vote_rounds_to_closest_voxel() {
        let mut dsi = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        dsi.vote_nearest(4.4, 7.6, 1, 1.0);
        assert_eq!(dsi.score(4, 8, 1), 1.0);
        assert_eq!(dsi.votes_cast(), 1);
        dsi.vote_nearest(4.4, 7.6, 1, 1.0);
        assert_eq!(dsi.score(4, 8, 1), 2.0);
    }

    #[test]
    fn nearest_vote_out_of_bounds_is_missed() {
        let mut dsi = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        dsi.vote_nearest(-1.0, 5.0, 0, 1.0);
        dsi.vote_nearest(15.8, 5.0, 0, 1.0); // rounds to 16, out of range
        dsi.vote_nearest(5.0, 5.0, 99, 1.0);
        dsi.vote_nearest(f64::NAN, 5.0, 0, 1.0);
        assert_eq!(dsi.votes_cast(), 0);
        assert_eq!(dsi.votes_missed(), 4);
        assert_eq!(dsi.total_score(), 0.0);
    }

    #[test]
    fn bilinear_vote_distributes_unit_weight() {
        let mut dsi = DsiVolume::<f32>::new(16, 12, planes(3)).unwrap();
        dsi.vote_bilinear(4.25, 7.75, 2, 1.0);
        let total = dsi.total_score();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "bilinear weights should sum to 1, got {total}"
        );
        // The dominant voxel is the nearest one.
        assert!(dsi.score(4, 8, 2) > dsi.score(5, 7, 2));
        assert_eq!(dsi.votes_cast(), 1);
    }

    #[test]
    fn bilinear_vote_on_integer_coordinate_hits_single_voxel() {
        let mut dsi = DsiVolume::<f32>::new(16, 12, planes(3)).unwrap();
        dsi.vote_bilinear(5.0, 6.0, 0, 1.0);
        assert!((dsi.score(5, 6, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bilinear_vote_at_border_keeps_partial_weight() {
        let mut dsi = DsiVolume::<f32>::new(16, 12, planes(2)).unwrap();
        dsi.vote_bilinear(-0.25, 3.0, 0, 1.0);
        assert!(dsi.total_score() > 0.0);
        assert!(dsi.total_score() < 1.0 + 1e-9);
        dsi.vote_bilinear(-2.0, 3.0, 0, 1.0);
        assert_eq!(dsi.votes_missed(), 1);
    }

    #[test]
    fn nearest_and_bilinear_agree_on_voxel_centres() {
        let planes3 = planes(3);
        let mut a = DsiVolume::<f32>::new(16, 12, planes3.clone()).unwrap();
        let mut b = DsiVolume::<f32>::new(16, 12, planes3).unwrap();
        a.vote_nearest(7.0, 3.0, 1, 1.0);
        b.vote_bilinear(7.0, 3.0, 1, 1.0);
        assert!((a.score(7, 3, 1) - b.score(7, 3, 1)).abs() < 1e-6);
    }

    #[test]
    fn u16_scores_saturate_instead_of_wrapping() {
        let mut dsi = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        for _ in 0..70000 {
            dsi.vote_nearest(1.0, 1.0, 0, 1.0);
        }
        assert_eq!(dsi.score(1, 1, 0), u16::MAX as f64);
    }

    #[test]
    fn reset_clears_scores_and_counters() {
        let mut dsi = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        dsi.vote_nearest(2.0, 2.0, 0, 1.0);
        dsi.vote_nearest(-5.0, 2.0, 0, 1.0);
        dsi.reset();
        assert_eq!(dsi.total_score(), 0.0);
        assert_eq!(dsi.votes_cast(), 0);
        assert_eq!(dsi.votes_missed(), 0);
    }

    #[test]
    fn vote_unit_at_matches_vote_nearest() {
        let mut a = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        let mut b = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        for (x, y, p) in [(0u16, 0u16, 0usize), (15, 11, 2), (7, 3, 1), (7, 3, 1)] {
            a.vote_unit_at(x, y, p);
            b.vote_nearest(x as f64, y as f64, p, 1.0);
        }
        a.vote_unit_at(16, 0, 0); // out of range -> missed
        b.vote_nearest(16.0, 0.0, 0, 1.0);
        assert_eq!(a, b);
        assert_eq!(a.votes_cast(), 4);
        assert_eq!(a.votes_missed(), 1);
    }

    #[test]
    fn merge_from_adds_scores_and_counters() {
        let mut a = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        let mut b = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        a.vote_unit_at(1, 1, 0);
        b.vote_unit_at(1, 1, 0);
        b.vote_unit_at(2, 3, 1);
        b.vote_nearest(-1.0, 0.0, 0, 1.0); // missed
        a.merge_from(&b);
        assert_eq!(a.score(1, 1, 0), 2.0);
        assert_eq!(a.score(2, 3, 1), 1.0);
        assert_eq!(a.votes_cast(), 3);
        assert_eq!(a.votes_missed(), 1);
    }

    #[test]
    #[should_panic]
    fn merge_from_rejects_dimension_mismatch() {
        let mut a = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        let b = DsiVolume::<u16>::new(8, 9, planes(2)).unwrap();
        a.merge_from(&b);
    }

    #[test]
    fn merged_saturation_matches_sequential_saturation() {
        // Sequential: 70000 unit votes on one voxel saturate at u16::MAX.
        let mut sequential = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        for _ in 0..70_000 {
            sequential.vote_nearest(1.0, 1.0, 0, 1.0);
        }
        // Sharded: 35000 votes in each of two tiles, then merged.
        let mut tiles = vec![
            DsiVolume::<u16>::new(4, 4, planes(2)).unwrap(),
            DsiVolume::<u16>::new(4, 4, planes(2)).unwrap(),
        ];
        for tile in &mut tiles {
            for _ in 0..35_000 {
                tile.vote_unit_at(1, 1, 0);
            }
        }
        let merged = DsiVolume::tree_reduce(&mut tiles).unwrap();
        assert_eq!(merged.score(1, 1, 0), sequential.score(1, 1, 0));
        assert_eq!(merged.votes_cast(), sequential.votes_cast());
    }

    #[test]
    fn tree_reduce_is_equivalent_for_any_shard_count() {
        for shards in 1..=8usize {
            let mut tiles: Vec<DsiVolume<u16>> = (0..shards)
                .map(|_| DsiVolume::new(16, 12, planes(3)).unwrap())
                .collect();
            // Deterministic vote pattern distributed round-robin over shards.
            let votes: Vec<(u16, u16, usize)> = (0..500)
                .map(|i| ((i * 7 % 16) as u16, (i * 5 % 12) as u16, i % 3))
                .collect();
            for (i, &(x, y, p)) in votes.iter().enumerate() {
                tiles[i % shards].vote_unit_at(x, y, p);
            }
            let mut reference = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
            for &(x, y, p) in &votes {
                reference.vote_unit_at(x, y, p);
            }
            let merged = DsiVolume::tree_reduce(&mut tiles).unwrap();
            assert_eq!(*merged, reference, "shards = {shards}");
        }
        assert!(DsiVolume::<u16>::tree_reduce(&mut []).is_none());
    }

    #[test]
    fn vote_batch_is_bit_identical_to_the_scalar_vote_loop() {
        use eventor_fixed::kernel::batch::{force, Dispatch};
        use eventor_fixed::kernel::transfer_nearest;
        use eventor_fixed::Q9p7;

        // A spread of canonical coordinates, some projecting outside.
        let canon: Vec<PackedCoord> = (0..500)
            .map(|i| PackedCoord {
                x: Q9p7::from_raw((i * 97 - 4000) as i16),
                y: Q9p7::from_raw((i * 61 - 3000) as i16),
            })
            .collect();
        let coeffs: Vec<PhiWords> = (0..7)
            .map(|p| PhiWords::from_f64(0.5 + p as f64 * 0.1, -2.0 + p as f64, 1.5 * p as f64))
            .collect();

        let mut reference = DsiVolume::<u16>::new(24, 18, planes(7)).unwrap();
        for (plane, phi) in coeffs.iter().enumerate() {
            for &c in &canon {
                if let Some((x, y)) = transfer_nearest(phi, c, 24, 18).address() {
                    reference.vote_at(x, y, plane);
                }
            }
        }
        assert!(reference.votes_cast() > 0, "test pattern casts no votes");

        for tier in Dispatch::ALL.into_iter().filter(|t| t.is_supported()) {
            force(Some(tier)).expect("supported tier");
            let mut batched = DsiVolume::<u16>::new(24, 18, planes(7)).unwrap();
            let mut arena = VoteArena::new();
            batched.vote_batch(&canon, &coeffs, &mut arena);
            assert_eq!(batched, reference, "tier {}", tier.name());
            // Arena reuse across calls must not change results either.
            let mut again = DsiVolume::<u16>::new(24, 18, planes(7)).unwrap();
            again.vote_batch(&canon, &coeffs, &mut arena);
            assert_eq!(again, reference, "tier {} (reused arena)", tier.name());
        }
        force(None).expect("restore dispatch default");
    }

    #[test]
    fn vote_batch_handles_empty_inputs_and_partial_coefficients() {
        let mut dsi = DsiVolume::<u16>::new(8, 8, planes(4)).unwrap();
        let mut arena = VoteArena::new();
        dsi.vote_batch(&[], &[PhiWords::from_f64(1.0, 0.0, 0.0)], &mut arena);
        dsi.vote_batch(&[PackedCoord::from_f64(2.0, 2.0)], &[], &mut arena);
        assert_eq!(dsi.votes_cast(), 0);
        // Fewer coefficient entries than planes: only those planes vote.
        dsi.vote_batch(
            &[PackedCoord::from_f64(2.0, 2.0)],
            &[PhiWords::from_f64(1.0, 0.0, 0.0)],
            &mut arena,
        );
        assert_eq!(dsi.votes_cast(), 1);
        assert_eq!(dsi.score(2, 2, 0), 1.0);
    }

    #[test]
    fn plane_scores_slice_has_correct_length() {
        let dsi = DsiVolume::<u16>::new(10, 6, planes(3)).unwrap();
        assert_eq!(dsi.plane_scores(0).len(), 60);
        assert_eq!(dsi.plane_scores(2).len(), 60);
    }

    #[test]
    fn vote_state_round_trips_quantized_volumes_bit_exactly() {
        let mut dsi = DsiVolume::<u16>::new(8, 6, planes(4)).unwrap();
        dsi.vote_at(3, 2, 1);
        dsi.vote_at(3, 2, 1);
        dsi.vote_at(7, 5, 3);
        dsi.vote_nearest(-5.0, 0.0, 0, 1.0); // a missed vote
        let bytes = dsi.encode_vote_state();
        let back = DsiVolume::<u16>::decode_vote_state(8, 6, planes(4), &bytes).unwrap();
        assert_eq!(back, dsi);
        assert_eq!(back.votes_cast(), dsi.votes_cast());
        assert_eq!(back.votes_missed(), dsi.votes_missed());
        // Deterministic: encoding the decoded volume yields the same bytes.
        assert_eq!(back.encode_vote_state(), bytes);
    }

    #[test]
    fn vote_state_round_trips_float_volumes_bit_exactly() {
        let mut dsi = DsiVolume::<f32>::new(5, 4, planes(3)).unwrap();
        dsi.vote_bilinear(1.3, 2.7, 1, 1.0);
        dsi.vote_bilinear(0.1, 0.9, 2, 0.25);
        let bytes = dsi.encode_vote_state();
        let back = DsiVolume::<f32>::decode_vote_state(5, 4, planes(3), &bytes).unwrap();
        for plane in 0..3 {
            for (a, b) in dsi.plane_scores(plane).iter().zip(back.plane_scores(plane)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(back.votes_cast(), dsi.votes_cast());
    }

    #[test]
    fn vote_state_length_mismatch_is_a_typed_error() {
        let dsi = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        let bytes = dsi.encode_vote_state();
        for bad in [&bytes[..bytes.len() - 1], &bytes[..0], &bytes[..15]] {
            assert!(matches!(
                DsiVolume::<u16>::decode_vote_state(4, 4, planes(2), bad),
                Err(DsiError::InvalidVoteState { .. })
            ));
        }
        // Wrong score width (f32 vs u16) cannot silently decode either.
        assert!(matches!(
            DsiVolume::<f32>::decode_vote_state(4, 4, planes(2), &bytes),
            Err(DsiError::InvalidVoteState { .. })
        ));
        assert!(matches!(
            DsiVolume::<u16>::decode_vote_state(0, 4, planes(2), &bytes),
            Err(DsiError::EmptyVolume { .. })
        ));
    }
}
