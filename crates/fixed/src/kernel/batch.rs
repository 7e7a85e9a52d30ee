//! **Batched, vectorized faces of the bit-true kernel** with runtime
//! dispatch — lane-parallel integer MACs over pixels and planes.
//!
//! The scalar functions in [`kernel`](super) process one pixel and one
//! plane at a time. The hot consumers (the software vote loop, the sharded
//! fused packet kernels) stream thousands of events through ~100 planes per
//! frame, which is a data-parallel shape: the same Q11.21×Q9.7 MAC applied
//! independently per lane. This module provides batched entry points over
//! slices, executed by one of three **dispatch tiers**:
//!
//! | tier       | name reported        | mechanism |
//! |------------|----------------------|-----------|
//! | `Simd`     | `avx2` / `neon`      | `core::arch` intrinsics, 4×/2× `i64` lanes, runtime-detected |
//! | `Swar`     | `swar`               | two products per 64×64→128 widening multiply (48-bit packed fields) |
//! | `Scalar`   | `scalar`             | the scalar kernel in a loop — the always-available reference |
//!
//! One face serves the detection stage rather than the MAC datapath:
//! [`plane_collapse_batch`] folds a plane-major `u16` DSI into per-pixel
//! maximum, first argmax and sum. Its tiers share one portable, branchless
//! body; `Scalar` and `Swar` run it at the baseline target (SSE2 on
//! x86-64) and `Simd` compiles it with AVX2 enabled.
//!
//! The tier is selected **once per session** ([`active`]): the
//! [`EVENTOR_KERNEL_DISPATCH`](DISPATCH_ENV) environment variable
//! (`scalar`/`swar`/`simd`, a typed [`DispatchError`] on anything else or
//! on an unsupported tier) wins, otherwise detection prefers `Simd` where
//! the CPU supports it and falls back architecture-aware: `Scalar` on
//! x86-64 without AVX2 (where the measured SWAR tier is *slower* than the
//! scalar loop, `docs/BENCHMARKS.md`), `Swar` elsewhere. Tests and benches may pin
//! a tier in-process with [`force`], or bypass the global entirely with the
//! `*_with` variants that take an explicit [`Dispatch`].
//!
//! ## Bit-identity guarantee
//!
//! Every tier produces **bytes identical to the scalar kernel** for every
//! input: the same ties-away-from-zero rounding ([`super::round_acc`]), the
//! same projection-missing judgement ([`super::normalize_q9p7`]), the same
//! in-sensor judgement and `u8` voxel narrowing. This is the PR 3
//! one-kernel-many-faces discipline extended to lanes: vectorization is a
//! scheduling choice, never an arithmetic one. The proptests at the bottom
//! of this file pin the property across arbitrary batch sizes (0, 1,
//! non-multiples of the lane width) for every tier the host supports.
//!
//! The ties-away rounding is carried branchlessly in the wide tiers as
//! `sign ⊕ ((|acc| + half) >> frac)`: plain add-half-and-shift would round
//! half-up and differ from the scalar kernel at exact negative ties.
//!
//! ## Example
//!
//! ```
//! use eventor_fixed::kernel::batch::{self, Dispatch};
//! use eventor_fixed::kernel::{self, PhiWords};
//! use eventor_fixed::PackedCoord;
//!
//! let phi = PhiWords::from_f64(0.75, 3.5, -1.25);
//! let canon = vec![PackedCoord::from_f64(10.0, 20.0); 7];
//! let mut idx = Vec::new();
//! batch::transfer_nearest_batch(&phi, &canon, 240, 180, &mut idx);
//! for (&i, &c) in idx.iter().zip(&canon) {
//!     let scalar = kernel::transfer_nearest(&phi, c, 240, 180);
//!     match scalar.address() {
//!         Some((x, y)) => assert_eq!(i, y as u32 * 240 + x as u32),
//!         None => assert_eq!(i, batch::MISS),
//!     }
//! }
//! # let _ = Dispatch::ALL;
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use super::{PhiWords, ACC_FRAC, ACC_HALF};
use crate::formats::{PackedCoord, PlaneCoord};

/// The sentinel slab index of a transfer dropped by the in-sensor
/// judgement — the batched spelling of [`PlaneCoord::Missing`].
pub const MISS: u32 = u32::MAX;

/// The environment variable that forces a dispatch tier for the whole
/// process: `scalar`, `swar` or `simd` (lower-case, exact).
pub const DISPATCH_ENV: &str = "EVENTOR_KERNEL_DISPATCH";

/// A kernel dispatch tier. Ordered fastest-first; [`active`] resolves the
/// session's tier once and every batched wrapper consults it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dispatch {
    /// The scalar kernel in a loop — always available, and the reference
    /// every other tier must match byte for byte.
    Scalar,
    /// 64-bit SWAR packing: both axis products of one event (or two packed
    /// operands) computed by a single 64×64→128 widening multiply with
    /// biased 48-bit fields. Always available.
    Swar,
    /// `core::arch` intrinsics: AVX2 on `x86_64` (4 × `i64` lanes), NEON on
    /// `aarch64` (2 × `i64` lanes). Supported only where runtime detection
    /// finds the feature.
    Simd,
}

impl Dispatch {
    /// Every tier, fastest-first — iterate and filter by
    /// [`is_supported`](Self::is_supported) to sweep all testable paths.
    pub const ALL: [Dispatch; 3] = [Dispatch::Simd, Dispatch::Swar, Dispatch::Scalar];

    /// Whether this tier can execute on the current host.
    pub fn is_supported(self) -> bool {
        match self {
            Dispatch::Scalar | Dispatch::Swar => true,
            Dispatch::Simd => simd_supported(),
        }
    }

    /// The tier name reported in diagnostics and `eventor-bench/1`
    /// artifacts: `"scalar"`, `"swar"`, or the concrete instruction set of
    /// the SIMD tier (`"avx2"` / `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Swar => "swar",
            Dispatch::Simd => {
                #[cfg(target_arch = "x86_64")]
                {
                    "avx2"
                }
                #[cfg(target_arch = "aarch64")]
                {
                    "neon"
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                {
                    "simd"
                }
            }
        }
    }

    /// Parses an [`EVENTOR_KERNEL_DISPATCH`](DISPATCH_ENV) value. The
    /// accepted spellings are exactly `scalar`, `swar` and `simd`; anything
    /// else is a typed [`DispatchError::UnknownTier`].
    pub fn from_name(value: &str) -> Result<Dispatch, DispatchError> {
        match value {
            "scalar" => Ok(Dispatch::Scalar),
            "swar" => Ok(Dispatch::Swar),
            "simd" => Ok(Dispatch::Simd),
            other => Err(DispatchError::UnknownTier {
                value: other.to_string(),
            }),
        }
    }
}

/// A dispatch tier could not be selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The [`DISPATCH_ENV`] value is not one of `scalar`/`swar`/`simd`.
    UnknownTier {
        /// The rejected value, verbatim.
        value: String,
    },
    /// The requested tier is not supported on this host (e.g. `simd` forced
    /// on a CPU without AVX2/NEON). The kernel never silently degrades a
    /// forced tier — that would make CI lanes lie about what they tested.
    Unsupported {
        /// The unsupported tier.
        tier: Dispatch,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::UnknownTier { value } => write!(
                f,
                "unknown kernel dispatch tier {value:?} (expected one of: scalar, swar, simd)"
            ),
            DispatchError::Unsupported { tier } => write!(
                f,
                "kernel dispatch tier '{}' is not supported on this host",
                tier.name()
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Runtime detection of the SIMD tier's instruction set.
fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

fn check_supported(tier: Dispatch) -> Result<Dispatch, DispatchError> {
    if tier.is_supported() {
        Ok(tier)
    } else {
        Err(DispatchError::Unsupported { tier })
    }
}

/// The tier detection falls back to when [`DISPATCH_ENV`] is unset: `Simd`
/// wherever the CPU supports it. Without SIMD the choice is
/// architecture-aware: on `x86_64` the scalar loop wins — the bias/unbias
/// algebra around SWAR's packed 48-bit fields costs more ALU work than the
/// fused multiply saves on a wide out-of-order core, measured ~2× slower
/// (`docs/BENCHMARKS.md`, "An honest note on SWAR") — while narrow
/// single-multiplier cores keep `Swar`.
fn detected() -> Dispatch {
    if simd_supported() {
        Dispatch::Simd
    } else if cfg!(target_arch = "x86_64") {
        Dispatch::Scalar
    } else {
        Dispatch::Swar
    }
}

/// Resolves the environment/detection tier once per process. The
/// environment override stays authoritative: [`detected`] is consulted only
/// when [`DISPATCH_ENV`] is unset.
fn resolve_env() -> Result<Dispatch, DispatchError> {
    match std::env::var(DISPATCH_ENV) {
        Ok(value) => check_supported(Dispatch::from_name(&value)?),
        Err(_) => Ok(detected()),
    }
}

fn resolved() -> Result<Dispatch, DispatchError> {
    static RESOLVED: OnceLock<Result<Dispatch, DispatchError>> = OnceLock::new();
    RESOLVED.get_or_init(resolve_env).clone()
}

/// In-process override (0 = none, else `Dispatch` discriminant + 1). Takes
/// precedence over the resolved environment tier.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Pins the dispatch tier for the whole process (`Some`) or restores the
/// environment/detection resolution (`None`).
///
/// Validates support before taking effect and returns
/// [`DispatchError::Unsupported`] otherwise — a forced tier never silently
/// degrades. Intended for tests, benches and diagnostics; production code
/// should rely on [`DISPATCH_ENV`] or detection.
pub fn force(tier: Option<Dispatch>) -> Result<(), DispatchError> {
    let code = match tier {
        None => 0,
        Some(t) => {
            check_supported(t)?;
            match t {
                Dispatch::Scalar => 1,
                Dispatch::Swar => 2,
                Dispatch::Simd => 3,
            }
        }
    };
    FORCED.store(code, Ordering::Release);
    Ok(())
}

/// The session's dispatch tier, or the typed error that prevented its
/// selection (an invalid or unsupported [`DISPATCH_ENV`] value).
pub fn try_active() -> Result<Dispatch, DispatchError> {
    match FORCED.load(Ordering::Acquire) {
        1 => Ok(Dispatch::Scalar),
        2 => Ok(Dispatch::Swar),
        3 => Ok(Dispatch::Simd),
        _ => resolved(),
    }
}

/// The session's dispatch tier: [`force`] override, then
/// [`DISPATCH_ENV`], then detection (`Simd` where supported; otherwise
/// `Scalar` on x86-64 — where SWAR measures slower than the scalar loop —
/// and `Swar` elsewhere).
///
/// # Panics
///
/// When [`DISPATCH_ENV`] names an unknown or unsupported tier — the
/// configuration error must surface, not degrade silently.
pub fn active() -> Dispatch {
    match try_active() {
        Ok(tier) => tier,
        Err(err) => panic!("{DISPATCH_ENV}: {err}"),
    }
}

fn assert_supported(tier: Dispatch) {
    assert!(
        tier.is_supported(),
        "kernel dispatch tier '{}' is not supported on this host",
        tier.name()
    );
}

// ---------------------------------------------------------------------------
// Batched faces
// ---------------------------------------------------------------------------

/// Batched [`mat_vec_mac`](super::mat_vec_mac): the `PE_Z0` wide
/// matrix-vector MAC over a slice of coordinates, one `[num_x, num_y, w]`
/// accumulator triple per input. `out` is cleared and refilled.
pub fn mat_vec_mac_batch(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<[i64; 3]>) {
    mat_vec_mac_batch_with(active(), h, coords, out);
}

/// [`mat_vec_mac_batch`] with an explicit tier (panics if unsupported).
pub fn mat_vec_mac_batch_with(
    tier: Dispatch,
    h: &[i32; 9],
    coords: &[PackedCoord],
    out: &mut Vec<[i64; 3]>,
) {
    assert_supported(tier);
    out.clear();
    out.reserve(coords.len());
    match tier {
        Dispatch::Scalar => out.extend(coords.iter().map(|&c| super::mat_vec_mac(h, c))),
        Dispatch::Swar => swar::mat_vec(h, coords, out),
        Dispatch::Simd => simd::mat_vec(h, coords, out),
    }
}

/// Batched [`project_z0`](super::project_z0): the complete `PE_Z0`
/// operation over a slice of events, **keeping only the survivors** of the
/// projection-missing judgement (in input order). `out` is cleared and
/// refilled; dropped events leave no placeholder — downstream per-plane
/// transfers iterate canonical coordinates densely.
///
/// The wide MACs run on the selected tier; the exact-rational
/// normalization divider is inherently scalar (integer division has no
/// lane form) and is shared verbatim by every tier.
pub fn project_z0_batch(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
    project_z0_batch_with(active(), h, coords, out);
}

/// [`project_z0_batch`] with an explicit tier (panics if unsupported).
pub fn project_z0_batch_with(
    tier: Dispatch,
    h: &[i32; 9],
    coords: &[PackedCoord],
    out: &mut Vec<PackedCoord>,
) {
    assert_supported(tier);
    out.clear();
    out.reserve(coords.len());
    match tier {
        Dispatch::Scalar => out.extend(coords.iter().filter_map(|&c| super::project_z0(h, c))),
        Dispatch::Swar => swar::project(h, coords, out),
        Dispatch::Simd => simd::project(h, coords, out),
    }
}

/// Batched [`plane_mac`](super::plane_mac): one `PE_Zi` axis over a slice
/// of raw Q9.7 coordinate words, producing the `i64` wide accumulators at
/// scale `2⁻²⁸`. `out` is cleared and refilled.
pub fn plane_mac_batch(scale: i32, offset: i32, cs: &[i16], out: &mut Vec<i64>) {
    plane_mac_batch_with(active(), scale, offset, cs, out);
}

/// [`plane_mac_batch`] with an explicit tier (panics if unsupported).
pub fn plane_mac_batch_with(
    tier: Dispatch,
    scale: i32,
    offset: i32,
    cs: &[i16],
    out: &mut Vec<i64>,
) {
    assert_supported(tier);
    out.clear();
    out.reserve(cs.len());
    match tier {
        Dispatch::Scalar => out.extend(cs.iter().map(|&c| super::plane_mac(scale, offset, c))),
        Dispatch::Swar => swar::plane_mac(scale, offset, cs, out),
        Dispatch::Simd => simd::plane_mac(scale, offset, cs, out),
    }
}

/// Batched [`nearest_voxel`](super::nearest_voxel): rounds paired wide
/// accumulators and applies the in-sensor judgement, one [`PlaneCoord`]
/// per input pair. `out` is cleared and refilled.
///
/// # Panics
///
/// When the accumulator slices differ in length.
pub fn nearest_voxel_batch(
    acc_x: &[i64],
    acc_y: &[i64],
    width: u32,
    height: u32,
    out: &mut Vec<PlaneCoord>,
) {
    nearest_voxel_batch_with(active(), acc_x, acc_y, width, height, out);
}

/// [`nearest_voxel_batch`] with an explicit tier (panics if unsupported).
pub fn nearest_voxel_batch_with(
    tier: Dispatch,
    acc_x: &[i64],
    acc_y: &[i64],
    width: u32,
    height: u32,
    out: &mut Vec<PlaneCoord>,
) {
    assert_supported(tier);
    assert_eq!(acc_x.len(), acc_y.len(), "accumulator slices must pair up");
    out.clear();
    out.reserve(acc_x.len());
    match tier {
        Dispatch::Scalar => out.extend(
            acc_x
                .iter()
                .zip(acc_y)
                .map(|(&ax, &ay)| super::nearest_voxel(ax, ay, width, height)),
        ),
        Dispatch::Swar => swar::nearest_voxel(acc_x, acc_y, width, height, out),
        Dispatch::Simd => simd::nearest_voxel(acc_x, acc_y, width, height, out),
    }
}

/// The fused batched `PE_Zi` operation: both axis MACs, the ties-away
/// rounding and the in-sensor judgement for one depth plane over a slice
/// of canonical coordinates, producing **plane-slab indices**
/// (`y · width + x`) with [`MISS`] marking dropped transfers. `out` is
/// resized to `canon.len()` and every element overwritten (stale
/// contents of a reused arena are never read).
///
/// Indices rather than `(x, y)` pairs because the consumer is the
/// cache-blocked DSI vote deposit, which adds a unit at `slab[idx]`; the
/// multiply by `width` vectorizes here, the deposit does not (no scatter
/// on AVX2 worth its latency for `u16` lanes).
///
/// `width · height` must not exceed `u32::MAX` (debug-asserted) so every
/// in-sensor index stays below the [`MISS`] sentinel; callers pass
/// sensor/DSI dimensions, far inside the bound.
pub fn transfer_nearest_batch(
    phi: &PhiWords,
    canon: &[PackedCoord],
    width: u32,
    height: u32,
    out: &mut Vec<u32>,
) {
    transfer_nearest_batch_with(active(), phi, canon, width, height, out);
}

/// [`transfer_nearest_batch`] with an explicit tier (panics if
/// unsupported).
pub fn transfer_nearest_batch_with(
    tier: Dispatch,
    phi: &PhiWords,
    canon: &[PackedCoord],
    width: u32,
    height: u32,
    out: &mut Vec<u32>,
) {
    assert_supported(tier);
    debug_assert!(
        width as u64 * height as u64 <= u32::MAX as u64,
        "slab index would collide with the MISS sentinel"
    );
    // Size once, write by index: every tier fills all `canon.len()` slots,
    // so a reused arena of the right length skips the refill entirely and
    // the hot per-plane loop never pays a `push` capacity check.
    if out.len() != canon.len() {
        out.clear();
        out.resize(canon.len(), MISS);
    }
    let dst = out.as_mut_slice();
    match tier {
        Dispatch::Scalar => {
            for (d, &c) in dst.iter_mut().zip(canon) {
                *d = scalar_transfer_index(phi, c, width, height);
            }
        }
        Dispatch::Swar => swar::transfer(phi, canon, width, height, dst),
        Dispatch::Simd => simd::transfer(phi, canon, width, height, dst),
    }
}

/// The most depth planes [`plane_collapse_batch`] accepts: plane indices
/// travel as `u16` and per-pixel sums as `u32`, and `2¹⁶ · u16::MAX` still
/// fits a `u32`.
pub const COLLAPSE_MAX_PLANES: usize = 1 << 16;

/// Pixels per chunk of the plane collapse: the chunk's accumulators
/// (8 B/pixel) and the slab row being folded (2 B/pixel) stay L1-resident
/// while the planes stream past.
const COLLAPSE_CHUNK: usize = 256;

/// Per-pixel result of [`plane_collapse_batch`], row-major.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaneCollapse {
    /// Maximum score along depth.
    pub best: Vec<u16>,
    /// First plane holding the maximum score.
    pub plane: Vec<u16>,
    /// Sum of the scores over every plane.
    pub sum: Vec<u32>,
}

/// The depth collapse of scene-structure detection over a plane-major `u16`
/// score array (`scores.len() / slab_len` slabs of `slab_len` pixels): per
/// pixel the maximum score, the *first* plane reaching it, and the sum over
/// all planes. `out` is resized to `slab_len` and every element overwritten.
///
/// The volume is read once, in storage order: pixels are folded in
/// `COLLAPSE_CHUNK`-sized chunks, each streaming its slice of every slab.
/// The per-pixel update is branchless in the narrow types (`u16` max, a
/// `u16` plane select under a compare mask, a `u32` sum), which is the form
/// the vectorizer turns into lane operations.
///
/// # Panics
///
/// When `slab_len` is zero, `scores.len()` is not a multiple of it, or the
/// volume holds more than [`COLLAPSE_MAX_PLANES`] planes.
pub fn plane_collapse_batch(scores: &[u16], slab_len: usize, out: &mut PlaneCollapse) {
    plane_collapse_batch_with(active(), scores, slab_len, out);
}

/// [`plane_collapse_batch`] with an explicit tier (panics if unsupported).
pub fn plane_collapse_batch_with(
    tier: Dispatch,
    scores: &[u16],
    slab_len: usize,
    out: &mut PlaneCollapse,
) {
    assert_supported(tier);
    assert!(
        slab_len > 0 && scores.len().is_multiple_of(slab_len),
        "score array is not a whole number of slabs"
    );
    assert!(
        scores.len() / slab_len <= COLLAPSE_MAX_PLANES,
        "plane collapse holds at most {COLLAPSE_MAX_PLANES} planes"
    );
    out.best.resize(slab_len, 0);
    out.plane.resize(slab_len, 0);
    out.sum.resize(slab_len, 0);
    match tier {
        Dispatch::Scalar | Dispatch::Swar => plane_collapse_body(
            scores,
            slab_len,
            &mut out.best,
            &mut out.plane,
            &mut out.sum,
        ),
        Dispatch::Simd => simd::collapse(scores, slab_len, out),
    }
}

/// The portable body of [`plane_collapse_batch`], shared by every tier;
/// the SIMD tier compiles it under its wider target features.
#[inline(always)]
fn plane_collapse_body(
    scores: &[u16],
    slab_len: usize,
    best: &mut [u16],
    plane: &mut [u16],
    sum: &mut [u32],
) {
    for start in (0..slab_len).step_by(COLLAPSE_CHUNK) {
        let end = (start + COLLAPSE_CHUNK).min(slab_len);
        let (best, plane, sum) = (
            &mut best[start..end],
            &mut plane[start..end],
            &mut sum[start..end],
        );
        best.fill(0);
        plane.fill(0);
        sum.fill(0);
        for (p, slab) in scores.chunks_exact(slab_len).enumerate() {
            // Plane 0 with all-zero scores keeps index 0, so starting from
            // a zero maximum equals folding from plane 0's scores.
            let p = p as u16;
            for (((&v, b), pl), s) in slab[start..end]
                .iter()
                .zip(best.iter_mut())
                .zip(plane.iter_mut())
                .zip(sum.iter_mut())
            {
                let m = ((*b < v) as u16).wrapping_neg();
                *b = (*b).max(v);
                *pl = (*pl & !m) | (p & m);
                *s += v as u32;
            }
        }
    }
}

/// One scalar transfer producing a slab index — the definition the wide
/// tiers must match. Identical to
/// [`transfer_nearest`](super::transfer_nearest) + `address()` for the
/// in-contract `width, height ≤ 256` domain (the `u8` narrowing there is
/// lossless inside the judgement).
#[inline]
fn scalar_transfer_index(phi: &PhiWords, c: PackedCoord, width: u32, height: u32) -> u32 {
    let xi = super::round_acc(super::plane_mac(phi.scale, phi.offset_x, c.x.raw()));
    let yi = super::round_acc(super::plane_mac(phi.scale, phi.offset_y, c.y.raw()));
    if xi >= 0 && yi >= 0 && xi < width as i64 && yi < height as i64 {
        yi as u32 * width + xi as u32
    } else {
        MISS
    }
}

/// Branchless [`round_acc`](super::round_acc): `sign ⊕ ((|acc| + half) >>
/// frac)`. Exactly ties-away-from-zero — the naive `(acc + half) >> frac`
/// would round half-*up* and disagree with the scalar kernel at exact
/// negative ties. The wide tiers carry this form per lane.
#[inline]
fn round_acc_branchless(acc: i64) -> i64 {
    let sign = acc >> 63;
    let mag = (acc ^ sign) - sign;
    (((mag + ACC_HALF) >> ACC_FRAC) ^ sign) - sign
}

// ---------------------------------------------------------------------------
// SWAR tier
// ---------------------------------------------------------------------------

/// 64-bit SWAR packing: two independent products per widening multiply.
///
/// Both operands are biased to unsigned (`v + 2^15` for 16-bit values,
/// `v + 2^31` for 32-bit) so each product fits an unsigned 48-bit field of
/// the 128-bit result with no carry between fields:
/// `(a0 | a1 << 48) · m` yields `a0·m` in bits 0..48 and `a1·m` in bits
/// 48..96 whenever `aᵢ·m < 2^48`. The bias is removed algebraically:
/// `(v32 + 2^31)(v16 + 2^15) = v32·v16 + (v32 << 15) + (v16 << 31) + 2^46`.
mod swar {
    use super::*;

    const MASK48: u128 = (1 << 48) - 1;

    /// `(a0·m, a1·m)` in one widening multiply; requires `aᵢ·m < 2^48`
    /// and `aᵢ < 2^16` (both fields of the packed word fit 64 bits, so
    /// the product is a single 64×64→128 widening multiply — one `mulq`
    /// on x86_64, `umulh`+`mul` on aarch64).
    ///
    /// The `black_box` pins the packed word in a scalar register: with the
    /// value path fully visible, LLVM's loop vectorizer "vectorizes"
    /// callers by packing the cheap bias/round algebra into SIMD lanes
    /// while extracting every operand back to scalar registers for the
    /// 128-bit multiply — the lane↔GPR churn more than triples the
    /// per-event cost. The opaque pass-through keeps the whole caller loop
    /// scalar, which is the point of the SWAR tier, at the price of one
    /// register move.
    #[inline]
    fn dual_mul16(a0: u64, a1: u64, m: u64) -> (u64, u64) {
        debug_assert!(a0 < (1 << 16) && a1 < (1 << 16));
        debug_assert!((a0 as u128) * m as u128 <= MASK48 && (a1 as u128) * m as u128 <= MASK48);
        let prod = (std::hint::black_box(a0 | (a1 << 48)) as u128) * m as u128;
        ((prod & MASK48) as u64, (prod >> 48) as u64)
    }

    /// `(a0·m, a1·m)` in one widening multiply; requires `aᵢ·m < 2^48`.
    #[inline]
    fn dual_mul(a0: u64, a1: u64, m: u64) -> (u64, u64) {
        debug_assert!((a0 as u128) * m as u128 <= MASK48 && (a1 as u128) * m as u128 <= MASK48);
        // Pack in u128: a 32-bit biased operand shifted into the high
        // field needs 80 bits before the multiply.
        let prod = ((a0 as u128) | ((a1 as u128) << 48)) * m as u128;
        ((prod & MASK48) as u64, (prod >> 48) as u64)
    }

    /// Removes the packing bias: biased product back to `v32 · v16`.
    #[inline]
    fn unbias(p: u64, v32: i64, v16: i64) -> i64 {
        p as i64 - (v32 << 15) - (v16 << 31) - (1 << 46)
    }

    const BIAS16: i64 = 1 << 15;
    const BIAS32: i64 = 1 << 31;

    pub(super) fn transfer(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
        let scale = phi.scale as i64;
        let bscale = (scale + BIAS32) as u64;
        // Per-plane constants of the unbias algebra, hoisted: the offset
        // term of the MAC minus the shared bias terms.
        let corr_x = ((phi.offset_x as i64) << 7) - (scale << 15) - (1 << 46);
        let corr_y = ((phi.offset_y as i64) << 7) - (scale << 15) - (1 << 46);
        let (w, h) = (width as u64, height as u64);
        for (d, &c) in out.iter_mut().zip(canon) {
            let cx = c.x.raw() as i64;
            let cy = c.y.raw() as i64;
            let (px, py) = dual_mul16((cx + BIAS16) as u64, (cy + BIAS16) as u64, bscale);
            let acc_x = px as i64 - (cx << 31) + corr_x;
            let acc_y = py as i64 - (cy << 31) + corr_y;
            let xi = round_acc_branchless(acc_x);
            let yi = round_acc_branchless(acc_y);
            // Unsigned compares fold the `< 0` and `>= dim` judgements;
            // `&` and the unconditionally computed index (wrapping garbage
            // in dropped lanes) keep the select branch-free — the
            // judgement outcome is data-dependent per event, so a branch
            // here mispredicts constantly.
            let inside = ((xi as u64) < w) & ((yi as u64) < h);
            let idx = (yi as u32).wrapping_mul(width).wrapping_add(xi as u32);
            *d = if inside { idx } else { MISS };
        }
    }

    pub(super) fn plane_mac(scale: i32, offset: i32, cs: &[i16], out: &mut Vec<i64>) {
        let s = scale as i64;
        let bscale = (s + BIAS32) as u64;
        let corr = ((offset as i64) << 7) - (s << 15) - (1 << 46);
        let mut chunks = cs.chunks_exact(2);
        for pair in &mut chunks {
            let c0 = pair[0] as i64;
            let c1 = pair[1] as i64;
            let (p0, p1) = dual_mul16((c0 + BIAS16) as u64, (c1 + BIAS16) as u64, bscale);
            out.push(p0 as i64 - (c0 << 31) + corr);
            out.push(p1 as i64 - (c1 << 31) + corr);
        }
        for &c in chunks.remainder() {
            out.push(super::super::plane_mac(scale, offset, c));
        }
    }

    /// The `PE_Z0` row MACs with packed 32-bit operands: rows 0 and 1
    /// share each coordinate multiplier, so their x-terms (and y-terms)
    /// pair up in one widening multiply each. Row 2 stays scalar — two
    /// plain `imul`s beat a third packing round-trip.
    #[inline]
    pub(super) fn mat_vec_one(h: &[i32; 9], c: PackedCoord) -> [i64; 3] {
        let x = c.x.raw() as i64;
        let y = c.y.raw() as i64;
        let bx = (x + BIAS16) as u64;
        let by = (y + BIAS16) as u64;
        let (p0x, p1x) = dual_mul(
            (h[0] as i64 + BIAS32) as u64,
            (h[3] as i64 + BIAS32) as u64,
            bx,
        );
        let (p0y, p1y) = dual_mul(
            (h[1] as i64 + BIAS32) as u64,
            (h[4] as i64 + BIAS32) as u64,
            by,
        );
        let n0 = unbias(p0x, h[0] as i64, x) + unbias(p0y, h[1] as i64, y) + ((h[2] as i64) << 7);
        let n1 = unbias(p1x, h[3] as i64, x) + unbias(p1y, h[4] as i64, y) + ((h[5] as i64) << 7);
        let n2 = h[6] as i64 * x + h[7] as i64 * y + ((h[8] as i64) << 7);
        [n0, n1, n2]
    }

    pub(super) fn mat_vec(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<[i64; 3]>) {
        out.extend(coords.iter().map(|&c| mat_vec_one(h, c)));
    }

    pub(super) fn project(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
        for &c in coords {
            let [num_x, num_y, w] = mat_vec_one(h, c);
            let (Some(px), Some(py)) = (
                super::super::normalize_q9p7(num_x, w),
                super::super::normalize_q9p7(num_y, w),
            ) else {
                continue;
            };
            out.push(PackedCoord {
                x: crate::formats::Q9p7::from_raw(px),
                y: crate::formats::Q9p7::from_raw(py),
            });
        }
    }

    pub(super) fn nearest_voxel(
        acc_x: &[i64],
        acc_y: &[i64],
        width: u32,
        height: u32,
        out: &mut Vec<PlaneCoord>,
    ) {
        let (w, h) = (width as u64, height as u64);
        for (&ax, &ay) in acc_x.iter().zip(acc_y) {
            let xi = round_acc_branchless(ax);
            let yi = round_acc_branchless(ay);
            out.push(if (xi as u64) < w && (yi as u64) < h {
                PlaneCoord::Inside {
                    x: xi as u8,
                    y: yi as u8,
                }
            } else {
                PlaneCoord::Missing
            });
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD tier — AVX2 (x86_64)
// ---------------------------------------------------------------------------

/// AVX2: four `i64` lanes per operation. Products come from
/// `_mm256_mul_epi32` (signed 32×32→64 on the low halves — exact, both
/// operands are sign-extended 32-bit values); the ties-away rounding is
/// the branchless sign/magnitude form per lane (`_mm256_srli_epi64` on the
/// non-negative magnitude equals the arithmetic shift); the in-sensor
/// judgement is two signed 64-bit compares per axis blended against the
/// [`MISS`] sentinel. Remainders shorter than four lanes run the scalar
/// definitions, which the proptests pin as bit-identical.
///
/// Safety: every `#[target_feature(enable = "avx2")]` function is reached
/// only through a wrapper that asserts `is_x86_feature_detected!("avx2")`
/// (dispatch refuses the tier otherwise, but the assertion keeps the
/// module locally sound).
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use std::arch::x86_64::*;

    #[inline]
    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "SIMD dispatch tier reached without AVX2 support"
        );
    }

    /// Four sign-extended raw coordinate words as `i64` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4_i16(vals: [i16; 4]) -> __m256i {
        _mm256_cvtepi32_epi64(_mm_set_epi32(
            vals[3] as i32,
            vals[2] as i32,
            vals[1] as i32,
            vals[0] as i32,
        ))
    }

    /// Branchless ties-away-from-zero rounding, four lanes at once.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn round4(acc: __m256i, half: __m256i, zero: __m256i) -> __m256i {
        let sign = _mm256_cmpgt_epi64(zero, acc);
        let mag = _mm256_sub_epi64(_mm256_xor_si256(acc, sign), sign);
        let r = _mm256_srli_epi64::<{ ACC_FRAC as i32 }>(_mm256_add_epi64(mag, half));
        _mm256_sub_epi64(_mm256_xor_si256(r, sign), sign)
    }

    /// All-ones per 64-bit lane where `0 <= v < bound`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn in_range4(v: __m256i, bound: __m256i, minus_one: __m256i) -> __m256i {
        _mm256_and_si256(
            _mm256_cmpgt_epi64(bound, v),
            _mm256_cmpgt_epi64(v, minus_one),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4(v: __m256i) -> [i64; 4] {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes
    }

    pub(super) fn transfer(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
        assert_avx2();
        unsafe { transfer_avx2(phi, canon, width, height, out) }
    }

    /// Eight transfers per iteration. One unaligned 256-bit load covers
    /// eight `PackedCoord`s (`repr(C)` pairs of `i16`, x in the low half of
    /// each 32-bit lane on little-endian — the `to_word` layout);
    /// `_mm256_mul_epi32` reads the low 32 bits of each 64-bit lane, so the
    /// even-index coords multiply in place and the odd-index coords after a
    /// 32-bit lane shift, and the two result vectors re-interleave into
    /// input order with a single blend before one 256-bit store.
    #[target_feature(enable = "avx2")]
    unsafe fn transfer_avx2(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
        debug_assert_eq!(canon.len(), out.len());
        let vscale = _mm256_set1_epi64x(phi.scale as i64);
        let voffx = _mm256_set1_epi64x((phi.offset_x as i64) << 7);
        let voffy = _mm256_set1_epi64x((phi.offset_y as i64) << 7);
        let vhalf = _mm256_set1_epi64x(ACC_HALF);
        let vzero = _mm256_setzero_si256();
        let vneg1 = _mm256_set1_epi64x(-1);
        let vw = _mm256_set1_epi64x(width as i64);
        let vh = _mm256_set1_epi64x(height as i64);
        let vmiss = _mm256_set1_epi64x(MISS as i64);
        let n = canon.len();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_si256(canon.as_ptr().add(i) as *const __m256i);
            let x32 = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(v));
            let y32 = _mm256_srai_epi32::<16>(v);
            let xe = _mm256_add_epi64(_mm256_mul_epi32(x32, vscale), voffx);
            let xo = _mm256_add_epi64(
                _mm256_mul_epi32(_mm256_srli_epi64::<32>(x32), vscale),
                voffx,
            );
            let ye = _mm256_add_epi64(_mm256_mul_epi32(y32, vscale), voffy);
            let yo = _mm256_add_epi64(
                _mm256_mul_epi32(_mm256_srli_epi64::<32>(y32), vscale),
                voffy,
            );
            let xie = round4(xe, vhalf, vzero);
            let xio = round4(xo, vhalf, vzero);
            let yie = round4(ye, vhalf, vzero);
            let yio = round4(yo, vhalf, vzero);
            let ine = _mm256_and_si256(in_range4(xie, vw, vneg1), in_range4(yie, vh, vneg1));
            let ino = _mm256_and_si256(in_range4(xio, vw, vneg1), in_range4(yio, vh, vneg1));
            // In valid lanes yi, width < 2^16, so the unsigned low-32
            // product is exact; garbage in masked lanes is blended away.
            let idxe = _mm256_add_epi64(_mm256_mul_epu32(yie, vw), xie);
            let idxo = _mm256_add_epi64(_mm256_mul_epu32(yio, vw), xio);
            let sele = _mm256_blendv_epi8(vmiss, idxe, ine);
            let selo = _mm256_blendv_epi8(vmiss, idxo, ino);
            // Every selected value fits `u32`; the odd results shift into
            // the high half of each 64-bit lane and the blend restores the
            // original coordinate order as eight packed `u32`s.
            let packed = _mm256_blend_epi32::<0b10101010>(sele, _mm256_slli_epi64::<32>(selo));
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, packed);
            i += 8;
        }
        for k in i..n {
            out[k] = scalar_transfer_index(phi, canon[k], width, height);
        }
    }

    pub(super) fn collapse(scores: &[u16], slab_len: usize, out: &mut PlaneCollapse) {
        assert_avx2();
        // SAFETY: `assert_avx2` above checked that the CPU supports AVX2,
        // the only requirement of calling the `target_feature` function.
        unsafe { collapse_avx2(scores, slab_len, out) }
    }

    /// The portable collapse body with AVX2 enabled: 16 `u16` lanes per
    /// max/compare/select and 8 `u32` lanes per sum.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. The body itself is safe code.
    #[target_feature(enable = "avx2")]
    unsafe fn collapse_avx2(scores: &[u16], slab_len: usize, out: &mut PlaneCollapse) {
        plane_collapse_body(
            scores,
            slab_len,
            &mut out.best,
            &mut out.plane,
            &mut out.sum,
        );
    }

    pub(super) fn plane_mac(scale: i32, offset: i32, cs: &[i16], out: &mut Vec<i64>) {
        assert_avx2();
        unsafe { plane_mac_avx2(scale, offset, cs, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn plane_mac_avx2(scale: i32, offset: i32, cs: &[i16], out: &mut Vec<i64>) {
        let vscale = _mm256_set1_epi64x(scale as i64);
        let voff = _mm256_set1_epi64x((offset as i64) << 7);
        let mut iter = cs.chunks_exact(4);
        for four in &mut iter {
            let vc = load4_i16([four[0], four[1], four[2], four[3]]);
            let acc = _mm256_add_epi64(_mm256_mul_epi32(vc, vscale), voff);
            out.extend(store4(acc));
        }
        for &c in iter.remainder() {
            out.push(super::super::plane_mac(scale, offset, c));
        }
    }

    pub(super) fn mat_vec(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<[i64; 3]>) {
        assert_avx2();
        unsafe { mat_vec_avx2(h, coords, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mat_vec_avx2(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<[i64; 3]>) {
        let vh: [__m256i; 6] = [
            _mm256_set1_epi64x(h[0] as i64),
            _mm256_set1_epi64x(h[1] as i64),
            _mm256_set1_epi64x(h[3] as i64),
            _mm256_set1_epi64x(h[4] as i64),
            _mm256_set1_epi64x(h[6] as i64),
            _mm256_set1_epi64x(h[7] as i64),
        ];
        let vconst: [__m256i; 3] = [
            _mm256_set1_epi64x((h[2] as i64) << 7),
            _mm256_set1_epi64x((h[5] as i64) << 7),
            _mm256_set1_epi64x((h[8] as i64) << 7),
        ];
        let mut iter = coords.chunks_exact(4);
        for four in &mut iter {
            let vx = load4_i16([
                four[0].x.raw(),
                four[1].x.raw(),
                four[2].x.raw(),
                four[3].x.raw(),
            ]);
            let vy = load4_i16([
                four[0].y.raw(),
                four[1].y.raw(),
                four[2].y.raw(),
                four[3].y.raw(),
            ]);
            let mut rows = [[0i64; 4]; 3];
            for r in 0..3 {
                let acc = _mm256_add_epi64(
                    _mm256_add_epi64(
                        _mm256_mul_epi32(vx, vh[2 * r]),
                        _mm256_mul_epi32(vy, vh[2 * r + 1]),
                    ),
                    vconst[r],
                );
                rows[r] = store4(acc);
            }
            for ((&n0, &n1), &n2) in rows[0].iter().zip(&rows[1]).zip(&rows[2]) {
                out.push([n0, n1, n2]);
            }
        }
        for &c in iter.remainder() {
            out.push(super::super::mat_vec_mac(h, c));
        }
    }

    pub(super) fn project(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
        assert_avx2();
        unsafe { project_avx2(h, coords, out) }
    }

    /// Fused projection: the MAC lanes land in stack arrays and the exact
    /// normalization divider runs per lane — integer division has no
    /// vector form, and its cost amortizes over the ~100 per-plane
    /// transfers each surviving event feeds.
    #[target_feature(enable = "avx2")]
    unsafe fn project_avx2(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
        use crate::formats::Q9p7;
        let vh0 = _mm256_set1_epi64x(h[0] as i64);
        let vh1 = _mm256_set1_epi64x(h[1] as i64);
        let vh3 = _mm256_set1_epi64x(h[3] as i64);
        let vh4 = _mm256_set1_epi64x(h[4] as i64);
        let vh6 = _mm256_set1_epi64x(h[6] as i64);
        let vh7 = _mm256_set1_epi64x(h[7] as i64);
        let vc0 = _mm256_set1_epi64x((h[2] as i64) << 7);
        let vc1 = _mm256_set1_epi64x((h[5] as i64) << 7);
        let vc2 = _mm256_set1_epi64x((h[8] as i64) << 7);
        let mut iter = coords.chunks_exact(4);
        for four in &mut iter {
            let vx = load4_i16([
                four[0].x.raw(),
                four[1].x.raw(),
                four[2].x.raw(),
                four[3].x.raw(),
            ]);
            let vy = load4_i16([
                four[0].y.raw(),
                four[1].y.raw(),
                four[2].y.raw(),
                four[3].y.raw(),
            ]);
            let nx = store4(_mm256_add_epi64(
                _mm256_add_epi64(_mm256_mul_epi32(vx, vh0), _mm256_mul_epi32(vy, vh1)),
                vc0,
            ));
            let ny = store4(_mm256_add_epi64(
                _mm256_add_epi64(_mm256_mul_epi32(vx, vh3), _mm256_mul_epi32(vy, vh4)),
                vc1,
            ));
            let nw = store4(_mm256_add_epi64(
                _mm256_add_epi64(_mm256_mul_epi32(vx, vh6), _mm256_mul_epi32(vy, vh7)),
                vc2,
            ));
            for k in 0..4 {
                let (Some(px), Some(py)) = (
                    super::super::normalize_q9p7(nx[k], nw[k]),
                    super::super::normalize_q9p7(ny[k], nw[k]),
                ) else {
                    continue;
                };
                out.push(PackedCoord {
                    x: Q9p7::from_raw(px),
                    y: Q9p7::from_raw(py),
                });
            }
        }
        for &c in iter.remainder() {
            if let Some(p) = super::super::project_z0(h, c) {
                out.push(p);
            }
        }
    }

    pub(super) fn nearest_voxel(
        acc_x: &[i64],
        acc_y: &[i64],
        width: u32,
        height: u32,
        out: &mut Vec<PlaneCoord>,
    ) {
        assert_avx2();
        unsafe { nearest_voxel_avx2(acc_x, acc_y, width, height, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn nearest_voxel_avx2(
        acc_x: &[i64],
        acc_y: &[i64],
        width: u32,
        height: u32,
        out: &mut Vec<PlaneCoord>,
    ) {
        let vhalf = _mm256_set1_epi64x(ACC_HALF);
        let vzero = _mm256_setzero_si256();
        let vneg1 = _mm256_set1_epi64x(-1);
        let vw = _mm256_set1_epi64x(width as i64);
        let vh = _mm256_set1_epi64x(height as i64);
        let n = acc_x.len();
        let mut i = 0;
        while i + 4 <= n {
            let ax = _mm256_loadu_si256(acc_x[i..].as_ptr() as *const __m256i);
            let ay = _mm256_loadu_si256(acc_y[i..].as_ptr() as *const __m256i);
            let xi = store4(round4(ax, vhalf, vzero));
            let yi = store4(round4(ay, vhalf, vzero));
            let inside = store4(_mm256_and_si256(
                in_range4(round4(ax, vhalf, vzero), vw, vneg1),
                in_range4(round4(ay, vhalf, vzero), vh, vneg1),
            ));
            for k in 0..4 {
                out.push(if inside[k] != 0 {
                    PlaneCoord::Inside {
                        x: xi[k] as u8,
                        y: yi[k] as u8,
                    }
                } else {
                    PlaneCoord::Missing
                });
            }
            i += 4;
        }
        for k in i..n {
            out.push(super::super::nearest_voxel(
                acc_x[k], acc_y[k], width, height,
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD tier — NEON (aarch64)
// ---------------------------------------------------------------------------

/// NEON: two `i64` lanes per operation on the per-plane faces (the
/// widening `vmull_s32` is the exact 32×32→64 product; rounding and
/// judgement mirror the AVX2 lane algebra). The matrix MAC and the
/// standalone voxel finder share the SWAR implementations — at two lanes
/// the shuffle overhead of a NEON row MAC costs more than the packed
/// widening multiply it would replace.
///
/// Safety: wrappers assert `is_aarch64_feature_detected!("neon")` before
/// entering any `#[target_feature(enable = "neon")]` function.
#[cfg(target_arch = "aarch64")]
mod simd {
    use super::*;
    use std::arch::aarch64::*;

    #[inline]
    fn assert_neon() {
        assert!(
            std::arch::is_aarch64_feature_detected!("neon"),
            "SIMD dispatch tier reached without NEON support"
        );
    }

    /// Branchless ties-away-from-zero rounding, two lanes at once.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn round2(acc: int64x2_t, half: int64x2_t) -> int64x2_t {
        let sign = vshrq_n_s64::<63>(acc);
        let mag = vsubq_s64(veorq_s64(acc, sign), sign);
        let r = vshrq_n_s64::<{ ACC_FRAC as i32 }>(vaddq_s64(mag, half));
        vsubq_s64(veorq_s64(r, sign), sign)
    }

    pub(super) fn transfer(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
        assert_neon();
        unsafe { transfer_neon(phi, canon, width, height, out) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn transfer_neon(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
        debug_assert_eq!(canon.len(), out.len());
        let scale2 = vdup_n_s32(phi.scale);
        let voffx = vdupq_n_s64((phi.offset_x as i64) << 7);
        let voffy = vdupq_n_s64((phi.offset_y as i64) << 7);
        let vhalf = vdupq_n_s64(ACC_HALF);
        let (w, h) = (width as u64, height as u64);
        let n = canon.len();
        let mut i = 0;
        while i + 2 <= n {
            let two = &canon[i..i + 2];
            let xs = [two[0].x.raw() as i32, two[1].x.raw() as i32];
            let ys = [two[0].y.raw() as i32, two[1].y.raw() as i32];
            let accx = vaddq_s64(vmull_s32(vld1_s32(xs.as_ptr()), scale2), voffx);
            let accy = vaddq_s64(vmull_s32(vld1_s32(ys.as_ptr()), scale2), voffy);
            let xi = round2(accx, vhalf);
            let yi = round2(accy, vhalf);
            for k in 0..2 {
                let (x, y) = match k {
                    0 => (vgetq_lane_s64::<0>(xi), vgetq_lane_s64::<0>(yi)),
                    _ => (vgetq_lane_s64::<1>(xi), vgetq_lane_s64::<1>(yi)),
                };
                out[i + k] = if (x as u64) < w && (y as u64) < h {
                    y as u32 * width + x as u32
                } else {
                    MISS
                };
            }
            i += 2;
        }
        for k in i..n {
            out[k] = scalar_transfer_index(phi, canon[k], width, height);
        }
    }

    /// NEON is part of the `aarch64` baseline, so the portable collapse
    /// body already compiles to NEON lanes.
    pub(super) fn collapse(scores: &[u16], slab_len: usize, out: &mut PlaneCollapse) {
        assert_neon();
        plane_collapse_body(
            scores,
            slab_len,
            &mut out.best,
            &mut out.plane,
            &mut out.sum,
        );
    }

    pub(super) fn plane_mac(scale: i32, offset: i32, cs: &[i16], out: &mut Vec<i64>) {
        assert_neon();
        unsafe { plane_mac_neon(scale, offset, cs, out) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn plane_mac_neon(scale: i32, offset: i32, cs: &[i16], out: &mut Vec<i64>) {
        let scale2 = vdup_n_s32(scale);
        let voff = vdupq_n_s64((offset as i64) << 7);
        let mut iter = cs.chunks_exact(2);
        for two in &mut iter {
            let c = [two[0] as i32, two[1] as i32];
            let acc = vaddq_s64(vmull_s32(vld1_s32(c.as_ptr()), scale2), voff);
            out.push(vgetq_lane_s64::<0>(acc));
            out.push(vgetq_lane_s64::<1>(acc));
        }
        for &c in iter.remainder() {
            out.push(super::super::plane_mac(scale, offset, c));
        }
    }

    pub(super) fn mat_vec(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<[i64; 3]>) {
        assert_neon();
        swar::mat_vec(h, coords, out);
    }

    pub(super) fn project(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
        assert_neon();
        swar::project(h, coords, out);
    }

    pub(super) fn nearest_voxel(
        acc_x: &[i64],
        acc_y: &[i64],
        width: u32,
        height: u32,
        out: &mut Vec<PlaneCoord>,
    ) {
        assert_neon();
        swar::nearest_voxel(acc_x, acc_y, width, height, out);
    }
}

/// Unsupported architectures: dispatch never selects the SIMD tier here
/// ([`Dispatch::is_supported`] is `false`), so these bodies are
/// unreachable behind the `assert_supported` guard.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod simd {
    use super::*;

    pub(super) fn transfer(_: &PhiWords, _: &[PackedCoord], _: u32, _: u32, _: &mut [u32]) {
        unreachable!("SIMD tier is unsupported on this architecture");
    }

    pub(super) fn plane_mac(_: i32, _: i32, _: &[i16], _: &mut Vec<i64>) {
        unreachable!("SIMD tier is unsupported on this architecture");
    }

    pub(super) fn collapse(_: &[u16], _: usize, _: &mut PlaneCollapse) {
        unreachable!("SIMD tier is unsupported on this architecture");
    }

    pub(super) fn mat_vec(_: &[i32; 9], _: &[PackedCoord], _: &mut Vec<[i64; 3]>) {
        unreachable!("SIMD tier is unsupported on this architecture");
    }

    pub(super) fn project(_: &[i32; 9], _: &[PackedCoord], _: &mut Vec<PackedCoord>) {
        unreachable!("SIMD tier is unsupported on this architecture");
    }

    pub(super) fn nearest_voxel(_: &[i64], _: &[i64], _: u32, _: u32, _: &mut Vec<PlaneCoord>) {
        unreachable!("SIMD tier is unsupported on this architecture");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::Q9p7;

    fn supported_tiers() -> Vec<Dispatch> {
        Dispatch::ALL
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    fn coords(raws: &[(i16, i16)]) -> Vec<PackedCoord> {
        raws.iter()
            .map(|&(x, y)| PackedCoord {
                x: Q9p7::from_raw(x),
                y: Q9p7::from_raw(y),
            })
            .collect()
    }

    #[test]
    fn tier_names_and_parse_round_trip() {
        assert_eq!(Dispatch::from_name("scalar"), Ok(Dispatch::Scalar));
        assert_eq!(Dispatch::from_name("swar"), Ok(Dispatch::Swar));
        assert_eq!(Dispatch::from_name("simd"), Ok(Dispatch::Simd));
        assert_eq!(Dispatch::Scalar.name(), "scalar");
        assert_eq!(Dispatch::Swar.name(), "swar");
        assert!(matches!(
            Dispatch::from_name("avx512"),
            Err(DispatchError::UnknownTier { .. })
        ));
        let err = Dispatch::from_name("AVX2").unwrap_err();
        assert!(err.to_string().contains("AVX2"), "{err}");
    }

    #[test]
    fn detection_fallback_is_architecture_aware() {
        // Branches on the *runtime* host: with SIMD the fast tier wins; on
        // an x86-64 host without AVX2 the fallback must be the scalar loop
        // (SWAR measures ~2× slower there, docs/BENCHMARKS.md), and only
        // non-x86 hosts without SIMD keep SWAR.
        let tier = detected();
        if simd_supported() {
            assert_eq!(tier, Dispatch::Simd);
        } else if cfg!(target_arch = "x86_64") {
            assert_eq!(
                tier,
                Dispatch::Scalar,
                "x86-64 without AVX2 must not auto-select the slower SWAR tier"
            );
        } else {
            assert_eq!(tier, Dispatch::Swar);
        }
        assert!(tier.is_supported(), "detection picked an unsupported tier");
    }

    #[test]
    fn force_round_trips_and_rejects_unsupported() {
        // One test owns the process-global override: run the scenarios
        // serially and always restore the default.
        for tier in supported_tiers() {
            force(Some(tier)).expect("supported tier");
            assert_eq!(try_active(), Ok(tier));
            assert_eq!(active(), tier);
        }
        if !Dispatch::Simd.is_supported() {
            assert_eq!(
                force(Some(Dispatch::Simd)),
                Err(DispatchError::Unsupported {
                    tier: Dispatch::Simd
                })
            );
        }
        force(None).expect("restore default");
        assert!(try_active().is_ok());
    }

    #[test]
    fn every_tier_matches_scalar_on_directed_cases() {
        // Exact ties (±half), judgement edges, saturated words, remainders
        // of every length 0..=9 against 4-lane AVX2 / 2-lane SWAR packing.
        let phi_cases = [
            PhiWords::from_f64(1.0, 0.0, 0.0),
            PhiWords::from_f64(0.8371, -3.25, 17.0625),
            PhiWords::from_f64(-1.5, 239.5, -0.5),
            PhiWords {
                scale: i32::MIN,
                offset_x: i32::MAX,
                offset_y: i32::MIN,
            },
        ];
        let pool = coords(&[
            (0, 0),
            (64, -64),
            (i16::MAX, i16::MIN),
            (i16::MIN, i16::MAX),
            (-64, 64),
            (12345, -12345),
            (1, -1),
            (255, 128),
            (-32000, 31999),
        ]);
        let h = {
            let one = crate::formats::Q11p21::one().raw();
            [one, 0, 0, 0, one, 0, 0, 0, one]
        };
        for tier in supported_tiers() {
            for phi in &phi_cases {
                for n in 0..=pool.len() {
                    let batch = &pool[..n];
                    let mut idx = Vec::new();
                    transfer_nearest_batch_with(tier, phi, batch, 240, 180, &mut idx);
                    let expect: Vec<u32> = batch
                        .iter()
                        .map(|&c| scalar_transfer_index(phi, c, 240, 180))
                        .collect();
                    assert_eq!(idx, expect, "tier {} n {}", tier.name(), n);

                    let mut got = Vec::new();
                    project_z0_batch_with(tier, &h, batch, &mut got);
                    let expect: Vec<PackedCoord> = batch
                        .iter()
                        .filter_map(|&c| super::super::project_z0(&h, c))
                        .collect();
                    assert_eq!(got, expect, "tier {} n {}", tier.name(), n);
                }
            }
        }
    }

    /// The per-pixel definition of the plane collapse: strict `>` keeps
    /// the first plane of a tie.
    fn collapse_reference(scores: &[u16], slab_len: usize) -> PlaneCollapse {
        let mut out = PlaneCollapse::default();
        for px in 0..slab_len {
            let (mut best, mut plane, mut sum) = (scores[px], 0u16, 0u32);
            for (p, slab) in scores.chunks_exact(slab_len).enumerate() {
                if slab[px] > best {
                    best = slab[px];
                    plane = p as u16;
                }
                sum += slab[px] as u32;
            }
            out.best.push(best);
            out.plane.push(plane);
            out.sum.push(sum);
        }
        out
    }

    #[test]
    fn every_tier_collapses_planes_like_the_per_pixel_loop() {
        // Slab lengths around the chunk size and the lane widths, ties
        // across planes, saturated scores and all-zero pixels; small enough
        // for Miri to interpret.
        for (slab_len, planes) in [(1, 1), (1, 7), (3, 5), (17, 3), (255, 2), (257, 4)] {
            let scores: Vec<u16> = (0..slab_len * planes)
                .map(|i| match (i * 7919) % 11 {
                    0 => u16::MAX,
                    1 | 2 => 0,
                    k => (k as u16 % 4) * 100,
                })
                .collect();
            let expect = collapse_reference(&scores, slab_len);
            for tier in supported_tiers() {
                // A stale, wrongly sized output must be fully overwritten.
                let mut got = PlaneCollapse {
                    best: vec![9; 3],
                    plane: vec![9; 3],
                    sum: vec![9; 3],
                };
                plane_collapse_batch_with(tier, &scores, slab_len, &mut got);
                assert_eq!(got, expect, "tier {} {slab_len}x{planes}", tier.name());
            }
        }
    }

    #[test]
    fn plane_collapse_sum_is_exact_at_the_plane_bound() {
        // COLLAPSE_MAX_PLANES saturated planes: the largest sum the u32
        // accumulator must hold, and the last plane index a u16 carries.
        let scores = vec![u16::MAX; COLLAPSE_MAX_PLANES];
        let mut got = PlaneCollapse::default();
        plane_collapse_batch_with(Dispatch::Scalar, &scores, 1, &mut got);
        assert_eq!(got.sum, [COLLAPSE_MAX_PLANES as u32 * u16::MAX as u32]);
        assert_eq!((got.best[0], got.plane[0]), (u16::MAX, 0));
        let mut rising: Vec<u16> = vec![0; COLLAPSE_MAX_PLANES];
        rising[COLLAPSE_MAX_PLANES - 1] = 1;
        plane_collapse_batch_with(Dispatch::Scalar, &rising, 1, &mut got);
        assert_eq!(got.plane, [u16::MAX]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn plane_collapse_rejects_more_planes_than_a_u16_index_holds() {
        let scores = vec![0u16; COLLAPSE_MAX_PLANES + 1];
        plane_collapse_batch_with(Dispatch::Scalar, &scores, 1, &mut PlaneCollapse::default());
    }

    #[test]
    fn branchless_rounding_hits_the_negative_tie() {
        // The one input family where add-half-and-shift would go wrong.
        for acc in [-ACC_HALF, ACC_HALF, ACC_HALF - 1, -(ACC_HALF - 1), 0, 1, -1] {
            assert_eq!(round_acc_branchless(acc), super::super::round_acc(acc));
        }
    }

    #[test]
    fn miss_sentinel_is_distinct_from_every_slab_index() {
        // width · height ≤ u32::MAX ⇒ max index width·height - 1 < MISS.
        let max_idx = u32::MAX as u64 - 1;
        assert!(max_idx < MISS as u64);
        // The bound is tight: one more row would collide with the sentinel.
        assert_eq!((1u64 << 16) * (1 << 16) - 1, MISS as u64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::formats::{Q11p21, Q9p7};
    use proptest::prelude::*;

    fn supported_tiers() -> Vec<Dispatch> {
        Dispatch::ALL
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    fn coords_from_raw(raws: &[(i32, i32)]) -> Vec<PackedCoord> {
        raws.iter()
            .map(|&(x, y)| PackedCoord {
                x: Q9p7::from_raw(x as i16),
                y: Q9p7::from_raw(y as i16),
            })
            .collect()
    }

    /// Full raw range of a Q9.7 word (the shim has no `any::<i16>()`).
    const RAW16: std::ops::Range<i32> = i16::MIN as i32..i16::MAX as i32 + 1;

    proptest! {
        /// Batched transfer is byte-identical to the scalar kernel on every
        /// supported tier, for arbitrary raw words, arbitrary batch sizes
        /// (0, 1, lane remainders) and arbitrary sensor judgement bounds.
        #[test]
        fn transfer_batch_is_bit_identical_on_every_tier(
            scale in i32::MIN..i32::MAX,
            offset_x in i32::MIN..i32::MAX,
            offset_y in i32::MIN..i32::MAX,
            raws in collection::vec((RAW16, RAW16), 0..19),
            width in 1u32..512,
            height in 1u32..512,
        ) {
            let phi = PhiWords { scale, offset_x, offset_y };
            let canon = coords_from_raw(&raws);
            let expect: Vec<u32> = canon
                .iter()
                .map(|&c| scalar_transfer_index(&phi, c, width, height))
                .collect();
            let mut idx = Vec::new();
            for tier in supported_tiers() {
                transfer_nearest_batch_with(tier, &phi, &canon, width, height, &mut idx);
                prop_assert_eq!(&idx, &expect, "tier {}", tier.name());
            }
        }

        /// Batched projection keeps exactly the scalar kernel's survivors,
        /// in order, with byte-identical Q9.7 words, on every tier.
        #[test]
        fn project_batch_is_bit_identical_on_every_tier(
            h_vec in collection::vec(i32::MIN..i32::MAX, 9..10),
            raws in collection::vec((RAW16, RAW16), 0..19),
        ) {
            let h: [i32; 9] = h_vec.try_into().expect("nine entries");
            let coords = coords_from_raw(&raws);
            let expect: Vec<PackedCoord> = coords
                .iter()
                .filter_map(|&c| super::super::project_z0(&h, c))
                .collect();
            let mut got = Vec::new();
            for tier in supported_tiers() {
                project_z0_batch_with(tier, &h, &coords, &mut got);
                prop_assert_eq!(&got, &expect, "tier {}", tier.name());
            }
        }

        /// Batched matrix MAC reproduces the scalar wide accumulators
        /// exactly — the SWAR bias algebra and the AVX2 lane products are
        /// the same integers.
        #[test]
        fn mat_vec_batch_is_bit_identical_on_every_tier(
            h_vec in collection::vec(i32::MIN..i32::MAX, 9..10),
            raws in collection::vec((RAW16, RAW16), 0..19),
        ) {
            let h: [i32; 9] = h_vec.try_into().expect("nine entries");
            let coords = coords_from_raw(&raws);
            let expect: Vec<[i64; 3]> = coords
                .iter()
                .map(|&c| super::super::mat_vec_mac(&h, c))
                .collect();
            let mut got = Vec::new();
            for tier in supported_tiers() {
                mat_vec_mac_batch_with(tier, &h, &coords, &mut got);
                prop_assert_eq!(&got, &expect, "tier {}", tier.name());
            }
        }

        /// Batched plane MAC over raw Q9.7 words is exact on every tier,
        /// including the odd-length SWAR remainder.
        #[test]
        fn plane_mac_batch_is_bit_identical_on_every_tier(
            scale in i32::MIN..i32::MAX,
            offset in i32::MIN..i32::MAX,
            cs_raw in collection::vec(RAW16, 0..19),
        ) {
            let cs: Vec<i16> = cs_raw.iter().map(|&c| c as i16).collect();
            let expect: Vec<i64> = cs
                .iter()
                .map(|&c| super::super::plane_mac(scale, offset, c))
                .collect();
            let mut got = Vec::new();
            for tier in supported_tiers() {
                plane_mac_batch_with(tier, scale, offset, &cs, &mut got);
                prop_assert_eq!(&got, &expect, "tier {}", tier.name());
            }
        }

        /// Batched voxel finding reproduces the scalar rounding and
        /// judgement — including exact half ties on both signs — on every
        /// tier.
        #[test]
        fn nearest_voxel_batch_is_bit_identical_on_every_tier(
            accs in collection::vec(
                (-(1i64 << 47)..(1i64 << 47), -(1i64 << 47)..(1i64 << 47)),
                0..19,
            ),
            tie_lane in 0usize..19,
            width in 1u32..257,
            height in 1u32..257,
        ) {
            let mut acc_x: Vec<i64> = accs.iter().map(|&(x, _)| x).collect();
            let acc_y: Vec<i64> = accs.iter().map(|&(_, y)| y).collect();
            // Plant an exact negative tie somewhere: the case where a
            // round-half-up implementation would diverge.
            if !acc_x.is_empty() {
                let k = tie_lane % acc_x.len();
                acc_x[k] = -ACC_HALF;
            }
            let expect: Vec<PlaneCoord> = acc_x
                .iter()
                .zip(&acc_y)
                .map(|(&ax, &ay)| super::super::nearest_voxel(ax, ay, width, height))
                .collect();
            let mut got = Vec::new();
            for tier in supported_tiers() {
                nearest_voxel_batch_with(tier, &acc_x, &acc_y, width, height, &mut got);
                prop_assert_eq!(&got, &expect, "tier {}", tier.name());
            }
        }

        /// The projection proptest domain of the scalar kernel, replayed
        /// against the batched path under the session's default tier: the
        /// public wrappers are covered too, not only the `_with` variants.
        #[test]
        fn default_dispatch_projection_agrees_with_scalar(
            h_vec in collection::vec(-(1i32 << 24)..(1i32 << 24), 9..10),
            raws in collection::vec((RAW16, RAW16), 0..9),
        ) {
            let h: [i32; 9] = h_vec.try_into().expect("nine entries");
            let coords = coords_from_raw(&raws);
            let expect: Vec<PackedCoord> = coords
                .iter()
                .filter_map(|&c| super::super::project_z0(&h, c))
                .collect();
            let mut got = Vec::new();
            project_z0_batch(&h, &coords, &mut got);
            prop_assert_eq!(got, expect);
            let _ = Q11p21::one();
        }
    }
}
