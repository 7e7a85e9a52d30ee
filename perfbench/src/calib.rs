//! Host-speed calibration for the end-to-end metrics.
//!
//! The measuring host changes speed under the benchmark by up to 1.6x for
//! minutes at a time, in step for every memory-bound workload, while a
//! latency-bound ALU loop barely moves: the host's shared caches and
//! memory are contended, not its clock. The calibration kernel is a
//! fixed, program-independent miniature of the benchmark's own memory
//! pattern (random saturating `u16` increments into a DSI-sized volume),
//! timed right after every pass. Each pass's times are scaled by
//! [`REFERENCE_S`] over the mean of the kernel's times just before and
//! after the pass, so a host that runs the kernel slower is credited in
//! proportion. A change to the program moves the scaled figures as much
//! as the raw ones, because the kernel does not run any program code.

use std::time::Instant;

/// Kernel time the scaled figures are expressed against: the kernel's
/// time on an uncontended 2-vCPU Xeon VM.
pub const REFERENCE_S: f64 = 1.25e-3;
/// Volume size: a 240 x 180 sensor times 48 depth planes (≈4 MB, the
/// size of a DSI).
const VOXELS: usize = 240 * 180 * 48;
/// Increments per kernel run.
const VOTES: usize = 150_000;
/// Untimed runs that fault the volume in before the first sample.
const WARMUP: usize = 8;
/// Runs whose median [`Calibration::settled`] reports.
const SETTLED: usize = 5;

pub struct Calibration {
    volume: Vec<u16>,
    state: u32,
}

impl Calibration {
    pub fn new() -> Self {
        let mut c = Self {
            volume: vec![0; VOXELS],
            state: 0x2545_f491,
        };
        for _ in 0..WARMUP {
            c.sample();
        }
        c
    }

    /// Seconds one run of the kernel takes now. An untimed run goes
    /// first, so the timed one finds as much of the volume in cache as the
    /// host lets it keep, whatever the pass before it evicted.
    pub fn sample(&mut self) -> f64 {
        self.run();
        let t = Instant::now();
        self.run();
        t.elapsed().as_secs_f64()
    }

    fn run(&mut self) {
        let mut x = self.state;
        for _ in 0..VOTES {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let v = &mut self.volume[(x >> 8) as usize % VOXELS];
            *v = v.saturating_add(1);
        }
        self.state = x;
        std::hint::black_box(&self.volume);
    }

    /// The median of a few kernel times, for spans (set-ups) long next to
    /// one kernel run.
    pub fn settled(&mut self) -> f64 {
        let samples: Vec<f64> = (0..SETTLED).map(|_| self.sample()).collect();
        crate::stats::median(&samples).expect("SETTLED > 0")
    }

    /// The factor that scales a time measured while the kernel took
    /// `kernel_s` to the reference host: multiply times by it, divide
    /// rates by it.
    pub fn scale(kernel_s: f64) -> f64 {
        REFERENCE_S / kernel_s
    }
}

