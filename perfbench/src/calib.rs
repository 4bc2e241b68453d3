//! Host-speed calibration. On a shared host the speed of this code moves
//! by up to 1.6x within seconds, as neighbours come and go. A fixed,
//! branchy, cache-resident kernel owned by the benchmark (sorting the same
//! 4,096 keys) moves with it, so every timing the end-to-end metrics use is
//! taken together with calibration samples and scaled to the speed at
//! which one sample takes [`REFERENCE_SAMPLE_US`]. The program under test
//! never runs inside a sample, so a change to it cannot move the reference.
//! See `README.md`, "Timing on a noisy host".

use std::time::Instant;

use pes_core::splitmix;

use crate::median;

/// Keys sorted per sample.
const KEYS: usize = 4096;

/// Timed units between two samples, where the units are timed one by one.
pub const UNITS_PER_SAMPLE: usize = 32;

/// Samples taken just before and just after a stretch timed as a whole.
pub const SAMPLES_AROUND: usize = 8;

/// Samples on each side of a block of units whose median scales the block.
const WINDOW: usize = 4;

/// One sample's time at the reference host speed, in microseconds: about
/// its median on a 2-vCPU Intel Xeon (Sapphire Rapids) container.
pub const REFERENCE_SAMPLE_US: f64 = 60.0;

/// The calibration kernel and the samples taken so far.
pub struct Calibration {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    samples_us: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            keys: (0..KEYS as u64).map(splitmix).collect(),
            scratch: Vec::with_capacity(KEYS),
            samples_us: Vec::new(),
        }
    }
}

impl Calibration {
    /// Times `n` samples: each copies the keys and sorts them.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.keys);
            self.scratch.sort_unstable();
            std::hint::black_box(&self.scratch);
            self.samples_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// The factor that scales host time taken alongside the samples since
    /// the last call to reference time, and forgets those samples.
    pub fn take_factor(&mut self) -> f64 {
        let factor = REFERENCE_SAMPLE_US / median(&self.samples_us);
        self.samples_us.clear();
        factor
    }

    /// Scales unit times taken one by one, with a sample after every
    /// [`UNITS_PER_SAMPLE`] units, to reference time: each block of
    /// `UNITS_PER_SAMPLE` units by the median of the samples within
    /// [`WINDOW`] of it, so that a change of host speed within the stretch
    /// is followed. Forgets the samples and returns the median factor.
    pub fn scale_units(&mut self, unit_us: &mut [f64]) -> f64 {
        let n = self.samples_us.len();
        assert!(n > 0, "scale_units needs at least one sample");
        let mut factors = Vec::with_capacity(n);
        for (b, block) in unit_us.chunks_mut(UNITS_PER_SAMPLE).enumerate() {
            let b = b.min(n - 1);
            let window = &self.samples_us[b.saturating_sub(WINDOW)..(b + WINDOW + 1).min(n)];
            let factor = REFERENCE_SAMPLE_US / median(window);
            block.iter_mut().for_each(|us| *us *= factor);
            factors.push(factor);
        }
        self.samples_us.clear();
        median(&factors)
    }
}
