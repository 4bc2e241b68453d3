//! Physical units used throughout the PES reproduction.
//!
//! All simulation time is kept in integer microseconds ([`TimeUs`]) to avoid
//! floating-point drift in the discrete-event simulator; energy and power use
//! `f64` because they are accumulated quantities that are only reported, never
//! compared for exact equality.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in time or a duration, in integer microseconds.
///
/// The simulator treats both instants and durations as `TimeUs`; the meaning
/// is clear from context (the paper's timelines all start at zero).
///
/// # Examples
///
/// ```
/// use pes_acmp::units::TimeUs;
///
/// let vsync = TimeUs::from_millis(16) + TimeUs::from_micros(667);
/// assert_eq!(vsync.as_micros(), 16_667);
/// assert!(vsync < TimeUs::from_millis(17));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeUs(u64);

impl TimeUs {
    /// The zero instant / empty duration.
    pub const ZERO: TimeUs = TimeUs(0);

    /// Creates a time value from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        TimeUs(us)
    }

    /// Creates a time value from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        TimeUs(ms * 1_000)
    }

    /// Creates a time value from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeUs(s * 1_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        TimeUs((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Returns the raw number of microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the value as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the value as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Subtraction that clamps at zero instead of underflowing.
    pub fn saturating_sub(self, rhs: TimeUs) -> TimeUs {
        TimeUs(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub fn checked_sub(self, rhs: TimeUs) -> Option<TimeUs> {
        self.0.checked_sub(rhs.0).map(TimeUs)
    }

    /// Returns the larger of `self` and `other`.
    pub fn max(self, other: TimeUs) -> TimeUs {
        TimeUs(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    pub fn min(self, other: TimeUs) -> TimeUs {
        TimeUs(self.0.min(other.0))
    }

    /// Returns `true` when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative floating point scale factor,
    /// rounding to the nearest microsecond.
    pub fn scale(self, factor: f64) -> TimeUs {
        TimeUs((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl fmt::Display for TimeUs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Add for TimeUs {
    type Output = TimeUs;
    fn add(self, rhs: TimeUs) -> TimeUs {
        TimeUs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeUs {
    fn add_assign(&mut self, rhs: TimeUs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeUs {
    type Output = TimeUs;
    fn sub(self, rhs: TimeUs) -> TimeUs {
        TimeUs(self.0 - rhs.0)
    }
}

impl SubAssign for TimeUs {
    fn sub_assign(&mut self, rhs: TimeUs) {
        self.0 -= rhs.0;
    }
}

impl Sum for TimeUs {
    fn sum<I: Iterator<Item = TimeUs>>(iter: I) -> TimeUs {
        iter.fold(TimeUs::ZERO, |acc, t| acc + t)
    }
}

/// CPU work expressed as a cycle count (the `Ndep` term of the DVFS model).
///
/// # Examples
///
/// ```
/// use pes_acmp::units::{CpuCycles, FreqMhz};
///
/// let work = CpuCycles::new(1_800_000);
/// // 1.8M cycles at 1800 MHz take exactly 1 ms.
/// assert_eq!(work.time_at(FreqMhz::new(1800)).as_micros(), 1_000);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuCycles(u64);

impl CpuCycles {
    /// Zero cycles of work.
    pub const ZERO: CpuCycles = CpuCycles(0);

    /// Creates a cycle count.
    pub const fn new(cycles: u64) -> Self {
        CpuCycles(cycles)
    }

    /// Returns the raw cycle count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Time needed to retire these cycles at frequency `f`.
    pub fn time_at(self, f: FreqMhz) -> TimeUs {
        // cycles / (MHz) = microseconds, exactly.
        TimeUs::from_micros((self.0 as f64 / f.as_mhz() as f64).round() as u64)
    }

    /// Scales the cycle count by a non-negative factor (used to translate a
    /// big-core cycle count into a little-core cycle count through the CPI
    /// ratio).
    pub fn scale(self, factor: f64) -> CpuCycles {
        CpuCycles((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl Add for CpuCycles {
    type Output = CpuCycles;
    fn add(self, rhs: CpuCycles) -> CpuCycles {
        CpuCycles(self.0 + rhs.0)
    }
}

impl AddAssign for CpuCycles {
    fn add_assign(&mut self, rhs: CpuCycles) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for CpuCycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A CPU clock frequency in megahertz.
///
/// # Examples
///
/// ```
/// use pes_acmp::units::FreqMhz;
///
/// let f = FreqMhz::new(1800);
/// assert!(f > FreqMhz::new(600));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FreqMhz(u32);

impl FreqMhz {
    /// Creates a frequency from a MHz value.
    pub const fn new(mhz: u32) -> Self {
        FreqMhz(mhz)
    }

    /// Returns the frequency in MHz.
    pub const fn as_mhz(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FreqMhz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

/// Electrical power in milliwatts.
///
/// # Examples
///
/// ```
/// use pes_acmp::units::{PowerMw, TimeUs};
///
/// let p = PowerMw::new(1000.0);
/// let e = p.energy_over(TimeUs::from_millis(2));
/// assert!((e.as_millijoules() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct PowerMw(f64);

impl PowerMw {
    /// Zero power.
    pub const ZERO: PowerMw = PowerMw(0.0);

    /// Creates a power value, clamping negative inputs to zero.
    pub fn new(mw: f64) -> Self {
        PowerMw(mw.max(0.0))
    }

    /// Returns the value in milliwatts.
    pub const fn as_milliwatts(self) -> f64 {
        self.0
    }

    /// Energy dissipated by this power level over `duration`.
    pub fn energy_over(self, duration: TimeUs) -> EnergyUj {
        // mW * us = nJ; divide by 1000 for microjoules.
        EnergyUj::new(self.0 * duration.as_micros() as f64 / 1_000.0)
    }
}

impl Add for PowerMw {
    type Output = PowerMw;
    fn add(self, rhs: PowerMw) -> PowerMw {
        PowerMw(self.0 + rhs.0)
    }
}

impl Mul<f64> for PowerMw {
    type Output = PowerMw;
    fn mul(self, rhs: f64) -> PowerMw {
        PowerMw::new(self.0 * rhs)
    }
}

impl fmt::Display for PowerMw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mW", self.0)
    }
}

/// Energy in microjoules.
///
/// # Examples
///
/// ```
/// use pes_acmp::units::EnergyUj;
///
/// let a = EnergyUj::new(1_500.0);
/// let b = EnergyUj::new(500.0);
/// assert!(((a + b).as_millijoules() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct EnergyUj(f64);

impl EnergyUj {
    /// Zero energy.
    pub const ZERO: EnergyUj = EnergyUj(0.0);

    /// Creates an energy value, clamping negative inputs to zero.
    pub fn new(uj: f64) -> Self {
        EnergyUj(uj.max(0.0))
    }

    /// Returns the value in microjoules.
    pub const fn as_microjoules(self) -> f64 {
        self.0
    }

    /// Returns the value in millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl Add for EnergyUj {
    type Output = EnergyUj;
    fn add(self, rhs: EnergyUj) -> EnergyUj {
        EnergyUj(self.0 + rhs.0)
    }
}

impl AddAssign for EnergyUj {
    fn add_assign(&mut self, rhs: EnergyUj) {
        self.0 += rhs.0;
    }
}

impl Sub for EnergyUj {
    type Output = EnergyUj;
    fn sub(self, rhs: EnergyUj) -> EnergyUj {
        EnergyUj((self.0 - rhs.0).max(0.0))
    }
}

impl Div for EnergyUj {
    type Output = f64;
    fn div(self, rhs: EnergyUj) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for EnergyUj {
    fn sum<I: Iterator<Item = EnergyUj>>(iter: I) -> EnergyUj {
        iter.fold(EnergyUj::ZERO, |acc, e| acc + e)
    }
}

impl fmt::Display for EnergyUj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} mJ", self.as_millijoules())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_are_consistent() {
        assert_eq!(TimeUs::from_millis(3), TimeUs::from_micros(3_000));
        assert_eq!(TimeUs::from_secs(2), TimeUs::from_millis(2_000));
        assert_eq!(TimeUs::from_secs_f64(0.5), TimeUs::from_millis(500));
    }

    #[test]
    fn time_negative_float_inputs_saturate_to_zero() {
        assert_eq!(TimeUs::from_secs_f64(-1.0), TimeUs::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let a = TimeUs::from_millis(10);
        let b = TimeUs::from_millis(4);
        assert_eq!((a + b).as_millis_f64(), 14.0);
        assert_eq!((a - b).as_millis_f64(), 6.0);
        assert_eq!(b.saturating_sub(a), TimeUs::ZERO);
        assert_eq!(a.checked_sub(b), Some(TimeUs::from_millis(6)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn time_sum_and_scale() {
        let total: TimeUs = [TimeUs::from_millis(1), TimeUs::from_millis(2)]
            .into_iter()
            .sum();
        assert_eq!(total, TimeUs::from_millis(3));
        assert_eq!(total.scale(2.0), TimeUs::from_millis(6));
        assert_eq!(total.scale(-1.0), TimeUs::ZERO);
    }

    #[test]
    fn time_display_picks_sensible_unit() {
        assert_eq!(TimeUs::from_micros(12).to_string(), "12us");
        assert_eq!(TimeUs::from_millis(12).to_string(), "12.000ms");
        assert_eq!(TimeUs::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn cycles_time_at_frequency() {
        let c = CpuCycles::new(600_000);
        assert_eq!(c.time_at(FreqMhz::new(600)).as_micros(), 1_000);
        assert_eq!(c.time_at(FreqMhz::new(1200)).as_micros(), 500);
    }

    #[test]
    fn cycles_scale_rounds() {
        let c = CpuCycles::new(100);
        assert_eq!(c.scale(1.25).get(), 125);
        assert_eq!(c.scale(0.0).get(), 0);
        assert_eq!(c.scale(-2.0).get(), 0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let p = PowerMw::new(500.0);
        let e = p.energy_over(TimeUs::from_millis(10));
        assert!((e.as_millijoules() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn power_negative_clamped() {
        assert_eq!(PowerMw::new(-5.0).as_milliwatts(), 0.0);
    }

    #[test]
    fn energy_accumulates() {
        let mut e = EnergyUj::ZERO;
        e += EnergyUj::new(250.0);
        e += EnergyUj::new(750.0);
        assert!((e.as_millijoules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_ratio_and_subtraction() {
        let a = EnergyUj::new(100.0);
        let b = EnergyUj::new(50.0);
        assert!((a / b - 2.0).abs() < 1e-12);
        assert_eq!((b - a).as_microjoules(), 0.0);
    }

    #[test]
    fn frequency_conversions() {
        let f = FreqMhz::new(1500);
        assert_eq!(f.to_string(), "1500 MHz");
    }
}
