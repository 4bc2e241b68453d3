//! Power modelling for ACMP configurations.
//!
//! The paper builds its power model as a measured look-up table over the
//! discrete `<core, frequency>` configurations and persists it to a local
//! file that the runtime loads at application boot (Sec. 5.3). Without the
//! ODROID board and the DAQ unit we derive the table analytically from a
//! standard `P = P_static + C · V² · f` model with per-core-kind capacitance
//! and a voltage/frequency curve calibrated to published Cortex-A15/A7 power
//! envelopes, and then treat the resulting table exactly as the paper does: a
//! frozen per-configuration look-up, which [`crate::DvfsLadder`] builds once
//! per platform.

use crate::units::{FreqMhz, PowerMw};

/// Analytical parameters from which a per-configuration power value is
/// derived. One set of parameters exists per [`crate::CoreKind`].
///
/// # Examples
///
/// ```
/// use pes_acmp::power::CorePowerParams;
/// use pes_acmp::units::FreqMhz;
///
/// let p = CorePowerParams::cortex_a15();
/// let low = p.active_power(FreqMhz::new(800));
/// let high = p.active_power(FreqMhz::new(1800));
/// assert!(high.as_milliwatts() > low.as_milliwatts());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerParams {
    /// Effective switching capacitance in mW / (MHz · V²).
    pub capacitance: f64,
    /// Static (leakage) power of the core while the cluster is powered, mW.
    pub static_mw: f64,
    /// Supply voltage at the lowest operating frequency, volts.
    pub v_min: f64,
    /// Supply voltage at the highest operating frequency, volts.
    pub v_max: f64,
    /// Lowest operating frequency, MHz (anchor for the voltage curve).
    pub f_min: FreqMhz,
    /// Highest operating frequency, MHz (anchor for the voltage curve).
    pub f_max: FreqMhz,
}

impl CorePowerParams {
    /// Parameters for the out-of-order Cortex-A15. Calibrated so that a
    /// single core draws roughly 0.4 W at 800 MHz and 1.7 W at 1.8 GHz,
    /// consistent with published Exynos 5410 characterisations.
    pub fn cortex_a15() -> Self {
        CorePowerParams {
            capacitance: 0.00055,
            static_mw: 60.0,
            v_min: 0.92,
            v_max: 1.25,
            f_min: FreqMhz::new(800),
            f_max: FreqMhz::new(1800),
        }
    }

    /// Parameters for the in-order Cortex-A7: roughly 50 mW at 350 MHz and
    /// 110 mW at 600 MHz. The resulting energy-per-work advantage over the
    /// A15 (about 2–3×) matches published big.LITTLE characterisations and is
    /// what gives the scheduler a meaningful trade-off space.
    pub fn cortex_a7() -> Self {
        CorePowerParams {
            capacitance: 0.00015,
            static_mw: 10.0,
            v_min: 0.90,
            v_max: 1.05,
            f_min: FreqMhz::new(350),
            f_max: FreqMhz::new(600),
        }
    }

    /// Parameters for the Cortex-A57 cluster of the TX2 Parker SoC used in
    /// the "other devices" study (Sec. 6.5).
    pub fn cortex_a57() -> Self {
        CorePowerParams {
            capacitance: 0.00048,
            static_mw: 55.0,
            v_min: 0.80,
            v_max: 1.10,
            f_min: FreqMhz::new(345),
            f_max: FreqMhz::new(2035),
        }
    }

    /// Parameters for the Denver 2 cluster of the TX2 Parker SoC.
    pub fn denver2() -> Self {
        CorePowerParams {
            capacitance: 0.00052,
            static_mw: 65.0,
            v_min: 0.82,
            v_max: 1.12,
            f_min: FreqMhz::new(345),
            f_max: FreqMhz::new(2035),
        }
    }

    /// Supply voltage at frequency `f`, linearly interpolated between the
    /// `(f_min, v_min)` and `(f_max, v_max)` anchors and clamped outside the
    /// range.
    pub fn voltage_at(&self, f: FreqMhz) -> f64 {
        let f_min = self.f_min.as_mhz() as f64;
        let f_max = self.f_max.as_mhz() as f64;
        if f_max <= f_min {
            return self.v_max;
        }
        let t = ((f.as_mhz() as f64 - f_min) / (f_max - f_min)).clamp(0.0, 1.0);
        self.v_min + t * (self.v_max - self.v_min)
    }

    /// Active (busy) power of one core running at frequency `f`:
    /// `P = P_static + C · V(f)² · f`.
    pub fn active_power(&self, f: FreqMhz) -> PowerMw {
        let v = self.voltage_at(f);
        PowerMw::new(self.static_mw + self.capacitance * v * v * f.as_mhz() as f64 * 1_000.0)
    }

    /// Idle power of one core clocked at frequency `f` but not executing
    /// work. The paper keeps cores on because inter-event slack is tiny
    /// (Sec. 4.1); in the WFI idle state only a fraction of the leakage plus
    /// a small clock-tree component remains.
    pub fn idle_power(&self, f: FreqMhz) -> PowerMw {
        let v = self.voltage_at(f);
        PowerMw::new(
            0.25 * self.static_mw + 0.02 * self.capacitance * v * v * f.as_mhz() as f64 * 1_000.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_monotonic_in_frequency() {
        for params in [
            CorePowerParams::cortex_a15(),
            CorePowerParams::cortex_a7(),
            CorePowerParams::cortex_a57(),
        ] {
            let mut prev = 0.0;
            for mhz in (params.f_min.as_mhz()..=params.f_max.as_mhz()).step_by(50) {
                let p = params.active_power(FreqMhz::new(mhz)).as_milliwatts();
                assert!(p > prev, "power must strictly increase with frequency");
                prev = p;
            }
        }
    }

    #[test]
    fn big_core_draws_more_than_little_core() {
        let a15 = CorePowerParams::cortex_a15();
        let a7 = CorePowerParams::cortex_a7();
        // Compare at the respective maximum frequencies.
        assert!(
            a15.active_power(a15.f_max).as_milliwatts()
                > 4.0 * a7.active_power(a7.f_max).as_milliwatts(),
            "an A15 at peak should dwarf an A7 at peak"
        );
    }

    #[test]
    fn a15_calibration_is_in_published_ballpark() {
        let a15 = CorePowerParams::cortex_a15();
        let at_800 = a15.active_power(FreqMhz::new(800)).as_milliwatts();
        let at_1800 = a15.active_power(FreqMhz::new(1800)).as_milliwatts();
        assert!((300.0..650.0).contains(&at_800), "800MHz power {at_800}");
        assert!(
            (1_300.0..2_300.0).contains(&at_1800),
            "1.8GHz power {at_1800}"
        );
    }

    #[test]
    fn a7_calibration_is_in_published_ballpark() {
        let a7 = CorePowerParams::cortex_a7();
        let at_350 = a7.active_power(FreqMhz::new(350)).as_milliwatts();
        let at_600 = a7.active_power(FreqMhz::new(600)).as_milliwatts();
        assert!((40.0..130.0).contains(&at_350), "350MHz power {at_350}");
        assert!((90.0..250.0).contains(&at_600), "600MHz power {at_600}");
    }

    #[test]
    fn idle_power_is_below_active_power() {
        for params in [
            CorePowerParams::cortex_a15(),
            CorePowerParams::cortex_a7(),
            CorePowerParams::cortex_a57(),
            CorePowerParams::denver2(),
        ] {
            for mhz in [params.f_min.as_mhz(), params.f_max.as_mhz()] {
                let f = FreqMhz::new(mhz);
                assert!(
                    params.idle_power(f).as_milliwatts() < params.active_power(f).as_milliwatts()
                );
            }
        }
    }

    #[test]
    fn voltage_interpolation_clamps() {
        let a15 = CorePowerParams::cortex_a15();
        assert_eq!(a15.voltage_at(FreqMhz::new(100)), a15.v_min);
        assert_eq!(a15.voltage_at(FreqMhz::new(5000)), a15.v_max);
        let mid = a15.voltage_at(FreqMhz::new(1300));
        assert!(mid > a15.v_min && mid < a15.v_max);
    }
}
