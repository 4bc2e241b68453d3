//! Processor energy accounting.
//!
//! Stands in for the ODROID board's current-sense resistors plus the NI DAQ
//! unit of Sec. 3: the simulator reports every busy/idle interval to an
//! [`EnergyMeter`], which integrates power over time, split by activity kind
//! so that the evaluation figures can report both totals and breakdowns
//! (e.g. the misprediction energy overhead of Sec. 6.3).

use std::sync::Arc;

use crate::config::AcmpConfig;
use crate::dvfs::{DvfsLadder, LadderRung};
use crate::platform::Platform;
use crate::units::{EnergyUj, TimeUs};

/// The kind of activity an energy sample is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActivityKind {
    /// Executing an event that was (or will be) committed to the display.
    UsefulWork,
    /// Executing speculative work that was later squashed (misprediction waste).
    SpeculativeWaste,
    /// The processor idling between events.
    Idle,
    /// DVFS / migration transition overhead.
    Transition,
}

impl ActivityKind {
    /// All activity kinds, in reporting order.
    pub const ALL: [ActivityKind; 4] = [
        ActivityKind::UsefulWork,
        ActivityKind::SpeculativeWaste,
        ActivityKind::Idle,
        ActivityKind::Transition,
    ];

    /// A dense index into [`ActivityKind::ALL`], for array-backed
    /// per-activity accounting.
    pub const fn index(self) -> usize {
        match self {
            ActivityKind::UsefulWork => 0,
            ActivityKind::SpeculativeWaste => 1,
            ActivityKind::Idle => 2,
            ActivityKind::Transition => 3,
        }
    }
}

/// An integrating energy meter, equivalent to the paper's 1 kHz DAQ sampling
/// of the big and little CPU rails (Sec. 3).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use pes_acmp::{DvfsLadder, Platform, energy::{ActivityKind, EnergyMeter}};
/// use pes_acmp::units::TimeUs;
///
/// let platform = Platform::exynos_5410();
/// let plane = Arc::new(DvfsLadder::for_platform(&platform));
/// let mut meter = EnergyMeter::with_plane(&platform, plane);
/// let cfg = platform.max_performance_config();
/// meter.record_busy(&cfg, TimeUs::from_millis(10), ActivityKind::UsefulWork);
/// assert!(meter.total().as_millijoules() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    /// The shared DVFS power plane: the per-configuration
    /// `active`/`idle`/`background` powers frozen at ladder-build time.
    /// Every sample reads these instead of re-deriving a power term from
    /// the cluster tables.
    plane: Arc<DvfsLadder>,
    total: EnergyUj,
    /// Per-activity accumulators, indexed by [`ActivityKind::index`].
    /// Flat arrays instead of the original `BTreeMap`s: the replay engine
    /// lands two to four samples per event here, and the map walks were
    /// the single largest slice of the engine floor. The addition order is
    /// unchanged, so every total stays bit-identical to the map-backed
    /// meter.
    by_activity: [EnergyUj; 4],
    /// One-entry memo of the last rung metered: the engine meters long
    /// runs of samples at its current configuration, so the rung scan is
    /// paid once per configuration switch instead of once per sample.
    cached_rung: Option<LadderRung>,
}

impl EnergyMeter {
    /// Creates a meter with all counters at zero that serves
    /// per-configuration powers from a shared DVFS power plane.
    ///
    /// # Panics
    ///
    /// Panics if the plane was built for a different platform.
    pub fn with_plane(platform: &Platform, plane: Arc<DvfsLadder>) -> Self {
        plane.assert_matches(platform);
        EnergyMeter {
            plane,
            total: EnergyUj::ZERO,
            by_activity: [EnergyUj::ZERO; 4],
            cached_rung: None,
        }
    }

    /// The plane rung holding `cfg`, through the one-entry memo.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not on the plane (see [`DvfsLadder::rung`]).
    fn rung(&mut self, cfg: &AcmpConfig) -> LadderRung {
        match self.cached_rung {
            Some(rung) if rung.config == *cfg => rung,
            _ => {
                let rung = *self.plane.rung(cfg);
                self.cached_rung = Some(rung);
                rung
            }
        }
    }

    /// Records a busy interval at configuration `cfg` attributed to
    /// `activity`. The sample includes the idle floor of the other cluster.
    pub fn record_busy(&mut self, cfg: &AcmpConfig, duration: TimeUs, activity: ActivityKind) {
        if duration.is_zero() {
            return;
        }
        let rung = self.rung(cfg);
        self.add(rung.active_power.energy_over(duration), activity);
        self.add(rung.background_power.energy_over(duration), activity);
    }

    /// Records an idle interval while the hardware is parked at `cfg`.
    pub fn record_idle(&mut self, cfg: &AcmpConfig, duration: TimeUs) {
        if duration.is_zero() {
            return;
        }
        let rung = self.rung(cfg);
        self.add(rung.idle_power.energy_over(duration), ActivityKind::Idle);
        self.add(
            rung.background_power.energy_over(duration),
            ActivityKind::Idle,
        );
    }

    /// Records a configuration transition (DVFS switch / migration). The
    /// transition is charged at the destination configuration's active power.
    pub fn record_transition(&mut self, to: &AcmpConfig, duration: TimeUs) {
        if duration.is_zero() {
            return;
        }
        let e = self.rung(to).active_power.energy_over(duration);
        self.add(e, ActivityKind::Transition);
    }

    /// Moves `energy` from the useful-work bucket to the speculative-waste
    /// bucket (used when a speculatively produced frame is squashed: the work
    /// was already metered as useful when it executed). The total is
    /// unchanged; the re-attribution is clamped to the energy actually
    /// recorded as useful work.
    pub fn reattribute_waste(&mut self, energy: EnergyUj) {
        let useful = self.for_activity(ActivityKind::UsefulWork);
        let moved = EnergyUj::new(energy.as_microjoules().min(useful.as_microjoules()));
        if moved.as_microjoules() == 0.0 {
            return;
        }
        let useful_slot = &mut self.by_activity[ActivityKind::UsefulWork.index()];
        *useful_slot = *useful_slot - moved;
        self.by_activity[ActivityKind::SpeculativeWaste.index()] += moved;
    }

    fn add(&mut self, energy: EnergyUj, activity: ActivityKind) {
        self.total += energy;
        self.by_activity[activity.index()] += energy;
    }

    /// Total energy integrated so far.
    pub fn total(&self) -> EnergyUj {
        self.total
    }

    /// Energy attributed to a specific activity kind.
    pub fn for_activity(&self, activity: ActivityKind) -> EnergyUj {
        self.by_activity[activity.index()]
    }

    /// Fraction of the total energy spent on squashed speculative work — the
    /// quantity reported as "1.8 % / 2.2 % misprediction energy overhead" in
    /// Sec. 6.3.
    pub fn speculative_waste_fraction(&self) -> f64 {
        if self.total.as_microjoules() == 0.0 {
            return 0.0;
        }
        self.for_activity(ActivityKind::SpeculativeWaste) / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreKind;
    use crate::oracle::ReferenceMeter;
    use crate::units::FreqMhz;

    fn platform() -> Platform {
        Platform::exynos_5410()
    }

    fn meter(p: &Platform) -> EnergyMeter {
        EnergyMeter::with_plane(p, Arc::new(DvfsLadder::for_platform(p)))
    }

    #[test]
    fn fresh_meter_is_zero() {
        let p = platform();
        let m = meter(&p);
        assert_eq!(m.total().as_microjoules(), 0.0);
        assert_eq!(m.speculative_waste_fraction(), 0.0);
    }

    #[test]
    fn busy_on_big_costs_more_than_busy_on_little() {
        let p = platform();
        let mut big = meter(&p);
        let mut little = meter(&p);
        big.record_busy(
            &p.max_performance_config(),
            TimeUs::from_millis(100),
            ActivityKind::UsefulWork,
        );
        little.record_busy(
            &AcmpConfig::new(CoreKind::LittleA7, FreqMhz::new(600)),
            TimeUs::from_millis(100),
            ActivityKind::UsefulWork,
        );
        assert!(big.total().as_millijoules() > little.total().as_millijoules());
    }

    #[test]
    fn idle_costs_less_than_busy_at_same_config() {
        let p = platform();
        let cfg = p.max_performance_config();
        let mut busy = meter(&p);
        let mut idle = meter(&p);
        busy.record_busy(&cfg, TimeUs::from_millis(50), ActivityKind::UsefulWork);
        idle.record_idle(&cfg, TimeUs::from_millis(50));
        assert!(busy.total().as_millijoules() > idle.total().as_millijoules());
    }

    #[test]
    fn activity_breakdown_adds_up_to_total() {
        let p = platform();
        let cfg = p.max_performance_config();
        let mut m = meter(&p);
        m.record_busy(&cfg, TimeUs::from_millis(10), ActivityKind::UsefulWork);
        m.record_busy(&cfg, TimeUs::from_millis(2), ActivityKind::SpeculativeWaste);
        m.record_idle(&cfg, TimeUs::from_millis(5));
        m.record_transition(&cfg, TimeUs::from_micros(100));
        let sum: f64 = ActivityKind::ALL
            .iter()
            .map(|a| m.for_activity(*a).as_microjoules())
            .sum();
        assert!((sum - m.total().as_microjoules()).abs() < 1e-6);
        assert!(m.speculative_waste_fraction() > 0.0);
        assert!(m.speculative_waste_fraction() < 0.5);
    }

    #[test]
    fn cluster_breakdown_includes_background_cluster() {
        let p = platform();
        let cfg = p.max_performance_config();
        let d = TimeUs::from_millis(20);
        let mut m = meter(&p);
        // Run only on the big cluster; the little cluster's idle floor is
        // still charged: the total is the running cluster's active draw
        // plus the other cluster's idle floor, added in that order.
        m.record_busy(&cfg, d, ActivityKind::UsefulWork);
        let running = p.active_power(&cfg).energy_over(d);
        let background = p.background_idle_power(&cfg).energy_over(d);
        assert!(background.as_microjoules() > 0.0);
        assert!(running.as_microjoules() > background.as_microjoules());
        let mut expected = EnergyUj::ZERO;
        expected += running;
        expected += background;
        assert_eq!(
            m.total().as_microjoules().to_bits(),
            expected.as_microjoules().to_bits()
        );
    }

    #[test]
    fn zero_duration_samples_are_ignored() {
        let p = platform();
        let cfg = p.min_power_config();
        let mut m = meter(&p);
        m.record_busy(&cfg, TimeUs::ZERO, ActivityKind::UsefulWork);
        m.record_idle(&cfg, TimeUs::ZERO);
        m.record_transition(&cfg, TimeUs::ZERO);
        assert_eq!(m.total().as_microjoules(), 0.0);
    }

    #[test]
    fn plane_routed_meter_is_bit_identical_to_the_reference_path() {
        for p in [Platform::exynos_5410(), Platform::tx2_parker()] {
            let plane = Arc::new(DvfsLadder::for_platform(&p));
            let mut routed = EnergyMeter::with_plane(&p, Arc::clone(&plane));
            let mut reference = ReferenceMeter::new(&p);
            for (i, cfg) in p.configs().iter().enumerate() {
                let busy = TimeUs::from_micros(1_000 + 137 * i as u64);
                let idle = TimeUs::from_micros(500 + 91 * i as u64);
                let transition = TimeUs::from_micros(40 + i as u64);
                routed.record_busy(cfg, busy, ActivityKind::UsefulWork);
                routed.record_busy(cfg, busy, ActivityKind::SpeculativeWaste);
                routed.record_idle(cfg, idle);
                routed.record_transition(cfg, transition);
                reference.record_busy(cfg, busy, ActivityKind::UsefulWork);
                reference.record_busy(cfg, busy, ActivityKind::SpeculativeWaste);
                reference.record_idle(cfg, idle);
                reference.record_transition(cfg, transition);
            }
            assert_eq!(
                routed.total().as_microjoules().to_bits(),
                reference.total().as_microjoules().to_bits(),
                "total drifted on {}",
                p.name()
            );
            for kind in ActivityKind::ALL {
                assert_eq!(
                    routed.for_activity(kind).as_microjoules().to_bits(),
                    reference.for_activity(kind).as_microjoules().to_bits(),
                    "activity {kind:?} drifted on {}",
                    p.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "1234 MHz")]
    fn metering_an_off_plane_config_panics() {
        let p = platform();
        // 1234 MHz is not an Exynos operating point: no replay runs there,
        // so metering one is a caller bug, not a sample to derive.
        let off = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1234));
        meter(&p).record_busy(&off, TimeUs::from_millis(7), ActivityKind::UsefulWork);
    }

    #[test]
    fn average_power_is_between_idle_and_peak() {
        let p = platform();
        let cfg = p.max_performance_config();
        let mut m = meter(&p);
        let (busy, idle) = (TimeUs::from_millis(10), TimeUs::from_millis(10));
        m.record_busy(&cfg, busy, ActivityKind::UsefulWork);
        m.record_idle(&cfg, idle);
        // Energy over the 20 ms window, as milliwatts (µJ / µs · 1,000).
        let elapsed = (busy + idle).as_micros() as f64;
        let avg = m.total().as_microjoules() * 1_000.0 / elapsed;
        let idle = p.idle_power(&cfg).as_milliwatts();
        let peak =
            p.active_power(&cfg).as_milliwatts() + p.background_idle_power(&cfg).as_milliwatts();
        assert!(avg > idle);
        assert!(avg < peak + 1.0);
    }
}
