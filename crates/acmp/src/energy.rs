//! Processor energy accounting.
//!
//! Stands in for the ODROID board's current-sense resistors plus the NI DAQ
//! unit of Sec. 3: the simulator reports every busy/idle interval to an
//! [`EnergyMeter`], which integrates power over time, split by cluster and by
//! activity kind so that the evaluation figures can report both totals and
//! breakdowns (e.g. the misprediction energy overhead of Sec. 6.3).

use std::sync::Arc;

use crate::config::{AcmpConfig, CoreKind};
use crate::dvfs::{DvfsLadder, LadderRung};
use crate::platform::Platform;
use crate::units::{EnergyUj, PowerMw, TimeUs};

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
/// use pes_acmp::{Platform, energy::{ActivityKind, EnergyMeter}};
/// use pes_acmp::units::TimeUs;
///
/// let platform = Platform::exynos_5410();
/// let mut meter = EnergyMeter::new(&platform);
/// let cfg = platform.max_performance_config();
/// meter.record_busy(&cfg, TimeUs::from_millis(10), ActivityKind::UsefulWork);
/// assert!(meter.total().as_millijoules() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter<'p> {
    platform: &'p Platform,
    /// The shared DVFS power plane, when the meter was built with one: the
    /// per-configuration `active`/`idle`/`background` powers frozen at
    /// ladder-build time. Samples at platform operating points read these
    /// instead of re-deriving every power term from the cluster tables per
    /// call (the re-derivation the ROADMAP flagged as the last per-event
    /// DVFS math on the replay hot path). Off-plane configurations — and
    /// meters built without a plane — fall back to the platform-table
    /// derivation, which is bit-identical by construction.
    plane: Option<Arc<DvfsLadder>>,
    total: EnergyUj,
    /// Per-activity accumulators, indexed by [`ActivityKind::index`].
    /// Flat arrays instead of the original `BTreeMap`s: the replay engine
    /// lands two to four samples per event here, and the map walks were
    /// the single largest slice of the engine floor. The addition order is
    /// unchanged, so every total stays bit-identical to the map-backed
    /// meter.
    by_activity: [EnergyUj; 4],
    /// Per-cluster accumulators, indexed by [`CoreKind::index`].
    by_cluster: [EnergyUj; 4],
    /// The *other* platform cluster charged for background idle draw,
    /// precomputed per core kind at construction (the map-backed meter
    /// re-searched the cluster table on every sample).
    background_cluster: [CoreKind; 4],
    /// One-entry memo of the last `(config, ladder rung)` pair: the engine
    /// meters long runs of samples at its current configuration, so the
    /// rung scan is paid once per configuration switch instead of once per
    /// sample.
    cached_rung: Option<(AcmpConfig, usize)>,
    busy_time: TimeUs,
    idle_time: TimeUs,
}

impl<'p> EnergyMeter<'p> {
    /// Creates a meter for a platform with all counters at zero.
    pub fn new(platform: &'p Platform) -> Self {
        let mut background_cluster = [CoreKind::BigA15; 4];
        for kind in CoreKind::ALL {
            background_cluster[kind.index()] = platform
                .clusters()
                .iter()
                .map(|c| c.core_kind())
                .find(|k| *k != kind)
                .unwrap_or(kind);
        }
        EnergyMeter {
            platform,
            plane: None,
            total: EnergyUj::ZERO,
            by_activity: [EnergyUj::ZERO; 4],
            by_cluster: [EnergyUj::ZERO; 4],
            background_cluster,
            cached_rung: None,
            busy_time: TimeUs::ZERO,
            idle_time: TimeUs::ZERO,
        }
    }

    /// Creates a meter that serves per-configuration powers from a shared
    /// DVFS power plane.
    ///
    /// # Panics
    ///
    /// Panics if the plane was built for a different platform.
    pub fn with_plane(platform: &'p Platform, plane: Arc<DvfsLadder>) -> Self {
        plane.assert_matches(platform);
        EnergyMeter {
            plane: Some(plane),
            ..EnergyMeter::new(platform)
        }
    }

    /// The plane rung holding `cfg`, through the one-entry memo. Caches
    /// only plane hits: off-plane configurations (and plane-less meters)
    /// take the platform-table fallback, which never consults a rung.
    fn rung(&mut self, cfg: &AcmpConfig) -> Option<LadderRung> {
        let plane = self.plane.as_ref()?;
        let i = match self.cached_rung {
            Some((cached, i)) if cached == *cfg => i,
            _ => {
                let i = plane.rung_index(cfg)?;
                self.cached_rung = Some((*cfg, i));
                i
            }
        };
        Some(plane.rungs()[i])
    }

    /// `(active, background)` powers of `cfg`, from the frozen plane when
    /// available (rung memoised across consecutive samples).
    fn busy_powers(&mut self, cfg: &AcmpConfig) -> (PowerMw, PowerMw) {
        match self.rung(cfg) {
            Some(rung) => (rung.active_power, rung.background_power),
            None => (
                self.platform.active_power(cfg),
                self.platform.background_idle_power(cfg),
            ),
        }
    }

    /// `(idle, background)` powers of `cfg`, from the frozen plane when
    /// available (rung memoised across consecutive samples).
    fn idle_powers(&mut self, cfg: &AcmpConfig) -> (PowerMw, PowerMw) {
        match self.rung(cfg) {
            Some(rung) => (rung.idle_power, rung.background_power),
            None => (
                self.platform.idle_power(cfg),
                self.platform.background_idle_power(cfg),
            ),
        }
    }

    /// Records a busy interval at configuration `cfg` attributed to
    /// `activity`. The sample includes the idle floor of the other cluster.
    pub fn record_busy(&mut self, cfg: &AcmpConfig, duration: TimeUs, activity: ActivityKind) {
        if duration.is_zero() {
            return;
        }
        let (active, background_power) = self.busy_powers(cfg);
        let own = active.energy_over(duration);
        let background = background_power.energy_over(duration);
        self.busy_time += duration;
        self.add(cfg.core(), own, activity);
        self.add_background(cfg.core(), background, activity);
    }

    /// Records an idle interval while the hardware is parked at `cfg`.
    pub fn record_idle(&mut self, cfg: &AcmpConfig, duration: TimeUs) {
        if duration.is_zero() {
            return;
        }
        let (idle, background_power) = self.idle_powers(cfg);
        let own = idle.energy_over(duration);
        let background = background_power.energy_over(duration);
        self.idle_time += duration;
        self.add(cfg.core(), own, ActivityKind::Idle);
        self.add_background(cfg.core(), background, ActivityKind::Idle);
    }

    /// Records a configuration transition (DVFS switch / migration). The
    /// transition is charged at the destination configuration's active power.
    pub fn record_transition(&mut self, to: &AcmpConfig, duration: TimeUs) {
        if duration.is_zero() {
            return;
        }
        let (active, _) = self.busy_powers(to);
        let e = active.energy_over(duration);
        self.busy_time += duration;
        self.add(to.core(), e, ActivityKind::Transition);
    }

    /// Moves `energy` from the useful-work bucket to the speculative-waste
    /// bucket (used when a speculatively produced frame is squashed: the work
    /// was already metered as useful when it executed). The total is
    /// unchanged; the re-attribution is clamped to the energy actually
    /// recorded as useful work.
    pub fn reattribute_waste(&mut self, cluster: CoreKind, energy: EnergyUj) {
        let useful = self.for_activity(ActivityKind::UsefulWork);
        let moved = EnergyUj::new(energy.as_microjoules().min(useful.as_microjoules()));
        if moved.as_microjoules() == 0.0 {
            return;
        }
        let useful_slot = &mut self.by_activity[ActivityKind::UsefulWork.index()];
        *useful_slot = *useful_slot - moved;
        self.by_activity[ActivityKind::SpeculativeWaste.index()] += moved;
        // Cluster attribution is unchanged; note the cluster only for callers
        // that later want a per-cluster waste breakdown.
        let _ = cluster;
    }

    fn add(&mut self, cluster: CoreKind, energy: EnergyUj, activity: ActivityKind) {
        self.total += energy;
        self.by_activity[activity.index()] += energy;
        self.by_cluster[cluster.index()] += energy;
    }

    fn add_background(
        &mut self,
        active_cluster: CoreKind,
        energy: EnergyUj,
        activity: ActivityKind,
    ) {
        // Attribute the background cluster's idle draw to the *other* cluster
        // so per-cluster breakdowns mirror the two DAQ channels of Sec. 3.
        let other = self.background_cluster[active_cluster.index()];
        self.total += energy;
        self.by_activity[activity.index()] += energy;
        self.by_cluster[other.index()] += energy;
    }

    /// Total energy integrated so far.
    pub fn total(&self) -> EnergyUj {
        self.total
    }

    /// Energy attributed to a specific activity kind.
    pub fn for_activity(&self, activity: ActivityKind) -> EnergyUj {
        self.by_activity[activity.index()]
    }

    /// Energy attributed to a specific cluster.
    pub fn for_cluster(&self, cluster: CoreKind) -> EnergyUj {
        self.by_cluster[cluster.index()]
    }

    /// Total busy (executing or transitioning) time observed.
    pub fn busy_time(&self) -> TimeUs {
        self.busy_time
    }

    /// Total idle time observed.
    pub fn idle_time(&self) -> TimeUs {
        self.idle_time
    }

    /// Average power over the whole observation window, if any time elapsed.
    pub fn average_power(&self) -> Option<PowerMw> {
        let elapsed = self.busy_time + self.idle_time;
        if elapsed.is_zero() {
            return None;
        }
        Some(PowerMw::new(
            self.total.as_microjoules() * 1_000.0 / elapsed.as_micros() as f64,
        ))
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
    use crate::units::FreqMhz;

    fn platform() -> Platform {
        Platform::exynos_5410()
    }

    #[test]
    fn fresh_meter_is_zero() {
        let p = platform();
        let m = EnergyMeter::new(&p);
        assert_eq!(m.total().as_microjoules(), 0.0);
        assert!(m.average_power().is_none());
        assert_eq!(m.speculative_waste_fraction(), 0.0);
    }

    #[test]
    fn busy_on_big_costs_more_than_busy_on_little() {
        let p = platform();
        let mut big = EnergyMeter::new(&p);
        let mut little = EnergyMeter::new(&p);
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
        let mut busy = EnergyMeter::new(&p);
        let mut idle = EnergyMeter::new(&p);
        busy.record_busy(&cfg, TimeUs::from_millis(50), ActivityKind::UsefulWork);
        idle.record_idle(&cfg, TimeUs::from_millis(50));
        assert!(busy.total().as_millijoules() > idle.total().as_millijoules());
        assert_eq!(busy.busy_time(), TimeUs::from_millis(50));
        assert_eq!(idle.idle_time(), TimeUs::from_millis(50));
    }

    #[test]
    fn activity_breakdown_adds_up_to_total() {
        let p = platform();
        let cfg = p.max_performance_config();
        let mut m = EnergyMeter::new(&p);
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
        let mut m = EnergyMeter::new(&p);
        // Run only on the big cluster; the little cluster should still pick
        // up its idle floor.
        m.record_busy(
            &p.max_performance_config(),
            TimeUs::from_millis(20),
            ActivityKind::UsefulWork,
        );
        assert!(m.for_cluster(CoreKind::BigA15).as_microjoules() > 0.0);
        assert!(m.for_cluster(CoreKind::LittleA7).as_microjoules() > 0.0);
        assert!(
            m.for_cluster(CoreKind::BigA15).as_microjoules()
                > m.for_cluster(CoreKind::LittleA7).as_microjoules()
        );
    }

    #[test]
    fn zero_duration_samples_are_ignored() {
        let p = platform();
        let cfg = p.min_power_config();
        let mut m = EnergyMeter::new(&p);
        m.record_busy(&cfg, TimeUs::ZERO, ActivityKind::UsefulWork);
        m.record_idle(&cfg, TimeUs::ZERO);
        m.record_transition(&cfg, TimeUs::ZERO);
        assert_eq!(m.total().as_microjoules(), 0.0);
    }

    #[test]
    fn plane_routed_meter_is_bit_identical_to_the_reference_path() {
        use std::sync::Arc;
        for p in [Platform::exynos_5410(), Platform::tx2_parker()] {
            let plane = Arc::new(crate::dvfs::DvfsLadder::for_platform(&p));
            let mut routed = EnergyMeter::with_plane(&p, Arc::clone(&plane));
            let mut reference = EnergyMeter::new(&p);
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
            for cluster in p.clusters() {
                let kind = cluster.core_kind();
                assert_eq!(
                    routed.for_cluster(kind).as_microjoules().to_bits(),
                    reference.for_cluster(kind).as_microjoules().to_bits(),
                    "cluster {kind:?} drifted on {}",
                    p.name()
                );
            }
            assert_eq!(routed.busy_time(), reference.busy_time());
            assert_eq!(routed.idle_time(), reference.idle_time());
        }
    }

    #[test]
    fn off_plane_configs_fall_back_to_the_platform_tables() {
        use std::sync::Arc;
        let p = platform();
        let plane = Arc::new(crate::dvfs::DvfsLadder::for_platform(&p));
        // 1234 MHz is not an Exynos operating point; the plane-routed meter
        // must still answer, with the reference derivation's exact value.
        let off = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1234));
        let mut routed = EnergyMeter::with_plane(&p, plane);
        let mut reference = EnergyMeter::new(&p);
        routed.record_busy(&off, TimeUs::from_millis(7), ActivityKind::UsefulWork);
        reference.record_busy(&off, TimeUs::from_millis(7), ActivityKind::UsefulWork);
        assert_eq!(
            routed.total().as_microjoules().to_bits(),
            reference.total().as_microjoules().to_bits()
        );
    }

    #[test]
    fn average_power_is_between_idle_and_peak() {
        let p = platform();
        let cfg = p.max_performance_config();
        let mut m = EnergyMeter::new(&p);
        m.record_busy(&cfg, TimeUs::from_millis(10), ActivityKind::UsefulWork);
        m.record_idle(&cfg, TimeUs::from_millis(10));
        let avg = m.average_power().unwrap().as_milliwatts();
        let idle = p.idle_power(&cfg).as_milliwatts();
        let peak =
            p.active_power(&cfg).as_milliwatts() + p.background_idle_power(&cfg).as_milliwatts();
        assert!(avg > idle);
        assert!(avg < peak + 1.0);
    }
}
