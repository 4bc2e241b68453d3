//! The DVFS math re-derived from the platform tables on every call: the
//! oracles the shared `DvfsLadder` plane and the plane-routed `EnergyMeter`
//! are pinned against bit for bit. Latency is `CpuDemand::time_on` itself,
//! the one Eqn. 1 expression.

// Each includer uses a subset of the support code.
#![allow(dead_code)]

use pes_acmp::units::{EnergyUj, PowerMw, TimeUs};
use pes_acmp::{AcmpConfig, ActivityKind, CpuDemand, Platform};

/// The power an execution on `cfg` draws: the active power of `cfg` plus the
/// idle floor of the other cluster.
pub fn execution_power_reference(platform: &Platform, cfg: &AcmpConfig) -> PowerMw {
    platform.active_power(cfg) + platform.background_idle_power(cfg)
}

/// The always-on floor: the idle power at the platform's minimum-power
/// configuration, background cluster included.
pub fn baseline_idle_power_reference(platform: &Platform) -> PowerMw {
    let min = platform.min_power_config();
    platform.idle_power(&min) + platform.background_idle_power(&min)
}

/// Eqn. 5: the energy of executing `demand` on `cfg` above the baseline
/// idle draw over the same time.
pub fn marginal_energy_reference(
    platform: &Platform,
    demand: &CpuDemand,
    cfg: &AcmpConfig,
) -> EnergyUj {
    let time = demand.time_on(cfg);
    let gross = execution_power_reference(platform, cfg).energy_over(time);
    let baseline = baseline_idle_power_reference(platform).energy_over(time);
    gross - baseline
}

/// The lowest marginal-energy platform configuration that finishes `demand`
/// within `budget`. Strictly-less comparison keeps the first minimum on
/// ties.
pub fn cheapest_config_within_reference(
    platform: &Platform,
    demand: &CpuDemand,
    budget: TimeUs,
) -> Option<AcmpConfig> {
    let mut best: Option<(AcmpConfig, f64)> = None;
    for cfg in platform.configs() {
        if demand.time_on(cfg) > budget {
            continue;
        }
        let energy = marginal_energy_reference(platform, demand, cfg).as_microjoules();
        assert!(energy.is_finite(), "energy is finite");
        match best {
            Some((_, cheapest)) if energy >= cheapest => {}
            _ => best = Some((*cfg, energy)),
        }
    }
    best.map(|(cfg, _)| cfg)
}

/// The plane-less `EnergyMeter`: every sample re-derives its powers from
/// the platform tables and lands in the same accumulators in the same
/// addition order, so a plane-routed meter must match it bit for bit.
#[derive(Debug, Clone)]
pub struct ReferenceMeter<'p> {
    platform: &'p Platform,
    total: EnergyUj,
    by_activity: [EnergyUj; 4],
}

impl<'p> ReferenceMeter<'p> {
    /// A meter with every counter at zero.
    pub fn new(platform: &'p Platform) -> Self {
        ReferenceMeter {
            platform,
            total: EnergyUj::ZERO,
            by_activity: [EnergyUj::ZERO; 4],
        }
    }

    /// `EnergyMeter::record_busy`.
    pub fn record_busy(&mut self, cfg: &AcmpConfig, duration: TimeUs, activity: ActivityKind) {
        if duration.is_zero() {
            return;
        }
        let own = self.platform.active_power(cfg).energy_over(duration);
        let background = self
            .platform
            .background_idle_power(cfg)
            .energy_over(duration);
        self.add(own, activity);
        self.add(background, activity);
    }

    /// `EnergyMeter::record_idle`.
    pub fn record_idle(&mut self, cfg: &AcmpConfig, duration: TimeUs) {
        if duration.is_zero() {
            return;
        }
        let own = self.platform.idle_power(cfg).energy_over(duration);
        let background = self
            .platform
            .background_idle_power(cfg)
            .energy_over(duration);
        self.add(own, ActivityKind::Idle);
        self.add(background, ActivityKind::Idle);
    }

    /// `EnergyMeter::record_transition`.
    pub fn record_transition(&mut self, to: &AcmpConfig, duration: TimeUs) {
        if duration.is_zero() {
            return;
        }
        let energy = self.platform.active_power(to).energy_over(duration);
        self.add(energy, ActivityKind::Transition);
    }

    /// `EnergyMeter::reattribute_waste`.
    pub fn reattribute_waste(&mut self, energy: EnergyUj) {
        let useful = self.for_activity(ActivityKind::UsefulWork);
        let moved = EnergyUj::new(energy.as_microjoules().min(useful.as_microjoules()));
        if moved.as_microjoules() == 0.0 {
            return;
        }
        self.by_activity[ActivityKind::UsefulWork.index()] = useful - moved;
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

    /// Energy attributed to `activity`.
    pub fn for_activity(&self, activity: ActivityKind) -> EnergyUj {
        self.by_activity[activity.index()]
    }

    /// `EnergyMeter::speculative_waste_fraction`.
    pub fn speculative_waste_fraction(&self) -> f64 {
        if self.total.as_microjoules() == 0.0 {
            return 0.0;
        }
        self.for_activity(ActivityKind::SpeculativeWaste) / self.total
    }
}
