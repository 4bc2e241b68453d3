//! The pre-ladder DVFS math, re-derived from the platform tables on every
//! call: the oracles the ladder-backed `DvfsModel` paths are pinned against
//! bit for bit.

// Each includer uses a subset of the support code.
#![allow(dead_code)]

use pes_acmp::units::{EnergyUj, PowerMw, TimeUs};
use pes_acmp::{AcmpConfig, CpuDemand, DvfsModel};

/// `DvfsModel::execution_power`: the active power of `cfg` plus the idle
/// floor of the other cluster.
pub fn execution_power_reference(model: &DvfsModel<'_>, cfg: &AcmpConfig) -> PowerMw {
    let platform = model.platform();
    platform.active_power(cfg) + platform.background_idle_power(cfg)
}

/// `DvfsModel::baseline_idle_power`: the idle power at the platform's
/// minimum-power configuration.
pub fn baseline_idle_power_reference(model: &DvfsModel<'_>) -> PowerMw {
    model.idle_power(&model.platform().min_power_config())
}

/// `DvfsModel::marginal_energy`: the energy of executing `demand` on `cfg`
/// above the baseline idle draw over the same time.
pub fn marginal_energy_reference(
    model: &DvfsModel<'_>,
    demand: &CpuDemand,
    cfg: &AcmpConfig,
) -> EnergyUj {
    let time = model.execution_time(demand, cfg);
    let gross = execution_power_reference(model, cfg).energy_over(time);
    let baseline = baseline_idle_power_reference(model).energy_over(time);
    gross - baseline
}

/// `DvfsModel::cheapest_config_within`: the lowest marginal-energy platform
/// configuration that finishes `demand` within `budget`. Strictly-less
/// comparison keeps the first minimum on ties.
pub fn cheapest_config_within_reference(
    model: &DvfsModel<'_>,
    demand: &CpuDemand,
    budget: TimeUs,
) -> Option<AcmpConfig> {
    let mut best: Option<(AcmpConfig, f64)> = None;
    for cfg in model.platform().configs() {
        if model.execution_time(demand, cfg) > budget {
            continue;
        }
        let energy = marginal_energy_reference(model, demand, cfg).as_microjoules();
        assert!(energy.is_finite(), "energy is finite");
        match best {
            Some((_, cheapest)) if energy >= cheapest => {}
            _ => best = Some((*cfg, energy)),
        }
    }
    best.map(|(cfg, _)| cfg)
}
