//! Online per-event-type workload profiling (Sec. 5.3).
//!
//! Both EBS and PES estimate an event's `Tmem` / `Ndep` demand before
//! executing it. The first two times an event type is encountered it is
//! executed at two different (profiling) frequencies; the two latency
//! observations are then solved against Eqn. 1 to recover the demand, which
//! is subsequently refined with an exponential moving average as more
//! executions of the same event type are observed.
//!
//! The EWMA estimates are *noisy by construction* — per-event workloads on
//! the evaluation traces vary by double-digit percentages around their
//! profile, so the estimate drifts on every observation. Consumers that
//! need stable values derive them on their side: the PES planner quantises
//! each estimate onto a relative 1/32 grid and holds the result with a
//! hysteresis band (`pes_core`'s planning layer), which is what lets its
//! shape-keyed solve memoisation revalidate re-planned windows while the
//! raw estimates here keep moving. Reactive consumers (EBS, the runtime's
//! fallback) use the raw estimates directly.

use std::collections::BTreeMap;

use pes_acmp::units::TimeUs;
use pes_acmp::{recover_demand, AcmpConfig, CoreKind, CpuDemand, Platform};
use pes_dom::EventType;

/// Per-event-type profiling state.
#[derive(Debug, Clone, Default)]
struct TypeProfile {
    observations: Vec<(AcmpConfig, TimeUs)>,
    estimate: Option<CpuDemand>,
}

/// The online demand profiler.
///
/// # Examples
///
/// ```
/// use pes_acmp::Platform;
/// use pes_dom::EventType;
/// use pes_schedulers::DemandProfiler;
///
/// let platform = Platform::exynos_5410();
/// let profiler = DemandProfiler::new(&platform);
/// // Before any observation the profiler has no estimate and asks for the
/// // first profiling configuration.
/// assert!(profiler.estimate(EventType::Click).is_none());
/// let cfg = profiler.profiling_config(EventType::Click);
/// assert!(cfg.core().is_big());
/// ```
#[derive(Debug, Clone)]
pub struct DemandProfiler {
    profiles: BTreeMap<EventType, TypeProfile>,
    profiling_configs: [AcmpConfig; 2],
    ewma_alpha: f64,
}

impl DemandProfiler {
    /// Creates a profiler for a platform. The two profiling configurations
    /// are mid-range and high big-core operating points, so a cold-start
    /// event is served reasonably fast while still exposing two distinct
    /// frequencies for the Eqn. 1 system solve.
    pub fn new(platform: &Platform) -> Self {
        let big: Vec<AcmpConfig> = platform
            .configs()
            .iter()
            .copied()
            .filter(|c| c.core() == CoreKind::BigA15 || c.core().is_big())
            .collect();
        let hi = *big.last().unwrap_or(&platform.max_performance_config());
        let mid = big
            .get(big.len() / 2)
            .copied()
            .unwrap_or_else(|| platform.max_performance_config());
        DemandProfiler {
            profiles: BTreeMap::new(),
            profiling_configs: [mid, hi],
            ewma_alpha: 0.3,
        }
    }

    /// Whether the profiler still needs profiling runs for this event type.
    pub fn needs_profiling(&self, event_type: EventType) -> bool {
        self.profiles
            .get(&event_type)
            .map(|p| p.estimate.is_none())
            .unwrap_or(true)
    }

    /// The configuration to use for the next profiling run of this event
    /// type (alternating between the two profiling operating points).
    pub fn profiling_config(&self, event_type: EventType) -> AcmpConfig {
        let seen = self
            .profiles
            .get(&event_type)
            .map(|p| p.observations.len())
            .unwrap_or(0);
        self.profiling_configs[seen % 2]
    }

    /// The current demand estimate for an event type, if one exists.
    pub fn estimate(&self, event_type: EventType) -> Option<CpuDemand> {
        self.profiles.get(&event_type).and_then(|p| p.estimate)
    }

    /// Records a measured execution: the configuration it ran on and the
    /// busy (execution) time. Once two observations at distinct frequencies
    /// on the same core kind exist, the demand is recovered and subsequently
    /// refined with an EWMA of per-execution recovered demands.
    pub fn observe(&mut self, event_type: EventType, config: AcmpConfig, busy_time: TimeUs) {
        let alpha = self.ewma_alpha;
        let profile = self.profiles.entry(event_type).or_default();
        match profile.estimate {
            None => {
                // Pair the new observation against the accumulated ones. Old
                // pairs need no re-try: recovery is deterministic, so a pair
                // that failed when its later half arrived fails forever —
                // the previous all-pairs rescan was O(k²) per observation
                // and, on replays whose speculative commits keep landing on
                // one configuration (so recovery starves), it dominated the
                // Oracle's per-event accounting. Pairs that cannot solve
                // (same frequency or different core kinds) are skipped
                // before `recover_demand` can build its error.
                let fresh = (config, busy_time);
                for i in 0..profile.observations.len() {
                    let prior = profile.observations[i];
                    if prior.0.core() != config.core() || prior.0.frequency() == config.frequency()
                    {
                        continue;
                    }
                    if let Ok(demand) = recover_demand(prior, fresh) {
                        profile.estimate = Some(demand);
                        profile.observations.clear();
                        break;
                    }
                }
                if profile.estimate.is_none() {
                    profile.observations.push(fresh);
                }
            }
            Some(current) => {
                // Single-observation refinement: assume the memory fraction of
                // the current estimate and update the cycle count to match the
                // measured time, then blend with the EWMA.
                let cfg_time_mem = current.t_mem().min(busy_time);
                let compute_time = busy_time.saturating_sub(cfg_time_mem);
                let cycles_on_core =
                    compute_time.as_micros() as f64 * config.frequency().as_mhz() as f64;
                let ref_cycles = cycles_on_core * config.core().ipc_relative_to_a7();
                let observed = CpuDemand::new(
                    cfg_time_mem,
                    pes_acmp::units::CpuCycles::new(ref_cycles.round() as u64),
                );
                let blend = |old: f64, new: f64| old * (1.0 - alpha) + new * alpha;
                profile.estimate = Some(CpuDemand::new(
                    TimeUs::from_micros(
                        blend(
                            current.t_mem().as_micros() as f64,
                            observed.t_mem().as_micros() as f64,
                        )
                        .round() as u64,
                    ),
                    pes_acmp::units::CpuCycles::new(
                        blend(
                            current.ref_cycles().get() as f64,
                            observed.ref_cycles().get() as f64,
                        )
                        .round() as u64,
                    ),
                ));
            }
        }
    }

    /// Clears all profiling state (new session).
    pub fn reset(&mut self) {
        self.profiles.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::CpuCycles;

    fn setup() -> (Platform, CpuDemand) {
        (
            Platform::exynos_5410(),
            CpuDemand::new(TimeUs::from_millis(10), CpuCycles::new(300_000_000)),
        )
    }

    #[test]
    fn two_profiling_runs_recover_the_demand() {
        let (platform, true_demand) = setup();
        let mut profiler = DemandProfiler::new(&platform);
        assert!(profiler.needs_profiling(EventType::Click));

        for _ in 0..2 {
            let cfg = profiler.profiling_config(EventType::Click);
            let busy = true_demand.time_on(&cfg);
            profiler.observe(EventType::Click, cfg, busy);
        }
        assert!(!profiler.needs_profiling(EventType::Click));
        let est = profiler.estimate(EventType::Click).unwrap();
        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / b as f64;
        assert!(rel(est.ref_cycles().get(), true_demand.ref_cycles().get()) < 0.05);
        assert!(rel(est.t_mem().as_micros(), true_demand.t_mem().as_micros()) < 0.05);
    }

    #[test]
    fn profiling_configs_alternate_and_are_fast_enough() {
        let (platform, _) = setup();
        let mut profiler = DemandProfiler::new(&platform);
        let first = profiler.profiling_config(EventType::Load);
        profiler.observe(EventType::Load, first, TimeUs::from_millis(100));
        let second = profiler.profiling_config(EventType::Load);
        assert_ne!(first.frequency(), second.frequency());
        assert!(first.core().is_big() && second.core().is_big());
    }

    #[test]
    fn later_observations_track_drifting_workloads() {
        let (platform, true_demand) = setup();
        let mut profiler = DemandProfiler::new(&platform);
        for _ in 0..2 {
            let cfg = profiler.profiling_config(EventType::Click);
            profiler.observe(EventType::Click, cfg, true_demand.time_on(&cfg));
        }
        let before = profiler.estimate(EventType::Click).unwrap();
        // The workload doubles; feed several observations of the new demand.
        let heavier = true_demand.scale(2.0);
        let cfg = platform.max_performance_config();
        for _ in 0..10 {
            profiler.observe(EventType::Click, cfg, heavier.time_on(&cfg));
        }
        let after = profiler.estimate(EventType::Click).unwrap();
        assert!(after.ref_cycles().get() > before.ref_cycles().get());
    }

    #[test]
    fn reset_clears_estimates() {
        let (platform, true_demand) = setup();
        let mut profiler = DemandProfiler::new(&platform);
        for _ in 0..2 {
            let cfg = profiler.profiling_config(EventType::Scroll);
            profiler.observe(EventType::Scroll, cfg, true_demand.time_on(&cfg));
        }
        assert!(profiler.estimate(EventType::Scroll).is_some());
        profiler.reset();
        assert!(profiler.estimate(EventType::Scroll).is_none());
    }

    #[test]
    fn per_type_estimates_are_independent() {
        let (platform, true_demand) = setup();
        let mut profiler = DemandProfiler::new(&platform);
        for _ in 0..2 {
            let cfg = profiler.profiling_config(EventType::Click);
            profiler.observe(EventType::Click, cfg, true_demand.time_on(&cfg));
        }
        assert!(profiler.estimate(EventType::Click).is_some());
        assert!(profiler.estimate(EventType::Scroll).is_none());
        assert!(profiler.needs_profiling(EventType::Scroll));
    }
}
