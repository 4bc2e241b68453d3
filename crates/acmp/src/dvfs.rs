//! The analytical DVFS latency model of Eqn. 1: `T = Tmem + Ndep / f`,
//! and the Eqn. 5 marginal energy both EBS and PES schedule on.
//!
//! Events carry a [`CpuDemand`] (memory-bound time plus a CPU-cycle
//! requirement); [`CpuDemand::time_on`] maps it to an execution latency on
//! one configuration. The [`DvfsLadder`] is the one power model: it freezes
//! every platform operating point's powers once and evaluates latency and
//! marginal energy per rung. [`recover_demand`] inverts Eqn. 1 the way EBS
//! and PES do, solving the two-equation system of Sec. 5.3 from two latency
//! observations at different frequencies.

use crate::config::AcmpConfig;
use crate::error::AcmpError;
use crate::platform::Platform;
use crate::units::{CpuCycles, EnergyUj, PowerMw, TimeUs};

/// The compute demand of one event execution, expressed in
/// microarchitecture-independent terms.
///
/// `ref_cycles` is the number of CPU cycles the event needs on the in-order
/// Cortex-A7 reference core (IPC = 1.0 in this model); the cycle count on any
/// other core kind is obtained by dividing by that core's relative IPC.
/// `t_mem` is the frequency-independent memory-access time of Eqn. 1.
///
/// # Examples
///
/// ```
/// use pes_acmp::dvfs::CpuDemand;
/// use pes_acmp::units::{CpuCycles, TimeUs};
///
/// let d = CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(100_000_000));
/// assert_eq!(d.t_mem(), TimeUs::from_millis(5));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuDemand {
    t_mem: TimeUs,
    ref_cycles: CpuCycles,
}

impl CpuDemand {
    /// Creates a demand from a memory time and an A7-equivalent cycle count.
    pub const fn new(t_mem: TimeUs, ref_cycles: CpuCycles) -> Self {
        CpuDemand { t_mem, ref_cycles }
    }

    /// A demand with no work at all (used for padding/idle pseudo-events).
    pub const ZERO: CpuDemand = CpuDemand {
        t_mem: TimeUs::ZERO,
        ref_cycles: CpuCycles::ZERO,
    };

    /// The frequency-independent memory component (`Tmem`).
    pub const fn t_mem(&self) -> TimeUs {
        self.t_mem
    }

    /// The A7-equivalent CPU cycle requirement (`Ndep` on the reference core).
    pub const fn ref_cycles(&self) -> CpuCycles {
        self.ref_cycles
    }

    /// Scales both components by a non-negative factor.
    pub fn scale(&self, factor: f64) -> CpuDemand {
        CpuDemand {
            t_mem: self.t_mem.scale(factor),
            ref_cycles: self.ref_cycles.scale(factor),
        }
    }

    /// Execution latency of this demand on configuration `cfg` (Eqn. 1/3):
    /// `T = Tmem + Ndep(core) / f`.
    pub fn time_on(&self, cfg: &AcmpConfig) -> TimeUs {
        let cycles_on_core = self.ref_cycles.scale(1.0 / cfg.core().ipc_relative_to_a7());
        self.t_mem + cycles_on_core.time_at(cfg.frequency())
    }
}

/// Recovers a [`CpuDemand`] from two latency observations of the *same*
/// event workload taken at two different frequencies on the same core kind,
/// by solving the linear system of Eqn. 1 — the online profiling step both
/// EBS and PES perform the first two times an event is seen (Sec. 5.3).
///
/// # Errors
///
/// Returns [`AcmpError::DemandRecovery`] when the two observations use the
/// same frequency or different core kinds, or when the observations are
/// inconsistent (they would imply negative `Tmem` or `Ndep`, in which case
/// the closest physically meaningful demand is unrecoverable).
pub fn recover_demand(
    obs_a: (AcmpConfig, TimeUs),
    obs_b: (AcmpConfig, TimeUs),
) -> Result<CpuDemand, AcmpError> {
    let (cfg_a, t_a) = obs_a;
    let (cfg_b, t_b) = obs_b;
    if cfg_a.core() != cfg_b.core() {
        return Err(AcmpError::DemandRecovery(
            "observations must come from the same core kind".into(),
        ));
    }
    if cfg_a.frequency() == cfg_b.frequency() {
        return Err(AcmpError::DemandRecovery(
            "observations must use two distinct frequencies".into(),
        ));
    }
    // T = Tmem + C/f  =>  C = (Ta - Tb) / (1/fa - 1/fb),  Tmem = Ta - C/fa
    let fa = cfg_a.frequency().as_mhz() as f64;
    let fb = cfg_b.frequency().as_mhz() as f64;
    let ta = t_a.as_micros() as f64;
    let tb = t_b.as_micros() as f64;
    let inv_diff = 1.0 / fa - 1.0 / fb;
    let cycles_on_core = (ta - tb) / inv_diff;
    if !cycles_on_core.is_finite() || cycles_on_core < 0.0 {
        return Err(AcmpError::DemandRecovery(
            "observations imply a negative cycle count".into(),
        ));
    }
    let t_mem = ta - cycles_on_core / fa;
    if t_mem < -1.0 {
        return Err(AcmpError::DemandRecovery(
            "observations imply a negative memory time".into(),
        ));
    }
    let ref_cycles = cycles_on_core * cfg_a.core().ipc_relative_to_a7();
    Ok(CpuDemand::new(
        TimeUs::from_micros(t_mem.max(0.0).round() as u64),
        CpuCycles::new(ref_cycles.round() as u64),
    ))
}

/// One rung of the precomputed [`DvfsLadder`]: a platform configuration with
/// every demand-independent term of the Eqn. 1/5 math frozen at build time.
///
/// Besides the combined `exec_power` the optimisation objective uses, each
/// rung freezes the three *raw* power terms ([`LadderRung::active_power`],
/// [`LadderRung::idle_power`], [`LadderRung::background_power`]) the
/// [`crate::EnergyMeter`] charges per sample, so metering never re-derives
/// a power from the cluster tables. Each is computed with the exact
/// expression the platform tables use, so plane-routed samples are
/// bit-identical to the direct derivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderRung {
    /// The configuration this rung describes, in platform config-table order.
    pub config: AcmpConfig,
    /// `1 / ipc_relative_to_a7`, the factor translating reference cycles
    /// into cycles on this rung's core. Precomputed with the exact
    /// expression [`CpuDemand::time_on`] uses, so scaled cycle counts are
    /// bit-identical.
    pub inv_ipc: f64,
    /// Active power including the background cluster's idle floor: the
    /// power an execution on this rung draws (cores stay on, Sec. 4.1).
    pub exec_power: PowerMw,
    /// Active power of the executing core alone
    /// ([`Platform::active_power`] frozen).
    pub active_power: PowerMw,
    /// Idle power of the core parked at this configuration
    /// ([`Platform::idle_power`] frozen).
    pub idle_power: PowerMw,
    /// Idle floor of the rest of the SoC while this configuration runs
    /// ([`Platform::background_idle_power`] frozen).
    pub background_power: PowerMw,
}

/// The per-configuration latency/energy of one concrete demand: one row of
/// the decision table every reactive scheduling decision and every
/// optimisation-window fill iterates over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderPoint {
    /// The configuration, in platform config-table order.
    pub config: AcmpConfig,
    /// Execution latency of the demand on that configuration (Eqn. 1).
    pub time: TimeUs,
    /// Marginal energy in microjoules (Eqn. 5 cost).
    pub energy_uj: f64,
}

/// The precomputed per-configuration energy/latency ladder: the one
/// evaluator of Eqn. 1 latency and Eqn. 5 marginal energy.
///
/// Deriving a power from the platform's cluster tables walks them per call,
/// and the marginal energy's baseline idle power is an O(configs) scan with
/// per-config power evaluations; that put the 17-configuration loop of
/// every reactive decision and every ILP-window fill at the top of the
/// replay profiles. The ladder freezes all demand-independent terms once
/// per platform; evaluating a demand across all configurations is then 17
/// fused multiply-adds. Every value is computed with the exact expressions
/// of [`CpuDemand::time_on`] and the platform tables, so decisions are
/// byte-identical to a per-call derivation (pinned by the exhaustive ladder
/// test against the `tests/support/dvfs.rs` references and by the
/// golden-trace tests).
///
/// # Examples
///
/// ```
/// use pes_acmp::{CpuDemand, DvfsLadder, Platform};
/// use pes_acmp::units::{CpuCycles, TimeUs};
///
/// let platform = Platform::exynos_5410();
/// let plane = DvfsLadder::for_platform(&platform);
/// let demand = CpuDemand::new(TimeUs::from_millis(10), CpuCycles::new(200_000_000));
/// let fast = demand.time_on(&platform.max_performance_config());
/// let slow = demand.time_on(&platform.min_power_config());
/// assert!(fast < slow);
/// assert_eq!(plane.best_case_latency(&demand), fast);
/// ```
#[derive(Debug, Clone)]
pub struct DvfsLadder {
    rungs: Vec<LadderRung>,
    baseline: PowerMw,
}

impl DvfsLadder {
    /// Builds the ladder for a platform. This is the shared power plane of a
    /// replay fleet: built once per `(platform, context)` and handed out as
    /// an `Arc` to every execution engine, scheduler and energy meter, so no
    /// replay ever rebuilds the 17-rung table (a per-replay rebuild was
    /// measurable on the Interactive governor unit).
    pub fn for_platform(platform: &Platform) -> Self {
        let min_cfg = platform.min_power_config();
        let baseline = platform.idle_power(&min_cfg) + platform.background_idle_power(&min_cfg);
        let rungs = platform
            .configs()
            .iter()
            .map(|cfg| LadderRung {
                config: *cfg,
                inv_ipc: 1.0 / cfg.core().ipc_relative_to_a7(),
                exec_power: platform.active_power(cfg) + platform.background_idle_power(cfg),
                active_power: platform.active_power(cfg),
                idle_power: platform.idle_power(cfg),
                background_power: platform.background_idle_power(cfg),
            })
            .collect();
        DvfsLadder { rungs, baseline }
    }

    /// Asserts this ladder was built for `platform`'s configuration table —
    /// the construction-time guard every shared-plane consumer runs, so a
    /// plane/platform mix-up fails loudly instead of silently metering with
    /// the wrong frozen powers. One pass over a tiny table, paid once per
    /// engine/meter, never per sample.
    pub fn assert_matches(&self, platform: &Platform) {
        assert!(
            self.rungs.len() == platform.configs().len()
                && self
                    .rungs
                    .iter()
                    .zip(platform.configs())
                    .all(|(rung, cfg)| rung.config == *cfg),
            "shared DVFS plane was built for a different platform than {}",
            platform.name()
        );
    }

    /// The rung index holding `cfg`, when `cfg` is a platform operating
    /// point. A linear scan of a tiny table (17 entries on the Exynos
    /// 5410), each compare two small scalars — far cheaper than re-deriving
    /// cluster powers.
    fn rung_index(&self, cfg: &AcmpConfig) -> Option<usize> {
        self.rungs.iter().position(|r| r.config == *cfg)
    }

    /// The rung holding `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not an operating point of the platform this plane
    /// was built for. Every configuration a replay runs on comes from the
    /// platform's table.
    pub fn rung(&self, cfg: &AcmpConfig) -> &LadderRung {
        match self.rung_index(cfg) {
            Some(i) => &self.rungs[i],
            None => panic!("{cfg} is not an operating point of this DVFS plane"),
        }
    }

    /// Latency of `demand` on `rung` — identical to
    /// [`CpuDemand::time_on`] on that rung's configuration.
    fn execution_time_on(demand: &CpuDemand, rung: &LadderRung) -> TimeUs {
        demand.t_mem()
            + demand
                .ref_cycles()
                .scale(rung.inv_ipc)
                .time_at(rung.config.frequency())
    }

    /// Marginal energy of occupying `rung` for `time`.
    fn marginal_energy_over(&self, rung: &LadderRung, time: TimeUs) -> EnergyUj {
        let gross = rung.exec_power.energy_over(time);
        let baseline = self.baseline.energy_over(time);
        gross - baseline
    }

    /// `demand` evaluated on `rung`: its latency and marginal energy.
    fn point(&self, demand: &CpuDemand, rung: &LadderRung) -> LadderPoint {
        let time = Self::execution_time_on(demand, rung);
        LadderPoint {
            config: rung.config,
            time,
            energy_uj: self.marginal_energy_over(rung, time).as_microjoules(),
        }
    }

    /// The *marginal* energy of executing `demand` on `cfg`: the energy above
    /// what the processor would have drawn idling for the same wall-clock
    /// time. Because the user session length is set by the user (not by how
    /// fast events execute), minimising marginal energy is the correct
    /// scheduling objective — the always-on floor is paid either way. This is
    /// the cost used in the EBS/PES/Oracle optimisation (Eqn. 5); measured
    /// session energy still includes the floor.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not on this plane (see [`DvfsLadder::rung`]).
    pub fn marginal_energy(&self, demand: &CpuDemand, cfg: &AcmpConfig) -> EnergyUj {
        let rung = self.rung(cfg);
        self.marginal_energy_over(rung, Self::execution_time_on(demand, rung))
    }

    /// The cheapest (lowest marginal-energy) configuration that finishes
    /// `demand` within `budget`, or `None` if even the fastest configuration
    /// misses the budget (the Type I situation of Sec. 4.3). Schedulers
    /// holding a [`LadderCache`] select with [`DvfsLadder::cheapest_within`]
    /// instead, skipping even the 17 fused evaluations when the demand
    /// repeats.
    pub fn cheapest_config_within(&self, demand: &CpuDemand, budget: TimeUs) -> Option<AcmpConfig> {
        select_cheapest(
            self.rungs.iter().map(|rung| self.point(demand, rung)),
            budget,
        )
    }

    /// Latency of `demand` under the fastest configuration of the platform.
    pub fn best_case_latency(&self, demand: &CpuDemand) -> TimeUs {
        self.rungs
            .iter()
            .map(|rung| Self::execution_time_on(demand, rung))
            .min()
            .unwrap_or(TimeUs::ZERO)
    }

    /// Evaluates `demand` across every rung into `out` (cleared first,
    /// allocation reused): the demand-bucketed memo rows a [`LadderCache`]
    /// serves.
    pub fn eval_into(&self, demand: &CpuDemand, out: &mut Vec<LadderPoint>) {
        out.clear();
        out.extend(self.rungs.iter().map(|rung| self.point(demand, rung)));
    }

    /// The cheapest (lowest marginal-energy) point finishing within
    /// `budget`, or `None` when even the fastest misses it. Selection is
    /// identical to [`DvfsLadder::cheapest_config_within`] (both delegate to
    /// the same selector): strictly-less comparison keeps the first minimum
    /// on ties.
    pub fn cheapest_within(points: &[LadderPoint], budget: TimeUs) -> Option<AcmpConfig> {
        select_cheapest(points.iter().copied(), budget)
    }
}

/// The one authoritative budget selector: the cheapest configuration among
/// the candidate points whose latency fits `budget`. Strictly-less
/// comparison keeps the first minimum on ties — the tie-breaking the
/// pre-ladder `min_by` selection had, which scheduler decisions depend on.
fn select_cheapest(
    candidates: impl Iterator<Item = LadderPoint>,
    budget: TimeUs,
) -> Option<AcmpConfig> {
    let mut best: Option<(AcmpConfig, f64)> = None;
    for point in candidates {
        if point.time > budget {
            continue;
        }
        assert!(point.energy_uj.is_finite(), "energy is finite");
        match best {
            Some((_, cheapest)) if point.energy_uj >= cheapest => {}
            _ => best = Some((point.config, point.energy_uj)),
        }
    }
    best.map(|(cfg, _)| cfg)
}

/// Number of demands a [`LadderCache`] retains.
const LADDER_CACHE_SIZE: usize = 32;

/// A small demand-keyed memo of ladder evaluations.
///
/// Reactive decisions and window fills evaluate the same few demands over
/// and over — profiled per-event-type estimates only move when an
/// observation lands, and the PES planner quantises its estimates onto a
/// coarse grid precisely so the same rows recur across prediction rounds.
/// The cache is a ring of demand-keyed rows of [`LadderPoint`]s with linear
/// lookup: hits cost a handful of 16-byte key compares, misses re-evaluate
/// into the evicted row's allocation.
///
/// Callers own their cache (one per scheduler / replay scratch); rows are
/// only meaningful against the ladder they were filled from.
#[derive(Debug, Clone, Default)]
pub struct LadderCache {
    entries: Vec<(CpuDemand, Vec<LadderPoint>)>,
    cursor: usize,
    hits: usize,
    misses: usize,
}

impl LadderCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        LadderCache::default()
    }

    /// `(hits, misses)` so far; used by tests to prove the memo engages.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Drops every cached row (e.g. on scheduler reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cursor = 0;
    }

    /// The per-configuration points of `demand`, in platform config-table
    /// order, from cache when the demand was evaluated recently; a miss
    /// fills (or recycles) one ring slot.
    pub fn points(&mut self, ladder: &DvfsLadder, demand: &CpuDemand) -> &[LadderPoint] {
        if let Some(slot) = self.entries.iter().position(|(key, _)| key == demand) {
            self.hits += 1;
            return &self.entries[slot].1;
        }
        self.misses += 1;
        let slot = if self.entries.len() < LADDER_CACHE_SIZE {
            self.entries.push((*demand, Vec::new()));
            self.entries.len() - 1
        } else {
            let slot = self.cursor;
            self.cursor = (self.cursor + 1) % LADDER_CACHE_SIZE;
            self.entries[slot].0 = *demand;
            slot
        };
        let row = &mut self.entries[slot].1;
        ladder.eval_into(demand, row);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreKind;
    use crate::oracle::{cheapest_config_within_reference, marginal_energy_reference};
    use crate::units::FreqMhz;

    fn model_fixture() -> (Platform, CpuDemand) {
        let platform = Platform::exynos_5410();
        let demand = CpuDemand::new(TimeUs::from_millis(20), CpuCycles::new(300_000_000));
        (platform, demand)
    }

    #[test]
    fn latency_decreases_with_throughput() {
        let (platform, demand) = model_fixture();
        let latencies: Vec<u64> = platform
            .configs()
            .iter()
            .map(|cfg| demand.time_on(cfg).as_micros())
            .collect();
        // Configurations are sorted by effective throughput, so latency must
        // be non-increasing along the table.
        assert!(latencies.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn memory_time_is_frequency_independent() {
        let platform = Platform::exynos_5410();
        let pure_mem = CpuDemand::new(TimeUs::from_millis(7), CpuCycles::ZERO);
        for cfg in platform.configs() {
            assert_eq!(pure_mem.time_on(cfg), TimeUs::from_millis(7));
        }
    }

    #[test]
    fn energy_tradeoff_little_is_cheaper_but_slower() {
        let (platform, demand) = model_fixture();
        let plane = DvfsLadder::for_platform(&platform);
        let big = platform.max_performance_config();
        let little = AcmpConfig::new(CoreKind::LittleA7, FreqMhz::new(600));
        assert!(demand.time_on(&big) < demand.time_on(&little));
        assert!(
            plane.marginal_energy(&demand, &big).as_microjoules()
                > plane.marginal_energy(&demand, &little).as_microjoules(),
            "big core should cost more marginal energy for the same work"
        );
        // The baseline idle floor is charged during execution regardless of
        // the configuration, so marginal energy is strictly below gross.
        let gross = plane
            .rung(&big)
            .exec_power
            .energy_over(demand.time_on(&big));
        assert!(plane.marginal_energy(&demand, &big).as_microjoules() < gross.as_microjoules());
    }

    #[test]
    fn demand_recovery_round_trips() {
        let (_, demand) = model_fixture();
        let cfg_a = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1000));
        let cfg_b = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1600));
        let t_a = demand.time_on(&cfg_a);
        let t_b = demand.time_on(&cfg_b);
        let recovered = recover_demand((cfg_a, t_a), (cfg_b, t_b)).unwrap();
        let rel_err = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b as f64).max(1.0);
        assert!(rel_err(recovered.t_mem().as_micros(), demand.t_mem().as_micros()) < 0.02);
        assert!(rel_err(recovered.ref_cycles().get(), demand.ref_cycles().get()) < 0.02);
    }

    #[test]
    fn demand_recovery_rejects_degenerate_observations() {
        let (_, demand) = model_fixture();
        let cfg = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1000));
        let t = demand.time_on(&cfg);
        assert!(recover_demand((cfg, t), (cfg, t)).is_err());
        let little = AcmpConfig::new(CoreKind::LittleA7, FreqMhz::new(600));
        assert!(recover_demand((cfg, t), (little, demand.time_on(&little))).is_err());
        // Inconsistent observations: lower frequency reported *faster* time.
        let cfg_hi = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1800));
        assert!(recover_demand(
            (cfg, TimeUs::from_millis(5)),
            (cfg_hi, TimeUs::from_millis(50))
        )
        .is_err());
    }

    #[test]
    fn cheapest_config_within_budget_prefers_low_energy() {
        let (platform, demand) = model_fixture();
        let plane = DvfsLadder::for_platform(&platform);
        // A generous budget should pick something on the little cluster.
        let generous = plane
            .cheapest_config_within(&demand, TimeUs::from_secs(10))
            .unwrap();
        assert_eq!(generous.core(), CoreKind::LittleA7);
        // A tight-but-feasible budget forces the big cluster.
        let tight_budget =
            demand.time_on(&platform.max_performance_config()) + TimeUs::from_millis(1);
        let tight = plane.cheapest_config_within(&demand, tight_budget).unwrap();
        assert_eq!(tight.core(), CoreKind::BigA15);
        // An impossible budget yields no configuration (Type I event).
        assert!(plane
            .cheapest_config_within(&demand, TimeUs::from_micros(10))
            .is_none());
    }

    #[test]
    fn demand_combine_and_scale() {
        let c = CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(3_000));
        let half = c.scale(0.5);
        assert_eq!(half.t_mem(), TimeUs::from_micros(2_500));
        assert_eq!(half.ref_cycles().get(), 1_500);
    }

    #[test]
    fn ladder_matches_direct_model_bit_for_bit() {
        for platform in [Platform::exynos_5410(), Platform::tx2_parker()] {
            let ladder = DvfsLadder::for_platform(&platform);
            let demands = [
                CpuDemand::ZERO,
                CpuDemand::new(TimeUs::from_micros(137), CpuCycles::new(999_999)),
                CpuDemand::new(TimeUs::from_millis(20), CpuCycles::new(300_000_000)),
            ];
            let mut points = Vec::new();
            for demand in &demands {
                ladder.eval_into(demand, &mut points);
                assert_eq!(points.len(), platform.configs().len());
                for (i, (point, cfg)) in points.iter().zip(platform.configs()).enumerate() {
                    assert_eq!(point.config, *cfg);
                    assert_eq!(point.time, demand.time_on(cfg));
                    assert_eq!(
                        point.energy_uj.to_bits(),
                        marginal_energy_reference(&platform, demand, cfg)
                            .as_microjoules()
                            .to_bits(),
                        "rung {i} energy must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_rung_powers_match_the_platform_tables_bit_for_bit() {
        for platform in [Platform::exynos_5410(), Platform::tx2_parker()] {
            let ladder = DvfsLadder::for_platform(&platform);
            for (i, cfg) in platform.configs().iter().enumerate() {
                assert_eq!(ladder.rung_index(cfg), Some(i));
                let rung = ladder.rung(cfg);
                let bits = |p: PowerMw| p.as_milliwatts().to_bits();
                assert_eq!(bits(rung.active_power), bits(platform.active_power(cfg)));
                assert_eq!(bits(rung.idle_power), bits(platform.idle_power(cfg)));
                assert_eq!(
                    bits(rung.background_power),
                    bits(platform.background_idle_power(cfg))
                );
                assert_eq!(
                    bits(rung.exec_power),
                    bits(platform.active_power(cfg) + platform.background_idle_power(cfg))
                );
            }
            let foreign = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(123));
            assert_eq!(ladder.rung_index(&foreign), None);
        }
    }

    #[test]
    #[should_panic(expected = "different platform")]
    fn mismatched_plane_is_rejected_at_construction() {
        let exynos = Platform::exynos_5410();
        let tx2 = Platform::tx2_parker();
        let plane = std::sync::Arc::new(DvfsLadder::for_platform(&tx2));
        let _ = crate::EnergyMeter::with_plane(&exynos, plane);
    }

    #[test]
    fn shared_ladder_models_reuse_one_plane() {
        let platform = Platform::exynos_5410();
        let plane = std::sync::Arc::new(DvfsLadder::for_platform(&platform));
        let a = std::sync::Arc::clone(&plane);
        let b = std::sync::Arc::clone(&plane);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        // A shared plane answers exactly as a freshly built one.
        let fresh = DvfsLadder::for_platform(&platform);
        let demand = CpuDemand::new(TimeUs::from_millis(3), CpuCycles::new(90_000_000));
        for cfg in platform.configs() {
            assert_eq!(a.rung(cfg), fresh.rung(cfg));
            assert_eq!(
                a.marginal_energy(&demand, cfg).as_microjoules().to_bits(),
                fresh
                    .marginal_energy(&demand, cfg)
                    .as_microjoules()
                    .to_bits()
            );
        }
        assert_eq!(
            b.best_case_latency(&demand),
            fresh.best_case_latency(&demand)
        );
    }

    #[test]
    fn ladder_cache_hits_on_repeated_demands_and_survives_eviction() {
        let platform = Platform::exynos_5410();
        let ladder = DvfsLadder::for_platform(&platform);
        let mut cache = LadderCache::new();
        let demand = CpuDemand::new(TimeUs::from_millis(3), CpuCycles::new(90_000_000));
        let first = cache.points(&ladder, &demand).to_vec();
        let again = cache.points(&ladder, &demand).to_vec();
        assert_eq!(first, again);
        assert_eq!(cache.stats(), (1, 1));
        // Push enough distinct demands through to wrap the ring, then ask
        // for one of the evicted rows again: it must be re-evaluated, not
        // served stale.
        for i in 0..40u64 {
            let d = CpuDemand::new(TimeUs::from_micros(i), CpuCycles::new(i * 1_000));
            let points = cache.points(&ladder, &d).to_vec();
            let mut expected = Vec::new();
            ladder.eval_into(&d, &mut expected);
            assert_eq!(points, expected);
        }
        let revisited = cache.points(&ladder, &demand).to_vec();
        assert_eq!(revisited, first);
        cache.clear();
        assert_eq!(cache.points(&ladder, &demand).to_vec(), first);
    }

    #[test]
    fn ladder_selection_matches_the_reference_selector() {
        let (platform, demand) = model_fixture();
        let ladder = DvfsLadder::for_platform(&platform);
        let mut points = Vec::new();
        ladder.eval_into(&demand, &mut points);
        for budget_us in [10, 28_000, 40_000, 75_000, 200_000, 10_000_000] {
            let budget = TimeUs::from_micros(budget_us);
            assert_eq!(
                DvfsLadder::cheapest_within(&points, budget),
                cheapest_config_within_reference(&platform, &demand, budget),
                "selection diverged at budget {budget_us}us"
            );
            assert_eq!(
                ladder.cheapest_config_within(&demand, budget),
                cheapest_config_within_reference(&platform, &demand, budget),
            );
        }
    }

    #[test]
    #[should_panic(expected = "1234 MHz")]
    fn rung_panics_for_off_ladder_configs() {
        let platform = Platform::exynos_5410();
        let ladder = DvfsLadder::for_platform(&platform);
        // 1234 MHz is not an Exynos operating point.
        let _ = ladder.rung(&AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1234)));
    }

    #[test]
    fn execution_power_includes_background_cluster() {
        let (platform, _) = model_fixture();
        let ladder = DvfsLadder::for_platform(&platform);
        let cfg = platform.max_performance_config();
        assert!(
            ladder.rung(&cfg).exec_power.as_milliwatts()
                > platform.active_power(&cfg).as_milliwatts()
        );
    }

    #[test]
    fn best_case_latency_equals_fastest_config() {
        let (platform, demand) = model_fixture();
        let ladder = DvfsLadder::for_platform(&platform);
        assert_eq!(
            ladder.best_case_latency(&demand),
            demand.time_on(&platform.max_performance_config())
        );
    }
}
