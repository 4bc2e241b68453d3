//! The analytical DVFS latency model of Eqn. 1: `T = Tmem + Ndep / f`.
//!
//! Events carry a [`CpuDemand`] (memory-bound time plus a CPU-cycle
//! requirement); [`DvfsModel`] maps a demand and an [`AcmpConfig`] to an
//! execution latency and to the energy spent, and — like EBS and PES — can
//! *recover* the demand from two latency observations at different
//! frequencies by solving the two-equation system described in Sec. 5.3.

use std::sync::Arc;

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
}

/// One rung of the precomputed [`DvfsLadder`]: a platform configuration with
/// every demand-independent term of the Eqn. 1/5 math frozen at build time.
///
/// Besides the combined `exec_power` the optimisation objective uses, each
/// rung freezes the three *raw* power terms ([`LadderRung::active_power`],
/// [`LadderRung::idle_power`], [`LadderRung::background_power`]) that the
/// [`crate::EnergyMeter`] previously re-derived from the cluster tables on
/// every `record_busy`/`record_idle` call — the per-call math the shared
/// power plane removes from the metering hot path. Each is computed with the
/// exact expression the platform tables use, so plane-routed samples are
/// bit-identical to the direct derivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderRung {
    /// The configuration this rung describes, in platform config-table order.
    pub config: AcmpConfig,
    /// `1 / ipc_relative_to_a7`, the factor translating reference cycles
    /// into cycles on this rung's core. Precomputed with the exact
    /// expression the direct model uses, so scaled cycle counts are
    /// bit-identical.
    pub inv_ipc: f64,
    /// Active power including the background cluster's idle floor — the
    /// value [`DvfsModel::execution_power`] recomputes from the platform on
    /// every call.
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

/// The precomputed per-configuration energy/latency ladder.
///
/// The direct [`DvfsModel`] methods walk the platform's cluster tables on
/// every call — `marginal_energy` even re-derives the baseline idle power
/// (an O(configs) scan with per-config power evaluations) each time, which
/// put the 17-configuration loop of every reactive decision and every
/// ILP-window fill at the top of the replay profiles. The ladder freezes all
/// demand-independent terms once per platform; evaluating a demand across
/// all configurations is then 17 fused multiply-adds. Every value is
/// computed with the exact expressions of the direct model, so decisions are
/// byte-identical (pinned by the exhaustive ladder test and the golden-trace
/// tests).
#[derive(Debug, Clone)]
pub struct DvfsLadder {
    rungs: Vec<LadderRung>,
    baseline: PowerMw,
}

impl DvfsLadder {
    /// Builds the ladder for a platform. This is the shared power plane of a
    /// replay fleet: built once per `(platform, context)` and handed out as
    /// an `Arc` to every execution engine, scheduler and energy meter, so no
    /// replay ever rebuilds the 17-rung table (the per-replay
    /// `DvfsModel::new` rebuild was measurable on the Interactive governor
    /// unit).
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
    pub fn rung_index(&self, cfg: &AcmpConfig) -> Option<usize> {
        self.rungs.iter().position(|r| r.config == *cfg)
    }

    /// Number of configurations (rungs).
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Whether the ladder has no rungs (never true for a valid platform).
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// The precomputed rungs, in platform config-table order.
    pub fn rungs(&self) -> &[LadderRung] {
        &self.rungs
    }

    /// The precomputed baseline idle power (the always-on floor charged
    /// against gross energy in the marginal-energy objective).
    pub fn baseline_idle_power(&self) -> PowerMw {
        self.baseline
    }

    /// Latency of `demand` on rung `index` — identical to
    /// [`DvfsModel::execution_time`] on that rung's configuration.
    pub fn execution_time_at(&self, demand: &CpuDemand, index: usize) -> TimeUs {
        let rung = &self.rungs[index];
        demand.t_mem()
            + demand
                .ref_cycles()
                .scale(rung.inv_ipc)
                .time_at(rung.config.frequency())
    }

    /// Marginal energy of `demand` on rung `index` — identical to
    /// [`DvfsModel::marginal_energy`] on that rung's configuration.
    pub fn marginal_energy_at(&self, demand: &CpuDemand, index: usize) -> EnergyUj {
        let time = self.execution_time_at(demand, index);
        self.marginal_energy_over(index, time)
    }

    /// Marginal energy of occupying rung `index` for `time`.
    fn marginal_energy_over(&self, index: usize, time: TimeUs) -> EnergyUj {
        let gross = self.rungs[index].exec_power.energy_over(time);
        let baseline = self.baseline.energy_over(time);
        gross - baseline
    }

    /// Evaluates `demand` across every rung into `out` (cleared first,
    /// allocation reused): the demand-bucketed memo rows a [`LadderCache`]
    /// serves.
    pub fn eval_into(&self, demand: &CpuDemand, out: &mut Vec<LadderPoint>) {
        out.clear();
        out.extend((0..self.rungs.len()).map(|i| {
            let time = self.execution_time_at(demand, i);
            LadderPoint {
                config: self.rungs[i].config,
                time,
                energy_uj: self.marginal_energy_over(i, time).as_microjoules(),
            }
        }));
    }

    /// The cheapest (lowest marginal-energy) point finishing within
    /// `budget`, or `None` when even the fastest misses it. Selection is
    /// identical to [`DvfsModel::cheapest_config_within`] (both delegate to
    /// the same selector): strictly-less comparison keeps the first minimum
    /// on ties.
    pub fn cheapest_within(points: &[LadderPoint], budget: TimeUs) -> Option<AcmpConfig> {
        select_cheapest(
            points.iter().map(|p| (p.time, p.energy_uj, p.config)),
            budget,
        )
    }
}

/// The one authoritative budget selector: the cheapest configuration among
/// `(latency, marginal energy µJ, config)` candidates whose latency fits
/// `budget`. Strictly-less comparison keeps the first minimum on ties — the
/// tie-breaking the pre-ladder `min_by` selection had, which scheduler
/// decisions depend on.
fn select_cheapest(
    candidates: impl Iterator<Item = (TimeUs, f64, AcmpConfig)>,
    budget: TimeUs,
) -> Option<AcmpConfig> {
    let mut best: Option<(AcmpConfig, f64)> = None;
    for (time, energy, config) in candidates {
        if time > budget {
            continue;
        }
        assert!(energy.is_finite(), "energy is finite");
        match best {
            Some((_, cheapest)) if energy >= cheapest => {}
            _ => best = Some((config, energy)),
        }
    }
    best.map(|(cfg, _)| cfg)
}

/// Number of demands a [`LadderCache`] retains.
const LADDER_CACHE_SIZE: usize = 32;

/// One memoised ladder row: the per-configuration [`LadderPoint`]s of a
/// demand plus, computed lazily on first request, the sorted index order
/// the optimisation-window poser carries into the solver.
///
/// The order is a **stable** sort of the point indices by marginal energy
/// (the solver's option cost), with exactly the tie-breaking
/// `ScheduleProblem`'s own table build uses, so a window re-posed from it
/// is bit-identical to one that re-sorted the options itself.
#[derive(Debug, Clone, Default)]
pub struct LadderRow {
    points: Vec<LadderPoint>,
    by_cost: Vec<u32>,
}

impl LadderRow {
    /// The per-configuration points, in platform config-table order.
    pub fn points(&self) -> &[LadderPoint] {
        &self.points
    }

    /// Point indices sorted ascending by marginal energy (stable: ties keep
    /// config-table order). Only present after [`LadderCache::row`] served
    /// this row at least once.
    pub fn by_cost(&self) -> &[u32] {
        &self.by_cost
    }

    /// Re-evaluates the row for a new demand, invalidating the sorted
    /// order (it is rebuilt lazily by [`LadderRow::ensure_sorted`]).
    fn refill(&mut self, ladder: &DvfsLadder, demand: &CpuDemand) {
        ladder.eval_into(demand, &mut self.points);
        self.by_cost.clear();
    }

    /// Builds the sorted order if this row does not hold it yet. Pure
    /// `points()` consumers (reactive decisions) never pay for the sorts.
    // The comparator `expect` restates a ladder invariant: `eval_into` only
    // produces finite energies (finite power × finite time), so the partial
    // ordering is total here.
    #[allow(clippy::expect_used)]
    fn ensure_sorted(&mut self) {
        if self.by_cost.len() == self.points.len() {
            return;
        }
        self.by_cost.clear();
        self.by_cost.extend(0..self.points.len() as u32);
        let points = &self.points;
        self.by_cost.sort_by(|&a, &b| {
            points[a as usize]
                .energy_uj
                .partial_cmp(&points[b as usize].energy_uj)
                .expect("ladder energies are finite")
        });
    }
}

/// A small demand-keyed memo of ladder evaluations.
///
/// Reactive decisions and window fills evaluate the same few demands over
/// and over — profiled per-event-type estimates only move when an
/// observation lands, and the PES planner quantises its estimates onto a
/// coarse grid precisely so the same rows recur across prediction rounds.
/// The cache is a ring of demand-keyed [`LadderRow`]s with linear lookup:
/// hits cost a handful of 16-byte key compares, misses re-evaluate into the
/// evicted row's allocations.
///
/// Callers own their cache (one per scheduler / replay scratch); rows are
/// only meaningful against the ladder they were filled from.
#[derive(Debug, Clone, Default)]
pub struct LadderCache {
    entries: Vec<(CpuDemand, LadderRow)>,
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

    /// The ring slot holding `demand`, filling (or recycling) one on a miss.
    fn slot(&mut self, ladder: &DvfsLadder, demand: &CpuDemand) -> usize {
        if let Some(slot) = self.entries.iter().position(|(key, _)| key == demand) {
            self.hits += 1;
            return slot;
        }
        self.misses += 1;
        let slot = if self.entries.len() < LADDER_CACHE_SIZE {
            self.entries.push((*demand, LadderRow::default()));
            self.entries.len() - 1
        } else {
            let slot = self.cursor;
            self.cursor = (self.cursor + 1) % LADDER_CACHE_SIZE;
            self.entries[slot].0 = *demand;
            slot
        };
        self.entries[slot].1.refill(ladder, demand);
        slot
    }

    /// The per-configuration points of `demand`, from cache when the demand
    /// was evaluated recently.
    pub fn points(&mut self, ladder: &DvfsLadder, demand: &CpuDemand) -> &[LadderPoint] {
        let slot = self.slot(ladder, demand);
        self.entries[slot].1.points()
    }

    /// The full row of `demand` — points plus the cost- and duration-sorted
    /// index orders (computed on first request and memoised with the row).
    /// This is what the PES window poser consumes so a re-posed
    /// `ScheduleProblem` never re-sorts its option tables.
    pub fn row(&mut self, ladder: &DvfsLadder, demand: &CpuDemand) -> &LadderRow {
        let slot = self.slot(ladder, demand);
        self.entries[slot].1.ensure_sorted();
        &self.entries[slot].1
    }
}

/// The DVFS latency/energy model bound to a concrete [`Platform`].
///
/// # Examples
///
/// ```
/// use pes_acmp::{Platform, dvfs::{CpuDemand, DvfsModel}};
/// use pes_acmp::units::{CpuCycles, TimeUs};
///
/// let platform = Platform::exynos_5410();
/// let model = DvfsModel::new(&platform);
/// let demand = CpuDemand::new(TimeUs::from_millis(10), CpuCycles::new(200_000_000));
/// let fast = model.execution_time(&demand, &platform.max_performance_config());
/// let slow = model.execution_time(&demand, &platform.min_power_config());
/// assert!(fast < slow);
/// ```
#[derive(Debug, Clone)]
pub struct DvfsModel<'p> {
    platform: &'p Platform,
    ladder: Arc<DvfsLadder>,
}

impl<'p> DvfsModel<'p> {
    /// Binds the model to a platform, precomputing the per-configuration
    /// ladder.
    pub fn new(platform: &'p Platform) -> Self {
        DvfsModel {
            platform,
            ladder: Arc::new(DvfsLadder::for_platform(platform)),
        }
    }

    /// Binds the model to a platform using an already-built shared ladder
    /// (the context-wide power plane), skipping the per-model ladder build.
    ///
    /// # Panics
    ///
    /// Panics if the ladder was built for a different platform.
    pub fn with_ladder(platform: &'p Platform, ladder: Arc<DvfsLadder>) -> Self {
        ladder.assert_matches(platform);
        DvfsModel { platform, ladder }
    }

    /// The platform this model is bound to.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The precomputed per-configuration ladder.
    pub fn ladder(&self) -> &DvfsLadder {
        &self.ladder
    }

    /// The shared handle to the ladder, for callers that hand the same power
    /// plane to other components (e.g. the energy meter).
    pub fn shared_ladder(&self) -> &Arc<DvfsLadder> {
        &self.ladder
    }

    /// The ladder rung holding `cfg`, when `cfg` is a platform operating
    /// point.
    fn rung_for(&self, cfg: &AcmpConfig) -> Option<&LadderRung> {
        self.ladder.rung_index(cfg).map(|i| &self.ladder.rungs[i])
    }

    /// Execution latency of `demand` on configuration `cfg` (Eqn. 1/3):
    /// `T = Tmem + Ndep(core) / f`.
    pub fn execution_time(&self, demand: &CpuDemand, cfg: &AcmpConfig) -> TimeUs {
        let cycles_on_core = demand
            .ref_cycles()
            .scale(1.0 / cfg.core().ipc_relative_to_a7());
        demand.t_mem() + cycles_on_core.time_at(cfg.frequency())
    }

    /// Active power drawn while executing on `cfg`, including the idle power
    /// of the other cluster (cores stay on, Sec. 4.1). Served from the
    /// precomputed ladder for platform operating points; derived directly
    /// (identically) for off-ladder configurations.
    pub fn execution_power(&self, cfg: &AcmpConfig) -> PowerMw {
        match self.rung_for(cfg) {
            Some(rung) => rung.exec_power,
            None => self.off_ladder_execution_power(cfg),
        }
    }

    /// The live fallback of [`DvfsModel::execution_power`] for a
    /// configuration that is not a platform operating point: the same sum
    /// the ladder freezes per rung, derived from the platform tables.
    fn off_ladder_execution_power(&self, cfg: &AcmpConfig) -> PowerMw {
        self.platform.active_power(cfg) + self.platform.background_idle_power(cfg)
    }

    /// Energy spent executing `demand` on `cfg`.
    pub fn execution_energy(&self, demand: &CpuDemand, cfg: &AcmpConfig) -> EnergyUj {
        self.execution_power(cfg)
            .energy_over(self.execution_time(demand, cfg))
    }

    /// Idle power while the runtime waits at configuration `cfg` (own core
    /// idling plus the other cluster's idle floor).
    pub fn idle_power(&self, cfg: &AcmpConfig) -> PowerMw {
        self.platform.idle_power(cfg) + self.platform.background_idle_power(cfg)
    }

    /// The lowest possible idle power of the whole processor subsystem: every
    /// cluster parked at its minimum operating point plus the SoC floor. This
    /// is the power that is drawn during a user session *regardless* of
    /// scheduling decisions. Precomputed at construction — the pre-ladder
    /// implementation re-derived the minimum-power configuration (an
    /// O(configs) power scan) on every call, on the hot path of every
    /// marginal-energy evaluation.
    pub fn baseline_idle_power(&self) -> PowerMw {
        self.ladder.baseline
    }

    /// The *marginal* energy of executing `demand` on `cfg`: the energy above
    /// what the processor would have drawn idling for the same wall-clock
    /// time. Because the user session length is set by the user (not by how
    /// fast events execute), minimising marginal energy is the correct
    /// scheduling objective — the always-on floor is paid either way. This is
    /// the cost used in the EBS/PES/Oracle optimisation (Eqn. 5); measured
    /// session energy still includes the floor.
    pub fn marginal_energy(&self, demand: &CpuDemand, cfg: &AcmpConfig) -> EnergyUj {
        let time = self.execution_time(demand, cfg);
        let gross = self.execution_power(cfg).energy_over(time);
        let baseline = self.baseline_idle_power().energy_over(time);
        gross - baseline
    }

    /// Recovers a [`CpuDemand`] from two latency observations of the *same*
    /// event workload taken at two different frequencies on the same core
    /// kind, by solving the linear system of Eqn. 1 — the online profiling
    /// step both EBS and PES perform the first two times an event is seen
    /// (Sec. 5.3).
    ///
    /// # Errors
    ///
    /// Returns [`AcmpError::DemandRecovery`] when the two observations use
    /// the same frequency or different core kinds, or when the observations
    /// are inconsistent (they would imply negative `Tmem` or `Ndep`, in which
    /// case the closest physically meaningful demand is unrecoverable).
    pub fn recover_demand(
        &self,
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

    /// The cheapest (lowest marginal-energy) configuration that finishes
    /// `demand` within `budget`, or `None` if even the fastest configuration
    /// misses the budget (the Type I situation of Sec. 4.3). Evaluated over
    /// the precomputed ladder; schedulers holding a [`LadderCache`] can skip
    /// even the 17 fused evaluations when the demand repeats.
    pub fn cheapest_config_within(&self, demand: &CpuDemand, budget: TimeUs) -> Option<AcmpConfig> {
        select_cheapest(
            (0..self.ladder.len()).map(|i| {
                (
                    self.ladder.execution_time_at(demand, i),
                    self.ladder.marginal_energy_at(demand, i).as_microjoules(),
                    self.ladder.rungs[i].config,
                )
            }),
            budget,
        )
    }

    /// Latency of `demand` under the fastest configuration of the platform.
    pub fn best_case_latency(&self, demand: &CpuDemand) -> TimeUs {
        self.platform
            .configs()
            .iter()
            .map(|cfg| self.execution_time(demand, cfg))
            .min()
            .unwrap_or(TimeUs::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreKind;
    use crate::oracle::{
        baseline_idle_power_reference, cheapest_config_within_reference, execution_power_reference,
        marginal_energy_reference,
    };
    use crate::units::FreqMhz;

    fn model_fixture() -> (Platform, CpuDemand) {
        let platform = Platform::exynos_5410();
        let demand = CpuDemand::new(TimeUs::from_millis(20), CpuCycles::new(300_000_000));
        (platform, demand)
    }

    #[test]
    fn latency_decreases_with_throughput() {
        let (platform, demand) = model_fixture();
        let model = DvfsModel::new(&platform);
        let latencies: Vec<u64> = platform
            .configs()
            .iter()
            .map(|cfg| model.execution_time(&demand, cfg).as_micros())
            .collect();
        // Configurations are sorted by effective throughput, so latency must
        // be non-increasing along the table.
        assert!(latencies.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn memory_time_is_frequency_independent() {
        let platform = Platform::exynos_5410();
        let model = DvfsModel::new(&platform);
        let pure_mem = CpuDemand::new(TimeUs::from_millis(7), CpuCycles::ZERO);
        for cfg in platform.configs() {
            assert_eq!(model.execution_time(&pure_mem, cfg), TimeUs::from_millis(7));
        }
    }

    #[test]
    fn energy_tradeoff_little_is_cheaper_but_slower() {
        let (platform, demand) = model_fixture();
        let model = DvfsModel::new(&platform);
        let big = platform.max_performance_config();
        let little = AcmpConfig::new(CoreKind::LittleA7, FreqMhz::new(600));
        assert!(model.execution_time(&demand, &big) < model.execution_time(&demand, &little));
        assert!(
            model.marginal_energy(&demand, &big).as_microjoules()
                > model.marginal_energy(&demand, &little).as_microjoules(),
            "big core should cost more marginal energy for the same work"
        );
        // The baseline idle floor is charged during execution regardless of
        // the configuration, so marginal energy is strictly below gross.
        assert!(
            model.marginal_energy(&demand, &big).as_microjoules()
                < model.execution_energy(&demand, &big).as_microjoules()
        );
    }

    #[test]
    fn demand_recovery_round_trips() {
        let (platform, demand) = model_fixture();
        let model = DvfsModel::new(&platform);
        let cfg_a = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1000));
        let cfg_b = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1600));
        let t_a = model.execution_time(&demand, &cfg_a);
        let t_b = model.execution_time(&demand, &cfg_b);
        let recovered = model.recover_demand((cfg_a, t_a), (cfg_b, t_b)).unwrap();
        let rel_err = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b as f64).max(1.0);
        assert!(rel_err(recovered.t_mem().as_micros(), demand.t_mem().as_micros()) < 0.02);
        assert!(rel_err(recovered.ref_cycles().get(), demand.ref_cycles().get()) < 0.02);
    }

    #[test]
    fn demand_recovery_rejects_degenerate_observations() {
        let (platform, demand) = model_fixture();
        let model = DvfsModel::new(&platform);
        let cfg = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1000));
        let t = model.execution_time(&demand, &cfg);
        assert!(model.recover_demand((cfg, t), (cfg, t)).is_err());
        let little = AcmpConfig::new(CoreKind::LittleA7, FreqMhz::new(600));
        assert!(model
            .recover_demand((cfg, t), (little, model.execution_time(&demand, &little)))
            .is_err());
        // Inconsistent observations: lower frequency reported *faster* time.
        let cfg_hi = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1800));
        assert!(model
            .recover_demand(
                (cfg, TimeUs::from_millis(5)),
                (cfg_hi, TimeUs::from_millis(50))
            )
            .is_err());
    }

    #[test]
    fn cheapest_config_within_budget_prefers_low_energy() {
        let (platform, demand) = model_fixture();
        let model = DvfsModel::new(&platform);
        // A generous budget should pick something on the little cluster.
        let generous = model
            .cheapest_config_within(&demand, TimeUs::from_secs(10))
            .unwrap();
        assert_eq!(generous.core(), CoreKind::LittleA7);
        // A tight-but-feasible budget forces the big cluster.
        let tight_budget = model.execution_time(&demand, &platform.max_performance_config())
            + TimeUs::from_millis(1);
        let tight = model.cheapest_config_within(&demand, tight_budget).unwrap();
        assert_eq!(tight.core(), CoreKind::BigA15);
        // An impossible budget yields no configuration (Type I event).
        assert!(model
            .cheapest_config_within(&demand, TimeUs::from_micros(10))
            .is_none());
    }

    #[test]
    fn demand_combine_and_scale() {
        let c = CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(3_000));
        let half = c.scale(0.5);
        assert_eq!(half.t_mem(), TimeUs::from_millis_f64(2.5));
        assert_eq!(half.ref_cycles().get(), 1_500);
    }

    #[test]
    fn ladder_matches_direct_model_bit_for_bit() {
        for platform in [Platform::exynos_5410(), Platform::tx2_parker()] {
            let model = DvfsModel::new(&platform);
            let ladder = model.ladder();
            assert_eq!(ladder.len(), platform.configs().len());
            assert_eq!(
                ladder.baseline_idle_power().as_milliwatts(),
                baseline_idle_power_reference(&model).as_milliwatts()
            );
            let demands = [
                CpuDemand::ZERO,
                CpuDemand::new(TimeUs::from_micros(137), CpuCycles::new(999_999)),
                CpuDemand::new(TimeUs::from_millis(20), CpuCycles::new(300_000_000)),
            ];
            let mut points = Vec::new();
            for demand in &demands {
                ladder.eval_into(demand, &mut points);
                for (i, (point, cfg)) in points.iter().zip(platform.configs()).enumerate() {
                    assert_eq!(point.config, *cfg);
                    assert_eq!(point.time, model.execution_time(demand, cfg));
                    assert_eq!(
                        point.energy_uj.to_bits(),
                        marginal_energy_reference(&model, demand, cfg)
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
                let rung = &ladder.rungs()[i];
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
        let _ = DvfsModel::with_ladder(&exynos, plane);
    }

    #[test]
    fn shared_ladder_models_reuse_one_plane() {
        let platform = Platform::exynos_5410();
        let plane = std::sync::Arc::new(DvfsLadder::for_platform(&platform));
        let a = DvfsModel::with_ladder(&platform, std::sync::Arc::clone(&plane));
        let b = DvfsModel::with_ladder(&platform, std::sync::Arc::clone(&plane));
        assert!(std::sync::Arc::ptr_eq(a.shared_ladder(), b.shared_ladder()));
        // Shared-plane models answer exactly as freshly built ones.
        let fresh = DvfsModel::new(&platform);
        let demand = CpuDemand::new(TimeUs::from_millis(3), CpuCycles::new(90_000_000));
        for cfg in platform.configs() {
            assert_eq!(
                a.execution_time(&demand, cfg),
                fresh.execution_time(&demand, cfg)
            );
            assert_eq!(
                a.marginal_energy(&demand, cfg).as_microjoules().to_bits(),
                fresh
                    .marginal_energy(&demand, cfg)
                    .as_microjoules()
                    .to_bits()
            );
        }
    }

    #[test]
    fn ladder_cache_hits_on_repeated_demands_and_survives_eviction() {
        let platform = Platform::exynos_5410();
        let model = DvfsModel::new(&platform);
        let mut cache = LadderCache::new();
        let demand = CpuDemand::new(TimeUs::from_millis(3), CpuCycles::new(90_000_000));
        let first = cache.points(model.ladder(), &demand).to_vec();
        let again = cache.points(model.ladder(), &demand).to_vec();
        assert_eq!(first, again);
        assert_eq!(cache.stats(), (1, 1));
        // Push enough distinct demands through to wrap the ring, then ask
        // for one of the evicted rows again: it must be re-evaluated, not
        // served stale.
        for i in 0..40u64 {
            let d = CpuDemand::new(TimeUs::from_micros(i), CpuCycles::new(i * 1_000));
            let points = cache.points(model.ladder(), &d).to_vec();
            let mut expected = Vec::new();
            model.ladder().eval_into(&d, &mut expected);
            assert_eq!(points, expected);
        }
        let revisited = cache.points(model.ladder(), &demand).to_vec();
        assert_eq!(revisited, first);
        cache.clear();
        assert_eq!(cache.points(model.ladder(), &demand).to_vec(), first);
    }

    #[test]
    fn ladder_rows_expose_stably_sorted_orders() {
        let platform = Platform::exynos_5410();
        let model = DvfsModel::new(&platform);
        let mut cache = LadderCache::new();
        let demands = [
            CpuDemand::ZERO, // all-zero latencies/energies: pure tie-breaking
            CpuDemand::new(TimeUs::from_millis(3), CpuCycles::new(90_000_000)),
            CpuDemand::new(TimeUs::from_micros(137), CpuCycles::new(999_999)),
        ];
        for demand in &demands {
            // `points()` alone must not pay for the sorts; `row()` must.
            assert!(cache.points(model.ladder(), demand).len() == model.ladder().len());
            let row = cache.row(model.ladder(), demand);
            assert_eq!(row.points().len(), row.by_cost().len());
            // The order is the exact permutation a stable sort over the
            // solver's cost view of the row produces.
            let mut expect_cost: Vec<u32> = (0..row.points().len() as u32).collect();
            expect_cost.sort_by(|&a, &b| {
                row.points()[a as usize]
                    .energy_uj
                    .partial_cmp(&row.points()[b as usize].energy_uj)
                    .unwrap()
            });
            assert_eq!(row.by_cost(), expect_cost.as_slice());
        }
        // A second `row()` of the same demand is a pure hit.
        let (hits_before, misses_before) = cache.stats();
        let _ = cache.row(model.ladder(), &demands[1]);
        assert_eq!(cache.stats(), (hits_before + 1, misses_before));
    }

    #[test]
    fn ladder_selection_matches_the_reference_selector() {
        let (platform, demand) = model_fixture();
        let model = DvfsModel::new(&platform);
        let mut points = Vec::new();
        model.ladder().eval_into(&demand, &mut points);
        for budget_us in [10, 28_000, 40_000, 75_000, 200_000, 10_000_000] {
            let budget = TimeUs::from_micros(budget_us);
            assert_eq!(
                DvfsLadder::cheapest_within(&points, budget),
                cheapest_config_within_reference(&model, &demand, budget),
                "selection diverged at budget {budget_us}us"
            );
            assert_eq!(
                model.cheapest_config_within(&demand, budget),
                cheapest_config_within_reference(&model, &demand, budget),
            );
        }
    }

    #[test]
    fn execution_power_falls_back_for_off_ladder_configs() {
        let platform = Platform::exynos_5410();
        let model = DvfsModel::new(&platform);
        // 1234 MHz is not an Exynos operating point; the model must still
        // answer, with the same value the direct derivation produces.
        let off = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1234));
        assert_eq!(
            model.execution_power(&off).as_milliwatts(),
            execution_power_reference(&model, &off).as_milliwatts()
        );
    }

    #[test]
    fn execution_power_includes_background_cluster() {
        let (platform, _) = model_fixture();
        let model = DvfsModel::new(&platform);
        let cfg = platform.max_performance_config();
        assert!(
            model.execution_power(&cfg).as_milliwatts()
                > platform.active_power(&cfg).as_milliwatts()
        );
    }

    #[test]
    fn best_case_latency_equals_fastest_config() {
        let (platform, demand) = model_fixture();
        let model = DvfsModel::new(&platform);
        assert_eq!(
            model.best_case_latency(&demand),
            model.execution_time(&demand, &platform.max_performance_config())
        );
    }
}
