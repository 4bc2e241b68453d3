//! The deterministic fault-injection plane and the graceful-degradation
//! ladder.
//!
//! The PES design is only viable because it degrades: mispredicted events
//! fall back to reactive scheduling (Sec. 5.4) and capped solves fall back
//! to cheaper tiers. This module makes those fallback paths *first-class
//! and testable*: a [`FaultPlane`] is a seeded, replayable schedule of
//! per-replay faults that the runtime injects at every layer boundary —
//!
//! * **predictor** — classifier misprediction flips and confidence
//!   corruption of the predicted sequence
//!   ([`FaultSession::corrupt_predictions`]),
//! * **core/memo** — demand-estimate drift pushed beyond the
//!   [`crate::PLANNING_HYSTERESIS`] band
//!   ([`FaultSession::drift_demand`]),
//! * **ilp** — solver budget starvation down to zero nodes
//!   ([`FaultSession::starve_budget`]),
//! * **acmp** — DVFS rung masking simulating thermal throttling, with
//!   nearest-valid-rung clamping ([`FaultSession::mask_config`]),
//! * **webrt** — late vsync deadlines and duplicated/dropped queue events
//!   ([`FaultSession::delay_vsync`], [`FaultSession::mutate_events`]).
//!
//! Every decision the faulted (or unfaulted) runtime takes lands on the
//! **degradation ladder** ([`DegradationLevel`]), recorded per replay in
//! [`crate::RunReport::degradation`], so the fallback transitions the paper
//! implies become observable and assertable instead of incidental.
//!
//! Determinism contract: a session draws from a private SplitMix64 stream
//! seeded by [`FaultConfig::seed`], and every injection point consults the
//! stream **only when its fault class is enabled**. [`FaultPlane::none`]
//! therefore never touches the generator, which is what makes the
//! zero-fault plane bit-identical to the pre-fault-plane runtime (pinned by
//! the golden tier in `tests/end_to_end.rs`).

use pes_acmp::units::TimeUs;
use pes_acmp::{AcmpConfig, CpuDemand};
use pes_dom::EventType;
use pes_webrt::WebEvent;

/// Where one scheduling decision landed on the graceful-degradation ladder,
/// best to worst. The runtime records one level per *decision*: one per
/// optimizer round (from the solve tier that answered it) and one per
/// reactively served event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// The window solve completed exactly within its node budget.
    Exact,
    /// The budget ran out (or was starved, but not to the floor): the
    /// coarse-time incumbent answered — never worse than greedy.
    Anytime,
    /// The budget was starved to the floor (≤ 1 node): the schedule is the
    /// greedy seed the anytime search starts from.
    Greedy,
    /// The event bypassed the optimizer entirely: reactive EBS-equivalent
    /// selection (profiling warm-up, the post-misprediction fallback of
    /// Sec. 5.4, or a failed plan).
    Reactive,
    /// The floor: the event type had no demand estimate at all, so the
    /// runtime ran it at the conservative profiling configuration.
    OndemandFloor,
}

impl DegradationLevel {
    /// Every level, best to worst.
    pub const ALL: [DegradationLevel; 5] = [
        DegradationLevel::Exact,
        DegradationLevel::Anytime,
        DegradationLevel::Greedy,
        DegradationLevel::Reactive,
        DegradationLevel::OndemandFloor,
    ];

    /// One step worse on the ladder, saturating at the
    /// [`DegradationLevel::OndemandFloor`] floor. Watchdog trips demote the
    /// replay's serving tier through this.
    pub fn demoted(self) -> DegradationLevel {
        match self {
            DegradationLevel::Exact => DegradationLevel::Anytime,
            DegradationLevel::Anytime => DegradationLevel::Greedy,
            DegradationLevel::Greedy => DegradationLevel::Reactive,
            DegradationLevel::Reactive | DegradationLevel::OndemandFloor => {
                DegradationLevel::OndemandFloor
            }
        }
    }

    /// Human-readable level name.
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::Exact => "Exact",
            DegradationLevel::Anytime => "Anytime",
            DegradationLevel::Greedy => "Greedy",
            DegradationLevel::Reactive => "Reactive",
            DegradationLevel::OndemandFloor => "OndemandFloor",
        }
    }
}

/// Per-replay histogram of [`DegradationLevel`] observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationTrace {
    /// Decisions served by an exact solve.
    pub exact: usize,
    /// Decisions served by a coarse-time incumbent.
    pub anytime: usize,
    /// Decisions served by a budget-floor (greedy) schedule.
    pub greedy: usize,
    /// Events served reactively (profiling warm-up or fallback).
    pub reactive: usize,
    /// Events served at the no-estimate floor.
    pub ondemand_floor: usize,
}

impl DegradationTrace {
    /// Records one decision at `level`.
    pub fn observe(&mut self, level: DegradationLevel) {
        match level {
            DegradationLevel::Exact => self.exact += 1,
            DegradationLevel::Anytime => self.anytime += 1,
            DegradationLevel::Greedy => self.greedy += 1,
            DegradationLevel::Reactive => self.reactive += 1,
            DegradationLevel::OndemandFloor => self.ondemand_floor += 1,
        }
    }

    /// The count recorded at `level`.
    pub fn count(&self, level: DegradationLevel) -> usize {
        match level {
            DegradationLevel::Exact => self.exact,
            DegradationLevel::Anytime => self.anytime,
            DegradationLevel::Greedy => self.greedy,
            DegradationLevel::Reactive => self.reactive,
            DegradationLevel::OndemandFloor => self.ondemand_floor,
        }
    }

    /// Total decisions recorded.
    pub fn decisions(&self) -> usize {
        DegradationLevel::ALL.iter().map(|&l| self.count(l)).sum()
    }
}

/// The fault schedule of a [`FaultPlane`]: one rate (probability per
/// injection opportunity, clamped to `[0, 1]`) or mask per fault class. A
/// rate of `0.0` (or a mask of `0`) disables the class *entirely* — the
/// session's RNG stream is not consulted, so disabled classes cannot
/// perturb a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the session's private SplitMix64 stream.
    pub seed: u64,
    /// Per predicted event: flip the predicted type to a different one
    /// (classifier misprediction).
    pub prediction_flip: f64,
    /// Per prediction round: corrupt the sequence confidence, truncating the
    /// round to a random prefix.
    pub confidence_corruption: f64,
    /// Per consumed demand estimate: drift the estimate by
    /// `±drift_magnitude` (relative), modelling estimation noise beyond the
    /// planner's hysteresis band.
    pub demand_drift: f64,
    /// Relative magnitude of an injected drift. Values above the 0.35
    /// planning hysteresis snap the held demand class and defeat the solve
    /// memoisation, which is the interesting regime.
    pub drift_magnitude: f64,
    /// Per optimizer invocation: starve the node budget geometrically —
    /// a draw of `budget >> (3 + k)` for uniform `k`, spanning `budget/8`
    /// down to zero nodes.
    pub solver_starvation: f64,
    /// Bitmask of *disabled* DVFS rung indices (bit `i` forbids the `i`-th
    /// platform configuration), simulating thermal throttling. Chosen
    /// configurations are clamped to the nearest still-valid rung; a mask
    /// covering every rung cannot bind and is ignored.
    pub rung_mask: u32,
    /// Per committed frame: the frame misses 1–3 vsync periods (late
    /// deadline).
    pub vsync_delay: f64,
    /// Per delivered event: the event is duplicated in the queue.
    pub queue_duplicate: f64,
    /// Per delivered event: the event is dropped from the queue.
    pub queue_drop: f64,
}

impl FaultConfig {
    /// The all-disabled schedule (every rate zero, no mask).
    pub const fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            prediction_flip: 0.0,
            confidence_corruption: 0.0,
            demand_drift: 0.0,
            drift_magnitude: 0.0,
            solver_starvation: 0.0,
            rung_mask: 0,
            vsync_delay: 0.0,
            queue_duplicate: 0.0,
            queue_drop: 0.0,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// A seeded, replayable fault-injection plane. Immutable and `Copy`: one
/// plane describes the fault schedule, [`FaultPlane::session`] mints the
/// per-replay mutable state, and [`FaultPlane::reseeded`] derives
/// per-fleet-unit planes whose streams are decorrelated but reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlane {
    config: FaultConfig,
}

impl FaultPlane {
    /// The zero-fault plane: replays under it are bit-identical to the
    /// pre-fault-plane runtime (no RNG draw ever happens).
    pub const fn none() -> Self {
        FaultPlane {
            config: FaultConfig::disabled(),
        }
    }

    /// A plane with the given fault schedule. Rates are clamped into
    /// `[0, 1]` (NaN disables the class).
    pub fn new(config: FaultConfig) -> Self {
        let clamp = |r: f64| {
            if r.is_finite() {
                r.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        FaultPlane {
            config: FaultConfig {
                seed: config.seed,
                prediction_flip: clamp(config.prediction_flip),
                confidence_corruption: clamp(config.confidence_corruption),
                demand_drift: clamp(config.demand_drift),
                drift_magnitude: if config.drift_magnitude.is_finite() {
                    config.drift_magnitude.clamp(0.0, 4.0)
                } else {
                    0.0
                },
                solver_starvation: clamp(config.solver_starvation),
                rung_mask: config.rung_mask,
                vsync_delay: clamp(config.vsync_delay),
                queue_duplicate: clamp(config.queue_duplicate),
                queue_drop: clamp(config.queue_drop),
            },
        }
    }

    /// The fault schedule.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether every fault class is disabled.
    pub fn is_none(&self) -> bool {
        let c = &self.config;
        c.prediction_flip == 0.0
            && c.confidence_corruption == 0.0
            && c.demand_drift == 0.0
            && c.solver_starvation == 0.0
            && c.rung_mask == 0
            && c.vsync_delay == 0.0
            && c.queue_duplicate == 0.0
            && c.queue_drop == 0.0
    }

    /// The same schedule on a decorrelated stream: used by fleet drivers to
    /// give each unit its own reproducible fault sequence.
    pub fn reseeded(&self, stream: u64) -> FaultPlane {
        let mut config = self.config;
        config.seed = splitmix(self.config.seed ^ splitmix(stream));
        FaultPlane { config }
    }

    /// Mints the mutable per-replay injection state.
    pub fn session(&self) -> FaultSession {
        FaultSession {
            config: self.config,
            state: self.config.seed,
            counts: FaultCounts::default(),
        }
    }
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane::none()
    }
}

/// Per-class injection counters of one replay; exposed through
/// [`crate::RunReport::fault_injections`] so inflation bounds can be
/// asserted per injected fault, not per replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Predicted event types flipped.
    pub prediction_flips: usize,
    /// Prediction rounds truncated by confidence corruption.
    pub confidence_corruptions: usize,
    /// Demand estimates drifted.
    pub demand_drifts: usize,
    /// Optimizer invocations with a starved node budget.
    pub starved_solves: usize,
    /// Configurations clamped away from a masked rung.
    pub masked_configs: usize,
    /// Frame commits pushed past their vsync.
    pub delayed_vsyncs: usize,
    /// Queue events duplicated.
    pub duplicated_events: usize,
    /// Queue events dropped.
    pub dropped_events: usize,
}

impl FaultCounts {
    /// Total injections across all classes.
    pub fn total(&self) -> usize {
        self.prediction_flips
            + self.confidence_corruptions
            + self.demand_drifts
            + self.starved_solves
            + self.masked_configs
            + self.delayed_vsyncs
            + self.duplicated_events
            + self.dropped_events
    }
}

/// One SplitMix64 step (also the plane's seed-derivation mix). Public so
/// fleet drivers can derive per-unit seeds with the exact same mix the
/// plane uses for [`FaultPlane::reseeded`].
pub fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The mutable per-replay state of a [`FaultPlane`]: the private RNG stream
/// plus the per-class injection counters. The runtime threads exactly one
/// session through each replay.
#[derive(Debug, Clone)]
pub struct FaultSession {
    config: FaultConfig,
    state: u64,
    counts: FaultCounts,
}

impl FaultSession {
    /// The injection counters so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn next_u64(&mut self) -> u64 {
        let out = splitmix(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether an injection opportunity with probability `rate` fires. The
    /// stream is only consulted for enabled classes (`rate > 0`), which is
    /// the zero-fault bit-identity guarantee.
    fn trigger(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.uniform() < rate
    }

    /// Predictor faults: truncates the round to a random prefix with
    /// probability `confidence_corruption`, then flips each surviving
    /// predicted type with probability `prediction_flip`.
    pub fn corrupt_predictions(&mut self, predicted: &mut Vec<(EventType, CpuDemand)>) {
        if !predicted.is_empty() && self.trigger(self.config.confidence_corruption) {
            self.counts.confidence_corruptions += 1;
            let keep = (self.next_u64() % predicted.len() as u64) as usize;
            predicted.truncate(keep);
        }
        if self.config.prediction_flip > 0.0 {
            for slot in predicted.iter_mut() {
                if self.trigger(self.config.prediction_flip) {
                    self.counts.prediction_flips += 1;
                    slot.0 = flip_type(slot.0, self.next_u64());
                }
            }
        }
    }

    /// Demand-estimate drift: with probability `demand_drift`, scales both
    /// demand components by `1 ± drift_magnitude` — past the planner's
    /// hysteresis band when the magnitude exceeds it.
    pub fn drift_demand(&mut self, demand: CpuDemand) -> CpuDemand {
        if !self.trigger(self.config.demand_drift) {
            return demand;
        }
        self.counts.demand_drifts += 1;
        let sign = if self.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        let factor = (1.0 + sign * self.config.drift_magnitude).max(0.05);
        demand.scale(factor)
    }

    /// Solver starvation: with probability `solver_starvation`, right-shifts
    /// the node budget by a uniform 3–18 bits — a geometric spread from
    /// `budget/8` down to zero nodes (the solver clamps to one, which yields
    /// its greedy seed), so the degradation floor is actually reachable
    /// instead of a measure-zero corner.
    pub fn starve_budget(&mut self, budget: usize) -> usize {
        if !self.trigger(self.config.solver_starvation) {
            return budget;
        }
        self.counts.starved_solves += 1;
        budget >> (3 + self.next_u64() % 16)
    }

    /// DVFS rung masking (thermal throttling): if the chosen configuration
    /// sits on a masked rung, clamps it to the nearest still-valid rung by
    /// index distance, ties toward the lower (cooler) rung. Deterministic —
    /// a thermal cap persists, so no RNG draw is involved. A mask covering
    /// every rung cannot bind and leaves the choice untouched.
    pub fn mask_config(&mut self, configs: &[AcmpConfig], chosen: AcmpConfig) -> AcmpConfig {
        let mask = self.config.rung_mask;
        if mask == 0 || configs.is_empty() {
            return chosen;
        }
        let rungs = configs.len().min(32);
        let effective = mask & (((1u64 << rungs) - 1) as u32);
        if effective == 0 || effective.count_ones() as usize >= rungs {
            return chosen;
        }
        let Some(chosen_idx) = configs[..rungs].iter().position(|c| *c == chosen) else {
            return chosen;
        };
        if effective & (1 << chosen_idx) == 0 {
            return chosen;
        }
        let mut nearest: Option<(usize, usize)> = None;
        for idx in 0..rungs {
            if effective & (1 << idx) != 0 {
                continue;
            }
            let distance = idx.abs_diff(chosen_idx);
            if nearest.is_none_or(|(best, _)| distance < best) {
                nearest = Some((distance, idx));
            }
        }
        match nearest {
            Some((_, idx)) => {
                self.counts.masked_configs += 1;
                configs[idx]
            }
            None => chosen,
        }
    }

    /// Vsync faults: with probability `vsync_delay`, the committed frame
    /// misses 1–3 refresh periods. The engine's `commit` is pure QoS
    /// accounting, so one injection perturbs exactly one outcome.
    pub fn delay_vsync(&mut self, frame_ready_at: TimeUs, period: TimeUs) -> TimeUs {
        if !self.trigger(self.config.vsync_delay) {
            return frame_ready_at;
        }
        self.counts.delayed_vsyncs += 1;
        let periods = 1 + self.next_u64() % 3;
        frame_ready_at + TimeUs::from_micros(period.as_micros() * periods)
    }

    /// Queue faults: drops and/or duplicates delivered events. Returns
    /// `None` when both classes are disabled (the replay then borrows the
    /// original trace untouched); duplicates keep their arrival time, so
    /// the mutated sequence stays arrival-ordered.
    pub fn mutate_events(&mut self, events: &[WebEvent]) -> Option<Vec<WebEvent>> {
        if self.config.queue_drop == 0.0 && self.config.queue_duplicate == 0.0 {
            return None;
        }
        let mut out = Vec::with_capacity(events.len() + events.len() / 4 + 1);
        for ev in events {
            if self.trigger(self.config.queue_drop) {
                self.counts.dropped_events += 1;
                continue;
            }
            out.push(*ev);
            if self.trigger(self.config.queue_duplicate) {
                self.counts.duplicated_events += 1;
                out.push(*ev);
            }
        }
        Some(out)
    }
}

/// A deterministic *different* event type for a prediction flip.
fn flip_type(event_type: EventType, draw: u64) -> EventType {
    let all = EventType::ALL;
    let idx = all.iter().position(|t| *t == event_type).unwrap_or(0);
    let step = 1 + (draw % (all.len() as u64 - 1)) as usize;
    all[(idx + step) % all.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::CpuCycles;
    use pes_webrt::EventId;

    fn moderate() -> FaultPlane {
        FaultPlane::new(FaultConfig {
            seed: 42,
            prediction_flip: 0.3,
            confidence_corruption: 0.2,
            demand_drift: 0.4,
            drift_magnitude: 0.75,
            solver_starvation: 0.5,
            rung_mask: 0b0110,
            vsync_delay: 0.3,
            queue_duplicate: 0.2,
            queue_drop: 0.2,
        })
    }

    fn events(n: u64) -> Vec<WebEvent> {
        (0..n)
            .map(|i| {
                WebEvent::new(
                    EventId::new(i),
                    EventType::Scroll,
                    None,
                    TimeUs::from_millis(100 * i),
                    CpuDemand::new(TimeUs::from_millis(2), CpuCycles::new(30_000_000)),
                )
            })
            .collect()
    }

    #[test]
    fn the_zero_fault_plane_never_perturbs_anything() {
        let mut session = FaultPlane::none().session();
        assert!(FaultPlane::none().is_none());
        let evs = events(10);
        assert!(session.mutate_events(&evs).is_none());
        let mut predicted = vec![(EventType::Click, CpuDemand::ZERO); 4];
        let before = predicted.clone();
        session.corrupt_predictions(&mut predicted);
        assert_eq!(predicted, before);
        let d = CpuDemand::new(TimeUs::from_millis(3), CpuCycles::new(1_000));
        assert_eq!(session.drift_demand(d), d);
        assert_eq!(session.starve_budget(200_000), 200_000);
        assert_eq!(
            session.delay_vsync(TimeUs::from_millis(5), TimeUs::from_micros(16_667)),
            TimeUs::from_millis(5)
        );
        assert_eq!(session.counts(), FaultCounts::default());
        // No RNG draw happened: the stream is still at its seed.
        assert_eq!(session.state, 0);
    }

    #[test]
    fn sessions_are_deterministic_per_seed() {
        let plane = moderate();
        let run = |plane: &FaultPlane| {
            let mut s = plane.session();
            let evs = s.mutate_events(&events(30));
            let mut predicted = vec![
                (EventType::Click, CpuDemand::ZERO),
                (EventType::Scroll, CpuDemand::ZERO),
                (EventType::Load, CpuDemand::ZERO),
            ];
            s.corrupt_predictions(&mut predicted);
            let budgets: Vec<usize> = (0..8).map(|_| s.starve_budget(60_000)).collect();
            (evs, predicted, budgets, s.counts())
        };
        assert_eq!(run(&plane), run(&plane));
        // A reseeded plane keeps the schedule but decorrelates the stream.
        let reseeded = plane.reseeded(7);
        assert_eq!(reseeded.config().prediction_flip, 0.3);
        assert_ne!(reseeded.config().seed, plane.config().seed);
        assert_eq!(plane.reseeded(7), plane.reseeded(7));
        assert_ne!(plane.reseeded(7), plane.reseeded(8));
    }

    #[test]
    fn prediction_flips_always_change_the_type() {
        for ty in EventType::ALL {
            for draw in 0..64 {
                assert_ne!(flip_type(ty, draw), ty);
            }
        }
    }

    #[test]
    fn starved_budgets_land_in_the_starvation_range() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 9,
            solver_starvation: 1.0,
            ..FaultConfig::disabled()
        });
        let mut s = plane.session();
        let mut saw_floor = false;
        for _ in 0..256 {
            let b = s.starve_budget(200_000);
            assert!(b <= 200_000 / 8);
            saw_floor |= b <= 1;
        }
        assert!(saw_floor, "geometric starvation reaches the zero/one floor");
        // A budget below 8 only has zero in its starvation range.
        assert_eq!(s.starve_budget(7), 0, "starvation reaches zero nodes");
        assert_eq!(s.counts().starved_solves, 257);
    }

    #[test]
    fn rung_masking_clamps_to_the_nearest_valid_rung() {
        use pes_acmp::Platform;
        let platform = Platform::exynos_5410();
        let configs = platform.configs();
        // Mask rungs 2 and 3: rung 2 clamps down to 1 (tie with 3→4? no:
        // distance 1 both ways, ties go to the cooler rung), rung 3 to 4.
        let plane = FaultPlane::new(FaultConfig {
            seed: 0,
            rung_mask: 0b1100,
            ..FaultConfig::disabled()
        });
        let mut s = plane.session();
        assert_eq!(s.mask_config(configs, configs[2]), configs[1]);
        assert_eq!(s.mask_config(configs, configs[3]), configs[4]);
        assert_eq!(s.mask_config(configs, configs[0]), configs[0]);
        assert_eq!(s.counts().masked_configs, 2);
        // A mask with every low rung set cannot bind when it covers all
        // rungs the platform has.
        let all_masked = FaultPlane::new(FaultConfig {
            seed: 0,
            rung_mask: u32::MAX,
            ..FaultConfig::disabled()
        });
        let mut s = all_masked.session();
        assert_eq!(s.mask_config(configs, configs[2]), configs[2]);
    }

    #[test]
    fn queue_faults_count_what_they_injected() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 3,
            queue_drop: 0.5,
            queue_duplicate: 0.5,
            ..FaultConfig::disabled()
        });
        let mut s = plane.session();
        let original = events(200);
        let mutated = s.mutate_events(&original).expect("classes enabled");
        let c = s.counts();
        assert!(c.dropped_events > 0 && c.duplicated_events > 0);
        assert_eq!(
            mutated.len(),
            original.len() - c.dropped_events + c.duplicated_events
        );
        // Arrival order is preserved.
        assert!(mutated.windows(2).all(|w| w[0].arrival() <= w[1].arrival()));
    }

    #[test]
    fn degradation_trace_tracks_worst_and_totals() {
        let mut trace = DegradationTrace::default();
        trace.observe(DegradationLevel::Exact);
        trace.observe(DegradationLevel::Exact);
        trace.observe(DegradationLevel::Anytime);
        trace.observe(DegradationLevel::Reactive);
        assert_eq!(trace.decisions(), 4);
        assert!(DegradationLevel::Exact < DegradationLevel::OndemandFloor);
    }

    #[test]
    fn demotion_walks_the_ladder_and_saturates() {
        let mut level = DegradationLevel::Exact;
        let mut walked = vec![level];
        for _ in 0..6 {
            level = level.demoted();
            walked.push(level);
        }
        assert_eq!(&walked[..5], &DegradationLevel::ALL);
        assert_eq!(level, DegradationLevel::OndemandFloor);
        assert_eq!(level.demoted(), DegradationLevel::OndemandFloor);
    }

    #[test]
    fn rates_are_clamped_and_nan_disables() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 1,
            prediction_flip: 7.0,
            demand_drift: f64::NAN,
            vsync_delay: -3.0,
            ..FaultConfig::disabled()
        });
        assert_eq!(plane.config().prediction_flip, 1.0);
        assert_eq!(plane.config().demand_drift, 0.0);
        assert_eq!(plane.config().vsync_delay, 0.0);
    }
}
