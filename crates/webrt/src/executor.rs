//! The execution engine: a single-main-thread model of the Web runtime
//! executing events on ACMP hardware.
//!
//! Both the reactive baselines (Interactive, Ondemand, EBS) and the proactive
//! schedulers (PES, Oracle) drive the same engine so that time, energy and
//! QoS accounting are identical across policies: the engine owns the current
//! simulated time, the active ACMP configuration, the energy meter, the VSync
//! clock and the per-event outcome log.

use std::sync::Arc;

use pes_acmp::units::{EnergyUj, TimeUs};
use pes_acmp::{
    AcmpConfig, ActivityKind, DvfsLadder, DvfsModel, EnergyMeter, Platform, TransitionModel,
};
use pes_dom::Interaction;

use crate::event::{EventId, WebEvent};
use crate::pipeline::RenderPipeline;
use crate::qos::{QosOutcome, QosPolicy};
use crate::vsync::VsyncClock;

/// The record of one event execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionRecord {
    /// The executed event.
    pub event: EventId,
    /// The interaction class of the event.
    pub interaction: Interaction,
    /// The configuration the event ran on.
    pub config: AcmpConfig,
    /// When execution started.
    pub started_at: TimeUs,
    /// When the frame became ready.
    pub frame_ready_at: TimeUs,
    /// Pure execution (busy) time.
    pub busy_time: TimeUs,
    /// Whether the execution was speculative (ahead of the triggering input).
    pub speculative: bool,
}

/// The engine.
///
/// # Examples
///
/// ```
/// use pes_acmp::{CpuDemand, Platform};
/// use pes_acmp::units::{CpuCycles, TimeUs};
/// use pes_dom::EventType;
/// use pes_webrt::{EventId, ExecutionEngine, QosPolicy, WebEvent};
///
/// let platform = Platform::exynos_5410();
/// let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
/// let event = WebEvent::new(
///     EventId::new(0),
///     EventType::Click,
///     None,
///     TimeUs::from_millis(10),
///     CpuDemand::new(TimeUs::from_millis(3), CpuCycles::new(50_000_000)),
/// );
/// let record = engine.execute_event(&event, &platform.max_performance_config(), false);
/// let outcome = engine.commit(&event, record.frame_ready_at);
/// assert!(!outcome.violated());
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionEngine<'p> {
    platform: &'p Platform,
    dvfs: DvfsModel<'p>,
    pipeline: RenderPipeline,
    vsync: VsyncClock,
    qos: QosPolicy,
    transitions: TransitionModel,
    meter: EnergyMeter<'p>,
    /// QoS violations among the committed outcomes, counted at commit so
    /// [`ExecutionEngine::violations`] never rescans the outcome log.
    violations: usize,
    current_config: AcmpConfig,
    cpu_free_at: TimeUs,
    outcomes: Vec<(EventId, QosOutcome)>,
    records: Vec<ExecutionRecord>,
}

impl<'p> ExecutionEngine<'p> {
    /// Creates an engine parked at the platform's lowest-power configuration
    /// at time zero. Builds a private DVFS ladder; replay fleets should use
    /// [`ExecutionEngine::with_plane`] to share one per platform instead.
    pub fn new(platform: &'p Platform, qos: QosPolicy) -> Self {
        let plane = Arc::new(DvfsLadder::for_platform(platform));
        ExecutionEngine::with_plane(platform, qos, plane)
    }

    /// Creates an engine whose DVFS model *and* energy meter are served by a
    /// shared, already-built power plane (one ladder per platform, built by
    /// the experiment context): replays neither rebuild the 17-rung table
    /// nor re-derive cluster powers per energy sample.
    pub fn with_plane(platform: &'p Platform, qos: QosPolicy, plane: Arc<DvfsLadder>) -> Self {
        ExecutionEngine {
            platform,
            dvfs: DvfsModel::with_ladder(platform, Arc::clone(&plane)),
            pipeline: RenderPipeline::new(),
            vsync: VsyncClock::sixty_hz(),
            qos,
            transitions: TransitionModel::exynos_defaults(),
            meter: EnergyMeter::with_plane(platform, plane),
            violations: 0,
            current_config: platform.min_power_config(),
            cpu_free_at: TimeUs::ZERO,
            // One paper-suite session is ~31 events; seeding the logs
            // avoids the realloc-and-copy ladder every replay paid.
            outcomes: Vec::with_capacity(32),
            records: Vec::with_capacity(32),
        }
    }

    /// The platform the engine runs on.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The DVFS model bound to the platform.
    pub fn dvfs(&self) -> &DvfsModel<'p> {
        &self.dvfs
    }

    /// The QoS policy in force.
    pub fn qos(&self) -> &QosPolicy {
        &self.qos
    }

    /// The VSync clock.
    pub fn vsync(&self) -> &VsyncClock {
        &self.vsync
    }

    /// Replaces the VSync clock mid-replay (e.g. a refresh-rate change).
    pub fn set_vsync(&mut self, clock: VsyncClock) {
        self.vsync = clock;
    }

    /// The configuration the hardware is currently set to.
    pub fn current_config(&self) -> AcmpConfig {
        self.current_config
    }

    /// The earliest time the CPU can start new work.
    pub fn cpu_free_at(&self) -> TimeUs {
        self.cpu_free_at
    }

    /// Total processor energy so far.
    pub fn total_energy(&self) -> EnergyUj {
        self.meter.total()
    }

    /// Energy attributed to a specific activity kind.
    pub fn energy_for(&self, activity: ActivityKind) -> EnergyUj {
        self.meter.for_activity(activity)
    }

    /// The per-event QoS outcomes recorded so far.
    pub fn outcomes(&self) -> &[(EventId, QosOutcome)] {
        &self.outcomes
    }

    /// Consumes the engine, returning its per-event QoS outcome log.
    pub fn into_outcomes(self) -> Vec<(EventId, QosOutcome)> {
        self.outcomes
    }

    /// The per-event execution records so far.
    pub fn records(&self) -> &[ExecutionRecord] {
        &self.records
    }

    /// Accounts idle time at the current configuration up to `until`, moving
    /// the CPU-free horizon forward. No-op when `until` is in the past.
    pub fn idle_until(&mut self, until: TimeUs) {
        if until > self.cpu_free_at {
            let duration = until - self.cpu_free_at;
            self.meter.record_idle(&self.current_config, duration);
            self.cpu_free_at = until;
        }
    }

    /// Switches the hardware to `config`, charging the DVFS/migration
    /// overhead in time and energy.
    pub fn switch_config(&mut self, config: &AcmpConfig) {
        if *config == self.current_config {
            return;
        }
        let cost = self.transitions.cost(&self.current_config, config);
        if !cost.is_zero() {
            self.meter.record_transition(config, cost);
            self.cpu_free_at += cost;
        }
        self.current_config = *config;
    }

    /// Executes one event on `config` as soon as the CPU is free (and not
    /// before the event's arrival unless `speculative` is set). Returns the
    /// execution record; committing the resulting frame (and thereby scoring
    /// QoS) is a separate step so that speculative frames can wait in the
    /// Pending Frame Buffer.
    pub fn execute_event(
        &mut self,
        event: &WebEvent,
        config: &AcmpConfig,
        speculative: bool,
    ) -> ExecutionRecord {
        let earliest = if speculative {
            self.cpu_free_at
        } else {
            self.cpu_free_at.max(event.arrival())
        };
        self.idle_until(earliest);
        self.switch_config(config);
        let start = self.cpu_free_at;
        let (busy, frame_ready_at) = self.pipeline.execute_timing(
            &event.demand(),
            event.event_type().interaction(),
            &self.dvfs,
            config,
            start,
        );
        // Speculative work is attributed as useful for now; it is
        // re-attributed to waste if the frame is later squashed
        // (see `account_squashed_frame`).
        self.meter
            .record_busy(config, busy, ActivityKind::UsefulWork);
        self.cpu_free_at = frame_ready_at;
        let record = ExecutionRecord {
            event: event.id(),
            interaction: event.event_type().interaction(),
            config: *config,
            started_at: start,
            frame_ready_at,
            busy_time: busy,
            speculative,
        };
        self.records.push(record);
        record
    }

    /// Commits a frame produced for `event` at `frame_ready_at`: the frame is
    /// displayed at the next VSync no earlier than both the frame readiness
    /// and the event arrival, and the QoS outcome is recorded and returned.
    pub fn commit(&mut self, event: &WebEvent, frame_ready_at: TimeUs) -> QosOutcome {
        let visible_from = frame_ready_at.max(event.arrival());
        let outcome = QosOutcome {
            triggered_at: event.arrival(),
            displayed_at: self.vsync.next_refresh_at_or_after(visible_from),
            target: self.qos.target_for_event(event.event_type()),
        };
        self.violations += usize::from(outcome.violated());
        self.outcomes.push((event.id(), outcome));
        outcome
    }

    /// Re-attributes the energy of a squashed speculative execution from
    /// useful work to speculative waste.
    pub fn account_squashed_frame(&mut self, record: &ExecutionRecord) {
        let energy = self
            .dvfs
            .execution_power(&record.config)
            .energy_over(record.busy_time);
        // Move the energy between activity buckets; the total stays the same.
        self.meter.reattribute_waste(record.config.core(), energy);
    }

    /// Fraction of total energy wasted on squashed speculative work.
    pub fn waste_fraction(&self) -> f64 {
        self.meter.speculative_waste_fraction()
    }

    /// Number of QoS violations recorded so far.
    pub fn violations(&self) -> usize {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::CpuCycles;
    use pes_acmp::CpuDemand;
    use pes_dom::EventType;

    fn event(id: u64, ty: EventType, at_ms: u64, mcycles: u64) -> WebEvent {
        WebEvent::new(
            EventId::new(id),
            ty,
            None,
            TimeUs::from_millis(at_ms),
            CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(mcycles * 1_000_000)),
        )
    }

    #[test]
    fn execution_respects_arrival_for_non_speculative_events() {
        let platform = Platform::exynos_5410();
        let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        let ev = event(0, EventType::Click, 100, 50);
        let record = engine.execute_event(&ev, &platform.max_performance_config(), false);
        assert!(record.started_at >= TimeUs::from_millis(100));
        assert!(engine.total_energy().as_millijoules() > 0.0);
        assert_eq!(engine.records().len(), 1);
    }

    #[test]
    fn speculative_execution_can_start_before_arrival() {
        let platform = Platform::exynos_5410();
        let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        let ev = event(0, EventType::Click, 500, 50);
        let record = engine.execute_event(&ev, &platform.max_performance_config(), true);
        assert!(record.started_at < ev.arrival());
        // Committing a frame that was ready before the input arrived yields a
        // latency of at most one VSync period.
        let outcome = engine.commit(&ev, record.frame_ready_at);
        assert!(outcome.latency() <= engine.vsync().period());
    }

    #[test]
    fn idle_time_accumulates_idle_energy() {
        let platform = Platform::exynos_5410();
        let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        engine.idle_until(TimeUs::from_millis(500));
        assert_eq!(engine.cpu_free_at(), TimeUs::from_millis(500));
        assert!(engine.total_energy().as_millijoules() > 0.0);
        assert_eq!(engine.violations(), 0);
        // Idle in the past is ignored.
        engine.idle_until(TimeUs::from_millis(100));
        assert_eq!(engine.cpu_free_at(), TimeUs::from_millis(500));
    }

    #[test]
    fn config_switches_cost_time_and_energy() {
        let platform = Platform::exynos_5410();
        let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        let before = engine.cpu_free_at();
        engine.switch_config(&platform.max_performance_config());
        assert!(engine.cpu_free_at() > before);
        assert!(engine.energy_for(ActivityKind::Transition).as_microjoules() > 0.0);
        // Switching to the same config is free.
        let t = engine.cpu_free_at();
        engine.switch_config(&platform.max_performance_config());
        assert_eq!(engine.cpu_free_at(), t);
    }

    #[test]
    fn commit_scores_qos_against_the_arrival_time() {
        let platform = Platform::exynos_5410();
        let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        // A heavy move event on the slowest configuration misses 33 ms.
        let ev = event(0, EventType::Scroll, 0, 60);
        let record = engine.execute_event(&ev, &platform.min_power_config(), false);
        let outcome = engine.commit(&ev, record.frame_ready_at);
        assert!(outcome.violated());
        assert_eq!(engine.violations(), 1);
    }

    #[test]
    fn squashed_speculation_is_reattributed_to_waste() {
        let platform = Platform::exynos_5410();
        let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        let ev = event(0, EventType::Click, 1_000, 80);
        let record = engine.execute_event(&ev, &platform.max_performance_config(), true);
        assert_eq!(engine.waste_fraction(), 0.0);
        let total_before = engine.total_energy();
        engine.account_squashed_frame(&record);
        assert!(engine.waste_fraction() > 0.0);
        let total_after = engine.total_energy();
        assert!((total_after.as_microjoules() - total_before.as_microjoules()).abs() < 1e-6);
    }

    #[test]
    fn shared_plane_engine_matches_a_fresh_engine_bit_for_bit() {
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let mut fresh = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        let mut shared =
            ExecutionEngine::with_plane(&platform, QosPolicy::paper_defaults(), Arc::clone(&plane));
        assert!(Arc::ptr_eq(shared.dvfs().shared_ladder(), &plane));
        for (i, (ty, at_ms, mcycles)) in [
            (EventType::Load, 0u64, 1_500u64),
            (EventType::Click, 900, 120),
            (EventType::Scroll, 1_000, 40),
        ]
        .into_iter()
        .enumerate()
        {
            let ev = event(i as u64, ty, at_ms, mcycles);
            let cfg = if i % 2 == 0 {
                platform.max_performance_config()
            } else {
                platform.min_power_config()
            };
            let a = fresh.execute_event(&ev, &cfg, false);
            let b = shared.execute_event(&ev, &cfg, false);
            assert_eq!(a, b);
            fresh.commit(&ev, a.frame_ready_at);
            shared.commit(&ev, b.frame_ready_at);
        }
        assert_eq!(
            fresh.total_energy().as_microjoules().to_bits(),
            shared.total_energy().as_microjoules().to_bits(),
            "shared-plane accounting must be bit-identical"
        );
    }

    #[test]
    fn back_to_back_events_queue_on_the_single_main_thread() {
        let platform = Platform::exynos_5410();
        let mut engine = ExecutionEngine::new(&platform, QosPolicy::paper_defaults());
        let first = event(0, EventType::Load, 0, 2_000);
        let second = event(1, EventType::Click, 10, 100);
        let r1 = engine.execute_event(&first, &platform.max_performance_config(), false);
        let r2 = engine.execute_event(&second, &platform.max_performance_config(), false);
        assert!(
            r2.started_at >= r1.frame_ready_at,
            "second event waits for the first"
        );
    }
}
