//! EBS — the Event-Based Scheduler of Zhu et al. (HPCA'15), the
//! state-of-the-art *reactive*, QoS-aware baseline the paper compares
//! against (Sec. 4.2, Sec. 6.1).
//!
//! Before executing an event, EBS predicts the ACMP configuration that meets
//! the event's QoS target with the minimum energy, using the Eqn. 1 workload
//! estimate recovered online by the [`DemandProfiler`]. It schedules events
//! one at a time and never looks ahead, which is precisely the limitation PES
//! removes.

use pes_acmp::units::TimeUs;
use pes_acmp::{AcmpConfig, DvfsLadder, LadderCache};
use pes_webrt::WebEvent;

use crate::context::{ScheduleContext, Scheduler};
use crate::profiler::DemandProfiler;

/// The EBS scheduler.
#[derive(Debug, Clone)]
pub struct Ebs {
    profiler: DemandProfiler,
    /// Demand-keyed memo over the precomputed DVFS ladder: the profiled
    /// estimate of an event type only changes when a new observation lands,
    /// so most decisions re-evaluate a demand this cache already holds.
    ladder_cache: LadderCache,
    /// Events served by the conservative profiling configuration because
    /// their type had no demand estimate *after* the profiling guard —
    /// possible when a fault plane starves the profiler (see
    /// [`Scheduler::unprofiled_fallbacks`]).
    unprofiled_fallbacks: usize,
}

impl Ebs {
    /// Creates an EBS instance for a platform.
    pub fn new(platform: &pes_acmp::Platform) -> Self {
        Ebs {
            profiler: DemandProfiler::new(platform),
            ladder_cache: LadderCache::new(),
            unprofiled_fallbacks: 0,
        }
    }

    /// Read access to the online profiler (shared logic with PES).
    pub fn profiler(&self) -> &DemandProfiler {
        &self.profiler
    }
}

impl Scheduler for Ebs {
    fn name(&self) -> &str {
        "EBS"
    }

    fn schedule_event(&mut self, ctx: &ScheduleContext<'_>, event: &WebEvent) -> AcmpConfig {
        // Cold start: run the two profiling executions at the designated
        // profiling operating points.
        if self.profiler.needs_profiling(event.event_type()) {
            return self.profiler.profiling_config(event.event_type(), ctx.dvfs);
        }
        // A profiled type normally has an estimate, but fault-plane
        // starvation (or a hostile trace) can deliver a type the profiler
        // never completed: fall back to the conservative profiling
        // configuration — the same ladder floor the proactive runtime's
        // `reactive_config` takes — instead of panicking.
        let Some(estimate) = self.profiler.estimate(event.event_type()) else {
            self.unprofiled_fallbacks += 1;
            return self.profiler.profiling_config(event.event_type(), ctx.dvfs);
        };
        // The event's remaining latency budget: its deadline minus the time
        // at which it will actually start executing (queueing delay included,
        // which is exactly why interference hurts a reactive policy).
        let deadline = event.arrival() + ctx.qos.target_for_event(event.event_type());
        let budget = deadline.saturating_sub(ctx.start_time);
        let points = self.ladder_cache.points(ctx.dvfs.ladder(), &estimate);
        match DvfsLadder::cheapest_within(points, budget) {
            Some(cfg) => cfg,
            // Even the fastest configuration cannot make it (Type I): spend
            // peak performance to minimise the damage, as the paper observes
            // conventional schedulers do.
            None => ctx.platform.max_performance_config(),
        }
    }

    fn on_event_complete(
        &mut self,
        ctx: &ScheduleContext<'_>,
        event: &WebEvent,
        config: &AcmpConfig,
        busy_time: TimeUs,
        _finished_at: TimeUs,
    ) {
        self.profiler
            .observe(event.event_type(), *config, busy_time, ctx.dvfs);
    }

    fn reset(&mut self) {
        self.profiler.reset();
        self.ladder_cache.clear();
        self.unprofiled_fallbacks = 0;
    }

    fn unprofiled_fallbacks(&self) -> usize {
        self.unprofiled_fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::cheapest_config_within_reference;
    use pes_acmp::units::CpuCycles;
    use pes_acmp::{CpuDemand, DvfsModel, Platform};
    use pes_dom::EventType;
    use pes_webrt::{EventId, QosPolicy};

    fn event(id: u64, ty: EventType, at_ms: u64, mcycles: u64) -> WebEvent {
        WebEvent::new(
            EventId::new(id),
            ty,
            None,
            TimeUs::from_millis(at_ms),
            CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(mcycles * 1_000_000)),
        )
    }

    struct Fixture {
        platform: Platform,
        qos: QosPolicy,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                platform: Platform::exynos_5410(),
                qos: QosPolicy::paper_defaults(),
            }
        }
    }

    fn warm_up(ebs: &mut Ebs, fixture: &Fixture, ty: EventType, mcycles: u64) {
        let dvfs = DvfsModel::new(&fixture.platform);
        for i in 0..2 {
            let ev = event(i, ty, 0, mcycles);
            let ctx = ScheduleContext {
                platform: &fixture.platform,
                dvfs: &dvfs,
                qos: &fixture.qos,
                start_time: TimeUs::ZERO,
                current_config: fixture.platform.min_power_config(),
            };
            let cfg = ebs.schedule_event(&ctx, &ev);
            let busy = dvfs.execution_time(&ev.demand(), &cfg);
            ebs.on_event_complete(&ctx, &ev, &cfg, busy, busy);
        }
    }

    #[test]
    fn cold_start_uses_profiling_configs() {
        let fixture = Fixture::new();
        let dvfs = DvfsModel::new(&fixture.platform);
        let mut ebs = Ebs::new(&fixture.platform);
        let ctx = ScheduleContext {
            platform: &fixture.platform,
            dvfs: &dvfs,
            qos: &fixture.qos,
            start_time: TimeUs::ZERO,
            current_config: fixture.platform.min_power_config(),
        };
        let cfg = ebs.schedule_event(&ctx, &event(0, EventType::Click, 0, 300));
        assert!(
            cfg.core().is_big(),
            "profiling runs happen on the big cluster"
        );
        assert!(ebs.profiler().needs_profiling(EventType::Click));
    }

    #[test]
    fn unprofiled_fallbacks_start_zero_and_reset_clears_them() {
        let fixture = Fixture::new();
        let dvfs = DvfsModel::new(&fixture.platform);
        let mut ebs = Ebs::new(&fixture.platform);
        assert_eq!(ebs.unprofiled_fallbacks(), 0);
        warm_up(&mut ebs, &fixture, EventType::Click, 300);
        let ctx = ScheduleContext {
            platform: &fixture.platform,
            dvfs: &dvfs,
            qos: &fixture.qos,
            start_time: TimeUs::from_millis(1_000),
            current_config: fixture.platform.min_power_config(),
        };
        ebs.schedule_event(&ctx, &event(9, EventType::Click, 1_000, 300));
        // The healthy path — profiling guard or served estimate — never
        // counts a fallback; the counter only moves on the starvation
        // branch, and a session reset clears it.
        assert_eq!(ebs.unprofiled_fallbacks(), 0);
        ebs.unprofiled_fallbacks = 3;
        ebs.reset();
        assert_eq!(ebs.unprofiled_fallbacks(), 0);
    }

    #[test]
    fn after_profiling_ebs_picks_the_cheapest_feasible_config() {
        let fixture = Fixture::new();
        let dvfs = DvfsModel::new(&fixture.platform);
        let mut ebs = Ebs::new(&fixture.platform);
        warm_up(&mut ebs, &fixture, EventType::Click, 300);
        // A tap with no queueing delay has its whole 300 ms budget available.
        let ev = event(9, EventType::Click, 1_000, 300);
        let ctx = ScheduleContext {
            platform: &fixture.platform,
            dvfs: &dvfs,
            qos: &fixture.qos,
            start_time: TimeUs::from_millis(1_000),
            current_config: fixture.platform.min_power_config(),
        };
        let cfg = ebs.schedule_event(&ctx, &ev);
        // Must meet the deadline with the estimated demand...
        let est = ebs.profiler().estimate(EventType::Click).unwrap();
        assert!(dvfs.execution_time(&est, &cfg) <= TimeUs::from_millis(300));
        // ...and must not simply be the maximum-performance configuration.
        assert!(cfg != fixture.platform.max_performance_config());
    }

    #[test]
    fn queueing_delay_forces_a_faster_configuration() {
        let fixture = Fixture::new();
        let dvfs = DvfsModel::new(&fixture.platform);
        let mut ebs = Ebs::new(&fixture.platform);
        warm_up(&mut ebs, &fixture, EventType::Click, 300);
        let ev = event(9, EventType::Click, 1_000, 300);
        let relaxed_ctx = ScheduleContext {
            platform: &fixture.platform,
            dvfs: &dvfs,
            qos: &fixture.qos,
            start_time: TimeUs::from_millis(1_000),
            current_config: fixture.platform.min_power_config(),
        };
        let relaxed = ebs.schedule_event(&relaxed_ctx, &ev);
        // The same event, but the CPU only frees up 200 ms after the arrival:
        // only 100 ms of budget remain.
        let squeezed_ctx = ScheduleContext {
            start_time: TimeUs::from_millis(1_200),
            ..relaxed_ctx
        };
        let squeezed = ebs.schedule_event(&squeezed_ctx, &ev);
        assert!(
            squeezed.effective_throughput_mhz() > relaxed.effective_throughput_mhz(),
            "interference should push EBS to a faster configuration"
        );
    }

    #[test]
    fn infeasible_budgets_fall_back_to_peak_performance() {
        let fixture = Fixture::new();
        let dvfs = DvfsModel::new(&fixture.platform);
        let mut ebs = Ebs::new(&fixture.platform);
        warm_up(&mut ebs, &fixture, EventType::Scroll, 200);
        // A move event whose profiled demand cannot fit in 33 ms at all.
        let ev = event(9, EventType::Scroll, 1_000, 200);
        let ctx = ScheduleContext {
            platform: &fixture.platform,
            dvfs: &dvfs,
            qos: &fixture.qos,
            start_time: TimeUs::from_millis(1_000),
            current_config: fixture.platform.min_power_config(),
        };
        assert_eq!(
            ebs.schedule_event(&ctx, &ev),
            fixture.platform.max_performance_config()
        );
    }

    #[test]
    fn ladder_cached_decisions_match_the_reference_model() {
        let fixture = Fixture::new();
        let dvfs = DvfsModel::new(&fixture.platform);
        let mut ebs = Ebs::new(&fixture.platform);
        warm_up(&mut ebs, &fixture, EventType::Click, 300);
        let estimate = ebs.profiler().estimate(EventType::Click).unwrap();
        // Sweep queueing delays: every budget must produce exactly the
        // decision the pre-ladder per-call model makes, and repeated
        // decisions on the same estimate must come from the memo.
        for delay_ms in [0u64, 50, 100, 150, 200, 250, 280, 299] {
            let ev = event(9, EventType::Click, 1_000, 300);
            let ctx = ScheduleContext {
                platform: &fixture.platform,
                dvfs: &dvfs,
                qos: &fixture.qos,
                start_time: TimeUs::from_millis(1_000 + delay_ms),
                current_config: fixture.platform.min_power_config(),
            };
            let chosen = ebs.schedule_event(&ctx, &ev);
            let deadline = ev.arrival() + fixture.qos.target_for_event(EventType::Click);
            let budget = deadline.saturating_sub(ctx.start_time);
            let reference = cheapest_config_within_reference(&dvfs, &estimate, budget)
                .unwrap_or_else(|| fixture.platform.max_performance_config());
            assert_eq!(chosen, reference, "decision diverged at delay {delay_ms}ms");
        }
        let (hits, misses) = ebs.ladder_cache.stats();
        assert!(
            hits >= 7,
            "repeated estimates must hit the memo: {hits}/{misses}"
        );
    }

    #[test]
    fn reset_returns_to_cold_start() {
        let fixture = Fixture::new();
        let mut ebs = Ebs::new(&fixture.platform);
        warm_up(&mut ebs, &fixture, EventType::Click, 300);
        assert!(!ebs.profiler().needs_profiling(EventType::Click));
        ebs.reset();
        assert!(ebs.profiler().needs_profiling(EventType::Click));
        assert_eq!(ebs.name(), "EBS");
    }
}
