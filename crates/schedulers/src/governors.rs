//! The Android CPU governors used as QoS-agnostic baselines (Sec. 6.1).
//!
//! Both governors are utilisation-driven and know nothing about events or
//! QoS targets. Because the simulator schedules at event granularity, the
//! within-event frequency ramp of the real governors is approximated: when
//! an event keeps the CPU busy longer than the governor's sampling period,
//! the governor will have ramped up long before the event finishes, so the
//! event is modelled as running at the ramped-up operating point; events
//! shorter than a sampling period run at whatever operating point the
//! governor had settled on while idle. This reproduces the two behaviours
//! the paper reports: `Interactive` spends the vast majority of busy time at
//! the big cluster's maximum frequency (high energy), yet still misses
//! deadlines for events that finish within one sampling period at a low
//! operating point, while `Ondemand` favours low frequencies and trades much
//! larger QoS violations for energy.

use pes_acmp::units::TimeUs;
use pes_acmp::{AcmpConfig, CoreKind, UtilizationTracker};
use pes_webrt::WebEvent;

use crate::context::{ScheduleContext, Scheduler};

/// The Android `Interactive` governor: the default interactivity-oriented
/// CPU governor (85 % utilisation threshold, aggressive ramp-up).
#[derive(Debug, Clone)]
pub struct InteractiveGovernor {
    tracker: UtilizationTracker,
    sampling_period: TimeUs,
    hispeed_threshold: f64,
    last_busy_end: TimeUs,
}

impl InteractiveGovernor {
    /// Creates the governor with its Android defaults: 20 ms sampling, 85 %
    /// hi-speed threshold.
    pub fn new() -> Self {
        InteractiveGovernor {
            tracker: UtilizationTracker::new(TimeUs::from_millis(100)),
            sampling_period: TimeUs::from_millis(20),
            hispeed_threshold: 0.85,
            last_busy_end: TimeUs::ZERO,
        }
    }

    fn idle_config(&self, ctx: &ScheduleContext<'_>, utilization: f64) -> AcmpConfig {
        // While not saturated the governor tracks load proportionally on the
        // big cluster (the browser main thread is HMP-placed on big cores).
        // Every shipped `Platform` constructor builds at least one cluster,
        // but the invariant lives in pes-acmp, not here: a clusterless
        // platform keeps whatever configuration the hardware is already in
        // rather than panicking mid-replay.
        let Some(big) = ctx
            .platform
            .cluster_for(CoreKind::BigA15)
            .or_else(|| ctx.platform.clusters().first())
        else {
            return ctx.current_config;
        };
        let min = big.min_frequency().as_mhz() as f64;
        let max = big.max_frequency().as_mhz() as f64;
        let target = min + utilization * (max - min);
        AcmpConfig::new(
            big.core_kind(),
            big.snap_up(pes_acmp::units::FreqMhz::new(target as u32)),
        )
    }
}

impl Default for InteractiveGovernor {
    fn default() -> Self {
        InteractiveGovernor::new()
    }
}

impl Scheduler for InteractiveGovernor {
    fn name(&self) -> &str {
        "Interactive"
    }

    fn schedule_event(&mut self, ctx: &ScheduleContext<'_>, event: &WebEvent) -> AcmpConfig {
        let utilization = self.tracker.utilization(ctx.start_time);
        let resting = self.idle_config(ctx, utilization);
        if utilization >= self.hispeed_threshold {
            return ctx.platform.max_performance_config();
        }
        // Within-event ramp approximation: if the event will keep the CPU
        // busy beyond one sampling period at the resting operating point, the
        // governor saturates and the event effectively runs at max speed.
        let at_resting = event.demand().time_on(&resting);
        if at_resting > self.sampling_period {
            ctx.platform.max_performance_config()
        } else {
            resting
        }
    }

    fn on_event_complete(
        &mut self,
        _ctx: &ScheduleContext<'_>,
        _event: &WebEvent,
        _config: &AcmpConfig,
        busy_time: TimeUs,
        finished_at: TimeUs,
    ) {
        let start = finished_at.saturating_sub(busy_time);
        self.tracker.record(self.last_busy_end, start, false);
        self.tracker.record(start, finished_at, true);
        self.last_busy_end = finished_at;
    }

    fn reset(&mut self) {
        self.tracker.reset();
        self.last_busy_end = TimeUs::ZERO;
    }
}

/// The Android `Ondemand` governor: energy-leaning utilisation scaling with a
/// long sampling period; rarely used for interactive workloads because of its
/// poor responsiveness (Fig. 13).
#[derive(Debug, Clone)]
pub struct OndemandGovernor {
    tracker: UtilizationTracker,
    sampling_period: TimeUs,
    up_threshold: f64,
    last_busy_end: TimeUs,
}

impl OndemandGovernor {
    /// Creates the governor with its classic defaults (100 ms sampling, 95 %
    /// up-threshold).
    pub fn new() -> Self {
        OndemandGovernor {
            tracker: UtilizationTracker::new(TimeUs::from_millis(300)),
            sampling_period: TimeUs::from_millis(100),
            up_threshold: 0.95,
            last_busy_end: TimeUs::ZERO,
        }
    }
}

impl Default for OndemandGovernor {
    fn default() -> Self {
        OndemandGovernor::new()
    }
}

impl Scheduler for OndemandGovernor {
    fn name(&self) -> &str {
        "Ondemand"
    }

    fn schedule_event(&mut self, ctx: &ScheduleContext<'_>, event: &WebEvent) -> AcmpConfig {
        let utilization = self.tracker.utilization(ctx.start_time);
        // Ondemand parks work on the little cluster until utilisation builds
        // up, then steps the big cluster frequency proportionally.
        let little = ctx
            .platform
            .cluster_for(CoreKind::LittleA7)
            .unwrap_or_else(|| &ctx.platform.clusters()[0]);
        let big = ctx
            .platform
            .cluster_for(CoreKind::BigA15)
            .unwrap_or_else(|| &ctx.platform.clusters()[0]);
        let resting = if utilization < 0.3 {
            AcmpConfig::new(little.core_kind(), little.max_frequency())
        } else {
            let min = big.min_frequency().as_mhz() as f64;
            let max = big.max_frequency().as_mhz() as f64;
            let target = min + utilization * (max - min);
            AcmpConfig::new(
                big.core_kind(),
                big.snap_up(pes_acmp::units::FreqMhz::new(target as u32)),
            )
        };
        if utilization >= self.up_threshold {
            return ctx.platform.max_performance_config();
        }
        // Within-event ramp: ondemand only reaches a high operating point
        // after a full (long) sampling period of saturation, and even then it
        // steps rather than jumps; long events end up at a high-but-not-peak
        // big configuration.
        let at_resting = event.demand().time_on(&resting);
        if at_resting > self.sampling_period {
            let stepped = big.step_down(big.max_frequency());
            AcmpConfig::new(big.core_kind(), stepped)
        } else {
            resting
        }
    }

    fn on_event_complete(
        &mut self,
        _ctx: &ScheduleContext<'_>,
        _event: &WebEvent,
        _config: &AcmpConfig,
        busy_time: TimeUs,
        finished_at: TimeUs,
    ) {
        let start = finished_at.saturating_sub(busy_time);
        self.tracker.record(self.last_busy_end, start, false);
        self.tracker.record(start, finished_at, true);
        self.last_busy_end = finished_at;
    }

    fn reset(&mut self) {
        self.tracker.reset();
        self.last_busy_end = TimeUs::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::CpuCycles;
    use pes_acmp::{CpuDemand, DvfsLadder, Platform};
    use pes_dom::EventType;
    use pes_webrt::{EventId, QosPolicy};

    fn ctx<'a>(
        platform: &'a Platform,
        plane: &'a DvfsLadder,
        qos: &'a QosPolicy,
        start_ms: u64,
    ) -> ScheduleContext<'a> {
        ScheduleContext {
            platform,
            plane,
            qos,
            start_time: TimeUs::from_millis(start_ms),
            current_config: platform.min_power_config(),
        }
    }

    fn event(ty: EventType, mcycles: u64) -> WebEvent {
        WebEvent::new(
            EventId::new(0),
            ty,
            None,
            TimeUs::ZERO,
            CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(mcycles * 1_000_000)),
        )
    }

    #[test]
    fn interactive_runs_long_events_at_peak() {
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let qos = QosPolicy::paper_defaults();
        let mut gov = InteractiveGovernor::new();
        let cfg = gov.schedule_event(
            &ctx(&platform, &plane, &qos, 0),
            &event(EventType::Load, 2_000),
        );
        assert_eq!(cfg, platform.max_performance_config());
        let tap = gov.schedule_event(
            &ctx(&platform, &plane, &qos, 0),
            &event(EventType::Click, 400),
        );
        assert_eq!(tap, platform.max_performance_config());
    }

    #[test]
    fn interactive_leaves_tiny_events_at_the_resting_point_after_idle() {
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let qos = QosPolicy::paper_defaults();
        let mut gov = InteractiveGovernor::new();
        // Long idle: utilisation is zero, resting point is the lowest big
        // frequency; a tiny move event finishes within one sampling period.
        let cfg = gov.schedule_event(
            &ctx(&platform, &plane, &qos, 5_000),
            &event(EventType::Scroll, 10),
        );
        assert!(cfg.core().is_big());
        assert!(cfg.frequency() < platform.max_performance_config().frequency());
    }

    #[test]
    fn interactive_saturated_utilisation_jumps_to_peak() {
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let qos = QosPolicy::paper_defaults();
        let mut gov = InteractiveGovernor::new();
        // Report a solid 100 ms of busy time right before the decision point.
        gov.on_event_complete(
            &ctx(&platform, &plane, &qos, 100),
            &event(EventType::Load, 100),
            &platform.max_performance_config(),
            TimeUs::from_millis(100),
            TimeUs::from_millis(100),
        );
        let cfg = gov.schedule_event(
            &ctx(&platform, &plane, &qos, 100),
            &event(EventType::Scroll, 5),
        );
        assert_eq!(cfg, platform.max_performance_config());
    }

    #[test]
    fn ondemand_prefers_low_power_after_idle_and_never_peaks_for_long_events() {
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let qos = QosPolicy::paper_defaults();
        let mut gov = OndemandGovernor::new();
        let small = gov.schedule_event(
            &ctx(&platform, &plane, &qos, 5_000),
            &event(EventType::Scroll, 10),
        );
        assert_eq!(small.core(), CoreKind::LittleA7);
        let long = gov.schedule_event(
            &ctx(&platform, &plane, &qos, 5_000),
            &event(EventType::Load, 2_000),
        );
        assert!(long.core().is_big());
        assert!(long.frequency() < platform.max_performance_config().frequency());
    }

    #[test]
    fn governors_reset_cleanly() {
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let qos = QosPolicy::paper_defaults();
        let mut gov = InteractiveGovernor::new();
        gov.on_event_complete(
            &ctx(&platform, &plane, &qos, 50),
            &event(EventType::Load, 100),
            &platform.max_performance_config(),
            TimeUs::from_millis(50),
            TimeUs::from_millis(50),
        );
        gov.reset();
        assert_eq!(gov.tracker.utilization(TimeUs::from_millis(50)), 0.0);
        let mut od = OndemandGovernor::new();
        od.reset();
        assert_eq!(od.name(), "Ondemand");
        assert_eq!(gov.name(), "Interactive");
    }
}
