//! The reactive-scheduler interface.
//!
//! Reactive schedulers (the Android governors and EBS) pick one ACMP
//! configuration per outstanding event, right before it executes (Sec. 4.1).
//! The simulator calls [`Scheduler::schedule_event`] when an event is about
//! to run and [`Scheduler::on_event_complete`] when it finishes, so that
//! utilisation-driven and history-driven policies can maintain their state.

use pes_acmp::units::TimeUs;
use pes_acmp::{AcmpConfig, DvfsLadder, Platform};
use pes_webrt::{QosPolicy, WebEvent};

/// Everything a reactive scheduler may consult when deciding a configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleContext<'a> {
    /// The hardware platform.
    pub platform: &'a Platform,
    /// The shared DVFS power plane of the platform: the Eqn. 1/5
    /// evaluator QoS-aware decisions are made on.
    pub plane: &'a DvfsLadder,
    /// The QoS policy in force.
    pub qos: &'a QosPolicy,
    /// The time at which the event will start executing
    /// (`max(cpu_free_at, arrival)`).
    pub start_time: TimeUs,
    /// The configuration the hardware is currently set to.
    pub current_config: AcmpConfig,
}

/// A reactive, per-event scheduler.
pub trait Scheduler {
    /// Human-readable policy name (used in reports and figures).
    fn name(&self) -> &str;

    /// Chooses the configuration the next outstanding event will run on.
    fn schedule_event(&mut self, ctx: &ScheduleContext<'_>, event: &WebEvent) -> AcmpConfig;

    /// Notifies the scheduler that an event finished executing: which
    /// configuration it ran on, how long it was busy, and when it finished.
    fn on_event_complete(
        &mut self,
        ctx: &ScheduleContext<'_>,
        event: &WebEvent,
        config: &AcmpConfig,
        busy_time: TimeUs,
        finished_at: TimeUs,
    );

    /// Clears per-session state before replaying a new trace.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::Platform;

    /// A trivial scheduler used to exercise the trait object path.
    #[derive(Debug, Default)]
    struct AlwaysFastest {
        completions: usize,
    }

    impl Scheduler for AlwaysFastest {
        fn name(&self) -> &str {
            "always-fastest"
        }
        fn schedule_event(&mut self, ctx: &ScheduleContext<'_>, _event: &WebEvent) -> AcmpConfig {
            ctx.platform.max_performance_config()
        }
        fn on_event_complete(
            &mut self,
            _ctx: &ScheduleContext<'_>,
            _event: &WebEvent,
            _config: &AcmpConfig,
            _busy_time: TimeUs,
            _finished_at: TimeUs,
        ) {
            self.completions += 1;
        }
        fn reset(&mut self) {
            self.completions = 0;
        }
    }

    #[test]
    fn trait_is_object_safe_and_usable() {
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let qos = QosPolicy::paper_defaults();
        let ctx = ScheduleContext {
            platform: &platform,
            plane: &plane,
            qos: &qos,
            start_time: TimeUs::ZERO,
            current_config: platform.min_power_config(),
        };
        let mut sched: Box<dyn Scheduler> = Box::<AlwaysFastest>::default();
        let event = WebEvent::new(
            pes_webrt::EventId::new(0),
            pes_dom::EventType::Click,
            None,
            TimeUs::ZERO,
            pes_acmp::CpuDemand::ZERO,
        );
        let cfg = sched.schedule_event(&ctx, &event);
        assert_eq!(cfg, platform.max_performance_config());
        sched.on_event_complete(
            &ctx,
            &event,
            &cfg,
            TimeUs::from_millis(1),
            TimeUs::from_millis(1),
        );
        sched.reset();
        assert_eq!(sched.name(), "always-fastest");
    }
}
