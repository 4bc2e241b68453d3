//! The reactive simulation loop: replays a trace under a per-event
//! [`Scheduler`] (Interactive, Ondemand, EBS) on the shared execution engine.

use std::sync::Arc;

use pes_acmp::units::{EnergyUj, TimeUs};
use pes_acmp::{AcmpConfig, DvfsLadder, Platform};
use pes_schedulers::{ScheduleContext, Scheduler};
use pes_webrt::{EventId, ExecutionEngine, QosOutcome, QosPolicy};
use pes_workload::Trace;

/// Per-event details of a reactive replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactiveEventRecord {
    /// The event.
    pub event: EventId,
    /// The configuration chosen by the scheduler.
    pub config: AcmpConfig,
    /// Queueing delay: how long after its arrival the event started.
    pub queue_delay: TimeUs,
    /// Busy (execution) time.
    pub busy_time: TimeUs,
    /// The QoS outcome.
    pub outcome: QosOutcome,
}

/// The report of one reactive replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactiveReport {
    /// Scheduler name.
    pub policy: String,
    /// Application name.
    pub app: String,
    /// Per-event records in trace order.
    pub records: Vec<ReactiveEventRecord>,
    /// Total processor energy over the session.
    pub total_energy: EnergyUj,
    /// QoS violations, counted at commit time by the engine (identical to scanning `records` — the reactive differential test
    /// pins the two against each other).
    pub violations: usize,
}

impl ReactiveReport {
    /// Number of events replayed.
    pub fn events(&self) -> usize {
        self.records.len()
    }

    /// Number of QoS violations (the engine's commit-time counter; O(1)).
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// Number of QoS violations by scanning the per-event records, for
    /// differential checks against the counter.
    pub fn violations_scanned(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.violated()).count()
    }

    /// Fraction of events violating their QoS target.
    pub fn violation_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.violations() as f64 / self.records.len() as f64
        }
    }
}

/// Replays `trace` under the given reactive scheduler on a shared DVFS power
/// plane (one ladder per platform, built once per context). The engine and
/// the scheduler context both read the one `plane`, so a fan-out driver
/// replaying many traces never rebuilds the 17-rung ladder per replay.
pub fn run_reactive_with_plane(
    platform: &Platform,
    plane: &Arc<DvfsLadder>,
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
    qos: &QosPolicy,
) -> ReactiveReport {
    scheduler.reset();
    let mut engine = ExecutionEngine::with_plane(platform, *qos, Arc::clone(plane));
    let mut records = Vec::with_capacity(trace.len());
    for ev in trace.events() {
        let start_time = engine.cpu_free_at().max(ev.arrival());
        let ctx = ScheduleContext {
            platform,
            plane,
            qos,
            start_time,
            current_config: engine.current_config(),
        };
        let config = scheduler.schedule_event(&ctx, ev);
        let record = engine.execute_event(ev, &config, false);
        let outcome = engine.commit(ev, record.frame_ready_at);
        scheduler.on_event_complete(&ctx, ev, &config, record.busy_time, record.frame_ready_at);
        records.push(ReactiveEventRecord {
            event: ev.id(),
            config,
            queue_delay: start_time.saturating_sub(ev.arrival()),
            busy_time: record.busy_time,
            outcome,
        });
    }
    ReactiveReport {
        policy: scheduler.name().to_string(),
        app: trace.app().to_string(),
        records,
        total_energy: engine.total_energy(),
        violations: engine.violations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_schedulers::{Ebs, InteractiveGovernor, OndemandGovernor};
    use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

    fn setup() -> (Platform, Arc<DvfsLadder>, QosPolicy, Trace) {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 1);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        (platform, plane, QosPolicy::paper_defaults(), trace)
    }

    #[test]
    fn every_event_is_executed_exactly_once() {
        let (platform, plane, qos, trace) = setup();
        let mut ebs = Ebs::new(&platform);
        let report = run_reactive_with_plane(&platform, &plane, &trace, &mut ebs, &qos);
        assert_eq!(report.events(), trace.len());
        assert_eq!(report.policy, "EBS");
        assert!(report.total_energy.as_millijoules() > 0.0);
        // The engine's commit-time counter and the record scan must agree.
        assert_eq!(report.violations(), report.violations_scanned());
        // Finish times never precede arrivals under a reactive policy.
        for r in &report.records {
            assert!(r.outcome.displayed_at >= r.outcome.triggered_at);
        }
    }

    #[test]
    fn interactive_spends_more_energy_than_ebs_and_ondemand_spends_least() {
        let (platform, plane, qos, trace) = setup();
        let interactive = run_reactive_with_plane(
            &platform,
            &plane,
            &trace,
            &mut InteractiveGovernor::new(),
            &qos,
        );
        let ebs =
            run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
        let ondemand = run_reactive_with_plane(
            &platform,
            &plane,
            &trace,
            &mut OndemandGovernor::new(),
            &qos,
        );
        assert!(
            interactive.total_energy.as_microjoules() > ebs.total_energy.as_microjoules(),
            "Interactive {} mJ vs EBS {} mJ",
            interactive.total_energy.as_millijoules(),
            ebs.total_energy.as_millijoules()
        );
        assert!(ondemand.total_energy.as_microjoules() < interactive.total_energy.as_microjoules());
        // Ondemand pays for its savings with many more violations (Fig. 13).
        assert!(ondemand.violations() >= interactive.violations());
    }

    #[test]
    fn ebs_violation_rate_is_in_a_plausible_range() {
        let (platform, plane, qos, trace) = setup();
        let report =
            run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
        let rate = report.violation_rate();
        assert!(rate > 0.0, "some Type I/II events must exist");
        assert!(
            rate < 0.6,
            "EBS should serve the majority of events: {rate}"
        );
    }
}
