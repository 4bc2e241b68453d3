//! Event classification under a reactive scheduler (Sec. 4.3, Fig. 3).
//!
//! Events are classified by what a reactive scheduler did to them:
//!
//! * **Type I** — intrinsically infeasible: even the highest-performance
//!   configuration cannot meet the QoS target,
//! * **Type II** — feasible in isolation but missed at runtime because of
//!   interference from preceding events,
//! * **Type III** — met the deadline but only by burning more energy than an
//!   interference-free schedule would have needed,
//! * **Type IV** — benign: met the deadline at the minimal-energy
//!   configuration with no interference.

use pes_acmp::DvfsLadder;
use pes_webrt::{QosPolicy, WebEvent};

use crate::reactive::ReactiveReport;

/// The four event categories of Sec. 4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventClass {
    /// Infeasible even at peak performance.
    TypeI,
    /// Feasible in isolation, violated at runtime due to interference.
    TypeII,
    /// Met, but over-provisioned due to interference.
    TypeIII,
    /// Met with no interference (benign).
    TypeIV,
}

impl EventClass {
    /// All classes in reporting order.
    pub const ALL: [EventClass; 4] = [
        EventClass::TypeI,
        EventClass::TypeII,
        EventClass::TypeIII,
        EventClass::TypeIV,
    ];
}

/// The per-class share of events, summing to 1 for a non-empty input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassDistribution {
    /// Fraction of Type I events.
    pub type_i: f64,
    /// Fraction of Type II events.
    pub type_ii: f64,
    /// Fraction of Type III events.
    pub type_iii: f64,
    /// Fraction of Type IV events.
    pub type_iv: f64,
}

impl ClassDistribution {
    /// Share of events that violate QoS (Type I + Type II).
    pub fn qos_missing(&self) -> f64 {
        self.type_i + self.type_ii
    }

    /// Share of events that waste energy while meeting QoS (Type III).
    pub fn energy_wasting(&self) -> f64 {
        self.type_iii
    }
}

/// Classifies every event of a reactive replay.
///
/// The classification uses ground-truth demands (the characterisation in the
/// paper also reasons about the events' intrinsic workloads), so the caller
/// provides the original trace events aligned with the report records.
pub fn classify_events(
    report: &ReactiveReport,
    events: &[WebEvent],
    plane: &DvfsLadder,
    qos: &QosPolicy,
) -> Vec<EventClass> {
    report
        .records
        .iter()
        .zip(events.iter())
        .map(|(record, event)| {
            let target = qos.target_for_event(event.event_type());
            let best_case = plane.best_case_latency(&event.demand());
            // Intrinsically infeasible: the fastest configuration plus one
            // display refresh cannot make the target.
            if best_case > target {
                return EventClass::TypeI;
            }
            let violated = record.outcome.violated();
            let interfered = !record.queue_delay.is_zero();
            if violated {
                return EventClass::TypeII;
            }
            if interfered {
                // Could a cheaper configuration have served the event had it
                // not been delayed?
                let ideal = plane.cheapest_config_within(&event.demand(), target);
                if let Some(ideal_cfg) = ideal {
                    let used_cost = plane.marginal_energy(&event.demand(), &record.config);
                    let ideal_cost = plane.marginal_energy(&event.demand(), &ideal_cfg);
                    if used_cost.as_microjoules() > ideal_cost.as_microjoules() * 1.01 {
                        return EventClass::TypeIII;
                    }
                }
            }
            EventClass::TypeIV
        })
        .collect()
}

/// Aggregates a class list into a distribution.
pub fn distribution(classes: &[EventClass]) -> ClassDistribution {
    if classes.is_empty() {
        return ClassDistribution::default();
    }
    let total = classes.len() as f64;
    let count = |c: EventClass| classes.iter().filter(|&&x| x == c).count() as f64 / total;
    ClassDistribution {
        type_i: count(EventClass::TypeI),
        type_ii: count(EventClass::TypeII),
        type_iii: count(EventClass::TypeIII),
        type_iv: count(EventClass::TypeIV),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactive::run_reactive_with_plane;
    use pes_acmp::Platform;
    use pes_schedulers::Ebs;
    use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};
    use std::sync::Arc;

    #[test]
    fn distribution_sums_to_one_and_every_class_occurs_across_the_suite() {
        let catalog = AppCatalog::paper_suite();
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();
        let gen = TraceGenerator::new();
        let mut all_classes = Vec::new();
        for app in catalog.seen_apps().take(6) {
            let page = app.build_page();
            let trace = gen.generate(app, &page, EVAL_SEED_BASE + 2);
            let report =
                run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
            let classes = classify_events(&report, trace.events(), &plane, &qos);
            assert_eq!(classes.len(), trace.len());
            let dist = distribution(&classes);
            let sum = dist.type_i + dist.type_ii + dist.type_iii + dist.type_iv;
            assert!((sum - 1.0).abs() < 1e-9);
            all_classes.extend(classes);
        }
        let dist = distribution(&all_classes);
        // The motivation of the paper: a non-trivial share of events misses
        // QoS or wastes energy under a reactive scheduler, but most events
        // remain benign.
        assert!(dist.qos_missing() > 0.02, "{dist:?}");
        assert!(dist.qos_missing() < 0.6, "{dist:?}");
        assert!(dist.type_iv > 0.3, "{dist:?}");
    }

    #[test]
    fn empty_input_yields_the_zero_distribution() {
        let d = distribution(&[]);
        assert_eq!(d.qos_missing(), 0.0);
        assert_eq!(d.energy_wasting(), 0.0);
    }
}
