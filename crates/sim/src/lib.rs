//! # pes-sim — simulation harness, metrics and experiment drivers
//!
//! Ties every substrate of the PES reproduction together:
//!
//! * [`run_reactive_with_plane`] replays a user trace under a reactive [`pes_schedulers::Scheduler`]
//!   (Interactive, Ondemand, EBS) on the shared execution engine,
//! * [`classify_events`] reproduces the Sec. 4.3 Type I–IV characterisation,
//! * [`experiments`] holds one driver per table/figure of the evaluation
//!   (Fig. 2, 3, 8, 9, 10, 11, 12, 13, 14 plus the Sec. 6.5 ablations),
//!   consumed by the `figures` binary in `pes-bench`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use pes_acmp::{DvfsLadder, Platform};
//! use pes_schedulers::Ebs;
//! use pes_sim::run_reactive_with_plane;
//! use pes_webrt::QosPolicy;
//! use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};
//!
//! let catalog = AppCatalog::paper_suite();
//! let app = catalog.find("bbc").unwrap();
//! let page = app.build_page();
//! let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
//! let platform = Platform::exynos_5410();
//! let plane = Arc::new(DvfsLadder::for_platform(&platform));
//! let qos = QosPolicy::paper_defaults();
//! let report = run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
//! assert_eq!(report.events(), trace.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod classify;
pub mod experiments;
pub mod fleet;
pub mod parallel;
pub mod reactive;
pub mod scenario;
pub mod training;

pub use classify::{classify_events, distribution, ClassDistribution, EventClass};
pub use experiments::{
    fig10_waste, fig13_pareto, fig14_sensitivity, fig2_case_study, fig2_trace, fig3_event_types,
    fig8_accuracy, fig9_pfb_trace, full_comparison, full_comparison_with_config, AppComparison,
    CaseStudy, ExperimentContext, PerPolicy, Policy, SensitivityPoint, TimelineEntry,
};
pub use fleet::{
    fleet_admission_dry_run, resume_fleet, run_fleet, run_fleet_journaled, unit_scenario,
    BreakerState, CircuitBreaker, FleetConfig, FleetError, FleetRunReport, FleetSpec,
};
pub use parallel::{
    par_map, par_map_supervised_with, par_map_with, parallelism, FleetReport, UnitFailure,
};
pub use reactive::{run_reactive_with_plane, ReactiveEventRecord, ReactiveReport};
pub use scenario::ScenarioCache;
pub use training::{train_learner_parallel, train_parallel};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReactiveReport>();
        assert_send_sync::<ExperimentContext>();
        assert_send_sync::<AppComparison>();
        assert_send_sync::<EventClass>();
    }
}
