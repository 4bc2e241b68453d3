//! # pes-core — Proactive Event Scheduling
//!
//! The primary contribution of Feng & Zhu, ISCA 2019: a Web-runtime scheduler
//! that *proactively* anticipates future user events and globally coordinates
//! scheduling decisions across them. The [`PesScheduler`] combines:
//!
//! * the hybrid learning-analytical event predictor (`pes-predictor`),
//! * online Eqn. 1 workload profiling (`pes-schedulers`),
//! * the Eqn. 5 constrained optimisation solved by the specialised ILP
//!   (`pes-ilp`),
//! * speculative execution of the resulting schedule on the ACMP model with
//!   a [`PendingFrameBuffer`] that commits frames when the predicted inputs
//!   arrive and squashes them on mispredictions, falling back to reactive EBS
//!   behaviour after repeated mispredictions (Sec. 5.4).
//!
//! The [`OracleScheduler`] runs the same machinery with perfect knowledge of
//! the future event sequence, providing the upper bound used in Sec. 6.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! use pes_core::{PesConfig, PesScheduler};
//! use pes_predictor::{LearnerConfig, Trainer};
//! use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};
//! use pes_acmp::{DvfsLadder, Platform};
//! use pes_webrt::QosPolicy;
//!
//! let catalog = AppCatalog::paper_suite();
//! let learner = Trainer::new().train_learner(&catalog, LearnerConfig::paper_defaults());
//! let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
//!
//! // One DVFS power plane per platform, shared by every replay on it.
//! let platform = Platform::exynos_5410();
//! let plane = Arc::new(DvfsLadder::for_platform(&platform));
//! let app = catalog.find("cnn").unwrap();
//! let page = app.build_page();
//! let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
//! let qos = QosPolicy::paper_defaults();
//! let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
//! println!("energy: {}, QoS violations: {}", report.total_energy, report.violations);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fault;
pub mod memo;
pub mod pfb;
pub mod runtime;
pub mod watchdog;

pub use fault::{
    splitmix, DegradationLevel, DegradationTrace, FaultConfig, FaultCounts, FaultPlane,
    FaultSession,
};
pub use memo::{
    window_shape, MemoStats, SolveGeneration, SolveMemo, SolveShard, SHARD_CAP, SOLVE_CACHE_SIZE,
};
pub use pfb::{PendingFrame, PendingFrameBuffer};
pub use runtime::{
    OracleScheduler, PesConfig, PesScheduler, ProactiveRuntime, RunReport, ANYTIME_TIER_NODE_CAP,
    FALLBACK_THRESHOLD, INCUMBENT_GAP_EPSILON, OPTIMIZER_NODE_LIMIT, PLANNING_HYSTERESIS,
    WIDE_WINDOW_NODE_LIMIT, WIDE_WINDOW_THRESHOLD,
};
pub use watchdog::{WatchdogConfig, WatchdogState};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PesScheduler>();
        assert_send_sync::<OracleScheduler>();
        assert_send_sync::<PendingFrameBuffer>();
        assert_send_sync::<RunReport>();
    }
}
