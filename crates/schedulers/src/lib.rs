//! # pes-schedulers — reactive ACMP scheduling baselines
//!
//! The baselines PES is evaluated against (Feng & Zhu, ISCA 2019, Sec. 6.1):
//!
//! * [`InteractiveGovernor`] — Android's default, QoS-agnostic interactivity
//!   governor (85 % utilisation threshold),
//! * [`OndemandGovernor`] — the energy-leaning utilisation governor, shown in
//!   the Fig. 13 Pareto analysis,
//! * [`Ebs`] — the state-of-the-art reactive QoS-aware scheduler (Zhu et al.,
//!   HPCA'15): per-event minimum-energy configuration under the event's QoS
//!   target, with online Eqn. 1 workload profiling ([`DemandProfiler`]) that
//!   PES reuses. The per-event decision itself is [`ebs_config`], which
//!   PES's reactive tier takes too.
//!
//! All of them implement the [`Scheduler`] trait consumed by the reactive
//! simulation loop in `pes-sim`; the Oracle and PES itself are proactive and
//! live in `pes-core`.
//!
//! # Examples
//!
//! ```
//! use pes_schedulers::{Ebs, InteractiveGovernor, Scheduler};
//! use pes_acmp::Platform;
//!
//! let platform = Platform::exynos_5410();
//! let schedulers: Vec<Box<dyn Scheduler>> = vec![
//!     Box::new(InteractiveGovernor::new()),
//!     Box::new(Ebs::new(&platform)),
//! ];
//! assert_eq!(schedulers[0].name(), "Interactive");
//! assert_eq!(schedulers[1].name(), "EBS");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod context;
pub mod ebs;
pub mod governors;
pub mod profiler;

pub use context::{ScheduleContext, Scheduler};
pub use ebs::{ebs_config, Ebs};
pub use governors::{InteractiveGovernor, OndemandGovernor};
pub use profiler::DemandProfiler;

// The EBS unit tests pin ladder-cached decisions against the pre-ladder DVFS
// oracle in the workspace's `tests/support/`.
#[cfg(test)]
#[path = "../../../tests/support/dvfs.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InteractiveGovernor>();
        assert_send_sync::<OndemandGovernor>();
        assert_send_sync::<Ebs>();
        assert_send_sync::<DemandProfiler>();
    }
}
