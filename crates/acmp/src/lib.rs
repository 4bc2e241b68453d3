//! # pes-acmp — ACMP (big.LITTLE) mobile hardware platform model
//!
//! This crate is the hardware substrate of the PES reproduction (Feng & Zhu,
//! ISCA 2019). It models the Asymmetric Chip-Multiprocessor evaluated in the
//! paper — the Exynos 5410's 4×Cortex-A15 + 4×Cortex-A7 — as the set of
//! `<core, frequency>` operating points that every scheduler picks from,
//! together with:
//!
//! * the DVFS latency model of Eqn. 1, `T = Tmem + Ndep / f`, and the
//!   shared [`DvfsLadder`] power plane that evaluates it and the Eqn. 5
//!   marginal energy per operating point ([`dvfs`]),
//! * a per-configuration power look-up table, analytically derived but frozen
//!   the same way the paper freezes its measured table ([`power`]),
//! * transition overheads for DVFS switches and core migrations
//!   ([`transition`]),
//! * an integrating energy meter replacing the DAQ measurements ([`energy`]),
//! * a utilisation tracker that feeds the Android governors ([`utilization`]).
//!
//! # Examples
//!
//! ```
//! use pes_acmp::{CpuDemand, DvfsLadder, Platform};
//! use pes_acmp::units::{CpuCycles, TimeUs};
//!
//! let platform = Platform::exynos_5410();
//! let plane = DvfsLadder::for_platform(&platform);
//!
//! // An event needing 300M A7-equivalent cycles plus 20 ms of memory time:
//! let demand = CpuDemand::new(TimeUs::from_millis(20), CpuCycles::new(300_000_000));
//!
//! // The cheapest configuration that still meets a 300 ms tap deadline:
//! let cfg = plane
//!     .cheapest_config_within(&demand, TimeUs::from_millis(300))
//!     .expect("the deadline is feasible");
//! assert!(demand.time_on(&cfg) <= TimeUs::from_millis(300));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Panic-freedom: the fault-injection chaos tier replays arbitrary fault
// schedules through this crate, so a stray `unwrap`/`expect` on the replay
// path is a fleet abort. Surviving sites carry a documented `#[allow]`
// restating the construction-time invariant they rely on.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod dvfs;
pub mod energy;
pub mod error;
pub mod platform;
pub mod power;
pub mod transition;
pub mod units;
pub mod utilization;

pub use config::{AcmpConfig, ConfigId, CoreKind};
pub use dvfs::{recover_demand, CpuDemand, DvfsLadder, LadderCache, LadderPoint, LadderRung};
pub use energy::{ActivityKind, EnergyMeter};
pub use error::AcmpError;
pub use platform::{ClusterSpec, Platform};
pub use transition::TransitionModel;
pub use utilization::UtilizationTracker;

// The unit tests compile the per-call DVFS oracles from the workspace's
// `tests/support/`, which name this crate `pes_acmp`.
#[cfg(test)]
extern crate self as pes_acmp;
#[cfg(test)]
#[path = "../../../tests/support/dvfs.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{CpuCycles, TimeUs};

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Platform>();
        assert_send_sync::<AcmpConfig>();
        assert_send_sync::<CpuDemand>();
        assert_send_sync::<TransitionModel>();
        assert_send_sync::<AcmpError>();
    }

    #[test]
    fn end_to_end_energy_for_a_tap_event_is_reasonable() {
        // Sanity-check the overall calibration: a tap-sized event (~100 ms of
        // work on the little core) should cost single-digit to low tens of
        // millijoules — the same order of magnitude as the per-event energy
        // numbers quoted in Sec. 6.3 of the paper.
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let demand = CpuDemand::new(TimeUs::from_millis(10), CpuCycles::new(50_000_000));
        let cfg = plane
            .cheapest_config_within(&demand, TimeUs::from_millis(300))
            .unwrap();
        let energy = plane
            .rung(&cfg)
            .exec_power
            .energy_over(demand.time_on(&cfg));
        assert!(
            energy.as_millijoules() > 1.0 && energy.as_millijoules() < 200.0,
            "per-event energy {energy} is outside the plausible range"
        );
    }
}
