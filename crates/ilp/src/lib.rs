//! # pes-ilp — integer linear programming for proactive event scheduling
//!
//! PES formulates the assignment of ACMP configurations to a window of
//! outstanding + predicted events as a constrained optimisation problem
//! (Eqn. 2–5 of Feng & Zhu, ISCA 2019) and solves it with a solver customised
//! to that formulation rather than a third-party package (Sec. 5.5).
//!
//! [`ScheduleProblem`] is that solver: one anytime branch-and-bound search
//! over per-event configuration choices with deadline propagation and a
//! lexicographic (violations, then cost) objective, plus a greedy policy
//! that seeds its incumbent. The generic 0/1 ILP baseline of the
//! specialised-vs-generic ablation and the pre-optimisation reference search
//! live in the workspace's `tests/support/` module, next to the tests and
//! benches that use them.
//!
//! The crate is dependency-free: times are `u64` microseconds and costs are
//! `f64` (microjoules in the PES use).
//!
//! # Examples
//!
//! ```
//! use pes_ilp::{ScheduleItem, ScheduleOption, ScheduleProblem};
//!
//! let window = vec![
//!     ScheduleItem {
//!         release_us: 0,
//!         deadline_us: 500_000,
//!         options: vec![
//!             ScheduleOption { choice: 0, duration_us: 400_000, cost: 2.0 },
//!             ScheduleOption { choice: 1, duration_us: 150_000, cost: 5.0 },
//!         ],
//!     },
//!     ScheduleItem {
//!         release_us: 200_000,
//!         deadline_us: 700_000,
//!         options: vec![
//!             ScheduleOption { choice: 0, duration_us: 300_000, cost: 2.0 },
//!             ScheduleOption { choice: 1, duration_us: 120_000, cost: 4.5 },
//!         ],
//!     },
//! ];
//! let solution = ScheduleProblem::new(0, window).solve()?;
//! assert_eq!(solution.violations, 0);
//! # Ok::<(), pes_ilp::IlpError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod schedule;

pub use error::IlpError;
pub use schedule::{
    ScheduleItem, ScheduleOption, ScheduleProblem, ScheduleSolution, SolveScratch, SolveTier,
};

// The generic 0/1 ILP of the specialised-vs-generic ablation, the
// pre-optimisation reference search and the shared test windows live in
// the workspace's `tests/support/`; the unit tests use them and run their
// tests with this crate's, which is why the files name this crate
// `pes_ilp`.
#[cfg(test)]
extern crate self as pes_ilp;
#[cfg(test)]
#[path = "../../../tests/support/linear.rs"]
mod linear;
#[cfg(test)]
#[path = "../../../tests/support/reference.rs"]
mod reference;
#[cfg(test)]
#[path = "../../../tests/support/solver.rs"]
mod solver;
#[cfg(test)]
#[path = "../../../tests/support/windows.rs"]
mod windows;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScheduleProblem>();
        assert_send_sync::<ScheduleSolution>();
        assert_send_sync::<IlpError>();
    }

    #[test]
    fn schedule_windows_of_paper_scale_solve_quickly() {
        // PES windows contain a handful of outstanding events plus roughly
        // five predicted events over 17 configurations; make sure such an
        // instance solves within a modest node budget.
        let items: Vec<ScheduleItem> = (0..8)
            .map(|i| ScheduleItem {
                release_us: i * 400_000,
                deadline_us: (i + 1) * 400_000 + 300_000,
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: 350_000 - (j as u64) * 15_000,
                        cost: 1.0 + j as f64 * 0.7,
                    })
                    .collect(),
            })
            .collect();
        let solution = ScheduleProblem::new(0, items)
            .with_node_limit(200_000)
            .solve()
            .expect("solves within the node limit");
        assert_eq!(solution.violations, 0);
    }
}
