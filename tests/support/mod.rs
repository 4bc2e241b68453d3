//! Oracles and baselines shared by the integration tests, the benches and
//! the examples. None of this runs in the PES runtime: each module is the
//! slow, obviously-correct counterpart a live fast path is checked or
//! measured against.
//!
//! * [`dvfs`]: the DVFS power and energy math re-derived from the
//!   platform tables per call, and the plane-less reference energy meter.
//! * [`reference`]: the pre-optimisation schedule search.
//! * [`linear`] and [`solver`]: the generic 0/1 ILP of the Sec. 5.5
//!   specialised-vs-generic ablation, with the window encoding.
//!
//! Integration tests load it with `mod support;`; benches and examples
//! include it with `#[path]`. The crates' own unit tests include single
//! files with `#[path]` too, which is why the files name their crates
//! (`pes_ilp::`, `pes_acmp::`) and reach siblings through `super::`.

pub mod dvfs;
pub mod linear;
pub mod reference;
pub mod solver;
pub mod windows;
