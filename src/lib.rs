//! # pes — Proactive Event Scheduling for mobile Web computing
//!
//! A from-scratch Rust reproduction of *PES: Proactive Event Scheduling for
//! Responsive and Energy-Efficient Mobile Web Computing* (Feng & Zhu,
//! ISCA 2019). This facade crate re-exports every sub-crate of the workspace
//! and hosts the runnable examples and the cross-crate integration tests.
//!
//! The system is organised bottom-up:
//!
//! * [`acmp`] — the big.LITTLE hardware model (operating points, DVFS
//!   latency model, power tables, energy metering),
//! * [`dom`] — DOM tree, Semantic Tree and Likely-Next-Event-Set analysis,
//! * [`webrt`] — the event-driven Web runtime (events, QoS targets,
//!   rendering pipeline, VSync, execution engine),
//! * [`workload`] — the 18-application suite and seeded user-session traces,
//! * [`ilp`] — the constrained-optimisation solver (Eqn. 2–5),
//! * [`predictor`] — the hybrid learning-analytical event predictor,
//! * [`schedulers`] — the reactive baselines (Interactive, Ondemand, EBS),
//! * [`core`] — PES itself plus the Oracle,
//! * [`sim`] — the simulation harness and per-figure experiment drivers.
//!
//! # Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! use pes::acmp::{DvfsLadder, Platform};
//! use pes::core::{PesConfig, PesScheduler};
//! use pes::predictor::{LearnerConfig, Trainer};
//! use pes::workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};
//!
//! // Train the event predictor once, offline (Sec. 5.5).
//! let catalog = AppCatalog::paper_suite();
//! let learner = Trainer::new().train_learner(&catalog, LearnerConfig::paper_defaults());
//!
//! // Replay a user session of cnn.com under PES on the Exynos 5410 model,
//! // on the platform's one shared DVFS power plane.
//! let platform = Platform::exynos_5410();
//! let plane = Arc::new(DvfsLadder::for_platform(&platform));
//! let app = catalog.find("cnn").unwrap();
//! let page = app.build_page();
//! let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
//! let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
//! let report = pes.run_trace_with_plane(
//!     &platform,
//!     &plane,
//!     &page,
//!     &trace,
//!     &pes::webrt::QosPolicy::paper_defaults(),
//! );
//! println!("energy {}  violations {}", report.total_energy, report.violations);
//! ```

#![warn(missing_docs)]

pub use pes_acmp as acmp;
pub use pes_core as core;
pub use pes_dom as dom;
pub use pes_ilp as ilp;
pub use pes_predictor as predictor;
pub use pes_schedulers as schedulers;
pub use pes_sim as sim;
pub use pes_webrt as webrt;
pub use pes_workload as workload;
