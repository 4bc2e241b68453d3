//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (Sec. 4 and Sec. 6). The `figures` binary in `pes-bench`
//! formats the structures returned here into the text tables recorded in
//! EXPERIMENTS.md.
//!
//! Every session replay in the suite is deterministic and independent —
//! schedulers share no mutable state and every unit reads only immutable
//! shared artifacts — so the heavy drivers fan their
//! `(application, trace, scheduler)` tuples out over [`crate::par_map`]
//! scoped threads and fold the per-unit results back **in serial order**.
//! The output is byte-identical to the old nested `for` loops
//! (`PES_THREADS=1` forces that serial path); only the wall clock changes.
//!
//! The pages and seeded traces the units replay come from the
//! [`ScenarioCache`]: built once per context, shared via `Arc` across all
//! schedulers and worker threads, and byte-identical to regenerating them
//! per unit (enforced by `scenario_cache_matches_regenerated_artifacts` and
//! `parallel_fan_out_is_deterministic` below).

use std::sync::Arc;

use std::fmt;

use pes_acmp::units::TimeUs;
use pes_acmp::{CpuDemand, DvfsLadder, DvfsModel, Platform};
use pes_core::{FaultPlane, OracleScheduler, PesConfig, PesScheduler};
use pes_dom::EventType;
use pes_predictor::{
    evaluate_accuracy, evaluate_accuracy_batched, EventSequenceLearner, LearnerConfig, Trainer,
};
use pes_schedulers::{Ebs, InteractiveGovernor, OndemandGovernor};
use pes_webrt::{EventId, QosPolicy, WebEvent};
use pes_workload::{AppCatalog, Trace};

use crate::classify::{classify_events, distribution, ClassDistribution};
use crate::parallel::par_map;
use crate::reactive::run_reactive_with_plane;
use crate::scenario::ScenarioCache;

/// Shared state for all experiments: the platform, its once-built DVFS
/// power plane, the QoS policy, the application catalog, the (once-)trained
/// predictor and the once-built scenario artifacts every driver replays.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The hardware platform (Exynos 5410 by default).
    pub platform: Platform,
    /// The platform's DVFS power plane (17-rung ladder plus frozen
    /// per-configuration powers), built once and shared by every execution
    /// engine, scheduler context and energy meter the drivers spawn. Must be
    /// rebuilt whenever `platform` changes (see
    /// [`ExperimentContext::on_tx2`]).
    pub power_plane: Arc<DvfsLadder>,
    /// The QoS policy (paper defaults).
    pub qos: QosPolicy,
    /// The application catalog (12 seen + 6 unseen apps).
    pub catalog: AppCatalog,
    /// The trained event-sequence learner.
    pub learner: EventSequenceLearner,
    /// Evaluation traces used per application.
    pub traces_per_app: usize,
    /// Shared immutable pages and evaluation traces, indexed by catalog
    /// position. Holds `max(traces_per_app, 2)` traces per application (the
    /// Fig. 8 accuracy driver needs at least two).
    pub scenarios: ScenarioCache,
    /// The fault-injection plane the context's replays run under.
    /// [`FaultPlane::none`] (the default) keeps every driver bit-identical
    /// to the unfaulted suite; the chaos tier swaps in seeded schedules via
    /// [`ExperimentContext::with_faults`].
    pub faults: FaultPlane,
}

impl ExperimentContext {
    /// Builds the default experiment context: Exynos 5410, paper QoS targets,
    /// the 18-app suite, and a predictor trained with the default protocol.
    /// `traces_per_app` controls evaluation cost (the paper uses 3). The
    /// per-app training datasets are built in parallel (byte-identical to
    /// the serial protocol, see `crate::training`), so figure-suite startup
    /// no longer regenerates every training trace on one core.
    pub fn new(traces_per_app: usize) -> Self {
        let catalog = AppCatalog::paper_suite();
        let learner = crate::training::train_learner_parallel(
            &Trainer::new(),
            &catalog,
            LearnerConfig::paper_defaults(),
        );
        let traces_per_app = traces_per_app.max(1);
        let scenarios = ScenarioCache::build(&catalog, traces_per_app.max(2));
        let platform = Platform::exynos_5410();
        let power_plane = Arc::new(DvfsLadder::for_platform(&platform));
        ExperimentContext {
            platform,
            power_plane,
            qos: QosPolicy::paper_defaults(),
            catalog,
            learner,
            traces_per_app,
            scenarios,
            faults: FaultPlane::none(),
        }
    }

    /// Returns a copy replaying under the given fault-injection plane
    /// (chaos tier); [`FaultPlane::none`] restores the clean suite.
    pub fn with_faults(mut self, faults: FaultPlane) -> Self {
        self.faults = faults;
        self
    }

    /// Switches the hardware model to the NVIDIA TX2 (Sec. 6.5 "other
    /// devices"), rebuilding the power plane for it. The scenario artifacts
    /// depend only on the applications, not the platform, so they are
    /// reused as-is.
    pub fn on_tx2(mut self) -> Self {
        self.platform = Platform::tx2_parker();
        self.power_plane = Arc::new(DvfsLadder::for_platform(&self.platform));
        self
    }

    /// The catalog index of an application, by name.
    pub fn app_index(&self, name: &str) -> Option<usize> {
        self.catalog.apps().iter().position(|a| a.name() == name)
    }

    /// Replays one shared `(application, trace)` scenario under PES with
    /// `config` and returns the full [`pes_core::RunReport`] — including the
    /// solve-memoisation counters (`solver_cache_hits` / `_misses` /
    /// `_revalidations`), which is how the end-to-end tests assert the
    /// shape-keyed memo ring actually engages on realistic traces instead
    /// of assuming it.
    pub fn pes_replay(
        &self,
        app_name: &str,
        trace_idx: usize,
        config: PesConfig,
    ) -> Option<pes_core::RunReport> {
        let app_idx = self.app_index(app_name)?;
        if trace_idx >= self.scenarios.traces_per_app() {
            return None;
        }
        let pes = PesScheduler::new(self.learner.clone(), config);
        Some(pes.run_trace_with_plane_and_faults(
            &self.platform,
            &self.power_plane,
            self.scenarios.page_ref(app_idx),
            self.scenarios.trace_ref(app_idx, trace_idx),
            &self.qos,
            &self.faults,
        ))
    }
}

// ---------------------------------------------------------------------------
// Fig. 2 — representative four-event case study
// ---------------------------------------------------------------------------

/// One scheduled event in the Fig. 2 style timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Event label (E1..E4).
    pub label: String,
    /// When the input was triggered.
    pub triggered_at: TimeUs,
    /// When execution started.
    pub started_at: TimeUs,
    /// When the frame was displayed.
    pub displayed_at: TimeUs,
    /// The event's deadline.
    pub deadline: TimeUs,
    /// Whether the QoS target was violated.
    pub violated: bool,
}

/// The Fig. 2 case study: the same four-event sequence under the OS governor,
/// EBS and the Oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudy {
    /// Per-policy timelines, keyed by policy name.
    pub timelines: Vec<(String, Vec<TimelineEntry>)>,
    /// Per-policy total energy in millijoules.
    pub energy_mj: Vec<(String, f64)>,
}

/// Builds the cnn.com-like four-event interaction snapshot of Fig. 2: a load
/// with slack, a heavy tap, a tap that suffers interference, and a move.
pub fn fig2_trace() -> Trace {
    use pes_acmp::units::CpuCycles;
    let demand = |mem_ms: u64, mcycles: u64| {
        CpuDemand::new(
            TimeUs::from_millis(mem_ms),
            CpuCycles::new(mcycles * 1_000_000),
        )
    };
    let events = vec![
        // E1: page load, plenty of slack under its 3 s target.
        WebEvent::new(
            EventId::new(0),
            EventType::Load,
            None,
            TimeUs::ZERO,
            demand(200, 2_000),
        ),
        // E2: heavy tap triggered while E1's slack is still being enjoyed.
        WebEvent::new(
            EventId::new(1),
            EventType::Click,
            None,
            TimeUs::from_millis(2_600),
            demand(15, 1_400),
        ),
        // E3: a tap that only misses because E2 interferes with it.
        WebEvent::new(
            EventId::new(2),
            EventType::Click,
            None,
            TimeUs::from_millis(3_000),
            demand(10, 400),
        ),
        // E4: a light move event delayed behind E3.
        WebEvent::new(
            EventId::new(3),
            EventType::Scroll,
            None,
            TimeUs::from_millis(3_400),
            demand(2, 25),
        ),
    ];
    Trace::from_events("cnn (fig2 snapshot)", 0, events)
}

/// Runs the Fig. 2 comparison.
pub fn fig2_case_study(ctx: &ExperimentContext) -> CaseStudy {
    let trace = fig2_trace();
    let qos = ctx.qos;
    let mut timelines = Vec::new();
    let mut energy = Vec::new();

    let labels = ["E1", "E2", "E3", "E4"];
    let reactive_entry = |name: &str, report: &crate::reactive::ReactiveReport| {
        let entries = report
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| TimelineEntry {
                label: labels[i].to_string(),
                triggered_at: r.outcome.triggered_at,
                started_at: r.outcome.triggered_at + r.queue_delay,
                displayed_at: r.outcome.displayed_at,
                deadline: r.outcome.triggered_at + r.outcome.target,
                violated: r.outcome.violated(),
            })
            .collect();
        (
            name.to_string(),
            entries,
            report.total_energy.as_millijoules(),
        )
    };

    let os_report = run_reactive_with_plane(
        &ctx.platform,
        &ctx.power_plane,
        &trace,
        &mut InteractiveGovernor::new(),
        &qos,
    );
    let (n, t, e) = reactive_entry("OS (Interactive)", &os_report);
    timelines.push((n.clone(), t));
    energy.push((n, e));

    let ebs_report = run_reactive_with_plane(
        &ctx.platform,
        &ctx.power_plane,
        &trace,
        &mut Ebs::new(&ctx.platform),
        &qos,
    );
    let (n, t, e) = reactive_entry("EBS", &ebs_report);
    timelines.push((n.clone(), t));
    energy.push((n, e));

    // The oracle replays the same events with full knowledge. It needs a page
    // only for its session state; an empty page suffices for a hand-built
    // trace with document-level events.
    let page = pes_dom::PageBuilder::new(360)
        .nav_bar(2)
        .text_block(2_000)
        .build();
    let oracle_report = OracleScheduler::new().run_trace_with_plane(
        &ctx.platform,
        &ctx.power_plane,
        &page,
        &trace,
        &qos,
    );
    let entries = oracle_report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, (_, o))| TimelineEntry {
            label: labels[i].to_string(),
            triggered_at: o.triggered_at,
            started_at: o.triggered_at,
            displayed_at: o.displayed_at,
            deadline: o.triggered_at + o.target,
            violated: o.violated(),
        })
        .collect();
    timelines.push(("Oracle".to_string(), entries));
    energy.push((
        "Oracle".to_string(),
        oracle_report.total_energy.as_millijoules(),
    ));

    CaseStudy {
        timelines,
        energy_mj: energy,
    }
}

// ---------------------------------------------------------------------------
// Fig. 3 — event-type distribution under EBS
// ---------------------------------------------------------------------------

/// The catalog indices of the seen applications, in catalog order.
fn seen_indices(ctx: &ExperimentContext) -> Vec<usize> {
    ctx.catalog
        .apps()
        .iter()
        .enumerate()
        .filter(|(_, app)| app.is_seen())
        .map(|(i, _)| i)
        .collect()
}

/// Per-application event-type distribution (Fig. 3). One fan-out unit per
/// `(application, trace)` pair, each replaying its shared trace under EBS.
pub fn fig3_event_types(ctx: &ExperimentContext) -> Vec<(String, ClassDistribution)> {
    let dvfs = DvfsModel::with_ladder(&ctx.platform, Arc::clone(&ctx.power_plane));
    let seen = seen_indices(ctx);
    let traces = ctx.traces_per_app;
    let per_trace: Vec<Vec<crate::EventClass>> = par_map(seen.len() * traces, |unit| {
        let trace = ctx.scenarios.trace_ref(seen[unit / traces], unit % traces);
        let report = run_reactive_with_plane(
            &ctx.platform,
            &ctx.power_plane,
            trace,
            &mut Ebs::new(&ctx.platform),
            &ctx.qos,
        );
        classify_events(&report, trace.events(), &dvfs, &ctx.qos)
    });
    seen.iter()
        .enumerate()
        .map(|(row, &app_idx)| {
            let mut classes = Vec::new();
            for trace_classes in &per_trace[row * traces..(row + 1) * traces] {
                classes.extend(trace_classes.iter().cloned());
            }
            (
                ctx.catalog.apps()[app_idx].name().to_string(),
                distribution(&classes),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 8 — prediction accuracy; Sec. 6.5 DOM ablation
// ---------------------------------------------------------------------------

/// Per-application predictor accuracy (Fig. 8). Set `use_lnes` to `false`
/// for the Sec. 6.5 "predictor design" ablation (no DOM analysis). One
/// fan-out unit per application.
pub fn fig8_accuracy(ctx: &ExperimentContext, use_lnes: bool) -> Vec<(String, bool, f64)> {
    let mut learner = ctx.learner.clone();
    learner.set_config(LearnerConfig::paper_defaults().with_lnes(use_lnes));
    let apps = ctx.catalog.apps();
    let traces = ctx.traces_per_app.max(2);
    par_map(apps.len(), |app_idx| {
        let app = &apps[app_idx];
        (
            app.name().to_string(),
            app.is_seen(),
            evaluate_accuracy(
                &learner,
                ctx.scenarios.page_ref(app_idx),
                &ctx.scenarios.traces(app_idx)[..traces],
            ),
        )
    })
}

/// [`fig8_accuracy`] over the packed plane's one-matrix-pass
/// `predict_many`: every live trace of an application is advanced in
/// lockstep and each step scores the whole batch with a single packed
/// sweep. Decisions are bit-identical to the packed single-session path,
/// so this agrees with the scalar figure whenever the f32 re-layout
/// preserves the f64 argmax.
pub fn fig8_accuracy_batched(ctx: &ExperimentContext, use_lnes: bool) -> Vec<(String, bool, f64)> {
    let mut learner = ctx.learner.clone();
    learner.set_config(
        LearnerConfig::paper_defaults()
            .with_lnes(use_lnes)
            .with_packed(true),
    );
    let apps = ctx.catalog.apps();
    let traces = ctx.traces_per_app.max(2);
    par_map(apps.len(), |app_idx| {
        let app = &apps[app_idx];
        (
            app.name().to_string(),
            app.is_seen(),
            evaluate_accuracy_batched(
                &learner,
                ctx.scenarios.page_ref(app_idx),
                &ctx.scenarios.traces(app_idx)[..traces],
            ),
        )
    })
}

// ---------------------------------------------------------------------------
// Fig. 9 / Fig. 10 — PFB occupancy and misprediction waste
// ---------------------------------------------------------------------------

/// The PFB occupancy series for one application (Fig. 9 uses ebay).
pub fn fig9_pfb_trace(ctx: &ExperimentContext, app_name: &str) -> Vec<(usize, usize)> {
    let Some(app_idx) = ctx.app_index(app_name) else {
        return Vec::new();
    };
    let pes = PesScheduler::new(ctx.learner.clone(), PesConfig::paper_defaults());
    let page = ctx.scenarios.page_ref(app_idx);
    let trace = ctx.scenarios.trace_ref(app_idx, 0);
    pes.run_trace_with_plane(&ctx.platform, &ctx.power_plane, page, trace, &ctx.qos)
        .pfb_trace
}

/// Per-application average misprediction waste in milliseconds (Fig. 10),
/// plus the waste-energy fraction (the Sec. 6.3 1.8 %–2.2 % number). One
/// fan-out unit per `(application, trace)` pair.
pub fn fig10_waste(ctx: &ExperimentContext) -> Vec<(String, bool, f64, f64)> {
    let pes = PesScheduler::new(ctx.learner.clone(), PesConfig::paper_defaults());
    let apps = ctx.catalog.apps();
    let traces = ctx.traces_per_app;
    let per_trace: Vec<(f64, f64)> = par_map(apps.len() * traces, |unit| {
        let page = ctx.scenarios.page_ref(unit / traces);
        let trace = ctx.scenarios.trace_ref(unit / traces, unit % traces);
        let report =
            pes.run_trace_with_plane(&ctx.platform, &ctx.power_plane, page, trace, &ctx.qos);
        (report.average_waste_ms(), report.waste_energy_fraction())
    });
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    apps.iter()
        .enumerate()
        .map(|(app_idx, app)| {
            let slice = &per_trace[app_idx * traces..(app_idx + 1) * traces];
            let waste_ms: Vec<f64> = slice.iter().map(|(ms, _)| *ms).collect();
            let waste_fraction: Vec<f64> = slice.iter().map(|(_, frac)| *frac).collect();
            (
                app.name().to_string(),
                app.is_seen(),
                avg(&waste_ms),
                avg(&waste_fraction),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 11 / Fig. 12 / Fig. 13 — energy, QoS violation and Pareto comparison
// ---------------------------------------------------------------------------

/// Per-application comparison of all scheduling policies.
#[derive(Debug, Clone, PartialEq)]
pub struct AppComparison {
    /// Application name.
    pub app: String,
    /// Whether the app is in the seen suite.
    pub seen: bool,
    /// `(policy, energy in mJ, violation rate)` per policy.
    pub policies: Vec<(String, f64, f64)>,
}

impl AppComparison {
    /// Energy of a policy normalised to `Interactive` (Fig. 11).
    pub fn normalized_energy(&self, policy: &str) -> Option<f64> {
        let interactive = self.energy_of("Interactive")?;
        Some(self.energy_of(policy)? / interactive)
    }

    /// Absolute energy of a policy in millijoules.
    pub fn energy_of(&self, policy: &str) -> Option<f64> {
        self.policies
            .iter()
            .find(|(p, _, _)| p == policy)
            .map(|(_, e, _)| *e)
    }

    /// Violation rate of a policy.
    pub fn violation_of(&self, policy: &str) -> Option<f64> {
        self.policies
            .iter()
            .find(|(p, _, _)| p == policy)
            .map(|(_, _, v)| *v)
    }
}

/// Runs Interactive, Ondemand, EBS, PES and Oracle over every application in
/// the catalog; the result backs Fig. 11, Fig. 12 and Fig. 13.
pub fn full_comparison(ctx: &ExperimentContext) -> Vec<AppComparison> {
    full_comparison_with_config(ctx, PesConfig::paper_defaults())
}

/// The policy names of the headline comparison, in presentation order.
const COMPARISON_POLICIES: [&str; 5] = ["Interactive", "Ondemand", "EBS", "PES", "Oracle"];

/// Same as [`full_comparison`] but with an explicit PES configuration (used
/// by the Fig. 14 sensitivity sweep and the ablations).
///
/// This is the heaviest driver of the suite: `18 apps × N traces × 5
/// schedulers` independent replays. It fans one unit of work per
/// `(application, trace, scheduler)` tuple over scoped threads — each unit
/// replays the shared immutable page and trace of its `(application, trace)`
/// pair from the [`ScenarioCache`], so the fan-out is deterministic — and
/// folds the per-unit `(energy, violations, events)` triples back in the
/// serial loop's order, keeping the result byte-identical to the serial
/// driver (and to the regenerate-per-unit driver this replaced; see
/// `parallel_fan_out_is_deterministic`).
pub fn full_comparison_with_config(
    ctx: &ExperimentContext,
    pes_config: PesConfig,
) -> Vec<AppComparison> {
    let pes = PesScheduler::new(ctx.learner.clone(), pes_config);
    let oracle = OracleScheduler::new();
    let apps = ctx.catalog.apps();
    let traces = ctx.traces_per_app;
    let policies = COMPARISON_POLICIES.len();
    let per_unit: Vec<(f64, usize, usize)> = par_map(apps.len() * traces * policies, |unit| {
        let app_idx = unit / (traces * policies);
        let trace_idx = (unit / policies) % traces;
        let policy = COMPARISON_POLICIES[unit % policies];
        let page = ctx.scenarios.page_ref(app_idx);
        let trace = ctx.scenarios.trace_ref(app_idx, trace_idx);
        let events = trace.len();
        match policy {
            "Interactive" => {
                let r = run_reactive_with_plane(
                    &ctx.platform,
                    &ctx.power_plane,
                    trace,
                    &mut InteractiveGovernor::new(),
                    &ctx.qos,
                );
                (r.total_energy.as_millijoules(), r.violations(), events)
            }
            "Ondemand" => {
                let r = run_reactive_with_plane(
                    &ctx.platform,
                    &ctx.power_plane,
                    trace,
                    &mut OndemandGovernor::new(),
                    &ctx.qos,
                );
                (r.total_energy.as_millijoules(), r.violations(), events)
            }
            "EBS" => {
                let r = run_reactive_with_plane(
                    &ctx.platform,
                    &ctx.power_plane,
                    trace,
                    &mut Ebs::new(&ctx.platform),
                    &ctx.qos,
                );
                (r.total_energy.as_millijoules(), r.violations(), events)
            }
            "PES" => {
                let r = pes.run_trace_with_plane(
                    &ctx.platform,
                    &ctx.power_plane,
                    page,
                    trace,
                    &ctx.qos,
                );
                (r.total_energy.as_millijoules(), r.violations, events)
            }
            _ => {
                let r = oracle.run_trace_with_plane(
                    &ctx.platform,
                    &ctx.power_plane,
                    page,
                    trace,
                    &ctx.qos,
                );
                (r.total_energy.as_millijoules(), r.violations, events)
            }
        }
    });
    apps.iter()
        .enumerate()
        .map(|(app_idx, app)| {
            let mut totals: Vec<(String, f64, f64, usize)> = COMPARISON_POLICIES
                .iter()
                .map(|p| (p.to_string(), 0.0, 0.0, 0))
                .collect();
            // Accumulate trace-major, policy-minor: the exact float-addition
            // order of the old serial nested loops.
            for trace_idx in 0..traces {
                for (policy_idx, entry) in totals.iter_mut().enumerate() {
                    let (energy_mj, violations, events) =
                        per_unit[(app_idx * traces + trace_idx) * policies + policy_idx];
                    entry.1 += energy_mj;
                    entry.2 += violations as f64;
                    entry.3 += events;
                }
            }
            AppComparison {
                app: app.name().to_string(),
                seen: app.is_seen(),
                policies: totals
                    .into_iter()
                    .map(|(p, e, v, n)| (p, e, if n == 0 { 0.0 } else { v / n as f64 }))
                    .collect(),
            }
        })
        .collect()
}

/// Suite-level averages used by Fig. 13: `(policy, normalised energy,
/// violation rate)`, averaged over the seen applications.
pub fn fig13_pareto(comparisons: &[AppComparison]) -> Vec<(String, f64, f64)> {
    let policies = ["Interactive", "Ondemand", "EBS", "PES", "Oracle"];
    policies
        .iter()
        .map(|policy| {
            let seen: Vec<&AppComparison> = comparisons.iter().filter(|c| c.seen).collect();
            let energy = seen
                .iter()
                .filter_map(|c| c.normalized_energy(policy))
                .sum::<f64>()
                / seen.len().max(1) as f64;
            let violation = seen
                .iter()
                .filter_map(|c| c.violation_of(policy))
                .sum::<f64>()
                / seen.len().max(1) as f64;
            (policy.to_string(), energy, violation)
        })
        .collect()
}

/// A pareto/comparison lookup named a scheduler the result set does not
/// contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingPolicyError {
    /// The scheduler name that was looked up.
    pub policy: String,
    /// The scheduler names the result set actually holds.
    pub available: Vec<String>,
}

impl fmt::Display for MissingPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduler {:?} is not in the pareto set (available: {})",
            self.policy,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for MissingPolicyError {}

/// The `(policy, normalised energy, violation rate)` entry of one scheduler
/// in a [`fig13_pareto`] result.
///
/// # Errors
///
/// Returns a [`MissingPolicyError`] naming the missing scheduler (and the
/// ones present) instead of aborting the caller with a bare `unwrap`.
pub fn pareto_entry<'a>(
    pareto: &'a [(String, f64, f64)],
    policy: &str,
) -> Result<&'a (String, f64, f64), MissingPolicyError> {
    pareto
        .iter()
        .find(|(p, _, _)| p == policy)
        .ok_or_else(|| MissingPolicyError {
            policy: policy.to_string(),
            available: pareto.iter().map(|(p, _, _)| p.clone()).collect(),
        })
}

// ---------------------------------------------------------------------------
// Fig. 14 — sensitivity to the confidence threshold
// ---------------------------------------------------------------------------

/// One point of the Fig. 14 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// The confidence threshold.
    pub threshold: f64,
    /// PES energy normalised to EBS (lower is better).
    pub energy_vs_ebs: f64,
    /// Reduction of QoS violations relative to EBS (higher is better).
    pub qos_violation_reduction: f64,
}

/// Sweeps the prediction confidence threshold (Fig. 14). To bound runtime the
/// sweep uses the first `apps` seen applications. Each threshold fans one
/// unit per `(application, trace)` pair (EBS + PES replay) over scoped
/// threads and folds the sums in serial order.
pub fn fig14_sensitivity(
    ctx: &ExperimentContext,
    thresholds: &[f64],
    apps: usize,
) -> Vec<SensitivityPoint> {
    let subset: Vec<usize> = seen_indices(ctx).into_iter().take(apps.max(1)).collect();
    let traces = ctx.traces_per_app;
    thresholds
        .iter()
        .map(|&threshold| {
            let pes = PesScheduler::new(
                ctx.learner.clone(),
                PesConfig::paper_defaults().with_confidence_threshold(threshold),
            );
            let per_unit: Vec<(f64, usize, f64, usize)> = par_map(subset.len() * traces, |unit| {
                let app_idx = subset[unit / traces];
                let page = ctx.scenarios.page_ref(app_idx);
                let trace = ctx.scenarios.trace_ref(app_idx, unit % traces);
                let e = run_reactive_with_plane(
                    &ctx.platform,
                    &ctx.power_plane,
                    trace,
                    &mut Ebs::new(&ctx.platform),
                    &ctx.qos,
                );
                let p = pes.run_trace_with_plane(
                    &ctx.platform,
                    &ctx.power_plane,
                    page,
                    trace,
                    &ctx.qos,
                );
                (
                    e.total_energy.as_millijoules(),
                    e.violations(),
                    p.total_energy.as_millijoules(),
                    p.violations,
                )
            });
            let mut pes_energy = 0.0;
            let mut ebs_energy = 0.0;
            let mut pes_violations = 0usize;
            let mut ebs_violations = 0usize;
            for (ebs_e, ebs_v, pes_e, pes_v) in per_unit {
                ebs_energy += ebs_e;
                ebs_violations += ebs_v;
                pes_energy += pes_e;
                pes_violations += pes_v;
            }
            SensitivityPoint {
                threshold,
                energy_vs_ebs: if ebs_energy > 0.0 {
                    pes_energy / ebs_energy
                } else {
                    1.0
                },
                qos_violation_reduction: if ebs_violations > 0 {
                    1.0 - pes_violations as f64 / ebs_violations as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactive::run_reactive_with_plane;
    use pes_workload::{TraceGenerator, EVAL_SEED_BASE};

    fn tiny_ctx() -> ExperimentContext {
        let catalog = AppCatalog::paper_suite();
        let learner = Trainer::with_config(pes_predictor::TrainingConfig {
            traces_per_app: 2,
            epochs: 15,
            ..Default::default()
        })
        .train_learner(&catalog, LearnerConfig::paper_defaults());
        let scenarios = ScenarioCache::build(&catalog, 2);
        let platform = Platform::exynos_5410();
        let power_plane = Arc::new(DvfsLadder::for_platform(&platform));
        ExperimentContext {
            platform,
            power_plane,
            qos: QosPolicy::paper_defaults(),
            catalog,
            learner,
            traces_per_app: 1,
            scenarios,
            faults: FaultPlane::none(),
        }
    }

    #[test]
    fn fig2_case_study_reproduces_the_motivation() {
        let ctx = tiny_ctx();
        let study = fig2_case_study(&ctx);
        assert_eq!(study.timelines.len(), 3);
        let violated = |name: &str| {
            study
                .timelines
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, t)| t.iter().filter(|e| e.violated).count())
                .unwrap()
        };
        // The reactive schedulers miss deadlines on this sequence; the Oracle
        // does not.
        assert!(violated("EBS") >= 1);
        assert_eq!(violated("Oracle"), 0);
        assert!(violated("OS (Interactive)") >= violated("Oracle"));
    }

    #[test]
    fn fig8_dom_ablation_does_not_improve_accuracy() {
        let ctx = tiny_ctx();
        let with_dom = fig8_accuracy(&ctx, true);
        let without_dom = fig8_accuracy(&ctx, false);
        let avg =
            |v: &[(String, bool, f64)]| v.iter().map(|(_, _, a)| *a).sum::<f64>() / v.len() as f64;
        assert_eq!(with_dom.len(), 18);
        assert!(avg(&with_dom) + 1e-9 >= avg(&without_dom));
    }

    /// The pre-`ScenarioCache` serial driver, kept verbatim in spirit: plain
    /// nested loops that rebuild every unit's page and trace from the seed
    /// scheme (`EVAL_SEED_BASE + trace index`) and fold trace-major,
    /// policy-minor — the reference the shared-artifact fan-out must match
    /// byte-for-byte.
    fn full_comparison_regenerate_serial(ctx: &ExperimentContext) -> Vec<AppComparison> {
        let pes = PesScheduler::new(ctx.learner.clone(), PesConfig::paper_defaults());
        let oracle = OracleScheduler::new();
        ctx.catalog
            .apps()
            .iter()
            .map(|app| {
                let mut totals: Vec<(String, f64, f64, usize)> = COMPARISON_POLICIES
                    .iter()
                    .map(|p| (p.to_string(), 0.0, 0.0, 0))
                    .collect();
                for trace_idx in 0..ctx.traces_per_app {
                    let page = app.build_page();
                    let trace = TraceGenerator::new().generate(
                        app,
                        &page,
                        EVAL_SEED_BASE + trace_idx as u64,
                    );
                    for (policy_idx, policy) in COMPARISON_POLICIES.iter().enumerate() {
                        let (energy_mj, violations) = match *policy {
                            "Interactive" => {
                                let r = run_reactive_with_plane(
                                    &ctx.platform,
                                    &ctx.power_plane,
                                    &trace,
                                    &mut InteractiveGovernor::new(),
                                    &ctx.qos,
                                );
                                (r.total_energy.as_millijoules(), r.violations())
                            }
                            "Ondemand" => {
                                let r = run_reactive_with_plane(
                                    &ctx.platform,
                                    &ctx.power_plane,
                                    &trace,
                                    &mut OndemandGovernor::new(),
                                    &ctx.qos,
                                );
                                (r.total_energy.as_millijoules(), r.violations())
                            }
                            "EBS" => {
                                let r = run_reactive_with_plane(
                                    &ctx.platform,
                                    &ctx.power_plane,
                                    &trace,
                                    &mut Ebs::new(&ctx.platform),
                                    &ctx.qos,
                                );
                                (r.total_energy.as_millijoules(), r.violations())
                            }
                            "PES" => {
                                let r = pes.run_trace(&ctx.platform, &page, &trace, &ctx.qos);
                                (r.total_energy.as_millijoules(), r.violations)
                            }
                            _ => {
                                let r = oracle.run_trace(&ctx.platform, &page, &trace, &ctx.qos);
                                (r.total_energy.as_millijoules(), r.violations)
                            }
                        };
                        let entry = &mut totals[policy_idx];
                        entry.1 += energy_mj;
                        entry.2 += violations as f64;
                        entry.3 += trace.len();
                    }
                }
                AppComparison {
                    app: app.name().to_string(),
                    seen: app.is_seen(),
                    policies: totals
                        .into_iter()
                        .map(|(p, e, v, n)| (p, e, if n == 0 { 0.0 } else { v / n as f64 }))
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn scenario_cache_matches_regenerated_artifacts() {
        // Every page and trace the cache shares must be byte-identical to
        // rebuilding it from scratch for one unit — the invariant that makes
        // the shared-artifact fan-out equivalent to the old
        // regenerate-per-unit drivers.
        let ctx = tiny_ctx();
        for (app_idx, app) in ctx.catalog.apps().iter().enumerate() {
            let page = app.build_page();
            assert_eq!(
                *ctx.scenarios.page_ref(app_idx),
                page,
                "page of {}",
                app.name()
            );
            for trace_idx in 0..ctx.scenarios.traces_per_app() {
                let trace =
                    TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + trace_idx as u64);
                assert_eq!(
                    *ctx.scenarios.trace_ref(app_idx, trace_idx),
                    trace,
                    "trace {trace_idx} of {}",
                    app.name()
                );
            }
        }
    }

    #[test]
    fn parallel_fan_out_is_deterministic() {
        // The fan-out must produce identical results run-to-run regardless of
        // how units interleave across worker threads, and identical to the
        // forced-serial path.
        let ctx = tiny_ctx();
        let parallel_a = full_comparison(&ctx);
        let parallel_b = full_comparison(&ctx);
        assert_eq!(
            parallel_a, parallel_b,
            "parallel driver must be deterministic"
        );
        // Force the serial path (PES_THREADS=1 short-circuits par_map into a
        // plain `(0..n).map(f)` loop) and compare byte-for-byte. Rust's std
        // synchronises environment access internally, and a concurrent test
        // observing PES_THREADS=1 merely runs serially for a moment.
        std::env::set_var("PES_THREADS", "1");
        let serial = full_comparison(&ctx);
        std::env::remove_var("PES_THREADS");
        assert_eq!(
            parallel_a, serial,
            "parallel output must match the serial driver"
        );
        // The shared-artifact fan-out must also be byte-identical to the old
        // regenerate-per-unit serial nested loops.
        let regenerated = full_comparison_regenerate_serial(&ctx);
        assert_eq!(
            parallel_a, regenerated,
            "ScenarioCache-backed driver must match the regenerate-per-unit driver"
        );
    }

    #[test]
    fn fig11_ordering_holds_for_a_single_app() {
        let mut ctx = tiny_ctx();
        // Restrict to one app by rebuilding a single-app catalog view: just
        // use the full catalog but a single trace; runtime stays small.
        ctx.traces_per_app = 1;
        let comparisons = full_comparison(&ctx);
        assert_eq!(comparisons.len(), 18);
        let pareto = fig13_pareto(&comparisons);
        let get = |name: &str| {
            pareto_entry(&pareto, name)
                .expect("comparison policy present")
                .clone()
        };
        let (_, interactive_e, _) = get("Interactive");
        let (_, pes_e, pes_v) = get("PES");
        let (_, ebs_e, ebs_v) = get("EBS");
        let (_, oracle_e, oracle_v) = get("Oracle");
        assert!((interactive_e - 1.0).abs() < 1e-9);
        assert!(
            pes_e < 1.0,
            "PES should save energy vs Interactive: {pes_e}"
        );
        assert!(pes_e < ebs_e, "PES should save energy vs EBS");
        assert!(
            oracle_e <= pes_e * 1.02,
            "Oracle should be at least as good"
        );
        assert!(pes_v < ebs_v, "PES should reduce QoS violations vs EBS");
        assert!(oracle_v <= pes_v + 1e-9);
    }

    #[test]
    fn pareto_lookup_errors_name_the_missing_scheduler() {
        let pareto = vec![
            ("PES".to_string(), 0.8, 0.01),
            ("EBS".to_string(), 0.9, 0.05),
        ];
        assert_eq!(pareto_entry(&pareto, "PES").unwrap().1, 0.8);
        let err = pareto_entry(&pareto, "Oracle").unwrap_err();
        assert_eq!(err.policy, "Oracle");
        assert_eq!(err.available, vec!["PES".to_string(), "EBS".to_string()]);
        let shown = err.to_string();
        assert!(
            shown.contains("Oracle") && shown.contains("PES, EBS"),
            "{shown}"
        );
    }
}
