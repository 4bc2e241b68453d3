//! The `policy-matrix` workload: every catalog app x k seeded traces x the
//! five policies, run serially on one thread with each unit timed on its
//! own. Traces are built during set-up, so no trace generation and no fleet
//! driver run inside the timed region.

use std::time::Instant;

use pes_schedulers::{Ebs, InteractiveGovernor, OndemandGovernor, Scheduler};
use pes_sim::{run_reactive_with_plane, ExperimentContext, ReactiveReport};
use pes_workload::{Trace, TraceGenerator};

use crate::calib::{Calibration, UNITS_PER_SAMPLE};
use crate::{derive_seed, median, percentile, Digest, Outcome, Setup};

/// Passes the timed region takes at least.
const MIN_PASSES: usize = 3;

/// Seeded traces per catalog app.
pub const TRACES_PER_APP: usize = 256;

/// The compared policies, in fold order.
const POLICIES: [Policy; 5] = [
    Policy::Interactive,
    Policy::Ondemand,
    Policy::Ebs,
    Policy::Pes,
    Policy::Oracle,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Interactive,
    Ondemand,
    Ebs,
    Pes,
    Oracle,
}

/// The matrix's sessions: `traces[app][j]` replays on the app's page.
pub struct Matrix {
    traces: Vec<Vec<Trace>>,
}

impl Matrix {
    pub fn build(ctx: &ExperimentContext, seed: u64) -> Matrix {
        let traces = ctx
            .catalog
            .apps()
            .iter()
            .enumerate()
            .map(|(app_idx, app)| {
                (0..TRACES_PER_APP)
                    .map(|j| {
                        TraceGenerator::new().generate(
                            app,
                            ctx.scenarios.page_ref(app_idx),
                            trace_seed(seed, app_idx, j),
                        )
                    })
                    .collect()
            })
            .collect();
        Matrix { traces }
    }

    /// `(app index, trace)` in matrix order.
    pub fn sessions(&self) -> impl Iterator<Item = (usize, &Trace)> {
        self.traces
            .iter()
            .enumerate()
            .flat_map(|(app, traces)| traces.iter().map(move |t| (app, t)))
    }

    pub fn units(&self) -> usize {
        self.traces.iter().map(Vec::len).sum::<usize>() * POLICIES.len()
    }
}

pub fn trace_seed(seed: u64, app_idx: usize, j: usize) -> u64 {
    derive_seed(seed, (app_idx * TRACES_PER_APP + j) as u64)
}

pub fn reactive(
    ctx: &ExperimentContext,
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
) -> ReactiveReport {
    run_reactive_with_plane(&ctx.platform, &ctx.power_plane, trace, scheduler, &ctx.qos)
}

/// Replays one matrix unit and folds its simulated outputs into `digest`.
fn run_unit(setup: &Setup, app: usize, trace: &Trace, policy: Policy, digest: &mut Digest) {
    let ctx = &setup.ctx;
    let page = ctx.scenarios.page_ref(app);
    let reactive_report = match policy {
        Policy::Interactive => reactive(ctx, trace, &mut InteractiveGovernor::new()),
        Policy::Ondemand => reactive(ctx, trace, &mut OndemandGovernor::new()),
        Policy::Ebs => reactive(ctx, trace, &mut Ebs::new(&ctx.platform)),
        Policy::Pes => {
            let report = setup.tiers.pes.run_trace_with_plane(
                &ctx.platform,
                &ctx.power_plane,
                page,
                trace,
                &ctx.qos,
            );
            digest.add_run(&report);
            return;
        }
        Policy::Oracle => {
            let report = setup.tiers.oracle.run_trace_with_plane(
                &ctx.platform,
                &ctx.power_plane,
                page,
                trace,
                &ctx.qos,
            );
            digest.add_run(&report);
            return;
        }
    };
    add_reactive(digest, &reactive_report);
}

pub fn add_reactive(digest: &mut Digest, report: &ReactiveReport) {
    digest.add(
        report.total_energy.as_microjoules(),
        report.violations(),
        report.events(),
        0,
    );
}

/// One serial pass over every unit; `on_unit` receives each unit's host
/// time in microseconds.
pub fn pass(setup: &Setup, matrix: &Matrix, mut on_unit: impl FnMut(f64)) -> Digest {
    let mut digest = Digest::default();
    for (app, trace) in matrix.sessions() {
        for policy in POLICIES {
            let t = Instant::now();
            run_unit(setup, app, trace, policy, &mut digest);
            on_unit(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    digest
}

/// The timed matrix run: one untimed warm-up pass (the reference digest and
/// the simulated metrics), then whole passes until the deadline.
pub fn timed(setup: &Setup, deadline: Instant, outcome: &mut Outcome) {
    let Some(matrix) = setup.matrix.as_ref() else {
        unreachable!("the policy-matrix set-up builds its traces")
    };
    let reference = pass(setup, matrix, |_| {});
    println!("digest policy-matrix: {}", reference.line());

    // Every pass yields its own throughput and percentiles, its units scaled
    // to the reference host speed by the calibration samples taken between
    // them; the run reports their medians over the passes (see
    // `README.md`, "Timing on a noisy host").
    let units = matrix.units();
    let mut calibration = Calibration::default();
    let (mut per_s, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut factors = Vec::new();
    let mut unit_us = Vec::with_capacity(units);
    while per_s.len() < MIN_PASSES || Instant::now() < deadline {
        unit_us.clear();
        let digest = pass(setup, matrix, |us| {
            unit_us.push(us);
            if unit_us.len() % UNITS_PER_SAMPLE == 0 {
                calibration.sample(1);
            }
        });
        outcome.attempted += units as u64;
        outcome.expect_digest("matrix pass", &reference, &digest);
        factors.push(calibration.scale_units(&mut unit_us));
        per_s.push(units as f64 / (unit_us.iter().sum::<f64>() / 1e6));
        unit_us.sort_by(f64::total_cmp);
        p50.push(percentile(&unit_us, 0.5));
        p99.push(percentile(&unit_us, 0.99));
    }
    let passes = per_s.len();
    println!(
        "calibration: host time x {:.4} = reference time (median over {passes} passes)",
        median(&factors)
    );

    outcome.metric(
        "sessions_per_s",
        median(&per_s),
        "1/s",
        &format!(
            "median over {passes} passes of {units} units / the pass's summed unit times, \
             one thread, reference speed"
        ),
    );
    let basis = format!(
        "median over {passes} passes of the pass's {units} units, timed one by one, \
         reference speed"
    );
    outcome.metric("unit_us_p50", median(&p50), "us", &basis);
    outcome.metric("unit_us_p99", median(&p99), "us", &basis);
    outcome.simulated(&reference);
}
