//! Sec. 6.3 runtime-overhead micro-benchmarks: predictor inference (the paper
//! reports ~2 µs), one constrained-optimisation solve (~10 ms budget,
//! amortised over the window), and a single reactive scheduling decision.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use pes_acmp::{DvfsLadder, Platform};
use pes_core::{PesConfig, PesScheduler};
use pes_ilp::{ScheduleItem, ScheduleOption, ScheduleProblem, ScheduleSolution, SolveScratch};
use pes_predictor::{LearnerConfig, SessionState, Trainer, TrainingConfig};
use pes_schedulers::{Ebs, ScheduleContext, Scheduler};
use pes_webrt::QosPolicy;
use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

#[path = "../../../tests/support/mod.rs"]
mod support;
use support::reference::solve_reference;

fn predictor_inference(c: &mut Criterion) {
    let catalog = AppCatalog::paper_suite();
    let learner = Trainer::with_config(TrainingConfig {
        traces_per_app: 3,
        epochs: 20,
        ..Default::default()
    })
    .train_learner(&catalog, LearnerConfig::paper_defaults());
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    let mut state = SessionState::new(page.tree.clone());
    for ev in trace.events().iter().take(6) {
        state.observe(ev);
    }
    c.bench_function("predict_next_event (logistic inference)", |b| {
        b.iter(|| black_box(learner.predict_next(black_box(&mut state))))
    });
    c.bench_function("predict_event_sequence (one prediction round)", |b| {
        b.iter(|| black_box(learner.predict_sequence(black_box(&state))))
    });
}

fn optimizer_solve(c: &mut Criterion) {
    // A PES-sized window: 6 events x 17 configurations.
    let items: Vec<ScheduleItem> = (0..6)
        .map(|i| ScheduleItem {
            release_us: i * 300_000,
            deadline_us: (i + 1) * 300_000 + 300_000,
            options: (0..17)
                .map(|j| ScheduleOption {
                    choice: j,
                    duration_us: 280_000u64.saturating_sub(j as u64 * 12_000),
                    cost: 1.0 + j as f64 * 0.9,
                })
                .collect(),
        })
        .collect();
    c.bench_function(
        "constrained optimisation solve (6 events x 17 configs)",
        |b| {
            b.iter(|| {
                let problem = ScheduleProblem::new(0, black_box(items.clone()));
                black_box(problem.solve().unwrap())
            })
        },
    );
}

/// A PES-style window of `n` events × 17 ACMP configurations with a convex
/// (DVFS-like) energy/latency trade-off and tight cumulative deadlines
/// (~55 % slack) so the branch-and-bound genuinely searches — a slack-rich
/// window is solved by the first greedy dive and measures nothing.
fn pressured_window(n: u64) -> ScheduleProblem {
    let items: Vec<ScheduleItem> = (0..n)
        .map(|i| ScheduleItem {
            release_us: i * 60_000,
            deadline_us: (i + 1) * 154_000,
            options: (0..17)
                .map(|j| ScheduleOption {
                    choice: j,
                    duration_us: 280_000u64.saturating_sub(j as u64 * 12_000),
                    cost: 1.0 + 0.25 * (j as f64).powf(1.7),
                })
                .collect(),
        })
        .collect();
    ScheduleProblem::new(0, items)
}

/// Sweeps the optimisation window size (2–12 events × 17 configs), comparing
/// the optimised allocation-free solver against the retained pre-optimisation
/// reference.
///
/// Two tiers: `exact/*` solves 2–6-event windows to optimality with no node
/// cap (the honest speedup — the 6×17 PES window is the paper-scale case);
/// `capped/*` runs 7–12-event windows under the runtime's 200 k node budget
/// (`pes_core::OPTIMIZER_NODE_LIMIT`), measuring the bounded worst-case
/// per-decision latency of the anytime search, which returns its best
/// incumbent when the budget cannot finish the window.
/// Record a baseline with `BENCH_JSON=BENCH_solver.json cargo bench ...`.
fn schedule_window_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_window_scaling");
    group.sample_size(10);
    for n in [2u64, 3, 4, 5, 6] {
        let problem = pressured_window(n);
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        group.bench_function(&format!("exact/optimised/{n}x17"), |b| {
            b.iter(|| {
                black_box(
                    problem
                        .solve_anytime_with(&mut scratch, &mut solution)
                        .is_ok(),
                )
            })
        });
        group.bench_function(&format!("exact/reference/{n}x17"), |b| {
            b.iter(|| black_box(solve_reference(&problem).is_ok()))
        });
    }
    for n in [7u64, 8, 10, 12] {
        let problem = pressured_window(n).with_node_limit(200_000);
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        group.bench_function(&format!("capped/optimised/{n}x17"), |b| {
            b.iter(|| {
                black_box(
                    problem
                        .solve_anytime_with(&mut scratch, &mut solution)
                        .is_ok(),
                )
            })
        });
        group.bench_function(&format!("capped/reference/{n}x17"), |b| {
            b.iter(|| black_box(solve_reference(&problem).is_ok()))
        });
    }
    group.finish();
}

fn scheduling_decisions(c: &mut Criterion) {
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let catalog = AppCatalog::paper_suite();
    let app = catalog.find("bbc").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    let event = trace.events()[2];

    let mut ebs = Ebs::new(&platform);
    let ctx = ScheduleContext {
        platform: &platform,
        plane: &plane,
        qos: &qos,
        start_time: event.arrival(),
        current_config: platform.min_power_config(),
    };
    c.bench_function("EBS per-event scheduling decision", |b| {
        b.iter(|| black_box(ebs.schedule_event(black_box(&ctx), black_box(&event))))
    });

    let learner = Trainer::with_config(TrainingConfig {
        traces_per_app: 2,
        epochs: 10,
        ..Default::default()
    })
    .train_learner(&catalog, LearnerConfig::paper_defaults());
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
    c.bench_function("PES full-session replay (one ~25-event trace)", |b| {
        b.iter(|| black_box(pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos)))
    });
}

criterion_group! {
    name = overheads;
    config = Criterion::default().sample_size(20);
    targets = predictor_inference, optimizer_solve, schedule_window_scaling, scheduling_decisions
}
criterion_main!(overheads);
