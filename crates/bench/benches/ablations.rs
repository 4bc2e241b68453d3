//! Ablation benchmarks for the design decisions called out in DESIGN.md:
//! the specialised scheduler solver vs the generic 0/1 ILP encoding, and
//! DOM (LNES) masking vs pure statistical prediction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pes_ilp::{ScheduleItem, ScheduleOption, ScheduleProblem};
use pes_predictor::{LearnerConfig, SessionState, Trainer, TrainingConfig};
use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

#[path = "../../../tests/support/mod.rs"]
mod support;
use support::solver::to_generic_ilp;

fn window() -> ScheduleProblem {
    let items: Vec<ScheduleItem> = (0..4)
        .map(|i| ScheduleItem {
            release_us: i * 250_000,
            deadline_us: (i + 1) * 250_000 + 300_000,
            options: (0..8)
                .map(|j| ScheduleOption {
                    choice: j,
                    duration_us: 240_000u64.saturating_sub(j as u64 * 25_000),
                    cost: 1.0 + j as f64,
                })
                .collect(),
        })
        .collect();
    ScheduleProblem::new(0, items)
}

fn specialised_vs_generic_ilp(c: &mut Criterion) {
    let problem = window();
    let mut group = c.benchmark_group("ilp_specialised_vs_generic");
    group.sample_size(20);
    group.bench_function("specialised branch-and-bound", |b| {
        b.iter(|| black_box(problem.solve().unwrap()))
    });
    group.bench_function("greedy (EBS-like) reference", |b| {
        b.iter(|| black_box(problem.solve_greedy().unwrap()))
    });
    let generic = to_generic_ilp(&problem);
    group.bench_function("generic 0/1 ILP encoding", |b| {
        b.iter(|| black_box(generic.solve().unwrap()))
    });
    group.finish();
}

fn lnes_masking(c: &mut Criterion) {
    let catalog = AppCatalog::paper_suite();
    let trainer = Trainer::with_config(TrainingConfig {
        traces_per_app: 2,
        epochs: 10,
        ..Default::default()
    });
    let with_dom = trainer.train_learner(&catalog, LearnerConfig::paper_defaults());
    let without_dom =
        trainer.train_learner(&catalog, LearnerConfig::paper_defaults().with_lnes(false));
    let app = catalog.find("ebay").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    let mut state = SessionState::new(page.tree.clone());
    for ev in trace.events().iter().take(5) {
        state.observe(ev);
    }
    let mut group = c.benchmark_group("prediction_with_and_without_dom");
    group.sample_size(30);
    group.bench_function("with LNES masking", |b| {
        b.iter(|| black_box(with_dom.predict_next(black_box(&mut state))))
    });
    group.bench_function("without LNES masking", |b| {
        b.iter(|| black_box(without_dom.predict_next(black_box(&mut state))))
    });
    group.finish();
}

criterion_group!(ablations, specialised_vs_generic_ilp, lnes_masking);
criterion_main!(ablations);
