//! Figure-scale end-to-end benchmarks: how long it takes to regenerate the
//! headline comparison for one application under each policy. These are the
//! building blocks the `figures` binary sweeps over the whole suite.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use pes_acmp::{DvfsLadder, Platform};
use pes_core::{OracleScheduler, PesConfig, PesScheduler};
use pes_predictor::{LearnerConfig, Trainer, TrainingConfig};
use pes_schedulers::{Ebs, InteractiveGovernor};
use pes_sim::run_reactive_with_plane;
use pes_webrt::QosPolicy;
use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

fn per_policy_replay(c: &mut Criterion) {
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let catalog = AppCatalog::paper_suite();
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    let learner = Trainer::with_config(TrainingConfig {
        traces_per_app: 2,
        epochs: 10,
        ..Default::default()
    })
    .train_learner(&catalog, LearnerConfig::paper_defaults());

    let mut group = c.benchmark_group("fig11_single_app_replay");
    group.sample_size(20);
    group.bench_function("Interactive", |b| {
        b.iter(|| {
            black_box(run_reactive_with_plane(
                &platform,
                &plane,
                &trace,
                &mut InteractiveGovernor::new(),
                &qos,
            ))
        })
    });
    group.bench_function("EBS", |b| {
        b.iter(|| {
            black_box(run_reactive_with_plane(
                &platform,
                &plane,
                &trace,
                &mut Ebs::new(&platform),
                &qos,
            ))
        })
    });
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
    group.bench_function("PES", |b| {
        b.iter(|| black_box(pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos)))
    });
    let oracle = OracleScheduler::new();
    group.bench_function("Oracle", |b| {
        b.iter(|| black_box(oracle.run_trace_with_plane(&platform, &plane, &page, &trace, &qos)))
    });
    group.finish();
}

fn trace_generation_and_training(c: &mut Criterion) {
    let catalog = AppCatalog::paper_suite();
    let app = catalog.find("amazon").unwrap();
    let page = app.build_page();
    let mut group = c.benchmark_group("workload_and_training");
    group.sample_size(10);
    group.bench_function("generate one user trace", |b| {
        b.iter(|| black_box(TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE)))
    });
    group.bench_function("train predictor (reduced protocol)", |b| {
        b.iter(|| {
            black_box(
                Trainer::with_config(TrainingConfig {
                    traces_per_app: 2,
                    epochs: 5,
                    ..Default::default()
                })
                .train(&catalog),
            )
        })
    });
    group.finish();
}

criterion_group!(figures, per_policy_replay, trace_generation_and_training);
criterion_main!(figures);
