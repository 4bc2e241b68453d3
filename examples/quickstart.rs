//! Quickstart: train the predictor, replay one user session of cnn.com under
//! PES and under the baselines, and print the headline comparison.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use pes::acmp::{DvfsLadder, Platform};
use pes::core::{OracleScheduler, PesConfig, PesScheduler};
use pes::predictor::{LearnerConfig, Trainer};
use pes::schedulers::{Ebs, InteractiveGovernor};
use pes::sim::run_reactive_with_plane;
use pes::webrt::QosPolicy;
use pes::workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

fn main() {
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let catalog = AppCatalog::paper_suite();

    println!("training the event predictor on the 12 seen applications...");
    let learner = Trainer::new().train_learner(&catalog, LearnerConfig::paper_defaults());

    let app = catalog.find("cnn").expect("cnn is in the suite");
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    println!(
        "replaying a {}-event, {:.0}-second session of {}\n",
        trace.len(),
        trace.duration().as_secs_f64(),
        app.name()
    );

    let interactive = run_reactive_with_plane(
        &platform,
        &plane,
        &trace,
        &mut InteractiveGovernor::new(),
        &qos,
    );
    let ebs = run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults())
        .run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
    let oracle =
        OracleScheduler::new().run_trace_with_plane(&platform, &plane, &page, &trace, &qos);

    println!(
        "{:<14} {:>12} {:>16} {:>14}",
        "policy", "energy (mJ)", "vs Interactive", "QoS violations"
    );
    let base = interactive.total_energy.as_millijoules();
    let row = |name: &str, energy: f64, violations: usize, events: usize| {
        println!(
            "{:<14} {:>12.1} {:>15.1}% {:>9} / {:<3}",
            name,
            energy,
            100.0 * energy / base,
            violations,
            events
        );
    };
    row(
        "Interactive",
        base,
        interactive.violations(),
        interactive.events(),
    );
    row(
        "EBS",
        ebs.total_energy.as_millijoules(),
        ebs.violations(),
        ebs.events(),
    );
    row(
        "PES",
        pes.total_energy.as_millijoules(),
        pes.violations,
        pes.events,
    );
    row(
        "Oracle",
        oracle.total_energy.as_millijoules(),
        oracle.violations,
        oracle.events,
    );

    println!(
        "\nPES prediction accuracy (online): {:.1}%  |  mispredictions: {}  |  avg prediction degree: {:.1}",
        100.0 * pes.prediction_accuracy(),
        pes.mispredictions,
        pes.average_prediction_degree()
    );
}
