//! Follow a single interaction session event by event: what the user did,
//! what PES predicted, how the Pending Frame Buffer evolved (the Fig. 9
//! view), and where mispredictions occurred.
//!
//! Run with `cargo run --release --example interactive_session [app]`.

use std::sync::Arc;

use pes::acmp::{DvfsLadder, Platform};
use pes::core::{PesConfig, PesScheduler};
use pes::predictor::{LearnerConfig, Trainer};
use pes::webrt::QosPolicy;
use pes::workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

fn main() {
    let app_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ebay".to_string());
    let catalog = AppCatalog::paper_suite();
    let Some(app) = catalog.find(&app_name) else {
        eprintln!(
            "unknown application {app_name:?}; available: {}",
            catalog
                .apps()
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    };

    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    println!("training predictor...");
    let learner = Trainer::new().train_learner(&catalog, LearnerConfig::paper_defaults());
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults());

    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 4);
    let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);

    println!(
        "\nsession of {} — {} events over {:.0} s (touch user: {})\n",
        app.name(),
        trace.len(),
        trace.duration().as_secs_f64(),
        trace.is_touch_user()
    );
    println!(
        "{:<5} {:<12} {:>10} {:>10} {:>10} {:>6} {:>5}",
        "event", "type", "arrival", "latency", "target", "ok?", "PFB"
    );
    for (idx, ev) in trace.events().iter().enumerate() {
        let outcome = report
            .outcomes
            .iter()
            .find(|(id, _)| *id == ev.id())
            .map(|(_, o)| o);
        let pfb = report
            .pfb_trace
            .iter()
            .find(|(i, _)| *i == idx)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        if let Some(o) = outcome {
            println!(
                "{:<5} {:<12} {:>9.2}s {:>8.1}ms {:>8.1}ms {:>6} {:>5}",
                format!("E{idx}"),
                ev.event_type().to_string(),
                ev.arrival().as_secs_f64(),
                o.latency().as_millis_f64(),
                o.target.as_millis_f64(),
                if o.violated() { "MISS" } else { "ok" },
                pfb
            );
        }
    }
    println!(
        "\nsummary: {} violations, {:.1} mJ, prediction accuracy {:.1}%, {} mispredictions (avg waste {:.1} ms)",
        report.violations,
        report.total_energy.as_millijoules(),
        100.0 * report.prediction_accuracy(),
        report.mispredictions,
        report.average_waste_ms()
    );
}
