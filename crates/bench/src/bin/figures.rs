//! Regenerates every table and figure of the paper's evaluation as text
//! tables.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pes_bench --release --bin figures -- [all|fig2|fig3|table1|fig8|ablation-dom|
//!                                                    fig9|fig10|fig11|fig12|fig13|fig14|tx2|overheads]
//!                                                   [--traces N] [--serial]
//! ```
//!
//! The experiment drivers fan their `(application, trace, scheduler)` units
//! out over scoped threads (one worker per core by default; override with the
//! `PES_THREADS` environment variable). `--serial` forces `PES_THREADS=1`;
//! the output is byte-identical either way, only the wall clock changes.

use pes_bench::{mean, pct, std_dev};
use pes_core::PesConfig;
use pes_sim::{
    fig10_waste, fig13_pareto, fig14_sensitivity, fig2_case_study, fig3_event_types, fig8_accuracy,
    fig9_pfb_trace, full_comparison, AppComparison, ExperimentContext, Policy,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serial") {
        // Must happen before any worker threads exist.
        std::env::set_var("PES_THREADS", "1");
    }
    let traces = args
        .iter()
        .position(|a| a == "--traces")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.parse::<usize>().is_err())
        .map(|s| s.as_str())
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };
    let wants = |name: &str| which.contains(&"all") || which.contains(&name);

    eprintln!(
        "# building experiment context ({traces} evaluation traces per app, {} worker thread(s))...",
        pes_sim::parallelism()
    );
    let started = std::time::Instant::now();
    let ctx = ExperimentContext::new(traces);

    if wants("table1") {
        table1();
    }
    if wants("fig2") {
        fig2(&ctx);
    }
    if wants("fig3") {
        fig3(&ctx);
    }
    if wants("fig8") || wants("ablation-dom") {
        fig8(&ctx);
    }
    if wants("fig9") {
        fig9(&ctx);
    }
    if wants("fig10") {
        fig10(&ctx);
    }
    let mut comparisons: Option<Vec<AppComparison>> = None;
    if wants("fig11") || wants("fig12") || wants("fig13") {
        let c = full_comparison(&ctx);
        fig11(&c);
        fig12(&c);
        fig13(&c);
        comparisons = Some(c);
    }
    if wants("fig14") {
        fig14(&ctx);
    }
    if wants("tx2") {
        tx2(traces);
    }
    if wants("overheads") {
        overheads(&ctx, comparisons.as_deref());
    }
    eprintln!(
        "# done in {:.1}s ({} worker thread(s))",
        started.elapsed().as_secs_f64(),
        pes_sim::parallelism()
    );
}

fn table1() {
    println!("\n== Table 1: predictor model features ==");
    println!("application-inherent : clickable region percentage in the viewport");
    println!("application-inherent : visible link percentage in the viewport");
    println!("interaction-dependent: distance to the previous click in the window");
    println!("interaction-dependent: number of navigations in the window");
    println!("interaction-dependent: number of scrolls in the window");
    println!("interaction-dependent: events since last navigation / last tap (window position)");
    println!("interaction-dependent: most recent event type (window encoding)");
}

fn fig2(ctx: &ExperimentContext) {
    println!("\n== Fig. 2: four-event cnn.com case study ==");
    let study = fig2_case_study(ctx);
    for (policy, timeline) in &study.timelines {
        println!("-- {policy}");
        for e in timeline {
            println!(
                "   {}  trigger {:>7.2}s  start {:>7.2}s  displayed {:>7.2}s  deadline {:>7.2}s  {}",
                e.label,
                e.triggered_at.as_secs_f64(),
                e.started_at.as_secs_f64(),
                e.displayed_at.as_secs_f64(),
                e.deadline.as_secs_f64(),
                if e.violated { "VIOLATED" } else { "ok" }
            );
        }
    }
    for (policy, energy) in &study.energy_mj {
        println!("   energy[{policy}] = {energy:.1} mJ");
    }
}

fn fig3(ctx: &ExperimentContext) {
    println!("\n== Fig. 3: event-type distribution under EBS (seen apps) ==");
    println!(
        "{:<16} {:>8} {:>8} {:>9} {:>8}",
        "app", "Type I", "Type II", "Type III", "Type IV"
    );
    let rows = fig3_event_types(ctx);
    let mut missing = Vec::new();
    let mut wasting = Vec::new();
    for (app, d) in &rows {
        println!(
            "{:<16} {:>8} {:>8} {:>9} {:>8}",
            app,
            pct(d.type_i),
            pct(d.type_ii),
            pct(d.type_iii),
            pct(d.type_iv)
        );
        missing.push(d.qos_missing());
        wasting.push(d.energy_wasting());
    }
    println!(
        "average QoS-missing (I+II): {}   energy-wasting (III): {}   [paper: ~21% and ~14%]",
        pct(mean(&missing)),
        pct(mean(&wasting))
    );
}

fn fig8(ctx: &ExperimentContext) {
    println!("\n== Fig. 8: event predictor accuracy ==");
    let with_dom = fig8_accuracy(ctx, true);
    let without_dom = fig8_accuracy(ctx, false);
    println!(
        "{:<16} {:>6} {:>10} {:>14}",
        "app", "seen", "accuracy", "w/o DOM (abl.)"
    );
    for ((app, seen, acc), (_, _, acc_no_dom)) in with_dom.iter().zip(&without_dom) {
        println!(
            "{:<16} {:>6} {:>10} {:>14}",
            app,
            seen,
            pct(*acc),
            pct(*acc_no_dom)
        );
    }
    let seen: Vec<f64> = with_dom.iter().filter(|r| r.1).map(|r| r.2).collect();
    let unseen: Vec<f64> = with_dom.iter().filter(|r| !r.1).map(|r| r.2).collect();
    let no_dom_all: Vec<f64> = without_dom.iter().map(|r| r.2).collect();
    let with_dom_all: Vec<f64> = with_dom.iter().map(|r| r.2).collect();
    println!(
        "seen avg {} (std {:.1}pp)   unseen avg {} (std {:.1}pp)   [paper: 91.3% / 89.2%]",
        pct(mean(&seen)),
        100.0 * std_dev(&seen),
        pct(mean(&unseen)),
        100.0 * std_dev(&unseen)
    );
    println!(
        "Sec. 6.5 DOM ablation: accuracy drop without DOM analysis = {:.1}pp   [paper: ~5pp]",
        100.0 * (mean(&with_dom_all) - mean(&no_dom_all))
    );
}

fn fig9(ctx: &ExperimentContext) {
    println!("\n== Fig. 9: pending frame buffer occupancy over an ebay session ==");
    let trace = fig9_pfb_trace(ctx, "ebay");
    let series: Vec<String> = trace.iter().map(|(i, n)| format!("({i},{n})")).collect();
    println!("(event index, PFB size): {}", series.join(" "));
    let max = trace.iter().map(|(_, n)| *n).max().unwrap_or(0);
    println!("maximum occupancy: {max}   [paper's example peaks around 9]");
}

fn fig10(ctx: &ExperimentContext) {
    println!("\n== Fig. 10: misprediction waste ==");
    println!(
        "{:<16} {:>6} {:>12} {:>16}",
        "app", "seen", "waste (ms)", "energy overhead"
    );
    let rows = fig10_waste(ctx);
    let mut seen_ms = Vec::new();
    let mut unseen_ms = Vec::new();
    let mut fractions = Vec::new();
    for (app, seen, ms, frac) in &rows {
        println!("{:<16} {:>6} {:>12.1} {:>16}", app, seen, ms, pct(*frac));
        if *seen {
            seen_ms.push(*ms);
        } else {
            unseen_ms.push(*ms);
        }
        fractions.push(*frac);
    }
    println!(
        "average waste: seen {:.1} ms, unseen {:.1} ms; energy overhead {}   [paper: ~20 ms, 1.8–2.2%]",
        mean(&seen_ms),
        mean(&unseen_ms),
        pct(mean(&fractions))
    );
}

fn fig11(comparisons: &[AppComparison]) {
    println!("\n== Fig. 11: energy normalised to Interactive ==");
    println!(
        "{:<16} {:>6} {:>12} {:>8} {:>8} {:>8}",
        "app", "seen", "Interactive", "EBS", "PES", "Oracle"
    );
    for c in comparisons {
        println!(
            "{:<16} {:>6} {:>12} {:>8} {:>8} {:>8}",
            c.app,
            c.seen,
            "100%",
            pct(c.normalized_energy(Policy::Ebs)),
            pct(c.normalized_energy(Policy::Pes)),
            pct(c.normalized_energy(Policy::Oracle)),
        );
    }
    summary(comparisons, true);
    summary(comparisons, false);
}

fn summary(comparisons: &[AppComparison], seen: bool) {
    let subset: Vec<&AppComparison> = comparisons.iter().filter(|c| c.seen == seen).collect();
    if subset.is_empty() {
        return;
    }
    let avg = |p| {
        mean(
            &subset
                .iter()
                .map(|c| c.normalized_energy(p))
                .collect::<Vec<_>>(),
        )
    };
    let pes = avg(Policy::Pes);
    let ebs = avg(Policy::Ebs);
    let oracle = avg(Policy::Oracle);
    println!(
        "{} apps: PES saves {} vs Interactive, {} vs EBS; Oracle saves {} vs Interactive",
        if seen { "seen" } else { "unseen" },
        pct(1.0 - pes),
        pct(1.0 - pes / ebs),
        pct(1.0 - oracle),
    );
}

fn fig12(comparisons: &[AppComparison]) {
    println!("\n== Fig. 12: QoS violation rates ==");
    println!(
        "{:<16} {:>6} {:>12} {:>8} {:>8} {:>8}",
        "app", "seen", "Interactive", "EBS", "PES", "Oracle"
    );
    for c in comparisons {
        println!(
            "{:<16} {:>6} {:>12} {:>8} {:>8} {:>8}",
            c.app,
            c.seen,
            pct(c.violation_rate[Policy::Interactive]),
            pct(c.violation_rate[Policy::Ebs]),
            pct(c.violation_rate[Policy::Pes]),
            pct(c.violation_rate[Policy::Oracle]),
        );
    }
    for seen in [true, false] {
        let subset: Vec<&AppComparison> = comparisons.iter().filter(|c| c.seen == seen).collect();
        let avg = |p| {
            mean(
                &subset
                    .iter()
                    .map(|c| c.violation_rate[p])
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "{} apps: Interactive {}, EBS {}, PES {}  (PES reduction vs EBS: {})",
            if seen { "seen" } else { "unseen" },
            pct(avg(Policy::Interactive)),
            pct(avg(Policy::Ebs)),
            pct(avg(Policy::Pes)),
            pct(1.0 - avg(Policy::Pes) / avg(Policy::Ebs).max(1e-9)),
        );
    }
}

fn fig13(comparisons: &[AppComparison]) {
    println!("\n== Fig. 13: Pareto analysis (seen-suite averages) ==");
    println!(
        "{:<14} {:>18} {:>16}",
        "policy", "normalised energy", "QoS violation"
    );
    let pareto = fig13_pareto(comparisons);
    for policy in Policy::ALL {
        let (energy, violation) = pareto[policy];
        println!("{:<14} {:>18} {:>16}", policy, pct(energy), pct(violation));
    }
}

fn fig14(ctx: &ExperimentContext) {
    println!("\n== Fig. 14: sensitivity to the prediction confidence threshold ==");
    let thresholds = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let points = fig14_sensitivity(ctx, &thresholds, 4);
    println!(
        "{:>10} {:>16} {:>26}",
        "threshold", "energy vs EBS", "QoS-violation reduction"
    );
    for p in &points {
        println!(
            "{:>10} {:>16} {:>26}",
            pct(p.threshold),
            pct(p.energy_vs_ebs),
            pct(p.qos_violation_reduction)
        );
    }
}

fn tx2(traces: usize) {
    println!("\n== Sec. 6.5 other devices: NVIDIA TX2 (Parker) ==");
    let ctx = ExperimentContext::new(traces).on_tx2();
    let comparisons = full_comparison(&ctx);
    summary(&comparisons, true);
    summary(&comparisons, false);
}

fn overheads(ctx: &ExperimentContext, comparisons: Option<&[AppComparison]>) {
    println!("\n== Sec. 6.3 runtime overheads (see also `cargo bench -p pes-bench`) ==");
    // Prediction degree and solver work measured on one representative app,
    // replayed from the shared scenario artifacts.
    let pes = pes_core::PesScheduler::new(ctx.learner.clone(), PesConfig::paper_defaults());
    if let Some(app_idx) = ctx.app_index("cnn") {
        let page = ctx.scenarios.page_ref(app_idx);
        let trace = ctx.scenarios.trace_ref(app_idx, 0);
        let report =
            pes.run_trace_with_plane(&ctx.platform, &ctx.power_plane, page, trace, &ctx.qos);
        println!(
            "cnn session: prediction rounds {}, average degree {:.1}, optimizer B&B nodes {} total",
            report.prediction_rounds,
            report.average_prediction_degree(),
            report.solver_nodes
        );
        println!(
            "online prediction accuracy {}, misprediction waste {:.1} ms, waste energy {}",
            pct(report.prediction_accuracy()),
            report.average_waste_ms(),
            pct(report.waste_energy_fraction())
        );
    }
    if comparisons.is_some() {
        println!(
            "(energy/QoS summaries above include DVFS switch 100 us and migration 20 us overheads)"
        );
    }
}
