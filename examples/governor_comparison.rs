//! Compare every scheduling policy across the full 18-application suite and
//! print the Fig. 11 / Fig. 12 style summary (energy normalised to the
//! Interactive governor, QoS violation rates) plus the Fig. 13 Pareto points.
//!
//! Run with `cargo run --release --example governor_comparison [traces_per_app]`.

use pes::sim::{fig13_pareto, full_comparison, ExperimentContext, Policy};

fn main() {
    let traces_per_app: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    println!("building experiment context (training predictor)...");
    let ctx = ExperimentContext::new(traces_per_app);
    println!("running all five policies over 18 applications x {traces_per_app} traces...\n");
    let comparisons = full_comparison(&ctx);

    println!(
        "{:<16} {:>6} {:>12} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "app", "seen", "Interactive", "EBS", "PES", "Oracle", "viol EBS", "viol PES", "viol Orc"
    );
    for c in &comparisons {
        println!(
            "{:<16} {:>6} {:>11.0}mJ {:>7.2} {:>7.2} {:>7.2} | {:>7.1}% {:>7.1}% {:>7.1}%",
            c.app,
            c.seen,
            c.energy_mj[Policy::Interactive],
            c.normalized_energy(Policy::Ebs),
            c.normalized_energy(Policy::Pes),
            c.normalized_energy(Policy::Oracle),
            100.0 * c.violation_rate[Policy::Ebs],
            100.0 * c.violation_rate[Policy::Pes],
            100.0 * c.violation_rate[Policy::Oracle],
        );
    }

    println!("\nPareto points (seen-suite averages, Fig. 13):");
    let pareto = fig13_pareto(&comparisons);
    for policy in Policy::ALL {
        let (energy, violation) = pareto[policy];
        println!(
            "  {:<12} normalised energy {:>5.2}   QoS violation {:>5.1}%",
            policy,
            energy,
            100.0 * violation
        );
    }
}
