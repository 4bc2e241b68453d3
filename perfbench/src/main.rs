//! The repository benchmark: fleet throughput and the five-policy matrix,
//! with the simulated QoS/energy results as guard rails and per-crate
//! timings measured from outside.
//!
//! ```text
//! perfbench --workload <fleet-decorrelated|fleet-sweep|policy-matrix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! separate traced pass that splits host time across the crates. Both print
//! a human-readable report and end with one JSON result line. See
//! `README.md` beside this package for the workloads and metrics.

mod calib;
mod fleet;
mod layers;
mod matrix;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pes_core::{splitmix, DegradationLevel, OracleScheduler, PesConfig, PesScheduler, RunReport};
use pes_sim::{ExperimentContext, FleetConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_fleet` over unique sessions: every unit solves cold.
    FleetDecorrelated,
    /// `run_fleet` over a repeated-config sweep: the shared memo answers.
    FleetSweep,
    /// 18 apps x k traces x five policies, serial, each unit timed alone.
    PolicyMatrix,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetDecorrelated,
        Workload::FleetSweep,
        Workload::PolicyMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDecorrelated => "fleet-decorrelated",
            Workload::FleetSweep => "fleet-sweep",
            Workload::PolicyMatrix => "policy-matrix",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (optional).
    pub spans: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        spans,
    })
}

/// Derives an input seed from the benchmark seed. Every seed the program
/// receives passes through `splitmix` first: `unit_scenario` hashes
/// `seed ^ unit`, so raw seeds that differ only in low bits would replay
/// the same session set, permuted.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix(splitmix(seed).wrapping_add(stream))
}

/// The schedulers the benchmark drives directly.
pub struct Tiers {
    /// PES at the paper defaults (the matrix's PES, forced-Exact baseline).
    pub pes: PesScheduler,
    /// PES exactly as a fleet unit on the full tier runs it.
    pub fleet: PesScheduler,
    pub greedy: PesScheduler,
    pub reactive: PesScheduler,
    pub oracle: OracleScheduler,
}

/// Everything built before measuring: the experiment context (predictor
/// training plus the scenario cache), the schedulers and, for the matrix,
/// its seeded traces.
pub struct Setup {
    pub ctx: ExperimentContext,
    pub tiers: Tiers,
    pub matrix: Option<matrix::Matrix>,
}

impl Setup {
    fn build(workload: Workload, seed: u64) -> Setup {
        let ctx = ExperimentContext::new(1);
        let tier = |t: DegradationLevel| {
            PesScheduler::new(
                ctx.learner.clone(),
                PesConfig::paper_defaults().with_forced_tier(t),
            )
        };
        // A fleet unit on the full tier runs PES built from the fleet
        // config the way `run_fleet` builds it.
        let fleet = FleetConfig::default();
        let tiers = Tiers {
            pes: PesScheduler::new(ctx.learner.clone(), PesConfig::paper_defaults()),
            fleet: PesScheduler::new(
                ctx.learner.clone(),
                PesConfig::paper_defaults()
                    .with_watchdog(fleet.watchdog)
                    .with_packed_prediction(fleet.packed_prediction),
            ),
            greedy: tier(DegradationLevel::Greedy),
            reactive: tier(DegradationLevel::Reactive),
            oracle: OracleScheduler::new(),
        };
        let matrix =
            (workload == Workload::PolicyMatrix).then(|| matrix::Matrix::build(&ctx, seed));
        Setup { ctx, tiers, matrix }
    }
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 8;

/// The simulated outputs of a set of replays, folded in unit order. Two
/// runs of the same inputs must agree on every field, energy to the bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest {
    pub sessions: usize,
    pub energy_uj: f64,
    pub violations: usize,
    pub events: usize,
    /// Optimizer invocations that ran a solve (not answered by a memo).
    pub solves_run: usize,
}

impl PartialEq for Digest {
    fn eq(&self, other: &Self) -> bool {
        self.sessions == other.sessions
            && self.energy_uj.to_bits() == other.energy_uj.to_bits()
            && self.violations == other.violations
            && self.events == other.events
            && self.solves_run == other.solves_run
    }
}

impl Digest {
    /// Folds one PES/Oracle replay whose solves were not shared.
    pub fn add_run(&mut self, report: &RunReport) {
        self.add(
            report.total_energy.as_microjoules(),
            report.violations,
            report.events,
            report.solver_cache_misses,
        );
    }

    pub fn add(&mut self, energy_uj: f64, violations: usize, events: usize, solves_run: usize) {
        self.sessions += 1;
        self.energy_uj += energy_uj;
        self.violations += violations;
        self.events += events;
        self.solves_run += solves_run;
    }

    pub fn merge(&mut self, other: &Digest) {
        self.sessions += other.sessions;
        self.energy_uj += other.energy_uj;
        self.violations += other.violations;
        self.events += other.events;
        self.solves_run += other.solves_run;
    }

    pub fn energy_mj_per_session(&self) -> f64 {
        self.energy_uj / 1e3 / self.sessions.max(1) as f64
    }

    pub fn violation_rate(&self) -> f64 {
        self.violations as f64 / self.events.max(1) as f64
    }

    pub fn line(&self) -> String {
        format!(
            "sessions={} energy_bits={:#018x} violations={} events={} solves_run={}",
            self.sessions,
            self.energy_uj.to_bits(),
            self.violations,
            self.events,
            self.solves_run
        )
    }
}

/// What one run reports: the checks, the work attempted and failed, and
/// the metrics in output order.
#[derive(Debug, Default)]
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric and prints it with `basis`, the sample or ratio it
    /// was taken over.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, basis: &str) {
        println!("metric {name:<30} {value:>14.4} {unit:<6} {basis}");
        if !value.is_finite() {
            self.problems.push(format!("{name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Fails the run unless `got` equals the reference digest.
    pub fn expect_digest(&mut self, what: &str, reference: &Digest, got: &Digest) {
        if reference != got {
            self.problems.push(format!(
                "{what}: digest {} differs from reference {}",
                got.line(),
                reference.line()
            ));
        }
    }

    /// The simulated guard rails: exactly deterministic for a seed.
    pub fn simulated(&mut self, simulated: &Digest) {
        println!("digest total: {}", simulated.line());
        self.metric(
            "energy_mj_per_session",
            simulated.energy_mj_per_session(),
            "mJ",
            &format!("{} sessions (simulated)", simulated.sessions),
        );
        self.metric(
            "violation_rate",
            simulated.violation_rate(),
            "ratio",
            &format!(
                "{} violations / {} events (simulated)",
                simulated.violations, simulated.events
            ),
        );
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sorted-sample percentile by linear interpolation (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The process's peak resident set in MiB (`VmHWM`), if the OS reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pes_sim::parallelism()
    );

    // Half the set-ups run before the measured region and half after it,
    // so that `setup_s` samples the host at both ends of the run. Each is
    // scaled to the reference host speed by calibration samples taken just
    // before and just after it.
    let mut calibration = calib::Calibration::default();
    let mut timed_setup = || {
        calibration.sample(calib::SAMPLES_AROUND);
        let start = Instant::now();
        let setup = Setup::build(args.workload, args.seed);
        let setup_s = start.elapsed().as_secs_f64();
        calibration.sample(calib::SAMPLES_AROUND);
        (setup, setup_s * calibration.take_factor())
    };
    let (setup, first) = timed_setup();
    let mut setup_times = vec![first];
    setup_times.extend((1..SETUP_REPS / 2).map(|_| timed_setup().1));

    let mut outcome = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    match (args.workload, args.trace) {
        (Workload::PolicyMatrix, false) => matrix::timed(&setup, deadline, &mut outcome),
        (workload, false) => fleet::timed(&setup, workload, args.seed, deadline, &mut outcome),
        (workload, true) => layers::traced(
            &setup,
            workload,
            args.seed,
            deadline,
            args.spans.as_deref(),
            &mut outcome,
        ),
    }
    if !args.trace {
        setup_times.extend((SETUP_REPS / 2..SETUP_REPS).map(|_| timed_setup().1));
        outcome.metric(
            "setup_s",
            median(&setup_times),
            "s",
            &format!("median of {SETUP_REPS} set-ups, reference speed"),
        );
    }
    match (peak_rss_mb(), args.trace) {
        (Some(mb), true) => outcome.metric("mem.peak_rss_mb", mb, "MiB", "VmHWM of this run"),
        (Some(mb), false) => println!("peak RSS (VmHWM) of this run: {mb:.2} MiB"),
        (None, _) => println!("no VmHWM in /proc/self/status"),
    }

    for problem in &outcome.problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("{}", outcome.json());
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_sim::run_fleet;

    fn solves_per_session(ctx: &ExperimentContext, workload: Workload) -> f64 {
        let spec = fleet::spec(workload, 7, 0, 512);
        let report = run_fleet(ctx, &spec, &fleet::config(2));
        assert_eq!(report.completed, 512, "{}: units missing", workload.name());
        fleet::digest(&report).solves_run as f64 / 512.0
    }

    /// `ilp.solves_run_per_session` counts solves that ran, so the sweep
    /// (answered from the shared generation) runs far fewer than unique
    /// sessions, even though `solver_nodes` mirrors every shared hit.
    #[test]
    fn sweep_runs_far_fewer_solves_than_decorrelated() {
        let ctx = ExperimentContext::new(1);
        let decorrelated = solves_per_session(&ctx, Workload::FleetDecorrelated);
        let sweep = solves_per_session(&ctx, Workload::FleetSweep);
        assert!(
            sweep * 4.0 < decorrelated,
            "sweep {sweep} vs decorrelated {decorrelated} solves/session"
        );
    }

    /// Adjacent benchmark seeds must replay different session sets, not the
    /// same set permuted.
    #[test]
    fn adjacent_seeds_replay_different_sessions() {
        let ctx = ExperimentContext::new(1);
        let run = |seed| {
            let report = run_fleet(
                &ctx,
                &fleet::spec(Workload::FleetDecorrelated, seed, 0, 128),
                &fleet::config(2),
            );
            fleet::digest(&report)
        };
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn args_round_trip() {
        let argv = [
            "--workload",
            "fleet-sweep",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = parse_args(argv.iter().map(|s| s.to_string())).expect("valid args");
        assert_eq!(args.workload, Workload::FleetSweep);
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10.0, true));
        assert!(parse_args(["--workload", "nope"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.25), 2.0);
        assert_eq!(percentile(&sorted, 0.1), 1.4);
    }
}
