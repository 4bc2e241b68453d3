//! The fleet workloads: `run_fleet` over full-length generated sessions,
//! unique (`fleet-decorrelated`) or a repeated-config sweep
//! (`fleet-sweep`), plus the outside replica of one fleet unit that the unit
//! pass and the traced run time.

use std::sync::Arc;
use std::time::Instant;

use pes_core::{RunReport, SolveGeneration, SolveShard};
use pes_sim::{parallelism, run_fleet, unit_scenario, FleetConfig, FleetRunReport, FleetSpec};
use pes_workload::{Trace, TraceGenerator};

use crate::calib::{Calibration, SAMPLES_AROUND, UNITS_PER_SAMPLE};
use crate::{derive_seed, median, percentile, Digest, Outcome, Setup, Workload};

/// Sessions per `run_fleet` call in the timed region.
const CHUNK_SESSIONS: usize = 4096;
/// Sessions arriving per step and admitted per batch.
const BATCH: usize = 64;
/// Distinct session configurations of the sweep.
const SWEEP_CYCLE: usize = 48;
/// Units of the latency pass replayed after each timed chunk: at least 10
/// of them lie beyond the slice's p99.
const UNIT_SLICE: usize = 1024;
/// Timed chunks (each followed by a slice) a run takes at least.
const MIN_ROUNDS: usize = 3;
/// Chunks the latency pass walks.
const UNIT_CHUNKS: usize = 4;

/// The fleet spec of chunk `chunk` of `workload`: `sessions` full-length
/// sessions arriving one batch per step.
pub fn spec(workload: Workload, seed: u64, chunk: u64, sessions: usize) -> FleetSpec {
    FleetSpec {
        sessions,
        seed: derive_seed(seed, chunk),
        arrivals_per_step: BATCH,
        max_events_per_session: 0,
        scenario_cycle: if workload == Workload::FleetSweep {
            SWEEP_CYCLE
        } else {
            0
        },
        ..FleetSpec::default()
    }
}

/// `FleetConfig::default()` except the load shape: one batch per step, a
/// queue that never sheds, and `threads` workers.
pub fn config(threads: usize) -> FleetConfig {
    FleetConfig {
        batch_size: BATCH,
        queue_capacity: CHUNK_SESSIONS,
        threads,
        ..FleetConfig::default()
    }
}

/// Solves that actually ran: shared lookups that missed when the shared
/// memo is on (a shared hit still counts as a ring miss and replays the
/// mirrored node count into `solver_nodes`), ring misses when it is off.
fn solves_run(report: &FleetRunReport) -> usize {
    if FleetConfig::default().shared_memo {
        report.shared_lookups - report.shared_hits
    } else {
        report.memo_misses
    }
}

pub fn digest(report: &FleetRunReport) -> Digest {
    Digest {
        sessions: report.completed,
        energy_uj: report.energy_uj,
        violations: report.violations,
        events: report.events,
        solves_run: solves_run(report),
    }
}

/// Sessions of `spec` that did not complete: shed, quarantined or missing.
pub fn failed_units(report: &FleetRunReport, spec: &FleetSpec, outcome: &mut Outcome) -> u64 {
    let missing = spec.sessions.saturating_sub(report.completed);
    if missing > 0 || report.shed > 0 || !report.failures.is_empty() {
        outcome.problems.push(format!(
            "fleet seed {:#x}: {} of {} sessions completed ({} shed, {} quarantined)",
            spec.seed,
            report.completed,
            spec.sessions,
            report.shed,
            report.failures.len()
        ));
    }
    missing as u64
}

/// One fleet unit replayed from outside `run_fleet`, in unit order, with
/// the fleet's per-batch publication of the shared solve generation — the
/// same trace, scheduler, fault stream and memo the fleet gives the unit,
/// so the replayed digest equals the fleet's.
pub struct UnitReplay<'a> {
    setup: &'a Setup,
    spec: FleetSpec,
    shared_memo: bool,
    generation_cap: usize,
    generation: Arc<SolveGeneration>,
    shards: Vec<SolveShard>,
    pub digest: Digest,
}

impl<'a> UnitReplay<'a> {
    pub fn new(setup: &'a Setup, spec: FleetSpec) -> Self {
        let config = FleetConfig::default();
        UnitReplay {
            setup,
            spec,
            shared_memo: config.shared_memo,
            generation_cap: config.generation_cap.max(1),
            generation: Arc::new(SolveGeneration::empty()),
            shards: Vec::new(),
            digest: Digest::default(),
        }
    }

    pub fn sessions(&self) -> usize {
        self.spec.sessions
    }

    /// `(scenario hash, app index, trace seed)` of `unit`.
    fn scenario(&self, unit: usize) -> (u64, usize, u64) {
        let apps = self.setup.ctx.catalog.apps().len();
        let (h, app, trace_seed, _) =
            unit_scenario(self.spec.seed, apps, self.spec.scenario_unit(unit));
        (h, app, trace_seed)
    }

    pub fn app(&self, unit: usize) -> usize {
        self.scenario(unit).1
    }

    /// The workload layer: generates `unit`'s session trace.
    pub fn generate(&self, unit: usize) -> Trace {
        let (_, app, trace_seed) = self.scenario(unit);
        let ctx = &self.setup.ctx;
        TraceGenerator::new().generate(
            &ctx.catalog.apps()[app],
            ctx.scenarios.page_ref(app),
            trace_seed,
        )
    }

    /// Replays `unit` on the fleet's full tier; units must come in order,
    /// with [`UnitReplay::publish`] called after each batch.
    pub fn replay(&mut self, unit: usize, trace: &Trace) -> RunReport {
        let (h, app, _) = self.scenario(unit);
        let ctx = &self.setup.ctx;
        let page = ctx.scenarios.page_ref(app);
        let faults = ctx.faults.reseeded(h);
        let pes = &self.setup.tiers.fleet;
        let solves;
        let report = if self.shared_memo {
            let mut shard = SolveShard::new();
            let report = pes.run_trace_with_shared_memo(
                &ctx.platform,
                &ctx.power_plane,
                page,
                trace,
                &ctx.qos,
                &faults,
                &self.generation,
                &mut shard,
            );
            solves = shard.shared_lookups() - shard.shared_hits();
            self.shards.push(shard);
            report
        } else {
            let report = pes.run_trace_with_plane_and_faults(
                &ctx.platform,
                &ctx.power_plane,
                page,
                trace,
                &ctx.qos,
                &faults,
            );
            solves = report.solver_cache_misses;
            report
        };
        self.digest.add(
            report.total_energy.as_microjoules(),
            report.violations,
            report.events,
            solves,
        );
        report
    }

    /// Whether `unit` closes its batch: the fleet publishes the next
    /// generation between batches, outside any unit's replay.
    pub fn ends_batch(&self, unit: usize) -> bool {
        (unit + 1).is_multiple_of(BATCH) || unit + 1 == self.spec.sessions
    }

    /// Folds the batch's shards into the next generation, as the fleet does
    /// between batches.
    pub fn publish(&mut self) {
        if self.shards.iter().any(|s| !s.is_empty()) {
            self.generation = Arc::new(SolveGeneration::publish(
                &self.generation,
                &self.shards,
                self.generation_cap,
            ));
        }
        self.shards.clear();
    }
}

/// The unit pass: the first [`UNIT_CHUNKS`] chunks' units replayed one at
/// a time on one thread, chunk after chunk and round after round, each
/// timed from trace generation to the end of its replay. Every completed
/// chunk must reproduce the chunk's digest.
struct UnitPass<'a> {
    setup: &'a Setup,
    specs: &'a [FleetSpec],
    chunk: usize,
    replica: UnitReplay<'a>,
    next: usize,
    replays: usize,
    calibration: Calibration,
    /// Each slice's median and 99th-percentile unit time, in microseconds
    /// at the reference host speed.
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl<'a> UnitPass<'a> {
    fn new(setup: &'a Setup, specs: &'a [FleetSpec]) -> Self {
        let specs = &specs[..specs.len().min(UNIT_CHUNKS)];
        UnitPass {
            setup,
            specs,
            chunk: 0,
            replica: UnitReplay::new(setup, specs[0].clone()),
            next: 0,
            replays: 0,
            calibration: Calibration::default(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
        }
    }

    /// Replays the next `n` units, moving to the next chunk after the last
    /// unit of one, and records the slice's unit-time percentiles at the
    /// reference host speed (`n` must be at least [`UNITS_PER_SAMPLE`]).
    /// `references` holds the chunks' digests seen so far.
    fn slice(&mut self, n: usize, references: &mut [Option<Digest>], outcome: &mut Outcome) {
        let mut unit_us = Vec::with_capacity(n);
        for _ in 0..n {
            let unit = self.next;
            let k = self.chunk % self.specs.len();
            let t = Instant::now();
            let trace = self.replica.generate(unit);
            self.replica.replay(unit, &trace);
            unit_us.push(t.elapsed().as_secs_f64() * 1e6);
            if unit_us.len() % UNITS_PER_SAMPLE == 0 {
                self.calibration.sample(1);
            }
            self.replays += 1;
            outcome.attempted += 1;
            if self.replica.ends_batch(unit) {
                self.replica.publish();
            }
            self.next += 1;
            if self.next == self.replica.sessions() {
                check_chunk(references, k, &self.replica.digest, "unit pass", outcome);
                self.chunk += 1;
                let spec = self.specs[self.chunk % self.specs.len()].clone();
                self.replica = UnitReplay::new(self.setup, spec);
                self.next = 0;
            }
        }
        self.calibration.scale_units(&mut unit_us);
        unit_us.sort_by(f64::total_cmp);
        self.p50_us.push(percentile(&unit_us, 0.5));
        self.p99_us.push(percentile(&unit_us, 0.99));
    }
}

/// Records the first digest of chunk `k`, and fails the run when a later
/// replay of the chunk disagrees with it.
fn check_chunk(
    references: &mut [Option<Digest>],
    k: usize,
    digest: &Digest,
    what: &str,
    outcome: &mut Outcome,
) {
    match &references[k] {
        Some(reference) => outcome.expect_digest(&format!("{what}, chunk {k}"), reference, digest),
        None => references[k] = Some(*digest),
    }
}

/// Distinct chunks the timed region cycles through: enough distinct
/// sessions that the simulated metrics and the latency tail do not hinge
/// on a few of them. The sweep has only 48 configurations per chunk.
fn chunks(workload: Workload) -> u64 {
    if workload == Workload::FleetSweep {
        16
    } else {
        4
    }
}

/// The timed fleet run: one untimed `run_fleet` of chunk 0 on one thread
/// (the warm-up, and the reference the threaded runs must match), then
/// `run_fleet` chunks at `parallelism()` threads for throughput, each
/// followed by a slice of the unit pass for per-unit latency, so both
/// metrics sample the whole window. Every chunk runs at least once; the
/// simulated metrics cover all of them.
pub fn timed(
    setup: &Setup,
    workload: Workload,
    seed: u64,
    deadline: Instant,
    outcome: &mut Outcome,
) {
    let ctx = &setup.ctx;
    let threads = parallelism();
    let specs: Vec<FleetSpec> = (0..chunks(workload))
        .map(|chunk| spec(workload, seed, chunk, CHUNK_SESSIONS))
        .collect();
    let mut references: Vec<Option<Digest>> = vec![None; specs.len()];

    let warm_up = run_fleet(ctx, &specs[0], &config(1));
    failed_units(&warm_up, &specs[0], outcome);
    references[0] = Some(digest(&warm_up));

    // Every timed chunk yields its own throughput and every slice its own
    // percentiles, scaled to the reference host speed by calibration samples
    // taken around the chunk or between the slice's units; the run reports
    // their medians (see `README.md`, "Timing on a noisy host").
    let mut calibration = Calibration::default();
    let mut per_s = Vec::new();
    let mut factors = Vec::new();
    let mut units = UnitPass::new(setup, &specs);
    let mut chunk = 0usize;
    while chunk < specs.len().max(MIN_ROUNDS) || Instant::now() < deadline {
        let k = chunk % specs.len();
        calibration.sample(SAMPLES_AROUND);
        let t = Instant::now();
        let report = run_fleet(ctx, &specs[k], &config(threads));
        let wall_s = t.elapsed().as_secs_f64();
        calibration.sample(SAMPLES_AROUND);
        let factor = calibration.take_factor();
        factors.push(factor);
        per_s.push(specs[k].sessions as f64 / (wall_s * factor));
        outcome.attempted += specs[k].sessions as u64;
        outcome.failed += failed_units(&report, &specs[k], outcome);
        check_chunk(&mut references, k, &digest(&report), "run_fleet", outcome);
        chunk += 1;
        units.slice(UNIT_SLICE, &mut references, outcome);
    }

    let mut simulated = Digest::default();
    for (spec, reference) in specs.iter().zip(&references) {
        let Some(d) = reference else {
            unreachable!("the timed loop runs every chunk")
        };
        println!(
            "digest {} seed={:#x}: {}",
            workload.name(),
            spec.seed,
            d.line()
        );
        simulated.merge(d);
    }
    println!(
        "calibration: host time x {:.4} = reference time (median over {chunk} run_fleet calls)",
        median(&factors)
    );
    outcome.metric(
        "sessions_per_s",
        median(&per_s),
        "1/s",
        &format!(
            "median over {chunk} run_fleet calls of {CHUNK_SESSIONS} sessions / wall time, \
             {threads} threads, reference speed"
        ),
    );
    let basis = format!(
        "median over {} slices of {UNIT_SLICE} units ({} replays) on one thread, \
         generate + replay, reference speed",
        units.p50_us.len(),
        units.replays
    );
    outcome.metric("unit_us_p50", median(&units.p50_us), "us", &basis);
    outcome.metric("unit_us_p99", median(&units.p99_us), "us", &basis);
    outcome.simulated(&simulated);
}
