//! The traced run: host time split across the crates by timing each
//! crate's public entry points from outside, on the workload's own
//! sessions, with one span per layer call.
//!
//! Each round has a fleet section — `run_fleet` on a sample of sessions at
//! one thread and at `parallelism()` threads, then the same sessions
//! replayed one unit at a time from outside the fleet — and, on
//! `policy-matrix`, a matrix section: one untraced pass and one traced pass
//! over the matrix. `policy-matrix` has no fleet driver of its own, so its
//! fleet section runs decorrelated sessions of the same seed. Rounds repeat
//! until the deadline.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pes_core::RunReport;
use pes_predictor::{PredictScratch, SessionState};
use pes_schedulers::{Ebs, InteractiveGovernor, OndemandGovernor, Scheduler};
use pes_sim::{parallelism, run_fleet, FleetRunReport};
use pes_webrt::ExecutionEngine;
use pes_workload::{Trace, TraceGenerator};

use crate::fleet::{self, UnitReplay};
use crate::matrix::{self, add_reactive};
use crate::spans::{SpanTotals, Spans};
use crate::{median, Digest, Outcome, Setup, Workload};

/// Sessions in the fleet section's sample (16 batches).
const TRACE_SESSIONS: usize = 1024;
/// Spans written to the spans file (the first round's, roughly).
const SPAN_FILE_LIMIT: usize = 200_000;

/// Counts gathered at the layer boundaries of the traced sessions.
#[derive(Debug, Default)]
struct Counters {
    sessions: usize,
    events: usize,
    rounds: usize,
    degree: usize,
    predictions: usize,
    correct: usize,
    waste_uj: f64,
    energy_uj: f64,
    decisions: usize,
    degraded: usize,
    ring_hits: usize,
    ring_misses: usize,
    nodes: usize,
}

impl Counters {
    /// Folds the serving PES replay of a session.
    fn pes(&mut self, report: &RunReport) {
        self.predictions += report.predictions;
        self.correct += report.correct_predictions;
        self.waste_uj += report.waste_energy.as_microjoules();
        self.energy_uj += report.total_energy.as_microjoules();
        let decisions = report.degradation.decisions();
        self.decisions += decisions;
        self.degraded += decisions - report.degradation.exact;
        self.ring_hits += report.solver_cache_hits;
        self.ring_misses += report.solver_cache_misses;
    }
}

/// Every layer call on one session after its serving replay: a prediction
/// round and a DOM observation at each event, the three reactive
/// governors, PES forced to the Exact, Greedy and Reactive tiers, the
/// Oracle and the bare engine. With `digest`, the five matrix policies are
/// folded into it in matrix order and the forced-Exact PES replay is the
/// session's serving replay.
fn layer_calls(
    setup: &Setup,
    spans: &mut Spans,
    (unit, root): (usize, u32),
    app: usize,
    trace: &Trace,
    counters: &mut Counters,
    digest: Option<&mut Digest>,
) {
    let ctx = &setup.ctx;
    let tiers = &setup.tiers;
    let page = ctx.scenarios.page_ref(app);
    counters.sessions += 1;
    counters.events += trace.len();

    let mut session = SessionState::new(Arc::clone(&page.tree));
    let mut scratch = PredictScratch::new();
    for ev in trace.events() {
        let degree = spans.record("predictor.round", unit, root, || {
            ctx.learner
                .predict_sequence_with(&session, &mut scratch)
                .len()
        });
        counters.rounds += 1;
        counters.degree += degree;
        spans.record("dom.observe", unit, root, || session.observe(ev));
    }

    let reactive = |spans: &mut Spans, name, scheduler: &mut dyn Scheduler| {
        spans.record(name, unit, root, || matrix::reactive(ctx, trace, scheduler))
    };
    let interactive = reactive(
        spans,
        "schedulers.interactive",
        &mut InteractiveGovernor::new(),
    );
    let ondemand = reactive(spans, "schedulers.ondemand", &mut OndemandGovernor::new());
    let ebs = reactive(spans, "schedulers.ebs", &mut Ebs::new(&ctx.platform));

    let run = |spans: &mut Spans, name, pes: &pes_core::PesScheduler| {
        spans.record(name, unit, root, || {
            pes.run_trace_with_plane(&ctx.platform, &ctx.power_plane, page, trace, &ctx.qos)
        })
    };
    let exact = run(spans, "core.pes_exact", &tiers.pes);
    run(spans, "core.pes_greedy", &tiers.greedy);
    run(spans, "core.pes_reactive", &tiers.reactive);
    let oracle = spans.record("ilp.oracle", unit, root, || {
        tiers
            .oracle
            .run_trace_with_plane(&ctx.platform, &ctx.power_plane, page, trace, &ctx.qos)
    });

    spans.record("webrt.floor", unit, root, || {
        let mut engine =
            ExecutionEngine::with_plane(&ctx.platform, ctx.qos, Arc::clone(&ctx.power_plane));
        let config = ctx.platform.max_performance_config();
        for ev in trace.events() {
            let record = engine.execute_event(ev, &config, false);
            engine.commit(ev, record.frame_ready_at);
        }
        std::hint::black_box(engine.total_energy());
    });

    if let Some(digest) = digest {
        add_reactive(digest, &interactive);
        add_reactive(digest, &ondemand);
        add_reactive(digest, &ebs);
        digest.add_run(&exact);
        digest.add_run(&oracle);
        counters.pes(&exact);
        counters.nodes += exact.solver_nodes + oracle.solver_nodes;
        counters.ring_misses += oracle.solver_cache_misses;
        counters.ring_hits += oracle.solver_cache_hits;
    }
}

/// Span names of the outside replica's generate, replay and publish calls:
/// the workload's own layers on the fleet workloads, a separate `sim.`
/// family on the matrix's decorrelated fleet sample.
fn replica_span_names(full_layers: bool) -> [&'static str; 3] {
    if full_layers {
        ["workload.generate", "core.pes", "core.publish"]
    } else {
        [
            "sim.replica_generate",
            "sim.replica_pes",
            "sim.replica_publish",
        ]
    }
}

/// Wall-clock results of one fleet section.
struct FleetSection {
    one_thread: FleetRunReport,
    one_thread_s: f64,
    threaded_s: f64,
    /// Wall time of the traced outside replica.
    traced_s: f64,
}

fn fleet_section(
    setup: &Setup,
    spec: &pes_sim::FleetSpec,
    full_layers: bool,
    spans: &mut Spans,
    counters: &mut Counters,
    outcome: &mut Outcome,
) -> FleetSection {
    let ctx = &setup.ctx;
    let threads = parallelism();
    let t = Instant::now();
    let one_thread = run_fleet(ctx, spec, &fleet::config(1));
    let one_thread_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let threaded = run_fleet(ctx, spec, &fleet::config(threads));
    let threaded_s = t.elapsed().as_secs_f64();
    outcome.attempted += 2 * spec.sessions as u64;
    outcome.failed += fleet::failed_units(&one_thread, spec, outcome);
    outcome.failed += fleet::failed_units(&threaded, spec, outcome);
    let reference = fleet::digest(&one_thread);
    outcome.expect_digest(
        &format!("run_fleet at {threads} threads vs 1 thread"),
        &reference,
        &fleet::digest(&threaded),
    );

    // The replica pass runs on its own, as the fleet's units do, so the
    // other layer calls do not cool the caches it runs on; they follow in a
    // second pass over the same traces.
    let [generate, serve, publish] = replica_span_names(full_layers);
    let t = Instant::now();
    let mut replica = UnitReplay::new(setup, spec.clone());
    let mut traces = Vec::with_capacity(replica.sessions());
    for unit in 0..replica.sessions() {
        let root = spans.open("unit", unit, None);
        let trace = spans.record(generate, unit, root, || replica.generate(unit));
        let report = spans.record(serve, unit, root, || replica.replay(unit, &trace));
        spans.close(root);
        if replica.ends_batch(unit) {
            let id = spans.open(publish, unit, None);
            replica.publish();
            spans.close(id);
        }
        if full_layers {
            counters.pes(&report);
            traces.push((replica.app(unit), trace));
        }
    }
    for (unit, (app, trace)) in traces.iter().enumerate() {
        let root = spans.open("unit", unit, None);
        layer_calls(setup, spans, (unit, root), *app, trace, counters, None);
        spans.close(root);
    }
    let traced_s = t.elapsed().as_secs_f64();
    outcome.attempted += spec.sessions as u64;
    outcome.expect_digest("outside replica vs run_fleet", &reference, &replica.digest);
    FleetSection {
        one_thread,
        one_thread_s,
        threaded_s,
        traced_s,
    }
}

/// The traced run of `workload`.
pub fn traced(
    setup: &Setup,
    workload: Workload,
    seed: u64,
    deadline: Instant,
    spans_path: Option<&Path>,
    outcome: &mut Outcome,
) {
    let on_matrix = workload == Workload::PolicyMatrix;
    let fleet_workload = if on_matrix {
        Workload::FleetDecorrelated
    } else {
        workload
    };
    let spec = fleet::spec(fleet_workload, seed, 0, TRACE_SESSIONS);
    let mut spans = Spans::new();
    let mut counters = Counters::default();
    let mut sections = Vec::new();
    let (mut traced_rates, mut untraced_rates) = (Vec::new(), Vec::new());
    let mut first_round_spans = 0;

    while sections.is_empty() || Instant::now() < deadline {
        let section = fleet_section(setup, &spec, !on_matrix, &mut spans, &mut counters, outcome);
        if let Some(m) = setup.matrix.as_ref() {
            let t = Instant::now();
            let untraced = matrix::pass(setup, m, |_| {});
            untraced_rates.push(m.units() as f64 / t.elapsed().as_secs_f64());

            let t = Instant::now();
            let mut traced = Digest::default();
            for (i, (app, trace)) in m.sessions().enumerate() {
                let unit = TRACE_SESSIONS + i;
                let root = spans.open("unit", unit, None);
                let j = i % matrix::TRACES_PER_APP;
                let regenerated = spans.record("workload.generate", unit, root, || {
                    TraceGenerator::new().generate(
                        &setup.ctx.catalog.apps()[app],
                        setup.ctx.scenarios.page_ref(app),
                        matrix::trace_seed(seed, app, j),
                    )
                });
                if regenerated.events() != trace.events() {
                    outcome
                        .problems
                        .push(format!("matrix trace {i} does not regenerate"));
                }
                layer_calls(
                    setup,
                    &mut spans,
                    (unit, root),
                    app,
                    trace,
                    &mut counters,
                    Some(&mut traced),
                );
                spans.close(root);
            }
            traced_rates.push(m.units() as f64 / t.elapsed().as_secs_f64());
            outcome.attempted += 2 * m.units() as u64;
            outcome.expect_digest("traced matrix pass vs untraced", &untraced, &traced);
        } else {
            traced_rates.push(spec.sessions as f64 / section.traced_s);
            untraced_rates.push(spec.sessions as f64 / section.threaded_s);
        }
        if sections.is_empty() {
            first_round_spans = spans.len();
        }
        sections.push(section);
    }

    let totals = spans.totals();
    print_span_table(&totals);
    if let Some(path) = spans_path {
        let limit = first_round_spans.min(SPAN_FILE_LIMIT);
        match spans.write_jsonl(path, limit) {
            Ok(()) => println!(
                "spans: {limit} of {} written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => outcome
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    report_layers(&totals, &counters, &sections, on_matrix, outcome);

    let traced_rate = median(&traced_rates);
    let untraced_rate = median(&untraced_rates);
    let basis = if on_matrix {
        "matrix units, one thread"
    } else {
        "fleet sample: traced outside replica (one thread) vs run_fleet (parallelism() threads)"
    };
    outcome.metric("trace.sessions_per_s", traced_rate, "1/s", basis);
    outcome.metric(
        "trace.overhead_sessions_per_s",
        traced_rate - untraced_rate,
        "1/s",
        &format!("traced {traced_rate:.1} - untraced {untraced_rate:.1}; {basis}"),
    );
}

fn mean(totals: &std::collections::BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, SpanTotals::mean_us)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn print_span_table(totals: &std::collections::BTreeMap<&'static str, SpanTotals>) {
    let unit_total = totals.get("unit").map_or(1, |t| t.total_ns.max(1)) as f64;
    println!(
        "span                     count     total_ms      self_ms  mean_us  self_share_of_units"
    );
    for (name, t) in totals {
        println!(
            "{name:<22} {:>8} {:>12.2} {:>12.2} {:>8.2} {:>8.4}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.mean_us(),
            t.self_ns as f64 / unit_total
        );
    }
}

fn report_layers(
    totals: &std::collections::BTreeMap<&'static str, SpanTotals>,
    c: &Counters,
    sections: &[FleetSection],
    on_matrix: bool,
    o: &mut Outcome,
) {
    let m = |name| mean(totals, name);
    let sessions = c.sessions.max(1) as f64;
    let last = &sections[sections.len() - 1].one_thread;
    let fleet_sessions = last.completed.max(1) as f64;

    o.metric(
        "workload.generate_us",
        m("workload.generate"),
        "us",
        "mean per generated trace",
    );
    o.metric(
        "workload.events_per_session",
        c.events as f64 / sessions,
        "count",
        &format!("{} events / {} sessions", c.events, c.sessions),
    );
    o.metric(
        "dom.observe_us_per_event",
        m("dom.observe"),
        "us",
        "mean per SessionState::observe",
    );
    o.metric(
        "predictor.round_us",
        m("predictor.round"),
        "us",
        "mean per predict_sequence_with",
    );
    o.metric(
        "predictor.degree",
        ratio(c.degree as f64, c.rounds as f64),
        "count",
        &format!("{} predicted / {} rounds", c.degree, c.rounds),
    );
    o.metric(
        "predictor.accuracy",
        ratio(c.correct as f64, c.predictions as f64),
        "ratio",
        &format!(
            "{} correct / {} predictions (serving PES)",
            c.correct, c.predictions
        ),
    );

    let (solves, nodes, solve_basis) = if on_matrix {
        (
            c.ring_misses as f64 / sessions,
            c.nodes as f64 / sessions,
            format!(
                "PES + Oracle ring misses over {} matrix sessions",
                c.sessions
            ),
        )
    } else {
        let d = fleet::digest(last);
        (
            d.solves_run as f64 / fleet_sessions,
            last.solver_nodes as f64 / fleet_sessions,
            format!(
                "({} shared lookups - {} shared hits) / {} sessions, 1-thread run_fleet",
                last.shared_lookups, last.shared_hits, last.completed
            ),
        )
    };
    o.metric("ilp.solves_run_per_session", solves, "count", &solve_basis);
    o.metric(
        "ilp.nodes_per_session",
        nodes,
        "count",
        "charged B&B nodes per session (shared hits replay mirrored nodes)",
    );
    o.metric(
        "ilp.exact_over_greedy_us",
        m("core.pes_exact") - m("core.pes_greedy"),
        "us",
        &format!(
            "PES Exact {:.1} - PES Greedy {:.1}",
            m("core.pes_exact"),
            m("core.pes_greedy")
        ),
    );
    o.metric("ilp.oracle_us", m("ilp.oracle"), "us", "mean Oracle replay");

    let serving = if on_matrix {
        "core.pes_exact"
    } else {
        "core.pes"
    };
    o.metric(
        "core.pes_us",
        m(serving),
        "us",
        &format!("mean {serving} replay"),
    );
    o.metric(
        "core.pes_over_floor_us",
        m("core.pes_exact") - m("schedulers.interactive"),
        "us",
        &format!(
            "PES {:.1} - Interactive {:.1}",
            m("core.pes_exact"),
            m("schedulers.interactive")
        ),
    );
    o.metric(
        "core.plan_over_reactive_us",
        m("core.pes_greedy") - m("core.pes_reactive"),
        "us",
        &format!(
            "Greedy tier {:.1} - Reactive tier {:.1}",
            m("core.pes_greedy"),
            m("core.pes_reactive")
        ),
    );
    let (memo_rate, memo_basis) = if on_matrix {
        let lookups = c.ring_hits + c.ring_misses;
        (
            ratio(c.ring_hits as f64, lookups as f64),
            format!(
                "{} ring hits / {lookups} lookups (PES + Oracle)",
                c.ring_hits
            ),
        )
    } else {
        (
            last.memo_hit_rate(),
            format!(
                "{} ring hits / {} lookups",
                last.memo_hits,
                last.memo_hits + last.memo_misses
            ),
        )
    };
    o.metric("core.memo_hit_rate", memo_rate, "ratio", &memo_basis);
    o.metric(
        "core.shared_hit_rate",
        last.shared_hit_rate(),
        "ratio",
        &format!(
            "{} shared hits / {} lookups, 1-thread run_fleet{}",
            last.shared_hits,
            last.shared_lookups,
            if on_matrix {
                " (decorrelated sample)"
            } else {
                ""
            }
        ),
    );
    o.metric(
        "core.waste_energy_share",
        ratio(c.waste_uj, c.energy_uj),
        "ratio",
        &format!(
            "{:.0} uJ squashed / {:.0} uJ (serving PES)",
            c.waste_uj, c.energy_uj
        ),
    );
    o.metric(
        "core.degraded_share",
        ratio(c.degraded as f64, c.decisions as f64),
        "ratio",
        &format!(
            "{} decisions below Exact / {} (serving PES)",
            c.degraded, c.decisions
        ),
    );

    o.metric(
        "schedulers.interactive_us",
        m("schedulers.interactive"),
        "us",
        "mean replay",
    );
    o.metric(
        "schedulers.ondemand_us",
        m("schedulers.ondemand"),
        "us",
        "mean replay",
    );
    o.metric(
        "schedulers.ebs_us",
        m("schedulers.ebs"),
        "us",
        "mean replay",
    );
    let floor_ns = totals.get("webrt.floor").map_or(0, |t| t.total_ns) as f64;
    o.metric(
        "webrt.floor_us_per_event",
        ratio(floor_ns / 1e3, c.events as f64),
        "us",
        "execute_event + commit at max performance, per event",
    );

    let one_thread_s: Vec<f64> = sections.iter().map(|s| s.one_thread_s).collect();
    let scaling: Vec<f64> = sections
        .iter()
        .map(|s| s.one_thread_s / s.threaded_s)
        .collect();
    let [generate, serve, publish] = replica_span_names(!on_matrix);
    let (generate, serve) = (m(generate), m(serve));
    let publish_ns = totals.get(publish).map_or(0, |t| t.total_ns) as f64;
    let publish = publish_ns / 1e3 / (fleet_sessions * sections.len() as f64);
    o.metric(
        "core.publish_us_per_session",
        publish,
        "us",
        "SolveGeneration::publish between batches, per session",
    );
    let fleet_us = median(&one_thread_s) / fleet_sessions * 1e6;
    o.metric(
        "sim.driver_us_per_session",
        fleet_us - generate - serve - publish,
        "us",
        &format!(
            "1-thread run_fleet {fleet_us:.1} - generate {generate:.1} - replay {serve:.1} \
             - publish {publish:.1}"
        ),
    );
    o.metric(
        "sim.scaling",
        median(&scaling),
        "ratio",
        &format!(
            "1-thread / {}-thread run_fleet wall, median of {}",
            parallelism(),
            sections.len()
        ),
    );
    o.metric(
        "sim.batches",
        last.batches as f64,
        "count",
        "batches per run_fleet sample",
    );
    o.metric(
        "sim.peak_queue",
        last.peak_queue as f64,
        "count",
        "peak admission queue",
    );
}
