//! Cross-crate integration tests: the full PES stack (workload → predictor →
//! optimizer → speculative execution → metrics) against the reactive
//! baselines.

use std::sync::Arc;

use pes::acmp::{DvfsLadder, Platform};
use pes::core::{
    DegradationLevel, FaultConfig, FaultPlane, OracleScheduler, PesConfig, PesScheduler,
};
use pes::predictor::{LearnerConfig, Trainer, TrainingConfig};
use pes::schedulers::{DemandProfiler, Ebs, InteractiveGovernor, OndemandGovernor};
use pes::sim::{
    classify_events, distribution, run_reactive_with_plane, ExperimentContext, ScenarioCache,
};
use pes::webrt::{ExecutionEngine, QosPolicy};
use pes::workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

mod support;
use support::dvfs::cheapest_config_within_reference;

fn quick_learner(catalog: &AppCatalog) -> pes::predictor::EventSequenceLearner {
    Trainer::with_config(TrainingConfig {
        traces_per_app: 3,
        epochs: 25,
        ..Default::default()
    })
    .train_learner(catalog, LearnerConfig::paper_defaults())
}

#[test]
fn pes_improves_on_ebs_for_energy_and_qos_across_several_apps() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let learner = quick_learner(&catalog);
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
    let generator = TraceGenerator::new();

    let mut pes_energy = 0.0;
    let mut ebs_energy = 0.0;
    let mut interactive_energy = 0.0;
    let mut pes_violations = 0usize;
    let mut ebs_violations = 0usize;
    let mut events = 0usize;

    for app_name in ["cnn", "bbc", "ebay", "sina", "youtube"] {
        let app = catalog.find(app_name).unwrap();
        let page = app.build_page();
        for seed in 0..2 {
            let trace = generator.generate(app, &page, EVAL_SEED_BASE + seed);
            events += trace.len();
            let i = run_reactive_with_plane(
                &platform,
                &plane,
                &trace,
                &mut InteractiveGovernor::new(),
                &qos,
            );
            interactive_energy += i.total_energy.as_millijoules();
            let e =
                run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
            ebs_energy += e.total_energy.as_millijoules();
            ebs_violations += e.violations();
            let p = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
            pes_energy += p.total_energy.as_millijoules();
            pes_violations += p.violations;
        }
    }

    assert!(
        events > 100,
        "enough events to make the comparison meaningful"
    );
    assert!(
        pes_energy < ebs_energy,
        "PES should use less energy than EBS ({pes_energy:.0} vs {ebs_energy:.0} mJ)"
    );
    assert!(
        pes_energy < interactive_energy,
        "PES should use less energy than Interactive"
    );
    assert!(
        ebs_energy < interactive_energy,
        "EBS should use less energy than Interactive"
    );
    assert!(
        pes_violations < ebs_violations,
        "PES should violate QoS less often than EBS ({pes_violations} vs {ebs_violations})"
    );
}

#[test]
fn oracle_dominates_every_policy_it_is_compared_against() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let learner = quick_learner(&catalog);
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
    let oracle = OracleScheduler::new();
    let generator = TraceGenerator::new();

    let app = catalog.find("espn").unwrap();
    let page = app.build_page();
    let trace = generator.generate(app, &page, EVAL_SEED_BASE + 21);

    let pes_report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
    let oracle_report = oracle.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);

    assert!(oracle_report.violations <= pes_report.violations);
    assert!(
        oracle_report.total_energy.as_microjoules()
            <= pes_report.total_energy.as_microjoules() * 1.05
    );
    assert_eq!(oracle_report.mispredictions, 0);
    // The oracle's "prediction" is the actual future, so its online accuracy
    // is perfect whenever it speculates at all.
    assert!(oracle_report.predictions == 0 || oracle_report.prediction_accuracy() > 0.999);
}

#[test]
fn event_type_distribution_matches_the_motivation_narrative() {
    // Under EBS a meaningful fraction of events is Type I/II/III, and Type IV
    // (benign) events dominate — the Sec. 4.3 observation that motivates a
    // proactive scheduler.
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let generator = TraceGenerator::new();
    let mut classes = Vec::new();
    for app in catalog.seen_apps() {
        let page = app.build_page();
        let trace = generator.generate(app, &page, EVAL_SEED_BASE + 33);
        let report =
            run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
        classes.extend(classify_events(&report, trace.events(), &plane, &qos));
    }
    let dist = distribution(&classes);
    assert!(dist.qos_missing() > 0.03, "{dist:?}");
    assert!(dist.qos_missing() < 0.5, "{dist:?}");
    assert!(dist.type_iv > 0.4, "{dist:?}");
}

#[test]
fn ondemand_trades_qos_for_energy_relative_to_interactive() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let generator = TraceGenerator::new();
    let mut ondemand_energy = 0.0;
    let mut interactive_energy = 0.0;
    let mut ondemand_violations = 0usize;
    let mut interactive_violations = 0usize;
    for app_name in ["cnn", "msn", "taobao"] {
        let app = catalog.find(app_name).unwrap();
        let page = app.build_page();
        let trace = generator.generate(app, &page, EVAL_SEED_BASE + 2);
        let od = run_reactive_with_plane(
            &platform,
            &plane,
            &trace,
            &mut OndemandGovernor::new(),
            &qos,
        );
        let ia = run_reactive_with_plane(
            &platform,
            &plane,
            &trace,
            &mut InteractiveGovernor::new(),
            &qos,
        );
        ondemand_energy += od.total_energy.as_millijoules();
        interactive_energy += ia.total_energy.as_millijoules();
        ondemand_violations += od.violations();
        interactive_violations += ia.violations();
    }
    assert!(ondemand_energy < interactive_energy);
    assert!(ondemand_violations >= interactive_violations);
}

// ---------------------------------------------------------------------------
// Golden tier: the differential/golden lockdown of the event fast path.
// ---------------------------------------------------------------------------

/// Golden-trace differential: the ladder-backed EBS decisions must be
/// byte-identical to the pre-refactor per-call DVFS math. The reference side
/// replays the same seeded session with the test-support
/// `cheapest_config_within_reference` selector (the exact pre-ladder code),
/// mirroring `run_reactive_with_plane`'s engine loop step for step.
#[test]
fn ladder_backed_ebs_decisions_are_byte_identical_to_the_pre_refactor_model() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 4);

    let fast = run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);

    let mut engine = ExecutionEngine::with_plane(&platform, qos, Arc::clone(&plane));
    let mut profiler = DemandProfiler::new(&platform);
    let mut reference_configs = Vec::with_capacity(trace.len());
    for ev in trace.events() {
        let start_time = engine.cpu_free_at().max(ev.arrival());
        let config = if profiler.needs_profiling(ev.event_type()) {
            profiler.profiling_config(ev.event_type())
        } else {
            let estimate = profiler.estimate(ev.event_type()).unwrap();
            let deadline = ev.arrival() + qos.target_for_event(ev.event_type());
            let budget = deadline.saturating_sub(start_time);
            cheapest_config_within_reference(&platform, &estimate, budget)
                .unwrap_or_else(|| platform.max_performance_config())
        };
        let record = engine.execute_event(ev, &config, false);
        engine.commit(ev, record.frame_ready_at);
        profiler.observe(ev.event_type(), config, record.busy_time);
        reference_configs.push(config);
    }

    let fast_configs: Vec<_> = fast.records.iter().map(|r| r.config).collect();
    assert_eq!(
        fast_configs, reference_configs,
        "ladder-backed decision sequence diverged from the pre-refactor model"
    );
    assert_eq!(
        fast.total_energy.as_microjoules().to_bits(),
        engine.total_energy().as_microjoules().to_bits(),
        "session energy must be bit-identical when every decision matches"
    );
}

/// PES pinned to the `Reactive` tier serves every event through the one EBS
/// decision (`pes_schedulers::ebs_config`) and never speculates, so it
/// reproduces EBS session by session: over every app of the suite, three
/// fault-free traces each, the per-event QoS outcomes and violation counts
/// are equal and the session energy is bit-identical.
#[test]
fn forced_reactive_pes_reproduces_ebs_session_by_session() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let scenarios = ScenarioCache::build(&catalog, 3);
    let pes = PesScheduler::new(
        quick_learner(&catalog),
        PesConfig::paper_defaults().with_forced_tier(DegradationLevel::Reactive),
    );
    let mut sessions = 0;
    for (app_idx, app) in catalog.apps().iter().enumerate() {
        for trace_idx in 0..3 {
            let page = scenarios.page_ref(app_idx);
            let trace = scenarios.trace_ref(app_idx, trace_idx);
            let ebs =
                run_reactive_with_plane(&platform, &plane, trace, &mut Ebs::new(&platform), &qos);
            let reactive = pes.run_trace_with_plane(&platform, &plane, page, trace, &qos);
            let session = format!("{} trace {trace_idx}", app.name());
            assert!(
                reactive
                    .outcomes
                    .iter()
                    .map(|(_, o)| o)
                    .eq(ebs.records.iter().map(|r| &r.outcome)),
                "{session}: per-event outcomes diverged"
            );
            assert_eq!(reactive.violations, ebs.violations(), "{session}");
            assert_eq!(
                reactive.total_energy.as_microjoules().to_bits(),
                ebs.total_energy.as_microjoules().to_bits(),
                "{session}: session energy diverged"
            );
            sessions += 1;
        }
    }
    assert_eq!(sessions, 54);
}

/// Golden seeded sessions: one fixed `(app, seed)` replay per scheduler with
/// the frame-deadline-miss count pinned exactly and the session energy
/// pinned to the microjoule. Any change to the event fast path that shifts a
/// single scheduling decision moves these totals and fails loudly; refresh
/// the constants only for an intentional behaviour change.
#[test]
fn golden_seeded_sessions_stay_pinned() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 1);
    let learner = quick_learner(&catalog);

    // (policy, violations, energy in µJ) goldens for the seeded session.
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults())
        .run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
    let oracle =
        OracleScheduler::new().run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
    let ebs = run_reactive_with_plane(&platform, &plane, &trace, &mut Ebs::new(&platform), &qos);
    let interactive = run_reactive_with_plane(
        &platform,
        &plane,
        &trace,
        &mut InteractiveGovernor::new(),
        &qos,
    );

    let golden: [(&str, usize, f64); 4] = [
        ("PES", GOLDEN_PES.0, GOLDEN_PES.1),
        ("Oracle", GOLDEN_ORACLE.0, GOLDEN_ORACLE.1),
        ("EBS", GOLDEN_EBS.0, GOLDEN_EBS.1),
        ("Interactive", GOLDEN_INTERACTIVE.0, GOLDEN_INTERACTIVE.1),
    ];
    let measured: [(&str, usize, f64); 4] = [
        ("PES", pes.violations, pes.total_energy.as_microjoules()),
        (
            "Oracle",
            oracle.violations,
            oracle.total_energy.as_microjoules(),
        ),
        ("EBS", ebs.violations(), ebs.total_energy.as_microjoules()),
        (
            "Interactive",
            interactive.violations(),
            interactive.total_energy.as_microjoules(),
        ),
    ];
    println!("GOLDEN-CAPTURE {measured:?}");
    for ((policy, gold_violations, gold_energy), (_, violations, energy)) in
        golden.iter().zip(&measured)
    {
        assert_eq!(
            violations, gold_violations,
            "{policy}: frame-deadline misses drifted (got {violations}, golden {gold_violations}; \
             energy {energy:.3} µJ)"
        );
        assert!(
            (energy - gold_energy).abs() < 0.5,
            "{policy}: session energy drifted (got {energy:.3} µJ, golden {gold_energy:.3} µJ)"
        );
    }
}

/// Golden values for `golden_seeded_sessions_stay_pinned` (cnn, seed
/// `EVAL_SEED_BASE + 1`): `(frame-deadline misses, session energy in µJ)`.
/// Identical in debug and release builds; refresh by running the test with
/// `--nocapture` and copying the `GOLDEN-CAPTURE` line.
const GOLDEN_PES: (usize, f64) = (3, 14_053_788.188817466);
const GOLDEN_ORACLE: (usize, f64) = (0, 10_174_317.96923233);
const GOLDEN_EBS: (usize, f64) = (10, 15_007_199.115158504);
const GOLDEN_INTERACTIVE: (usize, f64) = (2, 20_044_502.467135124);

/// Golden Oracle sessions for the anytime solver: two additional seeded
/// replays whose every optimisation window is a 12-event Oracle window (13
/// items with the outstanding event), so the wide-window budget tier and the
/// coarse-time incumbent search sit on the replayed path. Violations and
/// solver nodes are pinned exactly and energy to 0.5 µJ, identical in debug
/// and release — any change to the anytime solver that shifts a single
/// schedule moves these and fails loudly. Refresh via `--nocapture` + the
/// `ORACLE-GOLDEN-CAPTURE` line only for an intentional behaviour change.
#[test]
fn golden_oracle_anytime_sessions_stay_pinned() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let oracle = OracleScheduler::new();

    let golden = [
        ("ebay", 13, GOLDEN_ORACLE_EBAY),
        ("youtube", 27, GOLDEN_ORACLE_YOUTUBE),
    ];
    for (app_name, seed_offset, (gold_violations, gold_energy, gold_nodes)) in golden {
        let app = catalog.find(app_name).unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + seed_offset);
        let report = oracle.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        let energy = report.total_energy.as_microjoules();
        println!(
            "ORACLE-GOLDEN-CAPTURE {app_name}: ({}, {energy:?}, {})",
            report.violations, report.solver_nodes
        );
        assert_eq!(
            report.mispredictions, 0,
            "{app_name}: the Oracle never mispredicts"
        );
        assert_eq!(
            report.violations, gold_violations,
            "{app_name}: frame-deadline misses drifted (energy {energy:.3} µJ)"
        );
        assert!(
            (energy - gold_energy).abs() < 0.5,
            "{app_name}: session energy drifted (got {energy:.3} µJ, golden {gold_energy:.3} µJ)"
        );
        assert_eq!(
            report.solver_nodes, gold_nodes,
            "{app_name}: solver nodes drifted"
        );
    }
}

/// Golden values for `golden_oracle_anytime_sessions_stay_pinned`:
/// `(frame-deadline misses, session energy in µJ, solver nodes)` for the
/// seeded ebay and youtube Oracle replays. Identical in debug and release
/// builds.
///
/// The youtube replay misses one frame since its hopeless windows run the
/// coarse-time search. The window posed at 1.005 s plans event 8 to finish
/// 130 µs before its 3 s target. Execution then runs 703 µs behind that
/// plan: six DVFS/migration switches charge 700 µs that option durations
/// leave out. The frame is ready 573 µs late and shows at the next vsync,
/// 9.04 ms past the target. Posed deadlines are not aligned to vsync; the
/// last refresh before that target lies 7.6 ms earlier.
const GOLDEN_ORACLE_EBAY: (usize, f64, usize) = (0, 10_675_336.12207985, 479);
const GOLDEN_ORACLE_YOUTUBE: (usize, f64, usize) = (1, 10_551_634.125592278, 23_060);

/// The shape-tolerant solve memoisation must score real hits on a
/// realistic trace — the cnn replay scored exactly zero under the old
/// exact-key ring, which is what motivated the redesign. Exercised through
/// [`ExperimentContext::pes_replay`], the observability hook the
/// experiment layer exposes for the memo counters.
#[test]
fn cnn_replay_scores_solve_memo_hits() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let power_plane = Arc::new(DvfsLadder::for_platform(&platform));
    let ctx = ExperimentContext {
        platform,
        power_plane,
        qos: QosPolicy::paper_defaults(),
        learner: quick_learner(&catalog),
        catalog,
        traces_per_app: 1,
        scenarios: ScenarioCache::build(&AppCatalog::paper_suite(), 2),
        faults: FaultPlane::none(),
    };
    let report = ctx
        .pes_replay("cnn", 0, PesConfig::paper_defaults())
        .expect("cnn is in the paper suite");
    assert!(
        report.solver_cache_hits > 0,
        "the shape-tolerant memo ring must engage on the cnn replay \
         (hits {}, misses {}, revalidations {})",
        report.solver_cache_hits,
        report.solver_cache_misses,
        report.solver_cache_revalidations
    );
    assert!(
        report.solver_cache_revalidations >= report.solver_cache_hits,
        "every hit passes through a revalidation"
    );
    assert!(report.solver_cache_hit_rate() > 0.0);
}

/// Golden cnn-trace PES replay for the shape-tolerant memo ring: the
/// bench-unit scenario (cnn, seed `EVAL_SEED_BASE`) with violations pinned
/// exactly, session energy to 0.5 µJ and a nonzero memo hit count,
/// identical in debug and release. Any change to the memo key, the
/// planning hysteresis or the window re-pose that shifts a single
/// scheduling decision moves these and fails loudly; refresh via
/// `--nocapture` + the `PES-MEMO-GOLDEN-CAPTURE` line only for an
/// intentional behaviour change.
#[test]
fn golden_pes_shape_memo_session_stays_pinned() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
    let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
    let energy = report.total_energy.as_microjoules();
    println!(
        "PES-MEMO-GOLDEN-CAPTURE cnn: ({}, {energy:?}, {} hits / {} lookups)",
        report.violations,
        report.solver_cache_hits,
        report.solver_cache_hits + report.solver_cache_misses
    );
    assert_eq!(
        report.violations, GOLDEN_PES_MEMO.0,
        "frame-deadline misses drifted (energy {energy:.3} µJ)"
    );
    assert!(
        (energy - GOLDEN_PES_MEMO.1).abs() < 0.5,
        "session energy drifted (got {energy:.3} µJ, golden {:.3} µJ)",
        GOLDEN_PES_MEMO.1
    );
    assert_eq!(
        report.solver_cache_hits, GOLDEN_PES_MEMO.2,
        "memo hit count drifted"
    );
    assert!(
        report.solver_cache_hits > 0,
        "the pinned session must reuse windows"
    );
}

/// Golden values for `golden_pes_shape_memo_session_stays_pinned` (cnn,
/// seed `EVAL_SEED_BASE`): `(frame-deadline misses, session energy in µJ,
/// solve-memo hits)`. Identical in debug and release builds.
const GOLDEN_PES_MEMO: (usize, f64, usize) = (0, 16_238_803.662925582, 5);

/// Zero-fault identity golden: replaying the pinned sessions through the
/// fault-aware entry point with [`FaultPlane::none`] must be byte-identical
/// to the fault-free path — same pinned violations, energy within the same
/// 0.5 µJ golden band, same memo hit count, zero injections, a fully
/// populated degradation ladder and an energy breakdown that sums to the
/// session total. Identical in debug and release builds. This is the
/// contract that lets every existing driver ignore the fault plane: the
/// disabled plane never draws from its RNG stream.
#[test]
fn zero_fault_plane_replays_stay_pinned_to_the_goldens() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let learner = quick_learner(&catalog);
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
    let none = FaultPlane::none();
    assert!(none.is_none());
    assert!(FaultPlane::new(FaultConfig::disabled()).is_none());

    // The PR 5 golden session (cnn, EVAL_SEED_BASE + 1), driven through the
    // fault-aware entry point.
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 1);
    let golden = pes.run_trace_with_plane_and_faults(&platform, &plane, &page, &trace, &qos, &none);
    assert_eq!(
        golden.violations, GOLDEN_PES.0,
        "zero-fault replay drifted from the golden frame-deadline misses"
    );
    assert!(
        (golden.total_energy.as_microjoules() - GOLDEN_PES.1).abs() < 0.5,
        "zero-fault replay drifted from the golden session energy \
         (got {:.3} µJ, golden {:.3} µJ)",
        golden.total_energy.as_microjoules(),
        GOLDEN_PES.1
    );

    // The memo-ring golden session (cnn, EVAL_SEED_BASE): violations, energy
    // and memo hits all pinned through the fault-aware path too.
    let memo_trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    let memo =
        pes.run_trace_with_plane_and_faults(&platform, &plane, &page, &memo_trace, &qos, &none);
    assert_eq!(memo.violations, GOLDEN_PES_MEMO.0);
    assert!((memo.total_energy.as_microjoules() - GOLDEN_PES_MEMO.1).abs() < 0.5);
    assert_eq!(
        memo.solver_cache_hits, GOLDEN_PES_MEMO.2,
        "memo hit count drifted under the disabled fault plane"
    );

    // The disabled plane is observable as exactly that: no injections, a
    // ladder entry for every planning decision, and an energy breakdown
    // that reconciles with the session total.
    for report in [&golden, &memo] {
        assert_eq!(report.fault_injections.total(), 0, "no faults injected");
        assert_eq!(report.degradation.ondemand_floor, 0);
        assert!(report.degradation.decisions() > 0, "ladder is populated");
        let breakdown: f64 = report
            .energy_breakdown
            .iter()
            .map(|(_, e)| e.as_microjoules())
            .sum();
        assert!(
            (breakdown - report.total_energy.as_microjoules()).abs() < 0.5,
            "energy breakdown must sum to the session total \
             (sum {breakdown:.3} µJ vs total {:.3} µJ)",
            report.total_energy.as_microjoules()
        );
    }

    // And the fault-free legacy entry point agrees bit for bit.
    let legacy = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
    assert_eq!(
        legacy.total_energy.as_microjoules().to_bits(),
        golden.total_energy.as_microjoules().to_bits(),
        "FaultPlane::none() must be bit-identical to the fault-free path"
    );
    assert_eq!(legacy.violations, golden.violations);
    assert_eq!(legacy.solver_cache_hits, golden.solver_cache_hits);
}

/// Golden watchdogged PES sessions: the cnn replay (seed
/// `EVAL_SEED_BASE + 2`) under a node-budget watchdog and under an
/// event-budget watchdog. Each trip demotes the live serving tier one
/// level, so the demotion points decide which events are solved, served
/// reactively or served at the floor. Violations, trips, the final tier and
/// the degradation histogram are pinned exactly, energy to 0.5 µJ,
/// identical in debug and release. Refresh via `--nocapture` + the
/// `WATCHDOG-GOLDEN-CAPTURE` lines only for an intentional behaviour change.
#[test]
fn golden_watchdogged_sessions_stay_pinned() {
    use pes::core::WatchdogConfig;

    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
    let learner = quick_learner(&catalog);

    let cases: [(&str, WatchdogConfig, WatchdogGolden); 2] = [
        (
            "nodes",
            WatchdogConfig {
                node_budget: 100,
                event_budget: 0,
            },
            GOLDEN_WATCHDOG_NODES,
        ),
        (
            "events",
            WatchdogConfig {
                node_budget: 0,
                event_budget: 5,
            },
            GOLDEN_WATCHDOG_EVENTS,
        ),
    ];
    for (name, watchdog, golden) in cases {
        let pes = PesScheduler::new(
            learner.clone(),
            PesConfig::paper_defaults().with_watchdog(watchdog),
        );
        let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        let energy = report.total_energy.as_microjoules();
        let d = report.degradation;
        let histogram = [d.exact, d.anytime, d.greedy, d.reactive, d.ondemand_floor];
        println!(
            "WATCHDOG-GOLDEN-CAPTURE {name}: ({}, {energy:?}, {}, DegradationLevel::{:?}, {histogram:?})",
            report.violations, report.watchdog_trips, report.final_tier
        );
        let (gold_violations, gold_energy, gold_trips, gold_tier, gold_histogram) = golden;
        assert_eq!(
            report.violations, gold_violations,
            "{name}: frame-deadline misses drifted (energy {energy:.3} µJ)"
        );
        assert!(
            (energy - gold_energy).abs() < 0.5,
            "{name}: session energy drifted (got {energy:.3} µJ, golden {gold_energy:.3} µJ)"
        );
        assert_eq!(report.watchdog_trips, gold_trips, "{name}: trips drifted");
        assert_eq!(report.final_tier, gold_tier, "{name}: final tier drifted");
        assert_eq!(
            histogram, gold_histogram,
            "{name}: degradation histogram drifted"
        );
        assert!(report.watchdog_trips > 0, "{name}: the watchdog must trip");
    }
}

/// `(violations, energy in µJ, watchdog trips, final tier, degradation
/// histogram [exact, anytime, greedy, reactive, ondemand_floor])`.
type WatchdogGolden = (usize, f64, usize, pes::core::DegradationLevel, [usize; 5]);

/// Golden values for `golden_watchdogged_sessions_stay_pinned` under the
/// 100-node budget. Identical in debug and release builds.
const GOLDEN_WATCHDOG_NODES: WatchdogGolden = (
    3,
    21_070_715.77701241,
    2,
    pes::core::DegradationLevel::Greedy,
    [9, 0, 1, 16, 0],
);
/// Golden values for `golden_watchdogged_sessions_stay_pinned` under the
/// 5-event budget. Identical in debug and release builds.
const GOLDEN_WATCHDOG_EVENTS: WatchdogGolden = (
    5,
    22_406_491.921483207,
    7,
    pes::core::DegradationLevel::OndemandFloor,
    [0, 0, 1, 18, 16],
);

#[test]
fn disabling_dom_analysis_never_helps_prediction() {
    let catalog = AppCatalog::paper_suite();
    let generator = TraceGenerator::new();
    let trainer = Trainer::with_config(TrainingConfig {
        traces_per_app: 3,
        epochs: 25,
        ..Default::default()
    });
    let with_dom = trainer.train_learner(&catalog, LearnerConfig::paper_defaults());
    let without_dom =
        trainer.train_learner(&catalog, LearnerConfig::paper_defaults().with_lnes(false));
    let mut acc_with = 0.0;
    let mut acc_without = 0.0;
    let mut n = 0.0;
    for app in catalog.seen_apps().take(6) {
        let page = app.build_page();
        let traces = generator.generate_many(app, &page, EVAL_SEED_BASE, 2);
        acc_with += pes::predictor::evaluate_accuracy(&with_dom, &page, &traces);
        acc_without += pes::predictor::evaluate_accuracy(&without_dom, &page, &traces);
        n += 1.0;
    }
    assert!(acc_with / n + 1e-9 >= acc_without / n);
}

// ---------------------------------------------------------------------------
// Fleet resilience suite: the streaming fleet driver under chaos — watchdog
// demotion, breaker routing, load shedding and journaled resume.
// ---------------------------------------------------------------------------

mod fleet_resilience {
    use super::*;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    use pes::core::WatchdogConfig;
    use pes::sim::{
        resume_fleet, run_fleet, run_fleet_journaled, BreakerConfig, FleetConfig, FleetError,
        FleetRunReport, FleetSpec, ShedPolicy,
    };

    /// One shared context for the whole module: training dominates the
    /// cost of every fleet test otherwise. The fault plane is aggressive —
    /// every class enabled at rates well above the chaos-tier defaults.
    fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| {
            let catalog = AppCatalog::paper_suite();
            let platform = Platform::exynos_5410();
            let power_plane = Arc::new(DvfsLadder::for_platform(&platform));
            ExperimentContext {
                platform,
                power_plane,
                qos: QosPolicy::paper_defaults(),
                learner: quick_learner(&catalog),
                catalog,
                traces_per_app: 1,
                scenarios: ScenarioCache::build(&AppCatalog::paper_suite(), 2),
                faults: FaultPlane::new(FaultConfig {
                    seed: 0xC0FF_EE00,
                    prediction_flip: 0.25,
                    confidence_corruption: 0.2,
                    demand_drift: 0.3,
                    drift_magnitude: 0.8,
                    solver_starvation: 0.4,
                    rung_mask: 0b1010,
                    vsync_delay: 0.15,
                    queue_duplicate: 0.1,
                    queue_drop: 0.1,
                }),
            }
        })
    }

    /// A storm-heavy stream of short sessions: steady arrivals with a
    /// triple-size burst every fourth step, sessions truncated to eight
    /// events so the suite stays fast.
    fn storm_spec() -> FleetSpec {
        FleetSpec {
            sessions: 60,
            seed: 0xFEED_5EED,
            arrivals_per_step: 5,
            storm_every: 3,
            storm_arrivals: 14,
            max_events_per_session: 8,
            scenario_cycle: 0,
        }
    }

    /// Tight resilience thresholds so every mechanism engages on the small
    /// spec: a four-event watchdog budget (every session trips at least
    /// once), hair-trigger breakers and a queue small enough that storms
    /// must shed.
    fn resilient_config() -> FleetConfig {
        FleetConfig {
            batch_size: 4,
            queue_capacity: 12,
            shed: ShedPolicy::LowestPriorityFirst,
            retries: 1,
            threads: 0,
            shards: 3,
            breaker: BreakerConfig {
                window: 6,
                trip_threshold: 3,
                cooldown_batches: 1,
                probes: 1,
                close_after: 2,
            },
            watchdog: WatchdogConfig {
                node_budget: 0,
                event_budget: 4,
            },
            violation_spike: 3,
            packed_prediction: false,
            shared_memo: true,
            generation_cap: 512,
        }
    }

    fn tmp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pes_fleet_{}_{tag}.journal", std::process::id()))
    }

    fn assert_same_aggregates(a: &FleetRunReport, b: &FleetRunReport) {
        assert_eq!(
            a.energy_bits(),
            b.energy_bits(),
            "energy must match to the bit"
        );
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.events, b.events);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.shed_by_priority, b.shed_by_priority);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.peak_queue, b.peak_queue);
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.watchdog_trips, b.watchdog_trips);
        assert_eq!(
            a.breaker_histories, b.breaker_histories,
            "breaker transition histories must replay identically"
        );
        assert_eq!(a.breaker_finals, b.breaker_finals);
        let key = |r: &FleetRunReport| -> Vec<_> {
            r.failures
                .iter()
                .map(|f| (f.index, f.attempts, f.last_level))
                .collect()
        };
        assert_eq!(key(a), key(b), "quarantine records must match");
    }

    /// The full resilience ladder engages on a storm-heavy chaos stream —
    /// watchdog trips demote tiers, breakers open and route units
    /// reactively, half-open probes run, the bounded queue sheds — and the
    /// whole thing is deterministic.
    #[test]
    fn streaming_fleet_degrades_gracefully_and_deterministically_under_storms() {
        let spec = storm_spec();
        let config = resilient_config();
        let report = run_fleet(ctx(), &spec, &config);

        assert_eq!(
            report.completed + report.shed + report.failures.len(),
            spec.sessions,
            "every session is served, shed or quarantined — never lost"
        );
        assert!(report.shed > 0, "storms must overflow the bounded queue");
        assert!(report.peak_queue <= config.queue_capacity);
        assert!(
            report.watchdog_trips > 0,
            "the four-event budget must trip on eight-event sessions"
        );
        assert!(
            report.breaker_opens() > 0,
            "sustained bad outcomes must open a breaker (histories {:?})",
            report.breaker_histories
        );
        assert!(
            report.breaker_histories.iter().any(|h| h.contains('H')),
            "an opened breaker must half-open after its cooldown"
        );
        assert!(
            report.degradation.reactive > 0,
            "breaker-routed units must serve reactively"
        );
        assert!(report.events > 0 && report.energy_uj > 0.0);

        let again = run_fleet(ctx(), &spec, &config);
        assert_same_aggregates(&report, &again);
    }

    /// Kill-and-resume identity: truncating the journal mid-run (plus a
    /// torn half-written final line, as a real kill leaves behind) and
    /// resuming reproduces the uninterrupted run's aggregates bit for bit —
    /// energy, violations, degradation, breaker-state history, shedding and
    /// the journal tail itself.
    #[test]
    fn fleet_kill_and_resume_matches_uninterrupted_aggregates() {
        let spec = storm_spec();
        let config = resilient_config();
        let full_path = tmp_journal("full");
        let full =
            run_fleet_journaled(ctx(), &spec, &config, &full_path).expect("journaled run succeeds");

        let journal = std::fs::read_to_string(&full_path).expect("journal readable");
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), full.batches, "one record per batch");

        // Simulate the kill: keep the first half of the records and a torn
        // fragment of the next one.
        let keep = lines.len() / 2;
        assert!(keep >= 1, "need at least one intact record to resume from");
        let mut killed = lines[..keep].join("\n");
        killed.push('\n');
        killed.push_str(&lines[keep][..lines[keep].len() / 2]);
        let killed_path = tmp_journal("killed");
        std::fs::write(&killed_path, &killed).expect("write killed journal");

        let resumed = resume_fleet(ctx(), &spec, &config, &killed_path).expect("resume succeeds");
        assert_same_aggregates(&full, &resumed);

        // The resumed journal converges on the uninterrupted one: same
        // record count, byte-identical final record.
        let resumed_journal = std::fs::read_to_string(&killed_path).expect("journal readable");
        let resumed_lines: Vec<&str> = resumed_journal.lines().collect();
        assert_eq!(resumed_lines.len(), full.batches);
        assert_eq!(
            resumed_lines.last(),
            lines.last(),
            "the final journal record must be byte-identical after a resume"
        );

        // Resuming a journal that already covers the whole run re-executes
        // nothing and reports the same aggregates.
        let replayed =
            resume_fleet(ctx(), &spec, &config, &full_path).expect("no-op resume succeeds");
        assert_same_aggregates(&full, &replayed);

        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&killed_path).ok();
        println!(
            "KILL-RESUME killed_at={keep}/{} batches steps={} completed={} shed={} \
             violations={} events={} energy_bits={:#018x} trips={} opens={} \
             breakers={:?}",
            full.batches,
            full.steps,
            full.completed,
            full.shed,
            full.violations,
            full.events,
            full.energy_bits(),
            full.watchdog_trips,
            full.breaker_opens(),
            full.breaker_histories,
        );
    }

    /// A kill can leave arbitrary bytes, not only a prefix of a record, on
    /// the final line. A final line that is not valid UTF-8 is a torn tail
    /// like any other: the resume starts from the last intact record and
    /// reproduces the uninterrupted run.
    #[test]
    fn resume_treats_a_non_utf8_final_line_as_a_torn_tail() {
        let spec = storm_spec();
        let config = resilient_config();
        let full_path = tmp_journal("utf8_full");
        let full =
            run_fleet_journaled(ctx(), &spec, &config, &full_path).expect("journaled run succeeds");
        let journal = std::fs::read_to_string(&full_path).expect("journal readable");
        let first = journal.lines().next().expect("at least one record");

        let torn_path = tmp_journal("utf8_torn");
        let mut torn = format!("{first}\n").into_bytes();
        torn.extend_from_slice(b"PE\xff\xfeS");
        std::fs::write(&torn_path, &torn).expect("write torn journal");
        let resumed = resume_fleet(ctx(), &spec, &config, &torn_path).expect("resume succeeds");
        assert_same_aggregates(&full, &resumed);
        let resumed_journal = std::fs::read_to_string(&torn_path).expect("journal is UTF-8 again");
        assert_eq!(
            resumed_journal, journal,
            "the resumed journal is the full one"
        );

        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&torn_path).ok();
    }

    /// The exact final journal record of the storm run. `deg`, `inj` and
    /// `brk` carry non-trivial values; nothing is quarantined, so `fail` is
    /// `-` (the unit round-trip test covers a non-empty roster).
    const GOLDEN_STORM_JOURNAL_TAIL: &str = "PESFLEETJ4 batch=9 step=9 next_unit=60 shed=26 \
         completed=34 retries=0 violations=86 events=270 energy=41a637800551cd9f wd=48 \
         deg=17,8,7,207,31 inj=7,5,18,17,3,36,29,31 nodes=519 mh=1 mm=31 fail=- \
         brk=H:7:3:0:0:OHOHOHOHOH|H:7:3:0:0:OHOHOHOHOHOHOHOH|H:7:3:0:0:OHOHOHOHOH \
         #5f5799a48d43ac53";

    /// Pins the `PESFLEETJ4` line byte for byte: field order, encodings,
    /// checksum and every cumulative counter the storm run journals.
    /// Re-pin via `--nocapture` and the `STORM-JOURNAL-GOLDEN-CAPTURE` line
    /// only for an intentional change of behaviour or of the format.
    #[test]
    fn golden_storm_journal_final_record_stays_pinned() {
        let path = tmp_journal("golden");
        let report = run_fleet_journaled(ctx(), &storm_spec(), &resilient_config(), &path)
            .expect("journaled run succeeds");
        let journal = std::fs::read_to_string(&path).expect("journal readable");
        std::fs::remove_file(&path).ok();
        let last = journal.lines().last().expect("at least one record");
        println!("STORM-JOURNAL-GOLDEN-CAPTURE {last}");
        assert_eq!(journal.lines().count(), report.batches);
        assert_eq!(last, GOLDEN_STORM_JOURNAL_TAIL);
    }

    /// A blank line between records is skipped by the reader, and the
    /// resume keeps every line through the record it restored: records
    /// after the blank line survive, and the file ends up with one intact
    /// record per batch, the uninterrupted run's.
    #[test]
    fn resume_keeps_every_record_after_a_blank_line() {
        let spec = storm_spec();
        let config = resilient_config();
        let full_path = tmp_journal("blank_full");
        let full =
            run_fleet_journaled(ctx(), &spec, &config, &full_path).expect("journaled run succeeds");
        let journal = std::fs::read_to_string(&full_path).expect("journal readable");
        let lines: Vec<&str> = journal.lines().collect();
        assert!(lines.len() > 3, "the run must outlast the kept records");

        let blank_path = tmp_journal("blank");
        let killed = format!("{}\n\n{}\n{}\n", lines[0], lines[1], lines[2]);
        std::fs::write(&blank_path, killed).expect("write journal");
        let resumed = resume_fleet(ctx(), &spec, &config, &blank_path).expect("resume succeeds");
        assert_same_aggregates(&full, &resumed);

        let resumed_journal = std::fs::read_to_string(&blank_path).expect("journal readable");
        let records: Vec<&str> = resumed_journal
            .lines()
            .filter(|line| !line.trim().is_empty())
            .collect();
        assert_eq!(records, lines, "one intact record per batch");

        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&blank_path).ok();
    }

    /// Golden for the single-batch fleet replay with
    /// `packed_prediction: true`: `(violations, energy µJ)`.
    const GOLDEN_BATCHED_FLEET: (usize, f64) = (12, 32_082_523.87536225);

    /// A single-batch fleet replay with `packed_prediction: true` stays
    /// pinned: exact violation count and energy within 0.5 µJ, identical in
    /// debug and release builds. The field is inert (prediction has one
    /// inference path), and the pin is also what the same spec gives with
    /// the field `false`, so this pins that setting it changes nothing.
    /// Re-pin via `--nocapture` and the `BATCHED-FLEET-GOLDEN-CAPTURE` line
    /// only for an intentional behaviour change.
    #[test]
    fn golden_batched_prediction_fleet_replay_stays_pinned() {
        let spec = FleetSpec {
            sessions: 6,
            seed: 0xFEED_5EED,
            arrivals_per_step: 6,
            storm_every: 7,
            storm_arrivals: 0,
            max_events_per_session: 8,
            scenario_cycle: 0,
        };
        let config = FleetConfig {
            batch_size: 8,
            queue_capacity: 16,
            shed: ShedPolicy::OldestFirst,
            retries: 1,
            threads: 0,
            shards: 2,
            breaker: BreakerConfig::default(),
            watchdog: WatchdogConfig {
                node_budget: 0,
                event_budget: 0,
            },
            violation_spike: usize::MAX,
            packed_prediction: true,
            shared_memo: true,
            generation_cap: 512,
        };
        let report = run_fleet(ctx(), &spec, &config);
        println!(
            "BATCHED-FLEET-GOLDEN-CAPTURE ({}, {:?})",
            report.violations, report.energy_uj
        );
        assert_eq!(report.batches, 1, "the spec must drain in one batch");
        assert_eq!(report.completed, spec.sessions);
        assert_eq!(report.violations, GOLDEN_BATCHED_FLEET.0);
        assert!(
            (report.energy_uj - GOLDEN_BATCHED_FLEET.1).abs() < 0.5,
            "energy {} drifted from golden {}",
            report.energy_uj,
            GOLDEN_BATCHED_FLEET.1
        );

        let again = run_fleet(ctx(), &spec, &config);
        assert_same_aggregates(&report, &again);
    }

    /// The shared cross-replay solve cache is a pure wall-clock
    /// optimisation: a repeated-config sweep (no storms, no watchdog, many
    /// sessions over the same 18 pages) produces byte-identical aggregates
    /// with the shared memo on or off — same energy bits, same solver
    /// nodes, same per-replay memo counters — while the generation answers
    /// a real share of ring misses and lifts the cross-replay hit rate
    /// above the per-replay baseline.
    #[test]
    fn shared_solve_memo_is_aggregate_identical_and_lifts_cross_replay_hit_rate() {
        let spec = FleetSpec {
            sessions: 48,
            seed: 0x5EED_CAFE,
            arrivals_per_step: 8,
            storm_every: 0,
            storm_arrivals: 0,
            max_events_per_session: 10,
            scenario_cycle: 12,
        };
        let shared_cfg = FleetConfig {
            batch_size: 8,
            queue_capacity: 64,
            watchdog: WatchdogConfig::disabled(),
            ..FleetConfig::default()
        };
        let solo_cfg = FleetConfig {
            shared_memo: false,
            ..shared_cfg.clone()
        };
        let shared = run_fleet(ctx(), &spec, &shared_cfg);
        let solo = run_fleet(ctx(), &spec, &solo_cfg);

        assert_same_aggregates(&shared, &solo);
        assert_eq!(shared.solver_nodes, solo.solver_nodes);
        assert_eq!(shared.memo_hits, solo.memo_hits);
        assert_eq!(shared.memo_misses, solo.memo_misses);
        assert_eq!(
            (solo.shared_hits, solo.shared_lookups),
            (0, 0),
            "the per-replay baseline never probes a generation"
        );
        assert!(
            shared.shared_hits > 0,
            "the sweep must reuse solves across replays (lookups {})",
            shared.shared_lookups
        );
        assert!(
            shared.combined_hit_rate() > solo.memo_hit_rate(),
            "combined {:.3} must beat the per-replay baseline {:.3}",
            shared.combined_hit_rate(),
            solo.memo_hit_rate()
        );
        println!(
            "SHARED-MEMO baseline_hit_rate={:.4} combined_hit_rate={:.4} \
             shared_hits={} shared_lookups={} solver_nodes={}",
            solo.memo_hit_rate(),
            shared.combined_hit_rate(),
            shared.shared_hits,
            shared.shared_lookups,
            shared.solver_nodes,
        );
    }

    /// Shared-memo admission end to end: on unique sessions the generation
    /// answers almost nothing, so after the first two batches it turns
    /// dormant and only a sampled slice of the ring misses probes it; on a
    /// repeated-config sweep it keeps answering, so every miss probes.
    /// Either way the aggregates equal the memo-off run's.
    #[test]
    fn decorrelated_fleet_goes_dormant_and_sweep_stays_admitted() {
        let config = FleetConfig {
            batch_size: 8,
            queue_capacity: 64,
            watchdog: WatchdogConfig::disabled(),
            ..FleetConfig::default()
        };
        let solo_cfg = FleetConfig {
            shared_memo: false,
            ..config.clone()
        };
        for scenario_cycle in [0, 6] {
            let spec = FleetSpec {
                sessions: 80,
                seed: 0xD0_4A47,
                arrivals_per_step: 8,
                storm_every: 0,
                storm_arrivals: 0,
                max_events_per_session: 12,
                scenario_cycle,
            };
            let shared = run_fleet(ctx(), &spec, &config);
            let solo = run_fleet(ctx(), &spec, &solo_cfg);
            assert!(shared.batches >= 8, "{} batches", shared.batches);
            assert_same_aggregates(&shared, &solo);
            assert_eq!(shared.solver_nodes, solo.solver_nodes);
            assert_eq!(shared.memo_misses, solo.memo_misses);
            assert_eq!(shared.shared_lookups, shared.memo_misses);
            println!(
                "ADMISSION cycle={scenario_cycle} lookups={} probes={} hits={}",
                shared.shared_lookups, shared.shared_probes, shared.shared_hits
            );
            if scenario_cycle == 0 {
                assert!(
                    shared.shared_probes * 2 < shared.shared_lookups,
                    "unique sessions must go dormant: {} probes of {} lookups",
                    shared.shared_probes,
                    shared.shared_lookups
                );
            } else {
                assert_eq!(
                    shared.shared_probes, shared.shared_lookups,
                    "a sweep keeps every lookup probing"
                );
                assert!(shared.shared_hits > 0);
            }
        }
    }

    /// Same FNV-1a the journal uses, so the tests can re-checksum rewritten
    /// record payloads.
    fn fnv1a(payload: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in payload.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Journal-format compatibility: this build reads only the journal
    /// format it writes. A journal from an older build (`J1`–`J3`) or an
    /// unknown future one is rejected with the typed version error instead
    /// of being mistaken for a torn tail and silently restarted — even
    /// when the unreadable record is the final line.
    #[test]
    fn resume_rejects_older_and_unknown_journal_versions() {
        let spec = storm_spec();
        let config = resilient_config();
        let full_path = tmp_journal("ver_full");
        run_fleet_journaled(ctx(), &spec, &config, &full_path).expect("journaled run succeeds");
        let journal = std::fs::read_to_string(&full_path).expect("journal readable");
        let first = journal.lines().next().expect("at least one record");
        let (payload, _) = first.rsplit_once(" #").expect("checksummed record");
        let (current, fields) = payload.split_once(' ').expect("magic then fields");

        let version_path = tmp_journal("ver_other");
        for magic in ["PESFLEETJ1", "PESFLEETJ2", "PESFLEETJ3", "PESFLEETJ7"] {
            let rewritten = format!("{magic} {fields}");
            let line = format!("{rewritten} #{:016x}\n", fnv1a(&rewritten));
            std::fs::write(&version_path, &line).expect("write rewritten journal");
            match resume_fleet(ctx(), &spec, &config, &version_path) {
                Err(FleetError::JournalVersion { found, supported }) => {
                    assert_eq!(found, magic);
                    assert_eq!(supported, current);
                }
                other => panic!("expected a journal-version error for {magic}, got {other:?}"),
            }
        }

        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&version_path).ok();
    }

    /// Release-tier scale test (CI runs it with `--ignored`): a 100k-session
    /// chaos fleet under the aggressive fault plane completes with zero
    /// aborts — every session is served, shed or quarantined — while the
    /// admission queue (the only unbounded-looking buffer) stays within its
    /// configured capacity.
    #[test]
    #[ignore = "release-tier scale test, run via CI with --ignored"]
    fn hundred_thousand_session_chaos_fleet_completes_with_bounded_memory() {
        let spec = FleetSpec {
            sessions: 100_000,
            seed: 0x0A_CE0F_5EED,
            arrivals_per_step: 192,
            storm_every: 8,
            storm_arrivals: 1_024,
            max_events_per_session: 5,
            scenario_cycle: 0,
        };
        let config = FleetConfig {
            batch_size: 256,
            queue_capacity: 1_024,
            shed: ShedPolicy::LowestPriorityFirst,
            retries: 1,
            threads: 0,
            shards: 8,
            breaker: BreakerConfig {
                window: 16,
                trip_threshold: 6,
                cooldown_batches: 2,
                probes: 2,
                close_after: 3,
            },
            watchdog: WatchdogConfig {
                node_budget: 0,
                event_budget: 3,
            },
            violation_spike: 2,
            packed_prediction: false,
            shared_memo: true,
            generation_cap: 1_024,
        };
        let report = run_fleet(ctx(), &spec, &config);
        assert_eq!(
            report.completed + report.shed + report.failures.len(),
            spec.sessions,
            "zero aborts: every session accounted for"
        );
        assert!(
            report.peak_queue <= config.queue_capacity,
            "memory stays bounded"
        );
        assert!(report.shed > 0, "storms must exercise the shed path");
        assert!(report.watchdog_trips > 0);
        assert!(report.breaker_opens() > 0);
        assert!(report.events > 0);
        assert!(report.energy_uj.is_finite() && report.energy_uj > 0.0);
        println!(
            "100K-FLEET completed={} shed={} quarantined={} trips={} opens={} energy={:.3e}uJ",
            report.completed,
            report.shed,
            report.failures.len(),
            report.watchdog_trips,
            report.breaker_opens(),
            report.energy_uj
        );
    }
}
