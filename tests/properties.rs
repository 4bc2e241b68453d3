//! Property-based tests of the core invariants, using proptest.

use proptest::prelude::*;

use pes::acmp::units::{CpuCycles, FreqMhz, TimeUs};
use pes::acmp::{
    recover_demand, AcmpConfig, ActivityKind, CoreKind, CpuDemand, DvfsLadder, EnergyMeter,
    Platform,
};
use pes::core::SolveMemo;
use pes::dom::{
    CallbackEffect, DomAnalyzer, EventType, IncrementalAnalyzer, PageBuilder, Viewport,
};
use pes::ilp::{
    IlpError, ScheduleItem, ScheduleOption, ScheduleProblem, ScheduleSolution, SolveScratch,
    SolveTier,
};
use pes::webrt::VsyncClock;

mod support;
use support::dvfs::{
    cheapest_config_within_reference, execution_power_reference, marginal_energy_reference,
    ReferenceMeter,
};
use support::reference::{coarse_time_bounds_reference, solve_reference};
use support::solver::to_generic_ilp;

proptest! {
    /// Eqn. 1: latency is non-increasing in effective throughput for any demand.
    #[test]
    fn latency_monotone_in_throughput(mem_ms in 0u64..500, mcycles in 0u64..5_000) {
        let platform = Platform::exynos_5410();
        let demand = CpuDemand::new(TimeUs::from_millis(mem_ms), CpuCycles::new(mcycles * 1_000_000));
        let latencies: Vec<u64> = platform
            .configs()
            .iter()
            .map(|cfg| demand.time_on(cfg).as_micros())
            .collect();
        prop_assert!(latencies.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Demand recovery from two exact observations reproduces the demand.
    #[test]
    fn demand_recovery_is_consistent(
        mem_ms in 1u64..300,
        mcycles in 50u64..4_000,
        f1_idx in 0usize..5,
        f2_idx in 6usize..10,
    ) {
        let platform = Platform::exynos_5410();
        let big = platform.cluster_for(CoreKind::BigA15).unwrap();
        let demand = CpuDemand::new(TimeUs::from_millis(mem_ms), CpuCycles::new(mcycles * 1_000_000));
        let cfg_a = AcmpConfig::new(CoreKind::BigA15, big.frequencies()[f1_idx]);
        let cfg_b = AcmpConfig::new(CoreKind::BigA15, big.frequencies()[f2_idx]);
        let t_a = demand.time_on(&cfg_a);
        let t_b = demand.time_on(&cfg_b);
        let recovered = recover_demand((cfg_a, t_a), (cfg_b, t_b)).unwrap();
        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b as f64).max(1.0);
        prop_assert!(rel(recovered.ref_cycles().get(), demand.ref_cycles().get()) < 0.05);
    }

    /// The next VSync never precedes frame readiness and is at most one
    /// period away.
    #[test]
    fn vsync_wait_is_bounded(ready_us in 0u64..10_000_000) {
        let clock = VsyncClock::sixty_hz();
        let ready = TimeUs::from_micros(ready_us);
        let shown = clock.next_refresh_at_or_after(ready);
        prop_assert!(shown >= ready);
        prop_assert!(shown - ready < clock.period());
        prop_assert_eq!(shown.as_micros() % clock.period().as_micros(), 0);
    }

    /// The specialised scheduler solver never returns an infeasible schedule
    /// when the greedy policy finds a feasible one, and never costs more than
    /// greedy at equal violations.
    #[test]
    fn optimal_schedule_dominates_greedy(
        durations in proptest::collection::vec((10_000u64..400_000, 1u64..10), 1..6),
        slack_ms in 50u64..2_000,
    ) {
        let items: Vec<ScheduleItem> = durations
            .iter()
            .enumerate()
            .map(|(i, (dur, cost))| ScheduleItem {
                release_us: i as u64 * 100_000,
                deadline_us: (i as u64 + 1) * 100_000 + slack_ms * 1_000,
                options: vec![
                    ScheduleOption { choice: 0, duration_us: *dur, cost: *cost as f64 },
                    ScheduleOption { choice: 1, duration_us: dur / 3, cost: *cost as f64 * 3.0 },
                ],
            })
            .collect();
        let problem = ScheduleProblem::new(0, items);
        let optimal = problem.solve().unwrap();
        let greedy = problem.solve_greedy().unwrap();
        prop_assert!(optimal.violations <= greedy.violations);
        if optimal.violations == greedy.violations {
            prop_assert!(optimal.total_cost <= greedy.total_cost + 1e-9);
        }
        // Completion times are monotone.
        prop_assert!(optimal.finish_us.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The LNES only ever contains events registered on visible nodes (plus
    /// the synthetic document-level scroll/navigate entries on the root).
    #[test]
    fn lnes_only_contains_visible_targets(
        nav_links in 1usize..8,
        articles in 0usize..20,
        menu_items in 0usize..8,
        scroll_to in 0i64..4_000,
    ) {
        let page = PageBuilder::new(360)
            .nav_bar(nav_links)
            .collapsible_menu(menu_items)
            .article_list(articles, true)
            .text_block(1_500)
            .build();
        let mut viewport = Viewport::phone();
        viewport.scroll_to(scroll_to);
        let lnes = DomAnalyzer::new().lnes(&page.tree, &viewport);
        for possible in lnes.events() {
            if possible.node == page.tree.root() {
                continue;
            }
            prop_assert!(page.tree.is_effectively_visible(possible.node, &viewport));
        }
    }

    /// Energy accounting is additive: metering two intervals equals metering
    /// them separately.
    #[test]
    fn energy_metering_is_additive(ms_a in 1u64..500, ms_b in 1u64..500, cfg_idx in 0usize..17) {
        use pes::acmp::{ActivityKind, EnergyMeter};
        use std::sync::Arc;
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let cfg = platform.configs()[cfg_idx % platform.configs().len()];
        let mut combined = EnergyMeter::with_plane(&platform, Arc::clone(&plane));
        combined.record_busy(&cfg, TimeUs::from_millis(ms_a + ms_b), ActivityKind::UsefulWork);
        let mut split = EnergyMeter::with_plane(&platform, plane);
        split.record_busy(&cfg, TimeUs::from_millis(ms_a), ActivityKind::UsefulWork);
        split.record_busy(&cfg, TimeUs::from_millis(ms_b), ActivityKind::UsefulWork);
        let diff = (combined.total().as_microjoules() - split.total().as_microjoules()).abs();
        prop_assert!(diff < 1.0, "difference {diff} uJ");
    }

    /// Frequencies snap onto the ladder and never exceed its bounds.
    #[test]
    fn frequency_snapping_stays_on_the_ladder(target in 0u32..3_000) {
        let platform = Platform::exynos_5410();
        for cluster in platform.clusters() {
            let snapped = cluster.snap_up(FreqMhz::new(target));
            prop_assert!(cluster.frequencies().contains(&snapped));
        }
    }
}

// ---------------------------------------------------------------------------
// Event fast-path differentials: the incremental DOM analyzer vs the
// full-rescan analyzer, and the precomputed DVFS ladder vs the direct model.
// ---------------------------------------------------------------------------

proptest! {
    /// Differential: the incremental analyzer produces identical viewport
    /// features and LNES type bitmasks to a full rescan over arbitrary
    /// interleavings of scroll, navigation-reset, menu-toggle and untracked
    /// DOM-mutation events, on arbitrarily shaped pages.
    #[test]
    fn incremental_analyzer_matches_full_rescan_over_event_sequences(
        nav_links in 1usize..6,
        articles in 0usize..12,
        menu_items in 0usize..6,
        text_height in 0i64..3_000,
        ops in proptest::collection::vec((0u8..5, 0usize..8, -1_500i64..3_000), 1..40),
    ) {
        let page = PageBuilder::new(360)
            .nav_bar(nav_links)
            .collapsible_menu(menu_items)
            .article_list(articles, true)
            .text_block(text_height)
            .build();
        let analyzer = DomAnalyzer::new();
        let mut inc = IncrementalAnalyzer::new();
        let mut tree = page.tree.clone();
        let mut vp = Viewport::phone();
        for (step, (op, pick, amount)) in ops.iter().enumerate() {
            match op {
                // Scroll by an arbitrary (possibly negative) delta.
                0 => vp.scroll_by(*amount),
                // Navigation: the viewport resets to the top of the page.
                1 => vp.scroll_to(0),
                // Menu toggle driven through the fast path, as the session
                // state drives it.
                2 | 3 if !page.menu_buttons.is_empty() => {
                    let button = page.menu_buttons[pick % page.menu_buttons.len()];
                    let effect = tree.node(button).unwrap().listener(EventType::Click).unwrap();
                    let CallbackEffect::ToggleVisibility(menu) = effect else {
                        panic!("menu buttons toggle");
                    };
                    let pre = tree.stamp();
                    let mut scratch_vp = vp;
                    std::sync::Arc::make_mut(&mut tree)
                        .apply_effect(effect, &mut scratch_vp)
                        .unwrap();
                    inc.note_toggle(pre, &tree, menu);
                }
                // An untracked mutation (the analyzer is not told): the
                // stamp guard must force a rebuild instead of serving stale
                // aggregates.
                4 if !page.links.is_empty() => {
                    let link = page.links[pick % page.links.len()];
                    let t = std::sync::Arc::make_mut(&mut tree);
                    let displayed = t.node(link).unwrap().is_displayed();
                    t.set_displayed(link, !displayed).unwrap();
                }
                _ => {}
            }
            prop_assert_eq!(
                inc.viewport_features(&tree, &vp),
                analyzer.viewport_features(&tree, &vp),
                "features diverged at step {} (op {}, scroll {})",
                step, op, vp.scroll_y()
            );
            prop_assert_eq!(
                inc.lnes_types(&tree, &vp),
                analyzer.lnes_types(&tree, &vp),
                "LNES mask diverged at step {} (op {}, scroll {})",
                step, op, vp.scroll_y()
            );
        }
    }

    /// Differential: ladder-evaluated latency/energy and the budget selector
    /// agree bit-for-bit with the direct per-call model (`CpuDemand::time_on`
    /// and the `support::dvfs` platform-table references) on random demands.
    #[test]
    fn dvfs_ladder_matches_direct_model_on_random_demands(
        mem_us in 0u64..2_000_000,
        kcycles in 0u64..5_000_000,
        budget_us in 0u64..4_000_000,
    ) {
        let platform = Platform::exynos_5410();
        let ladder = DvfsLadder::for_platform(&platform);
        let demand = CpuDemand::new(TimeUs::from_micros(mem_us), CpuCycles::new(kcycles * 1_000));
        let mut points = Vec::new();
        ladder.eval_into(&demand, &mut points);
        for (point, cfg) in points.iter().zip(platform.configs()) {
            prop_assert_eq!(point.time, demand.time_on(cfg));
            prop_assert!(
                point.energy_uj.to_bits()
                    == marginal_energy_reference(&platform, &demand, cfg).as_microjoules().to_bits()
            );
        }
        let budget = TimeUs::from_micros(budget_us);
        prop_assert_eq!(
            DvfsLadder::cheapest_within(&points, budget),
            cheapest_config_within_reference(&platform, &demand, budget)
        );
    }
}

/// Exhaustive ladder check: every configuration of both modelled platforms ×
/// a demand grid spanning idle pseudo-events to heavy page loads. The
/// precomputed ladder must reproduce the direct `CpuDemand::time_on` latency
/// and the platform-table marginal energy bit-for-bit — this is the lockdown
/// that lets the schedulers consume the ladder without any behavioural drift.
#[test]
fn ladder_is_exhaustively_bit_identical_to_the_direct_model() {
    let mem_grid_us = [0u64, 1, 137, 1_000, 5_000, 33_000, 200_000, 3_000_000];
    let cycle_grid = [
        0u64,
        999,
        25_000_000,
        120_000_000,
        300_000_000,
        1_400_000_000,
        7_000_000_000,
    ];
    for platform in [Platform::exynos_5410(), Platform::tx2_parker()] {
        let ladder = DvfsLadder::for_platform(&platform);
        let mut points = Vec::new();
        for &mem in &mem_grid_us {
            for &cycles in &cycle_grid {
                let demand = CpuDemand::new(TimeUs::from_micros(mem), CpuCycles::new(cycles));
                ladder.eval_into(&demand, &mut points);
                assert_eq!(points.len(), platform.configs().len());
                for (point, cfg) in points.iter().zip(platform.configs()) {
                    assert_eq!(point.config, *cfg);
                    assert_eq!(
                        point.time,
                        demand.time_on(cfg),
                        "latency drift on {} at ({mem}us, {cycles} cycles)",
                        cfg
                    );
                    assert_eq!(
                        point.energy_uj.to_bits(),
                        marginal_energy_reference(&platform, &demand, cfg)
                            .as_microjoules()
                            .to_bits(),
                        "energy drift on {} at ({mem}us, {cycles} cycles)",
                        cfg
                    );
                    assert_eq!(
                        ladder
                            .marginal_energy(&demand, cfg)
                            .as_microjoules()
                            .to_bits(),
                        marginal_energy_reference(&platform, &demand, cfg)
                            .as_microjoules()
                            .to_bits()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Solver equivalence properties: the optimised branch-and-bound vs the
// generic 0/1 ILP encoding and vs the retained pre-optimisation reference.
// ---------------------------------------------------------------------------

/// Builds a window from `(duration, cost)` seeds: each event offers a cheap
/// slow option and an expensive fast option, with staggered releases and a
/// per-event slack budget.
fn window_from_specs(specs: &[(u64, u64)], slack_ms: u64) -> ScheduleProblem {
    let items: Vec<ScheduleItem> = specs
        .iter()
        .enumerate()
        .map(|(i, (duration, cost))| ScheduleItem {
            release_us: i as u64 * 100_000,
            deadline_us: (i as u64 + 1) * 100_000 + slack_ms * 1_000,
            options: vec![
                ScheduleOption {
                    choice: 0,
                    duration_us: *duration,
                    cost: *cost as f64,
                },
                ScheduleOption {
                    choice: 1,
                    duration_us: duration / 3,
                    cost: *cost as f64 * 3.0,
                },
            ],
        })
        .collect();
    ScheduleProblem::new(0, items)
}

/// The schedule cost a generic 0/1 ILP assignment encodes, or `None` when
/// some event does not have exactly one option selected.
fn generic_schedule_cost(problem: &ScheduleProblem, assignment: &[bool]) -> Option<f64> {
    let mut offset = 0;
    let mut cost = 0.0;
    for item in problem.items() {
        let mut picked = (0..item.options.len()).filter(|j| assignment[offset + j]);
        let (Some(j), None) = (picked.next(), picked.next()) else {
            return None;
        };
        cost += item.options[j].cost;
        offset += item.options.len();
    }
    Some(cost)
}

proptest! {
    /// The specialised branch-and-bound and the generic 0/1 ILP encoding
    /// (Eqn. 2/4) agree on the optimal cost of feasible random instances.
    #[test]
    fn specialised_and_generic_ilp_agree_on_random_instances(
        specs in proptest::collection::vec((20_000u64..200_000, 1u64..9), 1..5),
        slack_ms in 150u64..1_500,
    ) {
        let problem = window_from_specs(&specs, slack_ms);
        let specialised = problem.solve().unwrap();
        if specialised.violations == 0 {
            // The generic encoding has hard deadline constraints, so it only
            // has a solution when the instance is feasible.
            let generic = to_generic_ilp(&problem).solve().unwrap();
            let generic_cost = generic_schedule_cost(&problem, &generic.assignment);
            prop_assert!(generic_cost.is_some(), "exactly one option per event");
            let generic_cost = generic_cost.unwrap();
            prop_assert!(
                (generic_cost - specialised.total_cost).abs() < 1e-6,
                "generic {generic_cost} vs specialised {}",
                specialised.total_cost
            );
        } else {
            prop_assert!(to_generic_ilp(&problem).solve().is_err(),
                "infeasible windows must have no generic ILP solution");
        }
    }

    /// The optimised solver (cached option order, greedy pruning cap,
    /// earliest-finish lower bound, scratch reuse) returns bit-identical
    /// schedules to the pre-optimisation reference search, never exploring
    /// more nodes.
    #[test]
    fn optimised_solver_is_bit_identical_to_reference(
        specs in proptest::collection::vec((15_000u64..350_000, 1u64..10), 1..6),
        slack_ms in 40u64..2_000,
    ) {
        let problem = window_from_specs(&specs, slack_ms);
        let optimised = problem.solve().unwrap();
        let reference = solve_reference(&problem).unwrap();
        prop_assert_eq!(&optimised.selected, &reference.selected);
        prop_assert_eq!(&optimised.choices, &reference.choices);
        prop_assert_eq!(&optimised.finish_us, &reference.finish_us);
        prop_assert_eq!(optimised.violations, reference.violations);
        prop_assert!(optimised.total_cost.to_bits() == reference.total_cost.to_bits(),
            "total cost must be bit-identical");
        prop_assert!(optimised.nodes_explored <= reference.nodes_explored);
    }

    /// Under a node budget, the anytime solve the PES runtime runs never
    /// returns a worse lexicographic `(violations, cost)` objective than the
    /// reference solver with a greedy fallback on budget exhaustion. The instances are PES-shaped: 17-option
    /// convex cost curves wide and tight enough that the 24 k-node budget
    /// genuinely engages the adaptive probe on the hard cases.
    #[test]
    fn adaptive_capped_solve_never_worse_than_reference_capped(
        n in 2u64..10,
        base_dur in 150_000u64..350_000,
        step in 5_000u64..15_000,
        slack_pct in 40u64..160,
        curve_tenths in 10u64..25,
    ) {
        let items: Vec<ScheduleItem> = (0..n)
            .map(|i| ScheduleItem {
                release_us: i * 60_000,
                deadline_us: (i + 1) * (base_dur * slack_pct / 100),
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: base_dur.saturating_sub(j as u64 * step),
                        cost: 1.0 + 0.25 * (j as f64).powf(curve_tenths as f64 / 10.0),
                    })
                    .collect(),
            })
            .collect();
        let problem = ScheduleProblem::new(0, items).with_node_limit(24_000);
        let mut scratch = SolveScratch::new();
        let mut optimised = ScheduleSolution::default();
        problem.solve_anytime_with(&mut scratch, &mut optimised).unwrap();
        let reference = solve_reference(&problem)
            .or_else(|_| problem.solve_greedy())
            .unwrap();
        prop_assert!(
            optimised.violations < reference.violations
                || (optimised.violations == reference.violations
                    && optimised.total_cost <= reference.total_cost + 1e-9),
            "adaptive capped objective ({}, {}) worse than reference capped ({}, {})",
            optimised.violations,
            optimised.total_cost,
            reference.violations,
            reference.total_cost
        );
    }
}

/// Lexicographic `(violations, cost)` dominance: `a` no worse than `b`.
fn lex_no_worse(a: &ScheduleSolution, b: &ScheduleSolution) -> bool {
    a.violations < b.violations
        || (a.violations == b.violations && a.total_cost <= b.total_cost + 1e-9)
}

/// Along `optimum`'s schedule, the coarse-time table's bound on the
/// remaining `(violations, cost)` of every suffix never exceeds the
/// suffix's true value (lexicographically).
fn coarse_bound_stays_within(problem: &ScheduleProblem, optimum: &ScheduleSolution) {
    let n = problem.items().len();
    let bounds = problem.coarse_time_bounds(optimum);
    prop_assert_eq!(bounds.len(), n + 1);
    for (k, &(bound_violations, bound_cost)) in bounds.iter().enumerate() {
        let violations = (k..n)
            .filter(|&i| optimum.finish_us[i] > problem.items()[i].deadline_us)
            .count();
        let cost: f64 = (k..n)
            .map(|i| problem.items()[i].options[optimum.selected[i]].cost)
            .sum();
        prop_assert!(
            bound_violations < violations || (bound_violations == violations && bound_cost <= cost),
            "item {}: bound ({}, {}) exceeds the remaining optimum ({}, {})",
            k,
            bound_violations,
            bound_cost,
            violations,
            cost
        );
    }
}

/// A PES/Oracle-shaped window: `n` events × 17-option convex cost curves
/// with randomised load, the shape the memo-ring bit-identity property
/// below exercises.
fn shaped_window(
    n: u64,
    base_dur: u64,
    step: u64,
    slack_pct: u64,
    curve_quarters: u64,
    release_gap: u64,
) -> Vec<ScheduleItem> {
    (0..n)
        .map(|i| ScheduleItem {
            release_us: i * release_gap,
            deadline_us: (i + 1) * (base_dur * slack_pct / 100),
            options: (0..17)
                .map(|j| ScheduleOption {
                    choice: j,
                    duration_us: base_dur.saturating_sub(j as u64 * step),
                    cost: 1.0 + 0.25 * curve_quarters as f64 * (j * j) as f64 / 16.0,
                })
                .collect(),
        })
        .collect()
}

/// Field-for-field bit identity of two schedules (total cost compared on
/// its bit pattern, not within an epsilon).
fn assert_bit_identical(a: &ScheduleSolution, b: &ScheduleSolution) {
    assert_eq!(&a.selected, &b.selected);
    assert_eq!(&a.choices, &b.choices);
    assert_eq!(&a.finish_us, &b.finish_us);
    assert_eq!(a.violations, b.violations);
    assert!(
        a.total_cost.to_bits() == b.total_cost.to_bits(),
        "total cost drifted: {} vs {}",
        a.total_cost,
        b.total_cost
    );
}

proptest! {
    /// The shape-tolerant memo ring's hit contract: re-posing a window that
    /// revalidates against a cached slot returns a schedule (and therefore
    /// energy) bit-identical to a cold solve of the same posed window —
    /// with decoy windows interleaved so the hit comes from a mid-ring
    /// slot.
    #[test]
    fn shape_tolerant_memo_hits_are_bit_identical_to_cold_solves(
        n in 6u64..=12,
        base_dur in 150_000u64..350_000,
        step in 5_000u64..15_000,
        slack_pct in 40u64..160,
        curve_quarters in 2u64..9,
        release_gap in 20_000u64..120_000,
        decoys in 1u64..4,
    ) {
        let items = shaped_window(n, base_dur, step, slack_pct, curve_quarters, release_gap);
        // The fingerprint the runtime would compute is opaque to the ring;
        // any deterministic value works as long as equal windows share it.
        let shape = items.iter().fold(n, |h, i| {
            h.wrapping_mul(0x100000001b3) ^ i.deadline_us ^ i.release_us.rotate_left(17)
        });
        let mut scratch = SolveScratch::new();

        let mut memo = SolveMemo::new();
        let nodes = memo.solve(&items, shape, 24_000, 0.01, &mut scratch).unwrap();
        prop_assert!(nodes > 0, "first pose must solve");
        let first = memo.solution().clone();

        // Decoy windows push the slot into the middle of the ring.
        for d in 0..decoys {
            let decoy = shaped_window(
                6 + d,
                base_dur / 2 + d * 10_000,
                step,
                slack_pct,
                curve_quarters,
                release_gap,
            );
            memo.solve(&decoy, shape ^ (d + 1), 24_000, 0.01, &mut scratch)
                .unwrap();
        }

        let hit_nodes = memo.solve(&items, shape, 24_000, 0.01, &mut scratch).unwrap();
        prop_assert_eq!(hit_nodes, 0, "the re-posed window must revalidate as a hit");
        let hit = memo.solution().clone();

        // A cold ring solving the same posed window answers bit-identically.
        let mut cold = SolveMemo::new();
        cold.solve(&items, shape, 24_000, 0.01, &mut scratch).unwrap();
        assert_bit_identical(&hit, &first);
        assert_bit_identical(&hit, cold.solution());
    }

    /// The ε incumbent-quality stop never weakens the anytime quality
    /// contract: with the runtime's default gap configured, a capped solve
    /// is still never lexicographically worse than the greedy schedule.
    #[test]
    fn incumbent_gap_stop_never_worse_than_greedy(
        n in 6u64..=12,
        base_dur in 150_000u64..350_000,
        step in 5_000u64..15_000,
        slack_pct in 40u64..160,
        curve_quarters in 2u64..9,
        release_gap in 20_000u64..120_000,
    ) {
        let items = shaped_window(n, base_dur, step, slack_pct, curve_quarters, release_gap);
        let problem = ScheduleProblem::new(0, items)
            .with_node_limit(24_000)
            .with_incumbent_gap(pes::core::INCUMBENT_GAP_EPSILON);
        let greedy = problem.solve_greedy().unwrap();
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        problem.solve_anytime_with(&mut scratch, &mut solution).unwrap();
        prop_assert!(
            lex_no_worse(&solution, &greedy),
            "ε-stopped anytime ({}, {}) worse than greedy ({}, {})",
            solution.violations, solution.total_cost, greedy.violations, greedy.total_cost
        );
    }
}

proptest! {
    /// The anytime solver's quality contract on PES/Oracle-shaped windows
    /// (6–12 events × 17-option convex cost curves, randomized load):
    ///
    /// * the capped solve's lexicographic `(violations, cost)` objective is
    ///   never worse than the greedy fallback's,
    /// * and never worse than the reference search under the same budget
    ///   with a greedy fallback at budget exhaustion (the cliff the anytime
    ///   tier replaces),
    /// * and when the depth-first search completes within the budget (the
    ///   exact tier), the schedule is bit-identical to `solve_reference`.
    ///
    /// Costs are multiples of 0.25 so all float comparisons are exact.
    #[test]
    fn anytime_capped_solve_never_worse_than_greedy_or_depth_first(
        n in 6u64..=12,
        base_dur in 150_000u64..350_000,
        step in 5_000u64..15_000,
        slack_pct in 40u64..160,
        curve_quarters in 2u64..9,
        release_gap in 20_000u64..120_000,
    ) {
        let items: Vec<ScheduleItem> = (0..n)
            .map(|i| ScheduleItem {
                release_us: i * release_gap,
                deadline_us: (i + 1) * (base_dur * slack_pct / 100),
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: base_dur.saturating_sub(j as u64 * step),
                        cost: 1.0 + 0.25 * curve_quarters as f64 * (j * j) as f64 / 16.0,
                    })
                    .collect(),
            })
            .collect();
        let problem = ScheduleProblem::new(0, items).with_node_limit(24_000);
        let mut scratch = SolveScratch::new();
        let mut anytime = ScheduleSolution::default();
        let tier = problem.solve_anytime_with(&mut scratch, &mut anytime).unwrap();
        prop_assert_eq!(anytime.selected.len(), n as usize);

        let greedy = problem.solve_greedy().unwrap();
        prop_assert!(
            lex_no_worse(&anytime, &greedy),
            "anytime ({}, {}) worse than greedy ({}, {})",
            anytime.violations, anytime.total_cost, greedy.violations, greedy.total_cost
        );

        // The pre-anytime capped behaviour: exact when the depth-first
        // search finishes, greedy otherwise.
        let depth_first = solve_reference(&problem)
            .or_else(|_| problem.solve_greedy())
            .unwrap();
        prop_assert!(
            lex_no_worse(&anytime, &depth_first),
            "anytime ({}, {}) worse than depth-first capped ({}, {})",
            anytime.violations, anytime.total_cost, depth_first.violations, depth_first.total_cost
        );

        if tier == SolveTier::Exact {
            // Exact tier: bit-identical to the pre-optimisation reference
            // search (given a budget large enough for the reference to
            // finish too — it explores at least as many nodes).
            let reference = solve_reference(&problem.clone().with_node_limit(2_000_000));
            if let Ok(reference) = reference {
                prop_assert_eq!(&anytime.selected, &reference.selected);
                prop_assert_eq!(&anytime.choices, &reference.choices);
                prop_assert_eq!(&anytime.finish_us, &reference.finish_us);
                prop_assert_eq!(anytime.violations, reference.violations);
                prop_assert!(
                    anytime.total_cost.to_bits() == reference.total_cost.to_bits(),
                    "exact-tier cost must be bit-identical to the reference"
                );
            }
        }
    }

    /// `solve` is the exact-only view of the anytime search: it succeeds
    /// exactly when the anytime tier is `Exact`, and then returns the same
    /// schedule. The windows are shaped like the capped properties above,
    /// where a 24 k-node budget finishes some searches and not others.
    #[test]
    fn solve_is_ok_exactly_when_the_anytime_tier_is_exact(
        n in 6u64..=12,
        base_dur in 150_000u64..350_000,
        step in 5_000u64..15_000,
        slack_pct in 40u64..160,
        curve_quarters in 2u64..9,
        release_gap in 20_000u64..120_000,
    ) {
        let items = shaped_window(n, base_dur, step, slack_pct, curve_quarters, release_gap);
        let problem = ScheduleProblem::new(0, items).with_node_limit(24_000);
        let mut scratch = SolveScratch::new();
        let mut anytime = ScheduleSolution::default();
        let tier = problem.solve_anytime_with(&mut scratch, &mut anytime).unwrap();
        match problem.solve() {
            Ok(exact) => {
                prop_assert_eq!(tier, SolveTier::Exact);
                prop_assert_eq!(exact, anytime);
            }
            Err(err) => {
                prop_assert_eq!(err, IlpError::NodeLimit(24_000));
                prop_assert_eq!(tier, SolveTier::Incumbent);
            }
        }
    }

    /// The coarse-time search's lower-bound table and its quality contract,
    /// on windows of up to 8 events × 17 options with nonzero releases and
    /// tight or infeasible deadlines:
    ///
    /// * along `solve_reference`'s optimal path, the table's bound on the
    ///   remaining `(violations, cost)` never exceeds the true remaining
    ///   value (lexicographically);
    /// * a coarse-time search that finishes within its budget (tier
    ///   `Incumbent` with budget to spare) has the optimal violation count
    ///   and a cost within `INCUMBENT_GAP_EPSILON` of the optimum;
    /// * the result is never worse than greedy.
    ///
    /// Every case also checks the bound on one fixed window at the top of
    /// the time range, where finishes saturate at `u64::MAX` and so meet a
    /// `u64::MAX` deadline.
    ///
    /// Costs are integers, so every penalised sum is exact.
    #[test]
    fn coarse_time_bound_is_admissible(
        shape in proptest::collection::vec(
            (1u64..150_000, 60_000u64..400_000, 0u64..25_000, 10u64..140),
            4..9
        ),
        options in 8usize..=17,
        curve in 1u64..9,
        start in 0u64..40_000,
    ) {
        let top_of_range = ScheduleProblem::new(0, [u64::MAX - 1, u64::MAX - 3]
            .map(|release_us| ScheduleItem {
                release_us,
                deadline_us: u64::MAX,
                options: vec![
                    ScheduleOption { choice: 0, duration_us: u64::MAX / 2, cost: 1.0 },
                    ScheduleOption { choice: 1, duration_us: 2, cost: 2.0 },
                ],
            })
            .to_vec());
        let optimum = solve_reference(&top_of_range).unwrap();
        prop_assert_eq!(optimum.violations, 0);
        coarse_bound_stays_within(&top_of_range, &optimum);

        let mut release = start;
        let items: Vec<ScheduleItem> = shape
            .iter()
            .map(|&(gap, base_dur, step, slack_pct)| {
                release += gap;
                ScheduleItem {
                    release_us: release,
                    deadline_us: release + base_dur * slack_pct / 100,
                    options: (0..options)
                        .map(|j| ScheduleOption {
                            choice: j,
                            duration_us: base_dur.saturating_sub(j as u64 * step).max(1),
                            cost: (1 + curve * (j * j) as u64) as f64,
                        })
                        .collect(),
                }
            })
            .collect();
        let budget = 4_096;
        let problem = ScheduleProblem::new(start, items)
            .with_node_limit(budget)
            .with_incumbent_gap(pes::core::INCUMBENT_GAP_EPSILON);
        let mut scratch = SolveScratch::new();
        let mut anytime = ScheduleSolution::default();
        let tier = problem.solve_anytime_with(&mut scratch, &mut anytime).unwrap();
        // The reference search gives up on the densest windows; the exact
        // solve, bit-identical to it wherever both finish, takes over there.
        let reference = solve_reference(&problem.clone().with_node_limit(500_000))
            .or_else(|_| problem.clone().with_node_limit(5_000_000).solve());
        if let Ok(optimum) = reference {
            coarse_bound_stays_within(&problem, &optimum);
            if tier == SolveTier::Incumbent && anytime.nodes_explored <= budget {
                prop_assert_eq!(anytime.violations, optimum.violations);
                prop_assert!(
                    anytime.total_cost - optimum.total_cost
                        <= pes::core::INCUMBENT_GAP_EPSILON * anytime.total_cost,
                    "finished coarse-time search cost {} not within ε of the optimum {}",
                    anytime.total_cost, optimum.total_cost
                );
            }
        }
        let greedy = problem.solve_greedy().unwrap();
        prop_assert!(
            lex_no_worse(&anytime, &greedy),
            "coarse-time result ({}, {}) worse than greedy ({}, {})",
            anytime.violations, anytime.total_cost, greedy.violations, greedy.total_cost
        );
    }

    /// The coarse-time table fills only the cells a schedule can reach;
    /// every cell a schedule does query equals the full-width fill's bit for
    /// bit. Windows of up to 8 events carry random `(duration, cost)` rows,
    /// so dominated options abound, and half of them sit at the top of the
    /// time range, ending in an event whose durations saturate every
    /// finish and one more event after it. The queried schedules are random picks (dominated options
    /// included), the greedy schedule and the solver's own.
    #[test]
    fn coarse_time_table_matches_the_full_fill_on_every_reachable_cell(
        shape in proptest::collection::vec(
            (
                0u64..300_000,
                10u64..200,
                proptest::collection::vec((1u64..400_000, 1u64..60), 1..18),
            ),
            1..9
        ),
        start in 0u64..40_000,
        hostile in 0u8..2,
        picks in proptest::collection::vec(
            proptest::collection::vec(0u16..u16::MAX, 9..10),
            4..5
        ),
    ) {
        let hostile = hostile == 1;
        let base = if hostile { u64::MAX / 2 } else { 0 };
        let mut release = base + start;
        let mut items: Vec<ScheduleItem> = shape
            .iter()
            .map(|(gap, slack_pct, row)| {
                release += gap;
                let slowest = row.iter().map(|&(d, _)| d).max().unwrap_or(0);
                ScheduleItem {
                    release_us: release,
                    deadline_us: release + slowest * slack_pct / 100,
                    options: row
                        .iter()
                        .enumerate()
                        .map(|(j, &(duration_us, cost))| ScheduleOption {
                            choice: j,
                            duration_us,
                            cost: cost as f64,
                        })
                        .collect(),
                }
            })
            .collect();
        if hostile {
            let top = |release_us, options: [(u64, f64); 2]| ScheduleItem {
                release_us,
                deadline_us: u64::MAX,
                options: options
                    .iter()
                    .enumerate()
                    .map(|(choice, &(duration_us, cost))| ScheduleOption {
                        choice,
                        duration_us,
                        cost,
                    })
                    .collect(),
            };
            items.push(top(u64::MAX - 1, [(u64::MAX, 1.0), (u64::MAX - 7, 2.0)]));
            items.push(top(u64::MAX - 3, [(5, 3.0), (1, 4.0)]));
        }
        let problem = ScheduleProblem::new(base + start, items)
            .with_node_limit(4_096)
            .with_incumbent_gap(pes::core::INCUMBENT_GAP_EPSILON);
        let mut schedules: Vec<ScheduleSolution> = picks
            .iter()
            .map(|pick| {
                let mut cursor = problem.start_us();
                let mut schedule = ScheduleSolution::default();
                for (item, &p) in problem.items().iter().zip(pick.iter().cycle()) {
                    let sel = p as usize % item.options.len();
                    cursor = cursor.max(item.release_us)
                        .saturating_add(item.options[sel].duration_us);
                    schedule.selected.push(sel);
                    schedule.finish_us.push(cursor);
                }
                schedule
            })
            .collect();
        schedules.push(problem.solve_greedy().unwrap());
        let mut solved = ScheduleSolution::default();
        problem.solve_anytime_with(&mut SolveScratch::new(), &mut solved).unwrap();
        schedules.push(solved);
        for schedule in &schedules {
            let reachable = problem.coarse_time_bounds(schedule);
            let full = coarse_time_bounds_reference(&problem, schedule);
            prop_assert_eq!(reachable.len(), full.len());
            for (k, (a, b)) in reachable.iter().zip(&full).enumerate() {
                prop_assert!(
                    a.0 == b.0 && a.1.to_bits() == b.1.to_bits(),
                    "item {} of schedule {:?}: reachable fill {:?} vs full fill {:?}",
                    k, schedule.selected, a, b
                );
            }
        }
    }

    /// Plane-routed energy metering is bit-identical to the plane-less
    /// reference meter (`support::dvfs`) over random interleavings of busy/idle/transition
    /// samples: totals and activity-kind breakdowns.
    #[test]
    fn plane_routed_energy_metering_matches_the_reference_path(
        samples in proptest::collection::vec(
            (0usize..17, 0u64..3, 0u64..2_000_000),
            1..60
        ),
    ) {
        use std::sync::Arc;
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let mut routed = EnergyMeter::with_plane(&platform, Arc::clone(&plane));
        let mut reference = ReferenceMeter::new(&platform);
        for (cfg_idx, kind, duration_us) in samples {
            let cfg = platform.configs()[cfg_idx % platform.configs().len()];
            let duration = TimeUs::from_micros(duration_us);
            match kind {
                0 => {
                    let activity = if duration_us % 2 == 0 {
                        ActivityKind::UsefulWork
                    } else {
                        ActivityKind::SpeculativeWaste
                    };
                    routed.record_busy(&cfg, duration, activity);
                    reference.record_busy(&cfg, duration, activity);
                }
                1 => {
                    routed.record_idle(&cfg, duration);
                    reference.record_idle(&cfg, duration);
                }
                _ => {
                    routed.record_transition(&cfg, duration);
                    reference.record_transition(&cfg, duration);
                }
            }
        }
        prop_assert!(
            routed.total().as_microjoules().to_bits()
                == reference.total().as_microjoules().to_bits(),
            "total energy drifted: {} vs {}",
            routed.total().as_microjoules(),
            reference.total().as_microjoules()
        );
        for kind in ActivityKind::ALL {
            prop_assert!(
                routed.for_activity(kind).as_microjoules().to_bits()
                    == reference.for_activity(kind).as_microjoules().to_bits(),
                "activity {:?} drifted", kind
            );
        }
    }
}

/// Exhaustive energy-identity check: every configuration of both modelled
/// platforms × a duration grid, for busy (both attributions), idle and
/// transition samples — the plane-routed meter must reproduce the reference
/// derivation bit for bit. This is the lockdown that lets the execution
/// engine meter through the frozen power plane without behavioural drift.
#[test]
fn energy_meter_plane_is_exhaustively_bit_identical_to_the_reference() {
    use std::sync::Arc;
    let duration_grid_us = [1u64, 137, 1_000, 33_000, 200_000, 3_000_000];
    for platform in [Platform::exynos_5410(), Platform::tx2_parker()] {
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let mut routed = EnergyMeter::with_plane(&platform, Arc::clone(&plane));
        let mut reference = ReferenceMeter::new(&platform);
        for cfg in platform.configs() {
            for &us in &duration_grid_us {
                let d = TimeUs::from_micros(us);
                routed.record_busy(cfg, d, ActivityKind::UsefulWork);
                reference.record_busy(cfg, d, ActivityKind::UsefulWork);
                routed.record_busy(cfg, d, ActivityKind::SpeculativeWaste);
                reference.record_busy(cfg, d, ActivityKind::SpeculativeWaste);
                routed.record_idle(cfg, d);
                reference.record_idle(cfg, d);
                routed.record_transition(cfg, d);
                reference.record_transition(cfg, d);
                assert_eq!(
                    routed.total().as_microjoules().to_bits(),
                    reference.total().as_microjoules().to_bits(),
                    "total drifted on {} at ({cfg}, {us}us)",
                    platform.name()
                );
            }
        }
        for kind in ActivityKind::ALL {
            assert_eq!(
                routed.for_activity(kind).as_microjoules().to_bits(),
                reference.for_activity(kind).as_microjoules().to_bits(),
                "activity {kind:?} drifted on {}",
                platform.name()
            );
        }
    }
}

/// The Fig. 2-like fixture of the solver's unit suite, checked end-to-end at
/// the workspace level: the optimised solver's exact tier must reproduce the
/// reference schedule exactly (the `nodes_explored` diagnostic aside, every
/// field of the two `ScheduleSolution`s is equal), and the generic 0/1 ILP
/// encoding must agree on its cost.
#[test]
fn optimised_solver_matches_reference_on_fig2_fixture() {
    let items = vec![
        ScheduleItem {
            release_us: 0,
            deadline_us: 3_000_000,
            options: vec![
                ScheduleOption {
                    choice: 0,
                    duration_us: 2_500_000,
                    cost: 10.0,
                },
                ScheduleOption {
                    choice: 1,
                    duration_us: 1_000_000,
                    cost: 25.0,
                },
            ],
        },
        ScheduleItem {
            release_us: 500_000,
            deadline_us: 1_800_000,
            options: vec![
                ScheduleOption {
                    choice: 0,
                    duration_us: 1_500_000,
                    cost: 8.0,
                },
                ScheduleOption {
                    choice: 1,
                    duration_us: 700_000,
                    cost: 20.0,
                },
            ],
        },
    ];
    let problem = ScheduleProblem::new(0, items);
    let optimised = problem.solve().unwrap();
    let reference = solve_reference(&problem).unwrap();
    assert_eq!(optimised.selected, reference.selected);
    assert_eq!(optimised.choices, reference.choices);
    assert_eq!(optimised.finish_us, reference.finish_us);
    assert_eq!(optimised.violations, reference.violations);
    assert_eq!(
        optimised.total_cost.to_bits(),
        reference.total_cost.to_bits()
    );
    assert!(optimised.nodes_explored <= reference.nodes_explored);
    assert_eq!(optimised.violations, 0, "the Fig. 2 window is feasible");
    assert_eq!(
        optimised.choices,
        vec![1, 1],
        "both events need their fast option"
    );
    // The feasible window has a generic 0/1 ILP solution of the same cost.
    let generic = to_generic_ilp(&problem).solve().unwrap();
    let generic_cost =
        generic_schedule_cost(&problem, &generic.assignment).expect("exactly one option per event");
    assert!((generic_cost - optimised.total_cost).abs() < 1e-6);
}

/// The reference search honours the window's node limit exactly as the
/// optimised solver does.
#[test]
fn reference_search_honours_the_node_limit() {
    let items: Vec<ScheduleItem> = (0..12)
        .map(|i| ScheduleItem {
            release_us: 0,
            deadline_us: 1_000_000,
            options: (0..8)
                .map(|j| ScheduleOption {
                    choice: j,
                    duration_us: 100 + j as u64,
                    cost: (i + j) as f64,
                })
                .collect(),
        })
        .collect();
    let problem = ScheduleProblem::new(0, items).with_node_limit(5);
    assert_eq!(problem.solve(), Err(IlpError::NodeLimit(5)));
    assert_eq!(solve_reference(&problem), Err(IlpError::NodeLimit(5)));
}

// ---------------------------------------------------------------------------
// Chaos tier: arbitrary fault schedules through the full PES replay. The
// fault plane is seeded and replayable, so every property here is
// deterministic run-to-run despite exercising random fault schedules.
// ---------------------------------------------------------------------------

mod chaos {
    use super::*;
    use std::sync::{Arc, OnceLock};

    use pes::acmp::DvfsLadder;
    use pes::core::{FaultConfig, FaultPlane, PesConfig, PesScheduler, RunReport};
    use pes::predictor::{LearnerConfig, Trainer, TrainingConfig};
    use pes::webrt::QosPolicy;
    use pes::workload::{AppCatalog, Trace, TraceGenerator, EVAL_SEED_BASE};

    /// The shared seeded session every chaos case replays: one trained
    /// scheduler, one trace, one fault-free baseline report. Built once —
    /// training dominates the cost of the whole module otherwise.
    struct Fixture {
        platform: pes::acmp::Platform,
        plane: Arc<DvfsLadder>,
        page: pes::dom::BuiltPage,
        trace: Trace,
        pes: PesScheduler,
        qos: QosPolicy,
        baseline: RunReport,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let catalog = AppCatalog::paper_suite();
            let platform = pes::acmp::Platform::exynos_5410();
            let plane = Arc::new(DvfsLadder::for_platform(&platform));
            let qos = QosPolicy::paper_defaults();
            let app = catalog.find("cnn").unwrap();
            let page = app.build_page();
            let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 1);
            let learner = Trainer::with_config(TrainingConfig {
                traces_per_app: 3,
                epochs: 25,
                ..Default::default()
            })
            .train_learner(&catalog, LearnerConfig::paper_defaults());
            let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
            let baseline = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
            Fixture {
                platform,
                plane,
                page,
                trace,
                pes,
                qos,
                baseline,
            }
        })
    }

    fn replay(faults: &FaultPlane) -> RunReport {
        let f = fixture();
        f.pes.run_trace_with_plane_and_faults(
            &f.platform,
            &f.plane,
            &f.page,
            &f.trace,
            &f.qos,
            faults,
        )
    }

    /// The internal-consistency contract every report must satisfy no
    /// matter what the fault plane injected.
    fn assert_report_consistent(report: &RunReport, trace_len: usize) {
        // Event accounting: every delivered event (after queue faults) has
        // exactly one QoS outcome.
        assert_eq!(
            report.events,
            trace_len + report.fault_injections.duplicated_events
                - report.fault_injections.dropped_events,
            "queue-fault accounting must reconcile with the replayed events"
        );
        assert_eq!(report.outcomes.len(), report.events);
        // Energy identity: the meter integrates each sample into exactly
        // one activity kind, so the breakdown sums to the session total.
        let breakdown: f64 = report
            .energy_breakdown
            .iter()
            .map(|(_, e)| e.as_microjoules())
            .sum();
        assert!(
            (breakdown - report.total_energy.as_microjoules()).abs() < 0.5,
            "energy breakdown must sum to the total ({breakdown:.3} vs {:.3} µJ)",
            report.total_energy.as_microjoules()
        );
        // Ladder accounting: optimizer rounds only ever land on
        // Exact/Anytime/Greedy — a starved solve degrades to the greedy
        // floor, never below it — and every observed round is a memo
        // lookup (errored solves may skip the observation, never add one).
        let solves =
            report.degradation.exact + report.degradation.anytime + report.degradation.greedy;
        assert!(
            solves <= report.solver_cache_hits + report.solver_cache_misses,
            "solve-ladder entries must map onto memo lookups"
        );
        assert!(report.degradation.decisions() > 0);
    }

    proptest! {
        /// Chaos: an arbitrary fault schedule over every class at once
        /// never panics the replay, keeps the event and energy accounting
        /// internally consistent, and is deterministic — the same seeded
        /// plane replays to the bit.
        #[test]
        fn arbitrary_fault_schedules_replay_safely_and_deterministically(
            seed in 0u64..1_000_000_000,
            flip in 0.0f64..0.5,
            corrupt in 0.0f64..0.4,
            drift in 0.0f64..0.5,
            magnitude in 0.0f64..1.5,
            starvation in 0.0f64..1.0,
            rung_mask in 0u32..65_536,
            vsync in 0.0f64..0.4,
            dup in 0.0f64..0.3,
            drop in 0.0f64..0.3,
        ) {
            let faults = FaultPlane::new(FaultConfig {
                seed,
                prediction_flip: flip,
                confidence_corruption: corrupt,
                demand_drift: drift,
                drift_magnitude: magnitude,
                solver_starvation: starvation,
                rung_mask,
                vsync_delay: vsync,
                queue_duplicate: dup,
                queue_drop: drop,
            });
            let report = replay(&faults);
            assert_report_consistent(&report, fixture().trace.len());
            let again = replay(&faults);
            prop_assert_eq!(report.violations, again.violations);
            prop_assert_eq!(report.fault_injections, again.fault_injections);
            prop_assert_eq!(report.degradation, again.degradation);
            prop_assert!(
                report.total_energy.as_microjoules().to_bits()
                    == again.total_energy.as_microjoules().to_bits(),
                "a seeded fault plane must replay bit-identically"
            );
        }

        /// A zero-rate plane is inert regardless of its seed: the RNG
        /// stream is never drawn from, so the replay is bit-identical to
        /// the fault-free baseline.
        #[test]
        fn zero_rate_planes_are_bit_identical_to_the_baseline_for_any_seed(
            seed in 0u64..1_000_000_000,
        ) {
            let faults = FaultPlane::new(FaultConfig {
                seed,
                ..FaultConfig::disabled()
            });
            let report = replay(&faults);
            let base = &fixture().baseline;
            prop_assert_eq!(report.violations, base.violations);
            prop_assert_eq!(report.fault_injections.total(), 0);
            prop_assert_eq!(report.solver_cache_hits, base.solver_cache_hits);
            prop_assert!(
                report.total_energy.as_microjoules().to_bits()
                    == base.total_energy.as_microjoules().to_bits(),
                "an all-zero schedule must never perturb the replay"
            );
        }

        /// Bounded inflation for the vsync fault class: `commit` is pure
        /// QoS accounting, so each delayed frame can add at most one
        /// violation — with only vsync faults enabled, the violation count
        /// is bounded by the baseline plus the injection count.
        #[test]
        fn vsync_delays_inflate_violations_by_at_most_one_each(
            seed in 0u64..1_000_000_000,
            rate in 0.0f64..1.0,
        ) {
            let faults = FaultPlane::new(FaultConfig {
                seed,
                vsync_delay: rate,
                ..FaultConfig::disabled()
            });
            let report = replay(&faults);
            let base = &fixture().baseline;
            prop_assert_eq!(report.events, base.events, "vsync faults drop nothing");
            prop_assert!(
                report.violations <= base.violations + report.fault_injections.delayed_vsyncs,
                "violations {} exceed baseline {} + {} delayed frames",
                report.violations,
                base.violations,
                report.fault_injections.delayed_vsyncs
            );
            prop_assert!(report.violations + report.fault_injections.delayed_vsyncs >= base.violations,
                "a delayed frame can also only add violations, never remove more than itself");
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet resilience tier: breaker determinism and admission liveness.
// ---------------------------------------------------------------------------

mod fleet_resilience {
    use super::*;

    use pes::sim::{fleet_admission_dry_run, BreakerState, CircuitBreaker, FleetConfig, FleetSpec};

    proptest! {
        /// A circuit breaker fed an arbitrary seeded chaos schedule of
        /// outcomes, probes and batch ticks is deterministic (same schedule,
        /// same state trajectory, bit for bit) and only ever takes legal
        /// transitions: Closed→Open, Open→HalfOpen, HalfOpen→Open and
        /// HalfOpen→Closed.
        #[test]
        fn breaker_is_deterministic_and_transitions_stay_legal(
            ops in proptest::collection::vec((0u8..3, 0u8..2), 1..200),
        ) {
            let run = |ops: &[(u8, u8)]| {
                let mut breaker = CircuitBreaker::default();
                let mut states = vec![breaker.state()];
                for &(kind, bad) in ops {
                    let bad = bad == 1;
                    match kind {
                        0 => breaker.record(bad),
                        1 => breaker.record_probe(bad),
                        _ => breaker.end_batch(),
                    }
                    states.push(breaker.state());
                }
                (breaker, states)
            };
            let (a, states_a) = run(&ops);
            let (b, states_b) = run(&ops);
            prop_assert_eq!(&a, &b, "breaker must replay deterministically");
            prop_assert_eq!(&states_a, &states_b);
            prop_assert_eq!(a.history_letters(), b.history_letters());
            for pair in states_a.windows(2) {
                let legal = matches!(
                    (pair[0], pair[1]),
                    (x, y) if x == y
                ) || matches!(
                    (pair[0], pair[1]),
                    (BreakerState::Closed, BreakerState::Open)
                        | (BreakerState::Open, BreakerState::HalfOpen)
                        | (BreakerState::HalfOpen, BreakerState::Open)
                        | (BreakerState::HalfOpen, BreakerState::Closed)
                );
                prop_assert!(legal, "illegal transition {:?} -> {:?}", pair[0], pair[1]);
            }
        }

        /// Recovery liveness: however a breaker got tripped, a cooldown
        /// followed by clean probes always walks it Open → HalfOpen →
        /// Closed with a cleared window.
        #[test]
        fn clean_probes_always_close_a_tripped_breaker(
            outcomes in proptest::collection::vec(0u8..2, 0..64),
        ) {
            let mut breaker = CircuitBreaker::default();
            for bad in outcomes {
                breaker.record(bad == 1);
            }
            while breaker.state() == BreakerState::Closed {
                breaker.record(true);
            }
            prop_assert_eq!(breaker.state(), BreakerState::Open);
            for _ in 0..2 {
                prop_assert_eq!(breaker.state(), BreakerState::Open);
                breaker.end_batch();
            }
            prop_assert_eq!(breaker.state(), BreakerState::HalfOpen);
            for _ in 0..3 {
                prop_assert_eq!(breaker.state(), BreakerState::HalfOpen);
                breaker.record_probe(false);
            }
            prop_assert_eq!(breaker.state(), BreakerState::Closed);
            prop_assert_eq!(breaker.bad_in_window(), 0, "window cleared on close");
            prop_assert_eq!(breaker.history_letters(), "OHC");
        }

        /// Admission liveness: the full driver loop (arrivals, storms,
        /// bounded queue, shedding, batched admission) terminates for any
        /// spec/config, never deadlocks, conserves every session (served or
        /// deliberately shed, nothing lost), keeps the post-shed queue
        /// within its capacity, and is deterministic.
        #[test]
        fn fleet_admission_never_deadlocks_and_conserves_sessions(
            sessions in 0usize..4_000,
            seed in 0u64..u64::MAX,
            arrivals_per_step in 0usize..32,
            storm_every in 0usize..12,
            storm_arrivals in 0usize..256,
            batch_size in 0usize..64,
            queue_capacity in 0usize..128,
        ) {
            let spec = FleetSpec {
                sessions,
                seed,
                arrivals_per_step,
                storm_every,
                storm_arrivals,
                max_events_per_session: 0,
                scenario_cycle: 0,
            };
            let config = FleetConfig {
                batch_size,
                queue_capacity,
                ..FleetConfig::default()
            };
            let report = fleet_admission_dry_run(&spec, &config);
            prop_assert_eq!(
                report.completed + report.shed,
                sessions,
                "every session is either served or deliberately shed"
            );
            prop_assert!(report.peak_queue <= queue_capacity.max(1));
            prop_assert!(report.failures.is_empty(), "clean executor never quarantines");
            let again = fleet_admission_dry_run(&spec, &config);
            prop_assert_eq!(report, again, "admission arithmetic is deterministic");
        }
    }
}

/// The prediction round: a round cut at the first rejected type must be a
/// prefix of the unbounded round.
mod prediction_plane {
    use proptest::prelude::*;

    use pes::acmp::units::TimeUs;
    use pes::acmp::CpuDemand;
    use pes::dom::{EventType, EventTypeSet, PageBuilder};
    use pes::predictor::{
        EventSequenceLearner, LearnerConfig, LogisticModel, OneVsRestClassifier, PredictScratch,
        SessionState, FEATURE_DIM,
    };
    use pes::webrt::{EventId, WebEvent};

    const NUM_CLASSES: usize = EventType::ALL.len();

    fn classifier(weights: &[f64], biases: &[f64]) -> OneVsRestClassifier {
        let models = (0..NUM_CLASSES)
            .map(|c| {
                LogisticModel::from_coefficients(
                    weights[c * FEATURE_DIM..(c + 1) * FEATURE_DIM].to_vec(),
                    biases[c],
                )
            })
            .collect();
        OneVsRestClassifier::from_models(models, FEATURE_DIM)
    }

    fn mask_from_bits(bits: u8) -> EventTypeSet {
        let mut set = EventTypeSet::EMPTY;
        for (i, &event) in EventType::ALL.iter().enumerate() {
            if bits & (1 << i) != 0 {
                set.insert(event);
            }
        }
        set
    }

    fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            -3.0f64..3.0,
            NUM_CLASSES * FEATURE_DIM..NUM_CLASSES * FEATURE_DIM + 1,
        )
    }

    fn biases_strategy() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-2.0f64..2.0, NUM_CLASSES..NUM_CLASSES + 1)
    }

    proptest! {
        /// A round cut by `keep` is the unbounded round's longest prefix
        /// whose types `keep` accepts, and accepting everything is the
        /// unbounded round exactly. One scratch serves every round, as in
        /// the runtime, so a shorter round leaves the scratch session in a
        /// different state for the next.
        #[test]
        fn predict_sequence_while_is_the_kept_prefix_of_the_full_round(
            weights in weights_strategy(),
            biases in biases_strategy(),
            warmup in proptest::collection::vec(0usize..NUM_CLASSES, 0..6),
            threshold in 0.0f64..0.95,
            use_lnes in 0u8..2,
            keep_bits in 0u8..128,
        ) {
            let config = LearnerConfig::paper_defaults()
                .with_confidence_threshold(threshold)
                .with_lnes(use_lnes == 1);
            let learner = EventSequenceLearner::new(classifier(&weights, &biases), config);
            let page = PageBuilder::new(360)
                .nav_bar(3)
                .article_list(8, true)
                .text_block(2_500)
                .build();
            let mut state = SessionState::new(page.tree.clone());
            for (i, &class) in warmup.iter().enumerate() {
                state.observe(&WebEvent::new(
                    EventId::new(i as u64),
                    EventType::ALL[class],
                    None,
                    TimeUs::ZERO,
                    CpuDemand::ZERO,
                ));
            }
            let keep_set = mask_from_bits(keep_bits);

            let mut scratch = PredictScratch::new();
            let full = learner.predict_sequence_with(&state, &mut scratch).to_vec();
            let kept: Vec<_> = full
                .iter()
                .copied()
                .take_while(|p| keep_set.contains(p.event_type))
                .collect();
            let cut = learner
                .predict_sequence_while(&state, &mut scratch, |t| keep_set.contains(t))
                .to_vec();
            prop_assert_eq!(&cut, &kept);
            let unbounded = learner.predict_sequence_while(&state, &mut scratch, |_| true);
            prop_assert_eq!(unbounded, &full[..]);
        }
    }
}

/// PR 9 — the fleet-scale shared solve memo. The generation is a read-only
/// mirror of the per-replay ring: a shared hit must reproduce the cached
/// outcome *and* the ring's own bookkeeping, so every aggregate of a
/// shared-memo fleet run is bitwise identical to the same run with the
/// generation disabled — for any batch size, thread count, scenario cycle
/// and session count, including the empty fleet (nothing to publish) and the
/// single-session fleet (publish with no possible reuse).
mod shared_memo {
    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;

    use pes::acmp::{DvfsLadder, Platform};
    use pes::core::{FaultPlane, WatchdogConfig};
    use pes::predictor::{LearnerConfig, Trainer, TrainingConfig};
    use pes::sim::{
        run_fleet, ExperimentContext, FleetConfig, FleetRunReport, FleetSpec, ScenarioCache,
    };
    use pes::webrt::QosPolicy;
    use pes::workload::AppCatalog;

    /// One cheap context for the whole module (and the journal robustness
    /// cases); training dominates the cost of every case otherwise. Clean
    /// fault plane: the differential is about the memo mirror, not the
    /// degradation ladder.
    pub(super) fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| {
            let catalog = AppCatalog::paper_suite();
            let platform = Platform::exynos_5410();
            let power_plane = Arc::new(DvfsLadder::for_platform(&platform));
            ExperimentContext {
                platform,
                power_plane,
                qos: QosPolicy::paper_defaults(),
                learner: Trainer::with_config(TrainingConfig {
                    traces_per_app: 3,
                    epochs: 25,
                    ..Default::default()
                })
                .train_learner(&catalog, LearnerConfig::paper_defaults()),
                catalog,
                traces_per_app: 1,
                scenarios: ScenarioCache::build(&AppCatalog::paper_suite(), 2),
                faults: FaultPlane::none(),
            }
        })
    }

    fn assert_bitwise_equal(shared: &FleetRunReport, solo: &FleetRunReport) {
        assert_eq!(
            shared.energy_bits(),
            solo.energy_bits(),
            "energy must match to the bit"
        );
        assert_eq!(shared.violations, solo.violations);
        assert_eq!(shared.events, solo.events);
        assert_eq!(shared.completed, solo.completed);
        assert_eq!(shared.shed, solo.shed);
        assert_eq!(shared.retries, solo.retries);
        assert_eq!(shared.steps, solo.steps);
        assert_eq!(shared.batches, solo.batches);
        assert_eq!(shared.peak_queue, solo.peak_queue);
        assert_eq!(shared.degradation, solo.degradation);
        assert_eq!(shared.injections, solo.injections);
        assert_eq!(shared.watchdog_trips, solo.watchdog_trips);
        assert_eq!(shared.breaker_histories, solo.breaker_histories);
        assert_eq!(shared.breaker_finals, solo.breaker_finals);
        assert_eq!(shared.failures.len(), solo.failures.len());
        // The mirror contract proper: the per-replay solver counters the
        // generation must never perturb.
        assert_eq!(shared.solver_nodes, solo.solver_nodes);
        assert_eq!(shared.memo_hits, solo.memo_hits);
        assert_eq!(shared.memo_misses, solo.memo_misses);
    }

    proptest! {
        #[test]
        fn shared_memo_fleet_is_bitwise_identical_to_per_replay(
            sessions in 0usize..=5,
            seed in 0u64..u64::MAX,
            batch_size in 1usize..=4,
            threads in 1usize..=3,
            scenario_cycle in 0usize..=3,
        ) {
            let spec = FleetSpec {
                sessions,
                seed,
                arrivals_per_step: 3,
                storm_every: 0,
                storm_arrivals: 0,
                max_events_per_session: 6,
                scenario_cycle,
            };
            let shared_cfg = FleetConfig {
                batch_size,
                queue_capacity: 16,
                threads,
                watchdog: WatchdogConfig::disabled(),
                ..FleetConfig::default()
            };
            let solo_cfg = FleetConfig {
                shared_memo: false,
                ..shared_cfg.clone()
            };
            let shared = run_fleet(ctx(), &spec, &shared_cfg);
            let solo = run_fleet(ctx(), &spec, &solo_cfg);
            assert_bitwise_equal(&shared, &solo);
            assert_eq!(
                (solo.shared_hits, solo.shared_lookups),
                (0, 0),
                "a per-replay run must never consult the generation"
            );
            prop_assert!(
                shared.shared_hits <= shared.shared_lookups,
                "hits cannot exceed lookups"
            );
        }

        /// Admission is decided from per-batch sums, so the shared counters
        /// — and which windows were probed at all — do not depend on the
        /// worker count. Specs run for enough batches that unique traffic
        /// turns the generation dormant; cycled ones keep it admitted.
        #[test]
        fn shared_memo_admission_is_thread_count_independent(
            sessions in 24usize..=40,
            seed in 0u64..u64::MAX,
            batch_size in 2usize..=4,
            scenario_cycle in 0usize..=3,
        ) {
            let spec = FleetSpec {
                sessions,
                seed,
                arrivals_per_step: 4,
                storm_every: 0,
                storm_arrivals: 0,
                max_events_per_session: 10,
                // 0 is unique traffic; 1..=3 repeat a few configurations.
                scenario_cycle,
            };
            let config = |threads, shared_memo| FleetConfig {
                batch_size,
                queue_capacity: 64,
                threads,
                watchdog: WatchdogConfig::disabled(),
                shared_memo,
                ..FleetConfig::default()
            };
            let solo = run_fleet(ctx(), &spec, &config(1, false));
            let counters =
                |r: &FleetRunReport| (r.shared_hits, r.shared_lookups, r.shared_probes);
            let one = run_fleet(ctx(), &spec, &config(1, true));
            let three = run_fleet(ctx(), &spec, &config(3, true));
            prop_assert_eq!(counters(&one), counters(&three));
            for shared in [&one, &three] {
                assert_bitwise_equal(shared, &solo);
                prop_assert_eq!(shared.shared_lookups, shared.memo_misses);
                prop_assert!(shared.shared_hits <= shared.shared_probes);
                prop_assert!(shared.shared_probes <= shared.shared_lookups);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Warm-thread determinism: each thread carries one run scratch from replay to
// replay, so a replay on a thread that already served another session must
// match the same replay on a fresh thread, bit for bit.
// ---------------------------------------------------------------------------

mod warm_scratch {
    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;

    use pes::acmp::{DvfsLadder, Platform};
    use pes::core::{
        DegradationLevel, FaultConfig, FaultPlane, OracleScheduler, PesConfig, PesScheduler,
        RunReport, SolveGeneration, SolveShard,
    };
    use pes::dom::BuiltPage;
    use pes::predictor::{EventSequenceLearner, LearnerConfig, Trainer, TrainingConfig};
    use pes::webrt::QosPolicy;
    use pes::workload::{AppCatalog, Trace, TraceGenerator, EVAL_SEED_BASE};

    struct Fixture {
        catalog: AppCatalog,
        platform: Platform,
        plane: Arc<DvfsLadder>,
        qos: QosPolicy,
        learner: EventSequenceLearner,
    }

    /// Training dominates the cost of every case otherwise.
    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let catalog = AppCatalog::paper_suite();
            let platform = Platform::exynos_5410();
            let plane = Arc::new(DvfsLadder::for_platform(&platform));
            let learner = Trainer::with_config(TrainingConfig {
                traces_per_app: 3,
                epochs: 25,
                ..Default::default()
            })
            .train_learner(&catalog, LearnerConfig::paper_defaults());
            Fixture {
                catalog,
                platform,
                plane,
                qos: QosPolicy::paper_defaults(),
                learner,
            }
        })
    }

    /// How a session is served.
    enum Policy {
        Oracle(OracleScheduler),
        Pes {
            pes: PesScheduler,
            faults: FaultPlane,
            /// A generation published from this session's own cold solves,
            /// so the replay serves windows through shared pointers.
            shared: Option<SolveGeneration>,
        },
    }

    /// One replay, prepared up front so that every replay a thread runs is
    /// a measured one (the shared generation's own replay runs elsewhere).
    struct Session {
        page: BuiltPage,
        trace: Trace,
        policy: Policy,
    }

    impl Session {
        /// `policy` 0 is the Oracle; otherwise PES at tier `tier` (mostly
        /// `Exact`), with a non-zero fault plane when bit 0 of `fault_seed`
        /// is set and a shared generation when bit 1 is.
        fn new(app: usize, seed: u64, policy: u8, tier: usize, fault_seed: u64) -> Self {
            let f = fixture();
            let app = &f.catalog.apps()[app % f.catalog.len()];
            let page = app.build_page();
            let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + seed);
            let policy = if policy == 0 {
                Policy::Oracle(OracleScheduler::new())
            } else {
                let tier = DegradationLevel::ALL[tier.saturating_sub(3)];
                let config = PesConfig::paper_defaults().with_forced_tier(tier);
                let pes = PesScheduler::new(f.learner.clone(), config);
                let faults = if fault_seed & 1 == 1 {
                    FaultPlane::new(FaultConfig {
                        seed: fault_seed,
                        prediction_flip: 0.1,
                        confidence_corruption: 0.1,
                        demand_drift: 0.2,
                        drift_magnitude: 0.5,
                        solver_starvation: 0.2,
                        rung_mask: 0b101,
                        vsync_delay: 0.1,
                        queue_duplicate: 0.05,
                        queue_drop: 0.05,
                    })
                } else {
                    FaultPlane::none()
                };
                let shared = (fault_seed & 2 == 2).then(|| {
                    let mut shard = SolveShard::new();
                    pes.run_trace_with_shared_memo(
                        &f.platform,
                        &f.plane,
                        &page,
                        &trace,
                        &f.qos,
                        &faults,
                        &SolveGeneration::empty(),
                        &mut shard,
                    );
                    SolveGeneration::publish(&SolveGeneration::empty(), &[shard], 64)
                });
                Policy::Pes {
                    pes,
                    faults,
                    shared,
                }
            };
            Session {
                page,
                trace,
                policy,
            }
        }

        fn replay(&self) -> RunReport {
            let f = fixture();
            match &self.policy {
                Policy::Oracle(oracle) => oracle.run_trace_with_plane(
                    &f.platform,
                    &f.plane,
                    &self.page,
                    &self.trace,
                    &f.qos,
                ),
                Policy::Pes {
                    pes,
                    faults,
                    shared: Some(generation),
                } => pes.run_trace_with_shared_memo(
                    &f.platform,
                    &f.plane,
                    &self.page,
                    &self.trace,
                    &f.qos,
                    faults,
                    generation,
                    &mut SolveShard::new(),
                ),
                Policy::Pes {
                    pes,
                    faults,
                    shared: None,
                } => pes.run_trace_with_plane_and_faults(
                    &f.platform,
                    &f.plane,
                    &self.page,
                    &self.trace,
                    &f.qos,
                    faults,
                ),
            }
        }
    }

    proptest! {
        /// Replaying a chain of sessions on one thread gives each session
        /// the report it gets on a fresh thread. Consecutive sessions come
        /// from different apps, under any mix of PES (forced tiers, fault
        /// planes, shared generations) and the Oracle.
        #[test]
        fn warm_thread_replays_match_fresh_thread_replays(
            chain in collection::vec(
                (1usize..18, 0u64..64, 0u8..3, 0usize..8, 0u64..1_000_000),
                2..5,
            ),
        ) {
            let mut app = 0;
            let sessions: Vec<Session> = chain
                .iter()
                .map(|&(app_offset, seed, policy, tier, fault_seed)| {
                    app += app_offset;
                    Session::new(app, seed, policy, tier, fault_seed)
                })
                .collect();
            let warm: Vec<RunReport> = std::thread::scope(|s| {
                s.spawn(|| sessions.iter().map(Session::replay).collect())
                    .join()
                    .expect("warm replays panicked")
            });
            for (k, (session, warm)) in sessions.iter().zip(&warm).enumerate() {
                let fresh = std::thread::scope(|s| {
                    s.spawn(|| session.replay()).join().expect("fresh replay panicked")
                });
                if k > 0 {
                    prop_assert!(sessions[k - 1].trace.app() != session.trace.app());
                }
                prop_assert_eq!(
                    warm.total_energy.as_microjoules().to_bits(),
                    fresh.total_energy.as_microjoules().to_bits(),
                    "session {} of {:?}",
                    k,
                    chain
                );
                prop_assert_eq!(warm, &fresh, "session {} of {:?}", k, chain);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine floor: the O(1) violation counter and the VSync presentation rule
// hold over arbitrary engine operation sequences.
// ---------------------------------------------------------------------------

mod engine_floor {
    use super::*;

    use pes::core::{FaultConfig, FaultPlane};
    use pes::webrt::{EventId, ExecutionEngine, ExecutionRecord, QosPolicy, WebEvent};

    const EVENT_TYPES: [EventType; 5] = [
        EventType::Load,
        EventType::Click,
        EventType::Scroll,
        EventType::TouchMove,
        EventType::Navigate,
    ];

    /// Refresh periods `set_vsync` draws from: 60, 120, 90 and 30 Hz.
    const PERIODS_US: [u64; 4] = [16_667, 8_333, 11_111, 33_333];

    pub(super) fn event(id: u64, ty_idx: usize, arrival_us: u64, mcycles: u64) -> WebEvent {
        WebEvent::new(
            EventId::new(id),
            EVENT_TYPES[ty_idx % EVENT_TYPES.len()],
            None,
            TimeUs::from_micros(arrival_us),
            CpuDemand::new(
                TimeUs::from_millis(5),
                CpuCycles::new((1 + mcycles) * 1_000_000),
            ),
        )
    }

    proptest! {
        /// Over arbitrary interleavings of idle / switch / execute / commit
        /// / speculate / squash / refresh-rate operations — with late-vsync
        /// fault injections perturbing commit times through the real
        /// `FaultPlane` — after every operation the engine's violation
        /// counter equals a scan of its outcome log, and every committed
        /// frame is displayed at the first VSync (of the clock in force at
        /// its commit) at or after both its readiness and its input.
        #[test]
        fn violation_counter_and_vsync_presentation_hold_after_every_op(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..17, 0u64..200, 0usize..5, 1u64..400),
                1..50
            ),
            fault_seed in 0u64..1_000_000_000,
            vsync_rate in 0.0f64..0.6,
        ) {
            let platform = Platform::exynos_5410();
            let plane = std::sync::Arc::new(DvfsLadder::for_platform(&platform));
            let mut engine =
                ExecutionEngine::with_plane(&platform, QosPolicy::paper_defaults(), plane);
            let faults = FaultPlane::new(FaultConfig {
                seed: fault_seed,
                vsync_delay: vsync_rate,
                ..FaultConfig::disabled()
            });
            let mut fault_session = faults.session();

            // Per committed outcome: the instant its frame became visible
            // (`max(frame_ready_at, arrival)`) and the period in force.
            let mut visible: Vec<(TimeUs, u64)> = Vec::new();
            let mut pending: Vec<(WebEvent, ExecutionRecord)> = Vec::new();
            let mut next_id = 0u64;
            for (op, cfg_idx, delta_ms, ty_idx, mcycles) in ops {
                let cfg = platform.configs()[cfg_idx % platform.configs().len()];
                let mut commit = |engine: &mut ExecutionEngine<'_>, ev: &WebEvent, ready: TimeUs| {
                    let period = engine.vsync().period().as_micros();
                    engine.commit(ev, ready);
                    visible.push((ready.max(ev.arrival()), period));
                };
                match op {
                    // Idle forward from the CPU-free horizon.
                    0 => {
                        let until = engine.cpu_free_at() + TimeUs::from_millis(delta_ms);
                        engine.idle_until(until);
                    }
                    // DVFS / migration switch.
                    1 => engine.switch_config(&cfg),
                    // Execute + commit immediately (the reactive shape),
                    // with the commit time possibly pushed by a late-vsync
                    // fault exactly as the proactive runtime does it.
                    2 | 3 => {
                        let arrival = engine.cpu_free_at().as_micros() + delta_ms * 1_000;
                        let ev = event(next_id, ty_idx, arrival, mcycles);
                        next_id += 1;
                        let record = engine.execute_event(&ev, &cfg, false);
                        let period = engine.vsync().period();
                        let ready = fault_session.delay_vsync(record.frame_ready_at, period);
                        commit(&mut engine, &ev, ready);
                    }
                    // Speculative execution: the frame parks in the PFB.
                    4 => {
                        let arrival = engine.cpu_free_at().as_micros() + 50_000;
                        let ev = event(next_id, ty_idx, arrival, mcycles);
                        next_id += 1;
                        let record = engine.execute_event(&ev, &cfg, true);
                        pending.push((ev, record));
                    }
                    // Refresh-rate change mid-replay.
                    5 => engine.set_vsync(VsyncClock::with_period(TimeUs::from_micros(
                        PERIODS_US[cfg_idx % PERIODS_US.len()],
                    ))),
                    // Resolve one parked frame: commit it or squash it.
                    _ => {
                        if let Some((ev, record)) = pending.pop() {
                            if delta_ms % 2 == 0 {
                                commit(&mut engine, &ev, record.frame_ready_at);
                            } else {
                                engine.account_squashed_frame(&record);
                            }
                        }
                    }
                }
                let outcomes = engine.outcomes();
                prop_assert_eq!(
                    engine.violations(),
                    outcomes.iter().filter(|(_, o)| o.violated()).count()
                );
                prop_assert_eq!(outcomes.len(), visible.len());
                for ((_, outcome), &(from, period)) in outcomes.iter().zip(&visible) {
                    let shown = outcome.displayed_at.as_micros();
                    prop_assert_eq!(shown % period, 0, "{} is off the {} us grid", shown, period);
                    prop_assert!(shown >= from.as_micros(), "shown before it was visible");
                    prop_assert!(
                        shown < from.as_micros() + period,
                        "an earlier VSync already covered the frame"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame ledger: the engine's eager accounting is bit-identical to a reference
// accountant that re-derives every sample from the platform tables.
// ---------------------------------------------------------------------------

mod frame_ledger {
    use super::*;

    use super::engine_floor::event;
    use pes::acmp::TransitionModel;
    use pes::core::{FaultConfig, FaultPlane};
    use pes::webrt::{
        EventId, ExecutionEngine, ExecutionRecord, QosOutcome, QosPolicy, RenderPipeline, WebEvent,
    };

    /// An independent model of the engine's bookkeeping: the same time
    /// rules, with energy metered through the plane-less reference meter
    /// (the platform-table derivation) and VSync presentation computed from
    /// the clock directly.
    struct Reference<'p> {
        platform: &'p Platform,
        pipeline: RenderPipeline,
        transitions: TransitionModel,
        vsync: VsyncClock,
        qos: QosPolicy,
        meter: ReferenceMeter<'p>,
        config: AcmpConfig,
        free_at: TimeUs,
        outcomes: Vec<(EventId, QosOutcome)>,
    }

    impl<'p> Reference<'p> {
        fn new(platform: &'p Platform, qos: QosPolicy) -> Self {
            Reference {
                platform,
                pipeline: RenderPipeline::new(),
                transitions: TransitionModel::exynos_defaults(),
                vsync: VsyncClock::sixty_hz(),
                qos,
                meter: ReferenceMeter::new(platform),
                config: platform.min_power_config(),
                free_at: TimeUs::ZERO,
                outcomes: Vec::new(),
            }
        }

        fn idle_until(&mut self, until: TimeUs) {
            if until > self.free_at {
                self.meter.record_idle(&self.config, until - self.free_at);
                self.free_at = until;
            }
        }

        fn switch_config(&mut self, cfg: &AcmpConfig) {
            if *cfg == self.config {
                return;
            }
            let cost = self.transitions.cost(&self.config, cfg);
            self.meter.record_transition(cfg, cost);
            self.free_at += cost;
            self.config = *cfg;
        }

        fn execute(
            &mut self,
            ev: &WebEvent,
            cfg: &AcmpConfig,
            speculative: bool,
        ) -> ExecutionRecord {
            let earliest = if speculative {
                self.free_at
            } else {
                self.free_at.max(ev.arrival())
            };
            self.idle_until(earliest);
            self.switch_config(cfg);
            let start = self.free_at;
            let interaction = ev.event_type().interaction();
            let (busy, ready) = self
                .pipeline
                .execute_timing(&ev.demand(), interaction, cfg, start);
            self.meter.record_busy(cfg, busy, ActivityKind::UsefulWork);
            self.free_at = ready;
            ExecutionRecord {
                event: ev.id(),
                interaction,
                config: *cfg,
                started_at: start,
                frame_ready_at: ready,
                busy_time: busy,
                speculative,
            }
        }

        fn commit(&mut self, ev: &WebEvent, ready: TimeUs) -> QosOutcome {
            let outcome = QosOutcome {
                triggered_at: ev.arrival(),
                displayed_at: self.vsync.next_refresh_at_or_after(ready.max(ev.arrival())),
                target: self.qos.target_for_event(ev.event_type()),
            };
            self.outcomes.push((ev.id(), outcome));
            outcome
        }

        fn squash(&mut self, record: &ExecutionRecord) {
            let energy = execution_power_reference(self.platform, &record.config)
                .energy_over(record.busy_time);
            self.meter.reattribute_waste(energy);
        }
    }

    /// Asserts every observable of the engine agrees bit for bit with the
    /// reference accountant.
    fn assert_engine_matches(engine: &ExecutionEngine<'_>, reference: &Reference<'_>) {
        assert_eq!(
            engine.total_energy().as_microjoules().to_bits(),
            reference.meter.total().as_microjoules().to_bits(),
            "total energy drifted"
        );
        for kind in ActivityKind::ALL {
            assert_eq!(
                engine.energy_for(kind).as_microjoules().to_bits(),
                reference
                    .meter
                    .for_activity(kind)
                    .as_microjoules()
                    .to_bits(),
                "activity {kind:?} drifted"
            );
        }
        assert_eq!(
            engine.waste_fraction().to_bits(),
            reference.meter.speculative_waste_fraction().to_bits(),
            "waste fraction drifted"
        );
        assert_eq!(engine.outcomes(), &reference.outcomes[..]);
        assert_eq!(
            engine.violations(),
            reference
                .outcomes
                .iter()
                .filter(|(_, o)| o.violated())
                .count()
        );
        assert_eq!(engine.cpu_free_at(), reference.free_at);
        assert_eq!(engine.current_config(), reference.config);
        assert_eq!(*engine.vsync(), reference.vsync);
    }

    proptest! {
        /// Over arbitrary interleavings of idle / switch / execute / commit
        /// / speculate / squash operations — with late-vsync fault
        /// injections perturbing commit times through the real
        /// `FaultPlane` — the engine reports bit-identical energy (total,
        /// per-activity, waste fraction), identical execution records, QoS
        /// outcomes and violation counts to the reference accountant, at
        /// every step, not just at the end.
        #[test]
        fn ledger_engine_is_bit_identical_to_reference_accounting(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..17, 0u64..200, 0usize..5, 1u64..400),
                1..50
            ),
            fault_seed in 0u64..1_000_000_000,
            vsync_rate in 0.0f64..0.6,
        ) {
            let platform = Platform::exynos_5410();
            let plane = std::sync::Arc::new(DvfsLadder::for_platform(&platform));
            let qos = QosPolicy::paper_defaults();
            let mut engine = ExecutionEngine::with_plane(&platform, qos, plane);
            let mut reference = Reference::new(&platform, qos);
            let faults = FaultPlane::new(FaultConfig {
                seed: fault_seed,
                vsync_delay: vsync_rate,
                ..FaultConfig::disabled()
            });
            let mut fault_session = faults.session();

            let mut pending: Vec<(WebEvent, ExecutionRecord)> = Vec::new();
            let mut next_id = 0u64;
            for (op, cfg_idx, delta_ms, ty_idx, mcycles) in ops {
                let cfg = platform.configs()[cfg_idx % platform.configs().len()];
                match op {
                    // Idle forward from the CPU-free horizon.
                    0 => {
                        let until = engine.cpu_free_at() + TimeUs::from_millis(delta_ms);
                        engine.idle_until(until);
                        reference.idle_until(until);
                    }
                    // DVFS / migration switch.
                    1 => {
                        engine.switch_config(&cfg);
                        reference.switch_config(&cfg);
                    }
                    // Execute + commit immediately (the reactive shape),
                    // with the commit time possibly pushed by a late-vsync
                    // fault exactly as the proactive runtime does it.
                    2 | 3 => {
                        let arrival = engine.cpu_free_at().as_micros() + delta_ms * 1_000;
                        let ev = event(next_id, ty_idx, arrival, mcycles);
                        next_id += 1;
                        let a = engine.execute_event(&ev, &cfg, false);
                        let b = reference.execute(&ev, &cfg, false);
                        prop_assert_eq!(a, b, "execution records diverged");
                        let period = engine.vsync().period();
                        let ready = fault_session.delay_vsync(a.frame_ready_at, period);
                        let oa = engine.commit(&ev, ready);
                        let ob = reference.commit(&ev, ready);
                        prop_assert_eq!(oa, ob, "outcomes diverged");
                    }
                    // Speculative execution: the frame parks in the PFB.
                    4 => {
                        let arrival = engine.cpu_free_at().as_micros() + 50_000;
                        let ev = event(next_id, ty_idx, arrival, mcycles);
                        next_id += 1;
                        let a = engine.execute_event(&ev, &cfg, true);
                        let b = reference.execute(&ev, &cfg, true);
                        prop_assert_eq!(a, b);
                        pending.push((ev, a));
                    }
                    // Resolve one parked frame: commit it or squash it.
                    _ => {
                        if let Some((ev, record)) = pending.pop() {
                            if delta_ms % 2 == 0 {
                                let oa = engine.commit(&ev, record.frame_ready_at);
                                let ob = reference.commit(&ev, record.frame_ready_at);
                                prop_assert_eq!(oa, ob);
                            } else {
                                engine.account_squashed_frame(&record);
                                reference.squash(&record);
                            }
                        }
                    }
                }
                assert_engine_matches(&engine, &reference);
            }
        }
    }

    /// Engine-level cold-path coverage: the very first commit, a deep
    /// speculative backlog, and a refresh-interval change mid-replay all
    /// stay in lockstep with the reference accountant.
    #[test]
    fn engine_cold_paths_stay_in_lockstep_with_the_reference() {
        let platform = Platform::exynos_5410();
        let plane = std::sync::Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();
        let mut engine = ExecutionEngine::with_plane(&platform, qos, plane);
        let mut reference = Reference::new(&platform, qos);
        let max = platform.max_performance_config();

        // (1) Warmup: the very first commit, before any presentation.
        let ev = event(0, 1, 10_000, 80);
        let a = engine.execute_event(&ev, &max, false);
        let b = reference.execute(&ev, &max, false);
        assert_eq!(a, b);
        assert_eq!(
            engine.commit(&ev, a.frame_ready_at),
            reference.commit(&ev, b.frame_ready_at)
        );
        assert_engine_matches(&engine, &reference);

        // (2) Saturated pending-commit backlog: many speculative frames on
        // changing configurations before the next commit.
        let mut parked = Vec::new();
        for i in 0..12 {
            let ev = event(100 + i, (i % 5) as usize, 0, 30 + i);
            let cfg = platform.configs()[(i as usize) % platform.configs().len()];
            let ra = engine.execute_event(&ev, &cfg, true);
            let rb = reference.execute(&ev, &cfg, true);
            assert_eq!(ra, rb);
            parked.push((ev, ra));
        }
        for (ev, record) in parked {
            assert_eq!(
                engine.commit(&ev, record.frame_ready_at),
                reference.commit(&ev, record.frame_ready_at)
            );
            assert_engine_matches(&engine, &reference);
        }

        // (3) Refresh-interval change mid-replay: move both to a 120 Hz
        // panel; presentation must follow the new grid from the next commit.
        let fast_panel = VsyncClock::with_period(TimeUs::from_micros(8_333));
        engine.set_vsync(fast_panel);
        reference.vsync = fast_panel;
        for i in 0..4 {
            let ev = event(200 + i, 2, engine.cpu_free_at().as_micros() + 1_000, 2);
            let ra = engine.execute_event(&ev, &max, false);
            let rb = reference.execute(&ev, &max, false);
            assert_eq!(ra, rb);
            let outcome = engine.commit(&ev, ra.frame_ready_at);
            assert_eq!(outcome, reference.commit(&ev, rb.frame_ready_at));
            assert_eq!(outcome.displayed_at.as_micros() % 8_333, 0);
            assert_engine_matches(&engine, &reference);
        }
    }
}

// ---------------------------------------------------------------------------
// Parser robustness: mutated trace JSON and fleet journals never panic their
// readers.
// ---------------------------------------------------------------------------

/// Applies `(kind, position, byte)` edits: 0 truncates, 1 substitutes,
/// 2 inserts, 3 deletes. Positions wrap to the current length. Half the
/// time the byte is drawn from `grammar` instead, so edits hit the format's
/// structure rather than only scrambling values.
fn mutate(original: &[u8], grammar: &[u8], edits: &[(usize, usize, u8)]) -> Vec<u8> {
    let mut bytes = original.to_vec();
    for &(kind, pos, raw) in edits {
        let byte = if raw & 1 == 0 {
            grammar[usize::from(raw >> 1) % grammar.len()]
        } else {
            raw
        };
        let len = bytes.len();
        match kind {
            0 => bytes.truncate(pos % (len + 1)),
            1 if len > 0 => bytes[pos % len] = byte,
            2 => bytes.insert(pos % (len + 1), byte),
            3 if len > 0 => {
                bytes.remove(pos % len);
            }
            _ => {}
        }
    }
    bytes
}

mod trace_json_robustness {
    use super::*;
    use std::sync::OnceLock;

    use pes::workload::{AppCatalog, Trace, TraceGenerator};

    /// A generated trace and its JSON, built once for every case.
    fn original() -> &'static (Trace, String) {
        static ORIGINAL: OnceLock<(Trace, String)> = OnceLock::new();
        ORIGINAL.get_or_init(|| {
            let catalog = AppCatalog::paper_suite();
            let app = catalog.find("google").expect("google is in the suite");
            let trace = TraceGenerator::new().generate(app, &app.build_page(), 5);
            let json = trace.to_json().expect("a trace serialises");
            (trace, json)
        })
    }

    /// JSON punctuation, digits and literal letters for [`mutate`].
    const GRAMMAR: &[u8] = b"{}[]\":,.-+eE0123456789\\ntrufals ";

    proptest! {
        /// `Trace::from_json` over a mutated trace returns a typed error or
        /// a trace that round-trips — the original one when the text came
        /// out unchanged — and never panics.
        #[test]
        fn mutated_trace_json_parses_or_errors(
            edits in collection::vec((0usize..4, 0usize..1 << 20, 0u8..=255), 1..6),
        ) {
            let (trace, json) = original();
            // Every prefix of the edit list is a case of its own.
            for applied in 1..=edits.len() {
                let mutated = mutate(json.as_bytes(), GRAMMAR, &edits[..applied]);
                let text = String::from_utf8_lossy(&mutated);
                if let Ok(parsed) = Trace::from_json(&text) {
                    if text == json.as_str() {
                        prop_assert_eq!(&parsed, trace);
                    }
                    let json_again = parsed.to_json().expect("a parsed trace serialises");
                    prop_assert_eq!(Trace::from_json(&json_again), Ok(parsed));
                }
            }
        }
    }
}

mod journal_robustness {
    use super::*;
    use std::sync::OnceLock;

    use pes::sim::{
        resume_fleet, run_fleet_journaled, FleetConfig, FleetError, FleetRunReport, FleetSpec,
    };

    /// The record magic's letters, the journal's punctuation, the route
    /// letters, hex digits and the line break for [`mutate`].
    const GRAMMAR: &[u8] = b"PESFLEETJ6 =,:;#-FPRp0123456789abcdef\n";

    /// Eight four-event sessions in batches of two: four journal records.
    fn spec() -> FleetSpec {
        FleetSpec {
            sessions: 8,
            seed: 0x0B17_F11B,
            arrivals_per_step: 3,
            storm_every: 0,
            storm_arrivals: 0,
            max_events_per_session: 4,
            scenario_cycle: 0,
        }
    }

    fn config() -> FleetConfig {
        FleetConfig {
            batch_size: 2,
            threads: 1,
            ..FleetConfig::default()
        }
    }

    fn tmp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pes_props_{}_{tag}.journal", std::process::id()))
    }

    /// The uninterrupted run and the journal it wrote, built once.
    fn original() -> &'static (FleetRunReport, Vec<u8>) {
        static ORIGINAL: OnceLock<(FleetRunReport, Vec<u8>)> = OnceLock::new();
        ORIGINAL.get_or_init(|| {
            let path = tmp_journal("original");
            let report = run_fleet_journaled(super::shared_memo::ctx(), &spec(), &config(), &path)
                .expect("journaled run succeeds");
            let journal = std::fs::read(&path).expect("journal readable");
            std::fs::remove_file(&path).ok();
            (report, journal)
        })
    }

    fn last_line(journal: &[u8]) -> Option<&[u8]> {
        journal
            .split(|&b| b == b'\n')
            .rev()
            .find(|line| !line.is_empty())
    }

    /// `journal` with every line's checksum recomputed over its (possibly
    /// mutated) payload, so that an edit reaches the record's fields and the
    /// report fold instead of failing the checksum.
    fn rechecksummed(journal: &[u8]) -> Vec<u8> {
        let fnv1a = |payload: &str| {
            payload
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        String::from_utf8_lossy(journal)
            .split('\n')
            .map(|line| match line.rsplit_once(" #") {
                Some((payload, _)) => format!("{payload} #{:016x}", fnv1a(payload)),
                None => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes()
    }

    proptest! {
        /// `resume_fleet` over a truncated, byte-flipped or byte-inserted
        /// journal, with its checksums left stale or recomputed, never
        /// panics and never reports an IO error on a readable file. It
        /// either returns a typed journal error or resumes to a report that
        /// admits exactly what the uninterrupted run admitted. Under stale
        /// checksums, or when the recomputed journal is the original, that
        /// report is the uninterrupted run's, final record included.
        #[test]
        fn mutated_fleet_journal_resumes_or_errors(
            edits in collection::vec((0usize..3, 0usize..1 << 20, 0u8..=255), 1..4),
        ) {
            let (full, journal) = original();
            prop_assert!(full.batches >= 3, "the journal holds several records");
            let path = tmp_journal("mutated");
            let mutated = mutate(journal, GRAMMAR, &edits);
            for (recomputed, bytes) in [(false, mutated.clone()), (true, rechecksummed(&mutated))] {
                std::fs::write(&path, &bytes).expect("write journal");
                match resume_fleet(super::shared_memo::ctx(), &spec(), &config(), &path) {
                    Ok(resumed) => {
                        prop_assert_eq!(
                            (resumed.batches, resumed.steps, resumed.shed),
                            (full.batches, full.steps, full.shed)
                        );
                        prop_assert_eq!(
                            resumed.completed + resumed.failures.len() + resumed.shed,
                            resumed.sessions
                        );
                        if !recomputed || bytes == *journal {
                            prop_assert_eq!(resumed.energy_bits(), full.energy_bits());
                            prop_assert_eq!(resumed.violations, full.violations);
                            prop_assert_eq!(resumed.completed, full.completed);
                            let rewritten = std::fs::read(&path).expect("journal readable");
                            prop_assert_eq!(last_line(&rewritten), last_line(journal));
                        }
                    }
                    Err(FleetError::Io(msg)) => {
                        prop_assert!(false, "IO error on a readable journal: {}", msg)
                    }
                    Err(
                        FleetError::Corrupt(_)
                        | FleetError::JournalVersion { .. }
                        | FleetError::SpecMismatch(_),
                    ) => {}
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The solver's search trajectory, pinned window by window: tier, nodes
/// explored, selected options and the total cost's bit pattern. The
/// adaptive probe, the runtime's watchdog and every session golden read
/// `nodes_explored`, so a change to the search's speed must leave each of
/// these untouched; this golden says which window moved when one does.
mod solver_trajectory {
    use super::*;
    use support::windows::greedy_hostile_chain;
    use SolveTier::{Exact, Incumbent};

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded window of `n` events with DVFS-shaped rows: latency falls
    /// and energy rises with the configuration index, each with a few
    /// percent of jitter so that some options are dominated. Each deadline
    /// lies `slack_pct` percent of the event's slowest latency after its
    /// release.
    fn seeded_window(seed: u64, n: usize, slack_pct: u64) -> Vec<ScheduleItem> {
        let mut state = seed;
        let mut release = 0;
        (0..n)
            .map(|_| {
                release += splitmix(&mut state) % 250_000;
                let base = 60_000 + splitmix(&mut state) % 340_000;
                let options = (0..17)
                    .map(|j| {
                        let speed = 100 + 22 * j as u64 + splitmix(&mut state) % 15;
                        let jitter = 1.0 + (splitmix(&mut state) % 8) as f64 / 100.0;
                        ScheduleOption {
                            choice: j,
                            duration_us: base * 100 / speed,
                            cost: base as f64 / 1e4 * (1.0 + 0.05 * (j * j) as f64) * jitter,
                        }
                    })
                    .collect();
                ScheduleItem {
                    release_us: release,
                    deadline_us: release + base * slack_pct / 100,
                    options,
                }
            })
            .collect()
    }

    /// The pinned windows, each with its node budget and ε: PES-scale
    /// windows of 2–8 events under the narrow budget, Oracle-scale windows
    /// of 12 events under the wide budget (all but the loosest go
    /// hopeless and finish in the coarse-time search), and the
    /// greedy-hostile chain under both budgets.
    fn cases() -> Vec<ScheduleProblem> {
        let gap = pes::core::INCUMBENT_GAP_EPSILON;
        let narrow = pes::core::OPTIMIZER_NODE_LIMIT;
        let wide = pes::core::WIDE_WINDOW_NODE_LIMIT;
        let pes_scale = (0..14u64).map(|seed| {
            let slack = [40, 60, 80, 100][seed as usize % 4];
            (
                seeded_window(seed, 2 + seed as usize % 7, slack),
                narrow,
                gap,
            )
        });
        let oracle_scale = (0..10u64).map(|seed| {
            let slack = [40, 60, 80, 100, 400][seed as usize % 5];
            (seeded_window(100 + seed, 12, slack), wide, gap)
        });
        let hostile = [
            (greedy_hostile_chain(6), narrow, 0.0),
            (greedy_hostile_chain(6), wide, gap),
        ];
        pes_scale
            .chain(oracle_scale)
            .chain(hostile)
            .map(|(items, budget, gap)| {
                ScheduleProblem::new(0, items)
                    .with_node_limit(budget)
                    .with_incumbent_gap(gap)
            })
            .collect()
    }

    /// `(tier, nodes_explored, selected, total_cost bits)` per window of
    /// [`cases`], recorded before the solver's per-node work was cut.
    #[rustfmt::skip]
    const PINNED: [(SolveTier, usize, &[usize], u64); 26] = [
        (Exact, 69, &[9, 7], 0x407244015ccf0df0),
        (Exact, 52, &[4, 3, 3], 0x405689dce797536e),
        (Exact, 137, &[1, 2, 2, 1], 0x4057f7b950b955f8),
        (Exact, 6852, &[2, 5, 4, 5, 5], 0x4074622b961b5fd8),
        (Exact, 102, &[7, 7, 7, 7, 7, 7], 0x407d4db2d05f2885),
        (Incumbent, 6145, &[3, 4, 6, 5, 6, 5, 6], 0x4078c8d1343a9a2f),
        (Incumbent, 6145, &[1, 1, 4, 6, 4, 4, 4, 6], 0x407bcf0980b24207),
        (Exact, 52, &[1, 1], 0x4040fb8389217c52),
        (Exact, 52, &[7, 7, 0], 0x4062858ab8db7e41),
        (Exact, 2253, &[3, 9, 9, 8], 0x407d4c227631b585),
        (Exact, 324, &[2, 2, 1, 4, 2], 0x4064599c6342c577),
        (Exact, 2364, &[6, 5, 5, 4, 0, 0], 0x406890d0ba7d3ef0),
        (Exact, 4523, &[11, 10, 7, 13, 11, 7, 7], 0x4091f1568a9d7d54),
        (Incumbent, 6297, &[6, 5, 9, 11, 3, 6, 7, 4], 0x4086a3b26138fffd),
        (Incumbent, 3705, &[7, 7, 7, 5, 7, 8, 7, 9, 13, 11, 13, 7], 0x409465ed9e11ce5f),
        (Incumbent, 3607, &[3, 3, 7, 8, 8, 8, 11, 8, 4, 3, 3, 4], 0x408c3f37283ab1ac),
        (Incumbent, 2812, &[6, 6, 8, 9, 9, 14, 14, 12, 5, 6, 5, 4], 0x409a15252d44dcaa),
        (Incumbent, 3695, &[0, 0, 3, 12, 12, 12, 2, 5, 0, 0, 1, 1], 0x40880cc635108305),
        (Exact, 204, &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0x4071781c3ce2089e),
        (Incumbent, 3033, &[7, 8, 10, 15, 13, 16, 13, 7, 7, 7, 7, 7], 0x409e94b012f3f88a),
        (Incumbent, 6807, &[13, 16, 13, 13, 3, 12, 12, 14, 4, 3, 8, 7], 0x409d85dc8457e8f6),
        (Incumbent, 4189, &[5, 8, 1, 10, 10, 10, 10, 8, 4, 5, 5, 1], 0x40916d44f578bd81),
        (Incumbent, 6161, &[2, 3, 4, 6, 14, 13, 12, 13, 12, 13, 0, 0], 0x409bc386ff9f87f0),
        (Incumbent, 3067, &[0, 0, 0, 1, 2, 3, 2, 3, 3, 3, 2, 0], 0x407afc1a09f47588),
        (Incumbent, 6332, &[16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16], 0x4085fbe1bed06fbd),
        (Incumbent, 2931, &[16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16], 0x4085fbe1bed06fbd),
    ];

    #[test]
    fn golden_solver_trajectories_stay_pinned() {
        let problems = cases();
        assert_eq!(problems.len(), PINNED.len());
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        for (i, (problem, &(tier, nodes, selected, cost_bits))) in
            problems.iter().zip(&PINNED).enumerate()
        {
            let got = problem
                .solve_anytime_with(&mut scratch, &mut solution)
                .unwrap();
            assert_eq!(
                (got, solution.nodes_explored, solution.selected.as_slice()),
                (tier, nodes, selected),
                "window {i}: tier, nodes or selection moved"
            );
            assert_eq!(
                solution.total_cost.to_bits(),
                cost_bits,
                "window {i}: total cost moved"
            );
        }
        // The pins cover both tiers at both scales.
        assert!(PINNED[..14].iter().any(|p| p.0 == Exact));
        assert!(PINNED[..14].iter().any(|p| p.0 == Incumbent));
        assert!(PINNED[14..24].iter().any(|p| p.0 == Exact));
        assert!(PINNED[14..].iter().filter(|p| p.0 == Incumbent).count() >= 10);
    }
}
