//! The pre-optimisation branch-and-bound over a scheduling window, kept as
//! the validation reference for `ScheduleProblem::solve_anytime_with`:
//! per-call option sorting, suffix-cost-only pruning and an incumbent clone
//! per improvement. Property tests assert the optimised search returns
//! identical schedules; benches and the `bnb_speedup` example measure the
//! speedup against it.
//!
//! It also holds the full-width coarse-time table fill, the reference for
//! the solver's fill of the reachable cells only
//! ([`coarse_time_bounds_reference`]).

// Each includer uses a subset of the support code.
#![allow(dead_code)]

use pes_ilp::{IlpError, ScheduleProblem, ScheduleSolution};

/// Cost penalty per missed deadline, so that minimising the penalised cost
/// is lexicographic: first violations, then energy. The same constant as
/// the optimised solver's.
const VIOLATION_PENALTY: f64 = 1.0e15;

/// Time cells of the coarse-time table; the same constant as the optimised
/// solver's.
const DP_CELLS: u64 = 2048;

/// Solves `problem` exactly with the reference search, honouring its node
/// limit.
///
/// # Errors
///
/// Same as `ScheduleProblem::solve`: [`IlpError::EmptyProblem`] for a window
/// with no events or an event with no options, [`IlpError::NodeLimit`] when
/// the search does not finish within the node limit.
pub fn solve_reference(problem: &ScheduleProblem) -> Result<ScheduleSolution, IlpError> {
    let items = problem.items();
    if items.is_empty() || items.iter().any(|i| i.options.is_empty()) {
        return Err(IlpError::EmptyProblem);
    }
    let order: Vec<Vec<usize>> = items
        .iter()
        .map(|item| {
            let mut idx: Vec<usize> = (0..item.options.len()).collect();
            idx.sort_by(|&a, &b| {
                item.options[a]
                    .cost
                    .partial_cmp(&item.options[b].cost)
                    .expect("costs are finite")
            });
            idx
        })
        .collect();
    let mut suffix_min_cost = vec![0.0; items.len() + 1];
    for i in (0..items.len()).rev() {
        let min_cost = items[i]
            .options
            .iter()
            .map(|o| o.cost)
            .fold(f64::INFINITY, f64::min);
        suffix_min_cost[i] = suffix_min_cost[i + 1] + min_cost;
    }
    let mut search = ReferenceSearch {
        problem,
        order,
        suffix_min_cost,
        selected: vec![0; items.len()],
        best: None,
        nodes: 0,
    };
    search.branch(0, problem.start_us(), 0.0, 0)?;
    let (selected, penalised) = search
        .best
        .expect("at least one full assignment is explored");
    let violations = (penalised / VIOLATION_PENALTY).round() as usize;
    let mut finish_us = Vec::with_capacity(items.len());
    let mut cursor = problem.start_us();
    let mut total_cost = 0.0;
    let mut choices = Vec::with_capacity(items.len());
    for (item, &sel) in items.iter().zip(&selected) {
        let opt = item.options[sel];
        let start = cursor.max(item.release_us);
        cursor = start.saturating_add(opt.duration_us);
        finish_us.push(cursor);
        total_cost += opt.cost;
        choices.push(opt.choice);
    }
    Ok(ScheduleSolution {
        selected,
        choices,
        finish_us,
        total_cost,
        violations,
        nodes_explored: search.nodes,
    })
}

/// The reference search's state: the window, its cost-sorted option order
/// and suffix cost floors, the current assignment and the incumbent.
struct ReferenceSearch<'a> {
    problem: &'a ScheduleProblem,
    order: Vec<Vec<usize>>,
    suffix_min_cost: Vec<f64>,
    selected: Vec<usize>,
    best: Option<(Vec<usize>, f64)>,
    nodes: usize,
}

impl ReferenceSearch<'_> {
    fn branch(
        &mut self,
        index: usize,
        cursor_us: u64,
        cost: f64,
        violations: usize,
    ) -> Result<(), IlpError> {
        let problem = self.problem;
        self.nodes += 1;
        let node_limit = problem.node_limit();
        if self.nodes > node_limit {
            return Err(IlpError::NodeLimit(node_limit));
        }
        let penalised = cost + violations as f64 * VIOLATION_PENALTY;
        if let Some((_, best)) = &self.best {
            if penalised + self.suffix_min_cost[index] >= *best - 1e-9 {
                return Ok(());
            }
        }
        let items = problem.items();
        if index == items.len() {
            let better = match &self.best {
                Some((_, best)) => penalised < *best - 1e-9,
                None => true,
            };
            if better {
                self.best = Some((self.selected.clone(), penalised));
            }
            return Ok(());
        }
        let item = &items[index];
        for k in 0..self.order[index].len() {
            let opt_idx = self.order[index][k];
            let opt = item.options[opt_idx];
            let start = cursor_us.max(item.release_us);
            let finish = start.saturating_add(opt.duration_us);
            let missed = finish > item.deadline_us;
            self.selected[index] = opt_idx;
            self.branch(
                index + 1,
                finish,
                cost + opt.cost,
                violations + usize::from(missed),
            )?;
        }
        Ok(())
    }
}

/// `ScheduleProblem::coarse_time_bounds` from a table filled over every
/// cell, as the solver filled it before it skipped the cells no schedule
/// reaches. Entry `k` is `LB[k][cell]` at the time `solution` finishes item
/// `k - 1` (the window start for `k = 0`), split into `(violations, cost)`.
pub fn coarse_time_bounds_reference(
    problem: &ScheduleProblem,
    solution: &ScheduleSolution,
) -> Vec<(usize, f64)> {
    let items = problem.items();
    let start = problem.start_us();
    let n = items.len();
    let latest = items.iter().map(|i| i.deadline_us).max().unwrap_or(0);
    let horizon = latest.saturating_sub(start);
    let grid = horizon / DP_CELLS + 1;
    let overflow = (horizon / grid + 1) as usize;
    let width = overflow + 1;
    let cell = |t: u64| (t.saturating_sub(start) / grid).min(overflow as u64) as usize;
    let mut lb = vec![0.0; (n + 1) * width];
    for k in (0..n).rev() {
        let item = &items[k];
        // The non-dominated options in cost order, as the solver keeps them:
        // the cheapest, then each option faster than every cheaper one.
        let mut by_cost = item.options.clone();
        by_cost.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("costs are finite"));
        let mut fastest_so_far = None;
        let ranked: Vec<_> = by_cost
            .into_iter()
            .filter(|opt| {
                let keep = fastest_so_far.is_none_or(|f| opt.duration_us < f);
                if keep {
                    fastest_so_far = Some(opt.duration_us);
                }
                keep
            })
            .collect();
        let miss_from = item
            .deadline_us
            .checked_sub(start)
            .map_or(0, |d| (d / grid) as usize + 1);
        let release = cell(item.release_us);
        let mut next = lb[(k + 1) * width..(k + 2) * width].to_vec();
        next.resize(2 * width, next[width - 1]);
        for p in &mut next[miss_from..] {
            *p += VIOLATION_PENALTY;
        }
        // Finishes saturate at `u64::MAX`: reads past its cell read it.
        let top = cell(u64::MAX);
        let at_top = next[top];
        next[top + 1..].fill(at_top);
        let row = &mut lb[k * width..(k + 1) * width];
        row[release..].fill(f64::INFINITY);
        for opt in &ranked {
            let shift = (opt.duration_us / grid).min(overflow as u64) as usize;
            for (c, r) in row.iter_mut().enumerate().skip(release) {
                let v = opt.cost + next[c + shift];
                *r = if v < *r { v } else { *r };
            }
        }
        let at_release = row[release];
        row[..release].fill(at_release);
    }
    std::iter::once(start)
        .chain(solution.finish_us.iter().copied())
        .take(n + 1)
        .enumerate()
        .map(|(k, cursor)| {
            let bound = lb[k * width + cell(cursor)];
            let violations = (bound / VIOLATION_PENALTY).round();
            (violations as usize, bound - violations * VIOLATION_PENALTY)
        })
        .collect()
}
