//! The pre-optimisation branch-and-bound over a scheduling window, kept as
//! the validation reference for `ScheduleProblem::solve_anytime_with`:
//! per-call option sorting, suffix-cost-only pruning and an incumbent clone
//! per improvement. Property tests assert the optimised search returns
//! identical schedules; benches and the `bnb_speedup` example measure the
//! speedup against it.

// Each includer uses a subset of the support code.
#![allow(dead_code)]

use pes_ilp::{IlpError, ScheduleProblem, ScheduleSolution};

/// Cost penalty per missed deadline, so that minimising the penalised cost
/// is lexicographic: first violations, then energy. The same constant as
/// the optimised solver's.
const VIOLATION_PENALTY: f64 = 1.0e15;

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
