//! A generic 0/1 integer-linear-programming solver based on depth-first
//! branch and bound with constraint-propagation pruning, and the encoding of
//! a scheduling window into it.
//!
//! The paper implements its own solver customised to the PES formulation
//! instead of using a third-party package (Sec. 5.5). This module is the
//! *generic* counterpart: the baseline of the specialised-vs-generic
//! ablation bench and an independent oracle for the optimal cost of a
//! feasible window. `pes_ilp::ScheduleProblem` is the specialised solver PES
//! actually uses.

// Each includer uses a subset of the support code.
#![allow(dead_code)]

use pes_ilp::ScheduleProblem;

use super::linear::{Comparison, Constraint, LinearExpr};

/// Why a generic solve returned no assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// No assignment satisfies all constraints.
    Infeasible,
    /// The branch-and-bound search exceeded its node limit.
    NodeLimit(usize),
}

/// A 0/1 ILP: minimise `objective` subject to `constraints`.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpProblem {
    objective: LinearExpr,
    constraints: Vec<Constraint>,
    num_vars: usize,
    node_limit: usize,
}

/// A solution to an [`IlpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// The value of every 0/1 variable.
    pub assignment: Vec<bool>,
    /// The objective value of the assignment.
    pub objective: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: usize,
}

impl IlpProblem {
    /// Creates a minimisation problem with the given objective.
    pub fn minimize(objective: LinearExpr) -> Self {
        let num_vars = objective.max_var().map(|v| v + 1).unwrap_or(0);
        IlpProblem {
            objective,
            constraints: Vec::new(),
            num_vars,
            node_limit: 2_000_000,
        }
    }

    /// Adds a constraint, growing the variable count if needed.
    pub fn add_constraint(&mut self, constraint: Constraint) -> &mut Self {
        if let Some(max_var) = constraint.expr.max_var() {
            self.num_vars = self.num_vars.max(max_var + 1);
        }
        self.constraints.push(constraint);
        self
    }

    /// The number of 0/1 variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Caps the number of branch-and-bound nodes explored before giving up.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit.max(1);
        self
    }

    /// Solves the problem to optimality by branch and bound.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] when no assignment satisfies all
    ///   constraints.
    /// * [`SolveError::NodeLimit`] when the search exceeds the node limit
    ///   before proving optimality.
    pub fn solve(&self) -> Result<IlpSolution, SolveError> {
        let mut state = SearchState {
            partial: vec![None; self.num_vars],
            best: None,
            nodes: 0,
        };
        self.branch(&mut state, 0, 0.0)?;
        match state.best {
            Some((assignment, objective)) => Ok(IlpSolution {
                assignment,
                objective,
                nodes_explored: state.nodes,
            }),
            None => Err(SolveError::Infeasible),
        }
    }

    fn branch(
        &self,
        state: &mut SearchState,
        var: usize,
        partial_objective: f64,
    ) -> Result<(), SolveError> {
        state.nodes += 1;
        if state.nodes > self.node_limit {
            return Err(SolveError::NodeLimit(self.node_limit));
        }
        // Prune: any constraint already unsatisfiable?
        if self
            .constraints
            .iter()
            .any(|c| !c.is_satisfiable(&state.partial))
        {
            return Ok(());
        }
        // Bound: the best this subtree can do is the current objective plus
        // the most negative remaining contribution.
        let (obj_lo, _) = self.objective.bounds(&state.partial);
        if let Some((_, best_obj)) = &state.best {
            if obj_lo >= *best_obj - 1e-12 {
                return Ok(());
            }
        }
        if var == self.num_vars {
            let assignment: Vec<bool> = state.partial.iter().map(|v| v.unwrap_or(false)).collect();
            if self.constraints.iter().all(|c| c.is_satisfied(&assignment)) {
                let objective = self.objective.evaluate(&assignment);
                let better = match &state.best {
                    Some((_, best)) => objective < *best - 1e-12,
                    None => true,
                };
                if better {
                    state.best = Some((assignment, objective));
                }
            }
            return Ok(());
        }
        // Branch on the variable, trying the cheaper direction first.
        let coeff = self
            .objective
            .terms()
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, c)| *c)
            .unwrap_or(0.0);
        let order = if coeff >= 0.0 {
            [false, true]
        } else {
            [true, false]
        };
        for value in order {
            state.partial[var] = Some(value);
            let delta = if value { coeff } else { 0.0 };
            self.branch(state, var + 1, partial_objective + delta)?;
        }
        state.partial[var] = None;
        let _ = partial_objective;
        Ok(())
    }
}

struct SearchState {
    partial: Vec<Option<bool>>,
    best: Option<(Vec<bool>, f64)>,
    nodes: usize,
}

/// Convenience constructor for the "exactly one of these variables" constraint
/// (Eqn. 2 of the paper).
pub fn exactly_one(vars: impl IntoIterator<Item = usize>) -> Constraint {
    Constraint::new(
        LinearExpr::from_terms(vars.into_iter().map(|v| (v, 1.0))),
        Comparison::Equal,
        1.0,
    )
}

/// Encodes a scheduling window as a generic 0/1 ILP: variables `τ(i, j)`
/// with the Eqn. 2 selection constraints and the Eqn. 4 cumulative-deadline
/// constraints.
///
/// The encoding assumes back-to-back execution from the window start
/// (release times earlier than the running completion time, which holds for
/// the windows PES builds), matching the paper's formulation. Deadlines are
/// hard constraints, so only feasible windows have a solution.
pub fn to_generic_ilp(problem: &ScheduleProblem) -> IlpProblem {
    let items = problem.items();
    let var = |item: usize, opt: usize| -> usize {
        items[..item].iter().map(|i| i.options.len()).sum::<usize>() + opt
    };
    let mut objective = LinearExpr::new();
    for (i, item) in items.iter().enumerate() {
        for (j, opt) in item.options.iter().enumerate() {
            objective.add_term(var(i, j), opt.cost);
        }
    }
    let mut generic = IlpProblem::minimize(objective);
    for (i, item) in items.iter().enumerate() {
        generic.add_constraint(exactly_one((0..item.options.len()).map(|j| var(i, j))));
        // Cumulative deadline: sum of chosen durations of events 0..=i
        // must not exceed deadline(i) - start.
        let mut expr = LinearExpr::new();
        for (k, prior) in items.iter().enumerate().take(i + 1) {
            for (j, opt) in prior.options.iter().enumerate() {
                expr.add_term(var(k, j), opt.duration_us as f64);
            }
        }
        let budget = item.deadline_us.saturating_sub(problem.start_us()) as f64;
        generic.add_constraint(Constraint::new(expr, Comparison::LessEq, budget));
    }
    generic
}

#[cfg(test)]
mod tests {
    // Bench targets without the test harness compile this module under
    // `cfg(test)` with its `#[test]` functions stripped.
    #[allow(unused_imports)]
    use super::*;

    #[test]
    fn unconstrained_minimisation_sets_positive_coefficients_to_zero() {
        let problem = IlpProblem::minimize(LinearExpr::from_terms([(0, 3.0), (1, -2.0), (2, 1.0)]));
        let sol = problem.solve().unwrap();
        assert_eq!(sol.assignment, vec![false, true, false]);
        assert!((sol.objective + 2.0).abs() < 1e-9);
    }

    #[test]
    fn exactly_one_picks_the_cheapest_option() {
        let mut problem =
            IlpProblem::minimize(LinearExpr::from_terms([(0, 9.0), (1, 4.0), (2, 7.0)]));
        problem.add_constraint(exactly_one([0, 1, 2]));
        let sol = problem.solve().unwrap();
        assert_eq!(sol.assignment, vec![false, true, false]);
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn knapsack_style_constraint() {
        // Minimise cost while covering at least 10 units of value.
        // items: (cost, value): a=(5, 6), b=(4, 5), c=(3, 5), d=(10, 12)
        let mut problem = IlpProblem::minimize(LinearExpr::from_terms([
            (0, 5.0),
            (1, 4.0),
            (2, 3.0),
            (3, 10.0),
        ]));
        problem.add_constraint(Constraint::new(
            LinearExpr::from_terms([(0, 6.0), (1, 5.0), (2, 5.0), (3, 12.0)]),
            Comparison::GreaterEq,
            10.0,
        ));
        let sol = problem.solve().unwrap();
        // b + c covers exactly 10 for cost 7.
        assert_eq!(sol.assignment, vec![false, true, true, false]);
        assert!((sol.objective - 7.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_problems_are_reported() {
        let mut problem = IlpProblem::minimize(LinearExpr::from_terms([(0, 1.0), (1, 1.0)]));
        problem.add_constraint(Constraint::new(
            LinearExpr::from_terms([(0, 1.0), (1, 1.0)]),
            Comparison::GreaterEq,
            3.0,
        ));
        assert_eq!(problem.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn node_limit_is_enforced() {
        // A 20-variable unconstrained problem explores more than 3 nodes.
        let objective = LinearExpr::from_terms((0..20).map(|v| (v, 1.0)));
        let problem = IlpProblem::minimize(objective).with_node_limit(3);
        assert!(matches!(problem.solve(), Err(SolveError::NodeLimit(3))));
    }

    #[test]
    fn equality_constraints_interact_with_objective() {
        // Two events, two configs each. Event 0 options: vars 0 (cost 10) and
        // 1 (cost 2); event 1 options: vars 2 (cost 3) and 3 (cost 8).
        // A coupling constraint forbids picking both cheap options
        // (pretend they would overrun a shared deadline).
        let mut problem = IlpProblem::minimize(LinearExpr::from_terms([
            (0, 10.0),
            (1, 2.0),
            (2, 3.0),
            (3, 8.0),
        ]));
        problem.add_constraint(exactly_one([0, 1]));
        problem.add_constraint(exactly_one([2, 3]));
        problem.add_constraint(Constraint::new(
            LinearExpr::from_terms([(1, 1.0), (2, 1.0)]),
            Comparison::LessEq,
            1.0,
        ));
        let sol = problem.solve().unwrap();
        // Best legal combination: cheap option for event 0 (2.0) and the
        // expensive one for event 1 (8.0) = 10, vs 10 + 3 = 13.
        assert_eq!(sol.assignment, vec![false, true, false, true]);
        assert!((sol.objective - 10.0).abs() < 1e-9);
    }

    #[test]
    fn problem_accessors() {
        let mut problem = IlpProblem::minimize(LinearExpr::from_terms([(4, 1.0)]));
        assert_eq!(problem.num_vars(), 5);
        problem.add_constraint(exactly_one([0, 6]));
        assert_eq!(problem.num_vars(), 7);
        assert_eq!(problem.num_constraints(), 1);
    }
}
