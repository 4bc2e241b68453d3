//! Linear expressions and constraints over 0/1 variables, the building
//! blocks of the generic ILP in [`super::solver`].

// Each includer uses a subset of the support code.
#![allow(dead_code)]

use std::fmt;

/// The comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparison {
    /// `lhs <= rhs`
    LessEq,
    /// `lhs >= rhs`
    GreaterEq,
    /// `lhs == rhs`
    Equal,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Comparison::LessEq => "<=",
            Comparison::GreaterEq => ">=",
            Comparison::Equal => "==",
        };
        f.write_str(s)
    }
}

/// A sparse linear expression `Σ coeff_k · x_{var_k}` over 0/1 variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearExpr {
    terms: Vec<(usize, f64)>,
}

impl LinearExpr {
    /// An empty (zero) expression.
    pub fn new() -> Self {
        LinearExpr { terms: Vec::new() }
    }

    /// Adds `coeff · x_var` to the expression, merging duplicate variables.
    pub fn add_term(&mut self, var: usize, coeff: f64) -> &mut Self {
        if let Some(existing) = self.terms.iter_mut().find(|(v, _)| *v == var) {
            existing.1 += coeff;
        } else {
            self.terms.push((var, coeff));
        }
        self
    }

    /// Builds an expression from `(variable, coefficient)` pairs.
    pub fn from_terms<I: IntoIterator<Item = (usize, f64)>>(terms: I) -> Self {
        let mut expr = LinearExpr::new();
        for (v, c) in terms {
            expr.add_term(v, c);
        }
        expr
    }

    /// The `(variable, coefficient)` terms.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// The number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The largest variable index referenced, if any.
    pub fn max_var(&self) -> Option<usize> {
        self.terms.iter().map(|(v, _)| *v).max()
    }

    /// Evaluates the expression under a full assignment.
    pub fn evaluate(&self, assignment: &[bool]) -> f64 {
        self.terms
            .iter()
            .map(|(v, c)| {
                if assignment.get(*v).copied().unwrap_or(false) {
                    *c
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// The minimum and maximum value the expression can still reach given a
    /// partial assignment (`None` entries are undecided).
    pub fn bounds(&self, partial: &[Option<bool>]) -> (f64, f64) {
        let mut lo = 0.0;
        let mut hi = 0.0;
        for (v, c) in &self.terms {
            match partial.get(*v).copied().flatten() {
                Some(true) => {
                    lo += c;
                    hi += c;
                }
                Some(false) => {}
                None => {
                    if *c >= 0.0 {
                        hi += c;
                    } else {
                        lo += c;
                    }
                }
            }
        }
        (lo, hi)
    }
}

/// A linear constraint `expr (<=|>=|==) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The left-hand-side expression.
    pub expr: LinearExpr,
    /// The comparison operator.
    pub cmp: Comparison,
    /// The right-hand-side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Creates a constraint.
    pub fn new(expr: LinearExpr, cmp: Comparison, rhs: f64) -> Self {
        Constraint { expr, cmp, rhs }
    }

    /// Whether a full assignment satisfies the constraint (with a small
    /// floating-point tolerance).
    pub fn is_satisfied(&self, assignment: &[bool]) -> bool {
        let value = self.expr.evaluate(assignment);
        match self.cmp {
            Comparison::LessEq => value <= self.rhs + 1e-9,
            Comparison::GreaterEq => value >= self.rhs - 1e-9,
            Comparison::Equal => (value - self.rhs).abs() <= 1e-9,
        }
    }

    /// Whether the constraint can still be satisfied under a partial
    /// assignment (used for pruning during branch and bound).
    pub fn is_satisfiable(&self, partial: &[Option<bool>]) -> bool {
        let (lo, hi) = self.expr.bounds(partial);
        match self.cmp {
            Comparison::LessEq => lo <= self.rhs + 1e-9,
            Comparison::GreaterEq => hi >= self.rhs - 1e-9,
            Comparison::Equal => lo <= self.rhs + 1e-9 && hi >= self.rhs - 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    // Bench targets without the test harness compile this module under
    // `cfg(test)` with its `#[test]` functions stripped.
    #[allow(unused_imports)]
    use super::*;

    #[test]
    fn add_term_merges_duplicates() {
        let mut e = LinearExpr::new();
        e.add_term(0, 1.0).add_term(1, 2.0).add_term(0, 3.0);
        assert_eq!(e.len(), 2);
        assert_eq!(e.terms()[0], (0, 4.0));
        assert_eq!(e.max_var(), Some(1));
        assert!(!e.is_empty());
        assert!(LinearExpr::new().is_empty());
        assert_eq!(LinearExpr::new().max_var(), None);
    }

    #[test]
    fn evaluate_under_assignment() {
        let e = LinearExpr::from_terms([(0, 2.0), (2, 5.0)]);
        assert_eq!(e.evaluate(&[true, true, false]), 2.0);
        assert_eq!(e.evaluate(&[true, false, true]), 7.0);
        // Missing variables count as false.
        assert_eq!(e.evaluate(&[true]), 2.0);
    }

    #[test]
    fn bounds_respect_partial_assignment_and_sign() {
        let e = LinearExpr::from_terms([(0, 3.0), (1, -2.0), (2, 1.0)]);
        let partial = [Some(true), None, None];
        let (lo, hi) = e.bounds(&partial);
        assert_eq!(lo, 1.0); // 3 + (-2)
        assert_eq!(hi, 4.0); // 3 + 1
    }

    #[test]
    fn constraint_satisfaction() {
        let c = Constraint::new(
            LinearExpr::from_terms([(0, 1.0), (1, 1.0)]),
            Comparison::Equal,
            1.0,
        );
        assert!(c.is_satisfied(&[true, false]));
        assert!(!c.is_satisfied(&[true, true]));
        assert!(!c.is_satisfied(&[false, false]));

        let le = Constraint::new(LinearExpr::from_terms([(0, 5.0)]), Comparison::LessEq, 4.0);
        assert!(le.is_satisfied(&[false]));
        assert!(!le.is_satisfied(&[true]));

        let ge = Constraint::new(
            LinearExpr::from_terms([(0, 5.0)]),
            Comparison::GreaterEq,
            4.0,
        );
        assert!(ge.is_satisfied(&[true]));
        assert!(!ge.is_satisfied(&[false]));
    }

    #[test]
    fn satisfiability_prunes_impossible_branches() {
        // x0 + x1 == 2 with x0 fixed to false can never hold.
        let c = Constraint::new(
            LinearExpr::from_terms([(0, 1.0), (1, 1.0)]),
            Comparison::Equal,
            2.0,
        );
        assert!(!c.is_satisfiable(&[Some(false), None]));
        assert!(c.is_satisfiable(&[Some(true), None]));
        // x0*10 <= 5 with x0 fixed to true is impossible.
        let le = Constraint::new(LinearExpr::from_terms([(0, 10.0)]), Comparison::LessEq, 5.0);
        assert!(!le.is_satisfiable(&[Some(true)]));
        assert!(le.is_satisfiable(&[None]));
    }

    #[test]
    fn comparison_display() {
        assert_eq!(Comparison::LessEq.to_string(), "<=");
        assert_eq!(Comparison::GreaterEq.to_string(), ">=");
        assert_eq!(Comparison::Equal.to_string(), "==");
    }
}
