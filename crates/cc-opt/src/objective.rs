//! The objective interface optimizers minimize.

use cc_types::FnChoice;

/// A discrete objective over joint per-function choices.
///
/// Implementors estimate the mean service time of the functions invoked in
/// the current optimization interval under a candidate assignment (lower is
/// better), and may declare assignments infeasible (over the keep-alive
/// budget).
pub trait Objective {
    /// Number of functions being optimized (`solution.len()` everywhere).
    fn num_functions(&self) -> usize;

    /// Estimated cost of a solution (mean service time in the paper).
    /// Lower is better. Must be finite for feasible solutions.
    fn evaluate(&self, solution: &[FnChoice]) -> f64;

    /// Whether the solution satisfies the budget constraint. Default:
    /// everything is feasible.
    fn is_feasible(&self, solution: &[FnChoice]) -> bool {
        let _ = solution;
        true
    }

    /// Secondary metric used by the paper's tie-break: when several
    /// solutions are within 10% on cost, prefer the one consuming less
    /// keep-alive memory, crediting the savings to future intervals.
    /// Default: no preference.
    fn memory_cost(&self, solution: &[FnChoice]) -> f64 {
        let _ = solution;
        0.0
    }
}

/// The result of one optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptOutcome {
    /// The best feasible solution found.
    pub solution: Vec<FnChoice>,
    /// Its objective value.
    pub cost: f64,
    /// How many objective evaluations were spent.
    pub evaluations: u64,
}

impl OptOutcome {
    /// Evaluates `solution` against `objective` and wraps it.
    pub fn of(objective: &dyn Objective, solution: Vec<FnChoice>, evaluations: u64) -> Self {
        let cost = objective.evaluate(&solution);
        OptOutcome {
            solution,
            cost,
            evaluations,
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::SeparableObjective;
    use cc_types::{Arch, SimDuration};

    /// A quadratic bowl in keep-alive minutes with arch/compression
    /// penalties: unique optimum at `(Arm, compressed, target minutes)`.
    pub struct Bowl {
        pub n: usize,
        pub target_mins: f64,
        /// Optional budget: total keep-alive minutes allowed.
        pub max_total_mins: Option<f64>,
    }

    impl Objective for Bowl {
        fn num_functions(&self) -> usize {
            self.n
        }

        fn evaluate(&self, solution: &[FnChoice]) -> f64 {
            solution
                .iter()
                .map(|c| {
                    let d = c.keep_alive.as_mins_f64() - self.target_mins;
                    let arch_pen = if c.arch == Arch::X86 { 3.0 } else { 0.0 };
                    let comp_pen = if c.compress { 0.0 } else { 2.0 };
                    d * d + arch_pen + comp_pen
                })
                .sum()
        }

        fn is_feasible(&self, solution: &[FnChoice]) -> bool {
            match self.max_total_mins {
                None => true,
                Some(max) => {
                    solution
                        .iter()
                        .map(|c| c.keep_alive.as_mins_f64())
                        .sum::<f64>()
                        <= max
                }
            }
        }

        fn memory_cost(&self, solution: &[FnChoice]) -> f64 {
            solution.iter().map(|c| c.keep_alive.as_mins_f64()).sum()
        }
    }

    /// Separable twin of [`Bowl`]: the same per-function terms, a budget
    /// on total keep-alive minutes, and keep-alive minutes as memory.
    pub struct SepBowl {
        pub n: usize,
        pub target_mins: f64,
        pub budget_mins: Option<f64>,
    }

    impl SeparableObjective for SepBowl {
        fn num_functions(&self) -> usize {
            self.n
        }
        fn service_term(&self, _idx: usize, c: &FnChoice) -> f64 {
            let d = c.keep_alive.as_mins_f64() - self.target_mins;
            let arch_pen = if c.arch == Arch::X86 { 3.0 } else { 0.0 };
            let comp_pen = if c.compress { 0.0 } else { 2.0 };
            d * d + arch_pen + comp_pen
        }
        fn cost_term(&self, _idx: usize, c: &FnChoice) -> f64 {
            c.keep_alive.as_mins_f64()
        }
        fn memory_term(&self, _idx: usize, c: &FnChoice) -> f64 {
            c.keep_alive.as_mins_f64()
        }
        fn budget(&self) -> Option<f64> {
            self.budget_mins
        }
    }

    pub fn optimum(bowl: &Bowl) -> Vec<FnChoice> {
        vec![
            FnChoice::new(
                Arch::Arm,
                true,
                SimDuration::from_mins(bowl.target_mins as u64),
            );
            bowl.n
        ]
    }

    #[test]
    fn bowl_optimum_is_zero() {
        let bowl = Bowl {
            n: 3,
            target_mins: 7.0,
            max_total_mins: None,
        };
        assert_eq!(bowl.evaluate(&optimum(&bowl)), 0.0);
        assert!(bowl.evaluate(&[FnChoice::production_default(); 3]) > 0.0);
    }
}
