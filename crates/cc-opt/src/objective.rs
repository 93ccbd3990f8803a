//! The objective interface optimizers minimize.

use cc_types::FnChoice;

/// A discrete objective over joint per-function choices, decomposed into
/// independent per-function terms.
///
/// The induced joint objective is `Σ service_term / N` subject to
/// `Σ cost_term ≤ budget` and per-choice validity; `Σ memory_term` feeds
/// the paper's 10% tie-break. Implementors estimate the mean service time
/// of the functions invoked in the current optimization interval under a
/// candidate assignment (lower is better). The provided
/// [`SeparableObjective::evaluate`] and [`SeparableObjective::is_feasible`]
/// score a whole solution in O(N); the coordinate descent and SRE score a
/// move by a term delta instead.
pub trait SeparableObjective {
    /// Number of functions (`solution.len()` everywhere).
    fn num_functions(&self) -> usize;

    /// Predicted service contribution (seconds) of one choice, including
    /// any per-function penalties (e.g. SLA).
    fn service_term(&self, idx: usize, choice: &FnChoice) -> f64;

    /// Keep-alive cost contribution of one choice, in budget units.
    fn cost_term(&self, idx: usize, choice: &FnChoice) -> f64;

    /// Keep-alive memory contribution used by the tie-break.
    fn memory_term(&self, idx: usize, choice: &FnChoice) -> f64 {
        let _ = (idx, choice);
        0.0
    }

    /// Whether a choice is permitted for this function at all
    /// (architecture restrictions, compression bans).
    fn allowed(&self, idx: usize, choice: &FnChoice) -> bool {
        let _ = (idx, choice);
        true
    }

    /// The total budget in the same units as [`SeparableObjective::cost_term`];
    /// `None` = unlimited.
    fn budget(&self) -> Option<f64> {
        None
    }

    /// Mean service term of `solution` (0 for an empty one), summed in
    /// index order.
    fn evaluate(&self, solution: &[FnChoice]) -> f64 {
        if solution.is_empty() {
            return 0.0;
        }
        let total: f64 = solution
            .iter()
            .enumerate()
            .map(|(i, c)| self.service_term(i, c))
            .sum();
        total / solution.len() as f64
    }

    /// Whether every choice of `solution` is allowed and its cost terms,
    /// summed in index order, stay within the budget.
    fn is_feasible(&self, solution: &[FnChoice]) -> bool {
        if solution
            .iter()
            .enumerate()
            .any(|(i, c)| !self.allowed(i, c))
        {
            return false;
        }
        match self.budget() {
            None => true,
            Some(budget) => {
                let cost: f64 = solution
                    .iter()
                    .enumerate()
                    .map(|(i, c)| self.cost_term(i, c))
                    .sum();
                cost <= budget
            }
        }
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

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use cc_types::{Arch, SimDuration};

    /// A quadratic bowl in keep-alive minutes with arch/compression
    /// penalties: unique optimum at `(Arm, compressed, target minutes)`.
    /// An optional budget caps total keep-alive minutes, which are also
    /// the memory the tie-break weighs.
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

    /// A bowl of `n` functions around `target_mins`, without a budget.
    pub fn bowl(n: usize, target_mins: f64) -> SepBowl {
        SepBowl {
            n,
            target_mins,
            budget_mins: None,
        }
    }

    pub fn optimum(bowl: &SepBowl) -> Vec<FnChoice> {
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
        let b = bowl(3, 7.0);
        assert_eq!(b.evaluate(&optimum(&b)), 0.0);
        assert!(b.evaluate(&[FnChoice::production_default(); 3]) > 0.0);
    }

    #[test]
    fn whole_solution_scores_agree_with_terms() {
        let b = SepBowl {
            budget_mins: Some(15.0),
            ..bowl(3, 7.0)
        };
        let sol = vec![FnChoice::new(Arch::Arm, true, SimDuration::from_mins(7)); 3];
        assert_eq!(b.evaluate(&sol), 0.0);
        assert!(
            !b.is_feasible(&sol),
            "21 minutes exceeds the 15-minute budget"
        );
        assert!(b.is_feasible(&[FnChoice::drop_now(Arch::X86); 3]));
        assert_eq!(b.evaluate(&[]), 0.0);
    }
}
