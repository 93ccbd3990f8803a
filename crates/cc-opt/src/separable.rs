//! Coordinate descent over a [`SeparableObjective`], at O(1) per move.
//!
//! CodeCrunch's interval objective is exactly that shape — mean predicted
//! service plus a budget constraint that is a sum of per-function
//! keep-alive costs — so a descent move touching one function can be
//! scored by a term delta instead of re-summing all `N` functions. This is
//! what keeps CodeCrunch's decision overhead flat as the function
//! population grows (the paper's §5 overhead claim).

use cc_types::FnChoice;

use crate::{OptOutcome, SeparableObjective};

/// Steepest-descent over the discrete choice lattice — the paper's
/// "gradient descent" baseline and also the inner optimizer of SRE's
/// sub-problems.
///
/// Gauss–Seidel sweeps: each round visits every function and immediately
/// applies its best improving single-choice move, so a window can grow by
/// one step per function per round rather than one step per round
/// globally. Every neighbor is scored by an O(1) term delta against
/// running service and cost sums, and the paper's tie-break applies: among
/// moves within 10% of the best service sum, take the one adding the least
/// keep-alive memory. A move must keep the running cost within budget, or
/// strictly reduce it, so the descent can climb out of an infeasible
/// start.
///
/// Evaluations are charged as SRE's sub-problems charge them: `N` for the
/// initial term tables, then one per neighbor tried.
#[derive(Debug, Clone)]
pub struct CoordinateDescent {
    /// Maximum descent rounds.
    pub max_rounds: usize,
    /// Hard cap on objective evaluations.
    pub eval_budget: u64,
}

impl Default for CoordinateDescent {
    fn default() -> Self {
        CoordinateDescent {
            max_rounds: 64,
            eval_budget: 100_000,
        }
    }
}

/// Recycled working vectors for SRE's group descents: the per-slot
/// overlay over the shared term tables and the per-coordinate candidate
/// list. One of these threaded through a run's descents makes its
/// steady-state sweeps allocation-free.
#[derive(Debug, Default)]
pub(crate) struct DescentScratch {
    /// Slot `j` holds the choice, service term and cost term of the
    /// group's `j`-th function while its descent runs.
    overlay: Vec<Entry>,
    candidates: Vec<(f64, f64, f64, FnChoice)>,
}

/// One function's choice with its service and cost terms.
type Entry = (FnChoice, f64, f64);

/// Per-function term tables of a [`SeparableObjective`] at SRE's working
/// solution, kept current for a whole interval.
///
/// SRE builds the tables once per interval, before its first round, with
/// [`TermBaseline::compute`] (one `exp()`-bearing service term per
/// function). After each round's splice and repair only the touched
/// functions' terms change, so [`TermBaseline::refresh_cost`] and
/// [`TermBaseline::refresh_service`] re-derive the terms at those indices
/// and re-form the sums in index order with the same `iter().sum()`.
/// Without a budget no cost term or cost sum is ever read, so the cost
/// column stays all zero and neither is derived. Every sub-problem
/// descent of a round reads these tables and the working solution
/// directly and keeps its own indices in a small overlay, and the round's
/// objective and feasibility are read off the sums. All of it is bit-identical to evaluating from scratch:
/// the tables hold the very floats the terms produce, and the sums are
/// the same in-order reductions — load-bearing because the descent's 10%
/// tie threshold compares *absolute* service sums.
///
/// Buffers are recycled across calls, so a steady-state round loop
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TermBaseline {
    service: Vec<f64>,
    cost: Vec<f64>,
    allowed: Vec<bool>,
    /// How many entries of `allowed` are false.
    disallowed: usize,
    service_sum: f64,
    cost_sum: f64,
}

impl TermBaseline {
    /// Fills the tables (and their sums) from `solution`, each sum in
    /// index order.
    pub fn compute<T: SeparableObjective + ?Sized>(
        &mut self,
        objective: &T,
        solution: &[FnChoice],
    ) {
        self.service.clear();
        self.service.extend(
            solution
                .iter()
                .enumerate()
                .map(|(i, c)| objective.service_term(i, c)),
        );
        self.cost.clear();
        if objective.budget().is_some() {
            self.cost.extend(
                solution
                    .iter()
                    .enumerate()
                    .map(|(i, c)| objective.cost_term(i, c)),
            );
        } else {
            self.cost.resize(solution.len(), 0.0);
        }
        self.allowed.clear();
        self.allowed.extend(
            solution
                .iter()
                .enumerate()
                .map(|(i, c)| objective.allowed(i, c)),
        );
        self.disallowed = self.allowed.iter().filter(|&&ok| !ok).count();
        self.service_sum = self.service.iter().sum();
        self.cost_sum = self.cost.iter().sum();
    }

    /// Re-derives the permissions at `changed` from `solution`, and with a
    /// budget the cost terms there and the cost sum: enough for
    /// [`TermBaseline::is_feasible`]. The tables must describe `solution`
    /// everywhere else.
    pub fn refresh_cost<T: SeparableObjective + ?Sized>(
        &mut self,
        objective: &T,
        solution: &[FnChoice],
        changed: &[usize],
    ) {
        let priced = objective.budget().is_some();
        for &i in changed {
            if priced {
                self.cost[i] = objective.cost_term(i, &solution[i]);
            }
            let allowed = objective.allowed(i, &solution[i]);
            self.disallowed =
                self.disallowed + usize::from(!allowed) - usize::from(!self.allowed[i]);
            self.allowed[i] = allowed;
        }
        if priced {
            self.cost_sum = self.cost.iter().sum();
        }
    }

    /// Re-derives the service terms at `changed` and re-forms the service
    /// sum. After [`TermBaseline::refresh_cost`] at the same indices of
    /// the same `solution`, the tables equal a fresh
    /// [`TermBaseline::compute`] of it.
    pub fn refresh_service<T: SeparableObjective + ?Sized>(
        &mut self,
        objective: &T,
        solution: &[FnChoice],
        changed: &[usize],
    ) {
        for &i in changed {
            self.service[i] = objective.service_term(i, &solution[i]);
        }
        self.service_sum = self.service.iter().sum();
    }

    /// [`SeparableObjective::is_feasible`] of the solution the tables
    /// describe.
    pub fn is_feasible<T: SeparableObjective + ?Sized>(&self, objective: &T) -> bool {
        self.disallowed == 0 && objective.budget().is_none_or(|b| self.cost_sum <= b)
    }

    /// [`SeparableObjective::evaluate`] of the solution the tables
    /// describe.
    pub fn evaluate(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.service_sum / self.len() as f64
        }
    }

    /// [`SeparableObjective::evaluate`] of `other` if it is feasible, else
    /// infinity, reusing the tables' terms wherever `other` agrees with
    /// `solution`, the solution they describe.
    pub fn evaluate_variant<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        solution: &[FnChoice],
        other: &[FnChoice],
    ) -> f64 {
        let same = |i: usize| other[i] == solution[i];
        let allowed = (0..other.len()).all(|i| {
            if same(i) {
                self.allowed[i]
            } else {
                objective.allowed(i, &other[i])
            }
        });
        let within_budget = || {
            objective.budget().is_none_or(|budget| {
                let cost: f64 = (0..other.len())
                    .map(|i| {
                        if same(i) {
                            self.cost[i]
                        } else {
                            objective.cost_term(i, &other[i])
                        }
                    })
                    .sum();
                cost <= budget
            })
        };
        if !(allowed && within_budget()) {
            return f64::INFINITY;
        }
        let service: f64 = (0..other.len())
            .map(|i| {
                if same(i) {
                    self.service[i]
                } else {
                    objective.service_term(i, &other[i])
                }
            })
            .sum();
        service / other.len() as f64
    }

    /// Number of functions the tables cover.
    pub fn len(&self) -> usize {
        self.service.len()
    }

    /// Whether the tables are empty (never computed, or zero functions).
    pub fn is_empty(&self) -> bool {
        self.service.is_empty()
    }
}

impl CoordinateDescent {
    /// Optimizes every function, starting from `start`. The outcome's
    /// cost is the descent's running service sum divided by `N`.
    ///
    /// # Panics
    ///
    /// Panics if `start` disagrees with the objective size.
    pub fn optimize<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
    ) -> OptOutcome {
        let n = objective.num_functions();
        assert_eq!(start.len(), n, "solution length must match the objective");
        let mut tables = TermBaseline::default();
        tables.compute(objective, &start);
        let all: Vec<usize> = (0..n).collect();
        let mut splices = Vec::with_capacity(n);
        let (service_sum, evaluations) = self.descend_group(
            objective,
            &start,
            &tables,
            &all,
            &mut DescentScratch::default(),
            &mut splices,
        );
        let mut solution = start;
        for (idx, choice) in splices {
            solution[idx] = choice;
        }
        OptOutcome {
            solution,
            cost: if n == 0 { 0.0 } else { service_sum / n as f64 },
            evaluations,
        }
    }

    /// One SRE sub-problem: descends over the distinct indices `group`
    /// against `solution` and the tables that describe it, without
    /// copying either. The group's own choices and terms live in the
    /// scratch overlay; the optimized choices are appended to `splices` as
    /// `(index, choice)` in group order. Returns the final service sum
    /// (over every function) and the evaluations charged, the `N`-term
    /// initialization charge included.
    pub(crate) fn descend_group<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        solution: &[FnChoice],
        tables: &TermBaseline,
        group: &[usize],
        scratch: &mut DescentScratch,
        splices: &mut Vec<(usize, FnChoice)>,
    ) -> (f64, u64) {
        debug_assert_eq!(
            tables.len(),
            solution.len(),
            "tables must cover every function"
        );
        let DescentScratch {
            overlay,
            candidates,
        } = scratch;
        overlay.clear();
        overlay.extend(
            group
                .iter()
                .map(|&i| (solution[i], tables.service[i], tables.cost[i])),
        );
        let outcome = self.descend(
            objective,
            group,
            overlay,
            candidates,
            tables.service_sum,
            tables.cost_sum,
        );
        splices.extend(group.iter().zip(overlay.iter()).map(|(&i, e)| (i, e.0)));
        outcome
    }

    /// The descent loop proper, once `overlay[j]` holds the choice and
    /// terms of function `active[j]` and the sums are the in-order
    /// reductions of every function's terms. Returns the final service sum
    /// and the evaluations charged.
    fn descend<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        active: &[usize],
        overlay: &mut [Entry],
        candidates: &mut Vec<(f64, f64, f64, FnChoice)>,
        mut service_sum: f64,
        mut cost_sum: f64,
    ) -> (f64, u64) {
        let n = objective.num_functions();
        let budget = objective.budget();
        let mut evaluations = (n as u64).max(1);

        'rounds: for _ in 0..self.max_rounds {
            let mut improved = false;
            for (slot, &idx) in active.iter().enumerate() {
                let (current, current_service, current_cost) = overlay[slot];
                candidates.clear();
                let current_mem = objective.memory_term(idx, &current);
                for neighbor in &current.neighbors_inline() {
                    if evaluations >= self.eval_budget {
                        break 'rounds;
                    }
                    evaluations += 1;
                    if !objective.allowed(idx, &neighbor) {
                        continue;
                    }
                    // Without a budget every move is feasible and no cost
                    // is ever read, so none is derived.
                    let new_cost = match budget {
                        None => 0.0,
                        Some(b) => {
                            let new_cost = objective.cost_term(idx, &neighbor);
                            let new_cost_sum = cost_sum - current_cost + new_cost;
                            if !(new_cost_sum <= b || new_cost_sum < cost_sum) {
                                continue;
                            }
                            new_cost
                        }
                    };
                    let new_service_sum =
                        service_sum - current_service + objective.service_term(idx, &neighbor);
                    if new_service_sum < service_sum {
                        let mem_delta = objective.memory_term(idx, &neighbor) - current_mem;
                        candidates.push((new_service_sum, new_cost, mem_delta, neighbor));
                    }
                }
                let Some(best) = candidates
                    .iter()
                    .map(|&(s, _, _, _)| s)
                    .min_by(f64::total_cmp)
                else {
                    continue;
                };
                let threshold = best + 0.1 * best.abs();
                let (new_service_sum, new_cost, _, choice) = candidates
                    .drain(..)
                    .filter(|&(s, _, _, _)| s <= threshold)
                    .min_by(|a, b| a.2.total_cmp(&b.2).then(a.0.total_cmp(&b.0)))
                    .expect("best candidate satisfies its own threshold");
                cost_sum = cost_sum - current_cost + new_cost;
                service_sum = new_service_sum;
                overlay[slot] = (choice, objective.service_term(idx, &choice), new_cost);
                improved = true;
            }
            if !improved {
                break;
            }
        }
        (service_sum, evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::testing::{bowl, optimum, SepBowl};
    use cc_types::{Arch, SimDuration};

    #[test]
    fn coordinate_descent_finds_bowl_optimum() {
        let b = bowl(5, 7.0);
        let start = vec![FnChoice::production_default(); 5];
        let out = CoordinateDescent::default().optimize(&b, start);
        assert_eq!(out.cost, 0.0, "solution {:?}", out.solution);
        assert_eq!(out.solution, optimum(&b));
    }

    #[test]
    fn descent_cost_is_the_running_mean_and_charges_n_up_front() {
        let b = SepBowl {
            budget_mins: Some(40.0),
            ..bowl(6, 9.0)
        };
        let start = vec![FnChoice::production_default(); 6];
        let out = CoordinateDescent::default().optimize(&b, start);
        assert!((out.cost - b.evaluate(&out.solution)).abs() < 1e-9);
        let stopped = CoordinateDescent {
            max_rounds: 64,
            eval_budget: 6,
        }
        .optimize(&b, vec![FnChoice::production_default(); 6]);
        assert_eq!(stopped.evaluations, 6, "the N-term charge spends it all");
        assert_eq!(stopped.solution, vec![FnChoice::production_default(); 6]);
    }

    #[test]
    fn separable_descent_respects_budget() {
        let bowl = SepBowl {
            n: 4,
            target_mins: 30.0,
            budget_mins: Some(60.0),
        };
        let start = vec![FnChoice::drop_now(Arch::X86); 4];
        let out = CoordinateDescent::default().optimize(&bowl, start);
        assert!(bowl.is_feasible(&out.solution));
        let total: f64 = out
            .solution
            .iter()
            .map(|c| c.keep_alive.as_mins_f64())
            .sum();
        assert!(total <= 60.0 + 1e-9, "budget violated: {total}");
    }

    #[test]
    fn separable_descent_escapes_infeasible_start() {
        let bowl = SepBowl {
            n: 2,
            target_mins: 5.0,
            budget_mins: Some(10.0),
        };
        // Start over budget: 2 × 60 = 120 minutes.
        let start = vec![FnChoice::new(Arch::Arm, true, SimDuration::from_mins(60)); 2];
        let out = CoordinateDescent::default().optimize(&bowl, start);
        let total: f64 = out
            .solution
            .iter()
            .map(|c| c.keep_alive.as_mins_f64())
            .sum();
        assert!(
            total <= 10.0 + 1e-9,
            "should have descended into budget: {total}"
        );
    }

    #[test]
    fn eval_budget_is_respected() {
        let b = bowl(50, 7.0);
        let start = vec![FnChoice::production_default(); 50];
        let out = CoordinateDescent {
            max_rounds: 1000,
            eval_budget: 300,
        }
        .optimize(&b, start);
        assert!(out.evaluations <= 300, "{}", out.evaluations);
    }

    #[test]
    fn group_descent_moves_only_its_group() {
        let bowl = SepBowl {
            n: 8,
            target_mins: 12.0,
            budget_mins: Some(90.0),
        };
        let start = vec![FnChoice::production_default(); 8];
        let mut tables = TermBaseline::default();
        tables.compute(&bowl, &start);
        assert_eq!(tables.len(), 8);
        assert!(!tables.is_empty());
        let descent = CoordinateDescent::default();
        let mut scratch = DescentScratch::default();
        let mut splices = Vec::new();
        // Disjoint "sub-problem" groups all descending from the same start,
        // the way an SRE round dispatches them.
        for group in [&[0, 3][..], &[1, 4, 7], &[2, 5, 6]] {
            splices.clear();
            let (_, evaluations) =
                descent.descend_group(&bowl, &start, &tables, group, &mut scratch, &mut splices);
            let indices: Vec<usize> = splices.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, group, "only the group's functions are spliced");
            assert!(
                splices.iter().any(|&(i, c)| c != start[i]),
                "the descent must move something"
            );
            assert!(
                evaluations > 8,
                "the N-term charge plus the neighbors tried"
            );
        }
        // The whole index set as one group is the public descent.
        let all: Vec<usize> = (0..8).collect();
        splices.clear();
        let (service_sum, evaluations) =
            descent.descend_group(&bowl, &start, &tables, &all, &mut scratch, &mut splices);
        let whole = descent.optimize(&bowl, start.clone());
        let spliced: Vec<FnChoice> = splices.iter().map(|&(_, c)| c).collect();
        assert_eq!(whole.solution, spliced);
        assert_eq!(whole.cost.to_bits(), (service_sum / 8.0).to_bits());
        assert_eq!(whole.evaluations, evaluations);
    }

    #[test]
    fn refreshed_tables_equal_fresh_ones() {
        let bowl = SepBowl {
            n: 5,
            target_mins: 9.0,
            budget_mins: Some(20.0),
        };
        let mut solution = vec![FnChoice::production_default(); 5];
        let mut tables = TermBaseline::default();
        tables.compute(&bowl, &solution);
        solution[1] = FnChoice::new(Arch::Arm, true, SimDuration::from_mins(9));
        solution[4] = FnChoice::drop_now(Arch::X86);
        tables.refresh_cost(&bowl, &solution, &[1, 4]);
        tables.refresh_service(&bowl, &solution, &[1, 4]);
        let mut fresh = TermBaseline::default();
        fresh.compute(&bowl, &solution);
        assert_eq!(tables.service, fresh.service);
        assert_eq!(tables.cost, fresh.cost);
        assert_eq!(
            tables.evaluate().to_bits(),
            bowl.evaluate(&solution).to_bits()
        );
        assert_eq!(tables.is_feasible(&bowl), bowl.is_feasible(&solution));
        // A variant is scored as if evaluated from scratch.
        let mut other = solution.clone();
        other[2] = FnChoice::new(Arch::Arm, true, SimDuration::from_mins(3));
        let expected = if bowl.is_feasible(&other) {
            bowl.evaluate(&other)
        } else {
            f64::INFINITY
        };
        assert_eq!(
            tables.evaluate_variant(&bowl, &solution, &other).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn empty_objective_is_a_noop() {
        let out = CoordinateDescent::default().optimize(&bowl(0, 7.0), vec![]);
        assert!(out.solution.is_empty());
        assert_eq!(out.cost, 0.0);
    }
}
