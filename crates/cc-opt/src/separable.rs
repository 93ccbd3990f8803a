//! The separable fast path: O(1)-per-move descent for objectives that are
//! sums of per-function terms.
//!
//! CodeCrunch's interval objective is exactly that shape — mean predicted
//! service plus a budget constraint that is a sum of per-function
//! keep-alive costs — so a descent move touching one function can be
//! scored by a term delta instead of re-summing all `N` functions. This is
//! what keeps CodeCrunch's decision overhead flat as the function
//! population grows (the paper's §5 overhead claim).

use cc_types::FnChoice;

use crate::{CoordinateDescent, Objective, OptOutcome};

/// An objective decomposable into independent per-function terms.
///
/// The induced joint objective is `Σ service_term / N` subject to
/// `Σ cost_term ≤ budget` and per-choice validity; `Σ memory_term` feeds
/// the paper's 10% tie-break. [`SeparableView`] adapts any implementor to
/// the general [`Objective`] interface for the generic optimizers.
pub trait SeparableObjective {
    /// Number of functions.
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
}

/// Adapter exposing a [`SeparableObjective`] through the general
/// [`Objective`] interface (O(n) per evaluation — use the separable
/// descent for hot paths).
pub struct SeparableView<'a, T: ?Sized>(pub &'a T);

impl<T: SeparableObjective + ?Sized> Objective for SeparableView<'_, T> {
    fn num_functions(&self) -> usize {
        self.0.num_functions()
    }

    fn evaluate(&self, solution: &[FnChoice]) -> f64 {
        if solution.is_empty() {
            return 0.0;
        }
        let total: f64 = solution
            .iter()
            .enumerate()
            .map(|(i, c)| self.0.service_term(i, c))
            .sum();
        total / solution.len() as f64
    }

    fn is_feasible(&self, solution: &[FnChoice]) -> bool {
        if solution
            .iter()
            .enumerate()
            .any(|(i, c)| !self.0.allowed(i, c))
        {
            return false;
        }
        match self.0.budget() {
            None => true,
            Some(budget) => {
                let cost: f64 = solution
                    .iter()
                    .enumerate()
                    .map(|(i, c)| self.0.cost_term(i, c))
                    .sum();
                cost <= budget
            }
        }
    }

    fn memory_cost(&self, solution: &[FnChoice]) -> f64 {
        solution
            .iter()
            .enumerate()
            .map(|(i, c)| self.0.memory_term(i, c))
            .sum()
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
/// functions' terms change, so [`TermBaseline::refresh`] re-derives the
/// terms at those indices and re-forms both sums in index order with the
/// same `iter().sum()`. Every sub-problem descent of a round reads these
/// tables and the working solution directly and keeps its own indices in
/// a small overlay, and the round's objective and feasibility are read
/// off the sums. All of it is bit-identical to evaluating from scratch:
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
    /// Fills the tables (and their sums) from `solution`, in the order
    /// [`CoordinateDescent::optimize_separable_subset`] evaluates them on
    /// entry.
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
        self.allowed.clear();
        for (i, c) in solution.iter().enumerate() {
            self.cost.push(objective.cost_term(i, c));
            self.allowed.push(objective.allowed(i, c));
        }
        self.disallowed = self.allowed.iter().filter(|&&ok| !ok).count();
        self.service_sum = self.service.iter().sum();
        self.cost_sum = self.cost.iter().sum();
    }

    /// Re-derives the cost terms and permissions at `changed` from
    /// `solution` and re-forms the cost sum: enough for
    /// [`TermBaseline::is_feasible`]. The tables must describe `solution`
    /// everywhere else.
    pub fn refresh_cost<T: SeparableObjective + ?Sized>(
        &mut self,
        objective: &T,
        solution: &[FnChoice],
        changed: &[usize],
    ) {
        for &i in changed {
            self.cost[i] = objective.cost_term(i, &solution[i]);
            let allowed = objective.allowed(i, &solution[i]);
            self.disallowed =
                self.disallowed + usize::from(!allowed) - usize::from(!self.allowed[i]);
            self.allowed[i] = allowed;
        }
        self.cost_sum = self.cost.iter().sum();
    }

    /// [`TermBaseline::refresh_cost`] plus the service terms at `changed`
    /// and the service sum, after which the tables equal a fresh
    /// [`TermBaseline::compute`] of `solution`.
    pub fn refresh<T: SeparableObjective + ?Sized>(
        &mut self,
        objective: &T,
        solution: &[FnChoice],
        changed: &[usize],
    ) {
        self.refresh_cost(objective, solution, changed);
        for &i in changed {
            self.service[i] = objective.service_term(i, &solution[i]);
        }
        self.service_sum = self.service.iter().sum();
    }

    /// [`SeparableView::is_feasible`] of the solution the tables describe.
    pub fn is_feasible<T: SeparableObjective + ?Sized>(&self, objective: &T) -> bool {
        self.disallowed == 0 && objective.budget().is_none_or(|b| self.cost_sum <= b)
    }

    /// [`SeparableView::evaluate`] of the solution the tables describe.
    pub fn evaluate(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.service_sum / self.len() as f64
        }
    }

    /// [`SeparableView::evaluate`] of `other` if it is feasible, else
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

/// Where a descent reads and writes each active function's choice and
/// terms: the function's index `idx`, or its position `slot` in the
/// active list.
trait Slots {
    fn get(&self, slot: usize, idx: usize) -> Entry;
    fn set(&mut self, slot: usize, idx: usize, entry: Entry);
}

/// A whole solution with its term tables, indexed by function.
struct Whole<'a> {
    solution: &'a mut [FnChoice],
    service: &'a mut [f64],
    cost: &'a mut [f64],
}

impl Slots for Whole<'_> {
    fn get(&self, _slot: usize, idx: usize) -> Entry {
        (self.solution[idx], self.service[idx], self.cost[idx])
    }

    fn set(&mut self, _slot: usize, idx: usize, (choice, service, cost): Entry) {
        self.solution[idx] = choice;
        self.service[idx] = service;
        self.cost[idx] = cost;
    }
}

/// A group's overlay, indexed by slot (the group's indices are distinct).
impl Slots for [Entry] {
    fn get(&self, slot: usize, _idx: usize) -> Entry {
        self[slot]
    }

    fn set(&mut self, slot: usize, _idx: usize, entry: Entry) {
        self[slot] = entry;
    }
}

impl CoordinateDescent {
    /// [`CoordinateDescent::optimize_subset`] specialized for separable
    /// objectives: every neighbor is scored with an O(1) term delta, so a
    /// sweep over `k` active functions costs `O(k)` instead of `O(k·N)`.
    ///
    /// Moves must keep the running cost within budget — or strictly reduce
    /// it, so descent can climb back out of an infeasible start.
    pub fn optimize_separable_subset<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        active: &[usize],
    ) -> OptOutcome {
        let n = objective.num_functions();
        assert_eq!(start.len(), n, "solution length must match the objective");
        let mut current = start;
        let mut service: Vec<f64> = current
            .iter()
            .enumerate()
            .map(|(i, c)| objective.service_term(i, c))
            .collect();
        let mut cost: Vec<f64> = current
            .iter()
            .enumerate()
            .map(|(i, c)| objective.cost_term(i, c))
            .collect();
        let service_sum: f64 = service.iter().sum();
        let cost_sum: f64 = cost.iter().sum();
        let mut whole = Whole {
            solution: &mut current,
            service: &mut service,
            cost: &mut cost,
        };
        let (service_sum, evaluations) = self.descend(
            objective,
            active,
            &mut whole,
            &mut Vec::new(),
            service_sum,
            cost_sum,
        );
        let cost = if n == 0 { 0.0 } else { service_sum / n as f64 };
        OptOutcome {
            solution: current,
            cost,
            evaluations,
        }
    }

    /// One SRE sub-problem: descends over the distinct indices `group`
    /// against `solution` and the tables that describe it, without
    /// copying either. The group's own choices and terms live in the
    /// scratch overlay; the optimized choices are appended to `splices` as
    /// `(index, choice)` in group order. Returns the evaluations charged,
    /// the same as [`CoordinateDescent::optimize_separable_subset`] on a
    /// copy of `solution` (the `N`-term initialization charge included).
    pub(crate) fn descend_group<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        solution: &[FnChoice],
        tables: &TermBaseline,
        group: &[usize],
        scratch: &mut DescentScratch,
        splices: &mut Vec<(usize, FnChoice)>,
    ) -> u64 {
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
        let (_, evaluations) = self.descend(
            objective,
            group,
            overlay.as_mut_slice(),
            candidates,
            tables.service_sum,
            tables.cost_sum,
        );
        splices.extend(group.iter().zip(overlay.iter()).map(|(&i, e)| (i, e.0)));
        evaluations
    }

    /// The descent loop proper, once `slots` hold the choices and terms of
    /// the active functions and the sums are the in-order reductions of
    /// every function's terms. Returns the final service sum and the
    /// evaluations charged.
    fn descend<T: SeparableObjective + ?Sized, S: Slots + ?Sized>(
        &self,
        objective: &T,
        active: &[usize],
        slots: &mut S,
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
                let (current, current_service, current_cost) = slots.get(slot, idx);
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
                    let new_cost = objective.cost_term(idx, &neighbor);
                    let new_cost_sum = cost_sum - current_cost + new_cost;
                    let feasible = match budget {
                        None => true,
                        Some(b) => new_cost_sum <= b || new_cost_sum < cost_sum,
                    };
                    if !feasible {
                        continue;
                    }
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
                slots.set(
                    slot,
                    idx,
                    (choice, objective.service_term(idx, &choice), new_cost),
                );
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
    use crate::objective::testing::SepBowl;
    use cc_types::{Arch, SimDuration};

    #[test]
    fn separable_descent_matches_generic_descent() {
        let bowl = SepBowl {
            n: 6,
            target_mins: 7.0,
            budget_mins: None,
        };
        let start = vec![FnChoice::production_default(); 6];
        let active: Vec<usize> = (0..6).collect();
        let fast =
            CoordinateDescent::default().optimize_separable_subset(&bowl, start.clone(), &active);
        let view = SeparableView(&bowl);
        let generic = CoordinateDescent::default().optimize_subset(&view, start, &active);
        assert_eq!(fast.solution, generic.solution);
        assert!((fast.cost * 6.0 - generic.cost * 6.0).abs() < 1e-9);
    }

    #[test]
    fn separable_descent_respects_budget() {
        let bowl = SepBowl {
            n: 4,
            target_mins: 30.0,
            budget_mins: Some(60.0),
        };
        let start = vec![FnChoice::drop_now(Arch::X86); 4];
        let active: Vec<usize> = (0..4).collect();
        let out = CoordinateDescent::default().optimize_separable_subset(&bowl, start, &active);
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
        let active = [0usize, 1];
        let out = CoordinateDescent::default().optimize_separable_subset(&bowl, start, &active);
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
    fn view_adapter_agrees_with_terms() {
        let bowl = SepBowl {
            n: 3,
            target_mins: 7.0,
            budget_mins: Some(15.0),
        };
        let view = SeparableView(&bowl);
        let sol = vec![FnChoice::new(Arch::Arm, true, SimDuration::from_mins(7)); 3];
        assert_eq!(view.evaluate(&sol), 0.0);
        assert!(
            !view.is_feasible(&sol),
            "21 minutes exceeds the 15-minute budget"
        );
        assert_eq!(view.memory_cost(&sol), 21.0);
    }

    #[test]
    fn group_descent_over_shared_tables_matches_a_whole_copy() {
        let bowl = SepBowl {
            n: 8,
            target_mins: 12.0,
            budget_mins: Some(90.0),
        };
        let start = vec![FnChoice::production_default(); 8];
        // Disjoint "sub-problem" groups all descending from the same start,
        // the way an SRE round dispatches them.
        let groups: [&[usize]; 3] = [&[0, 3], &[1, 4, 7], &[2, 5, 6]];
        let mut tables = TermBaseline::default();
        tables.compute(&bowl, &start);
        assert_eq!(tables.len(), 8);
        assert!(!tables.is_empty());
        let descent = CoordinateDescent::default();
        let mut scratch = DescentScratch::default();
        let mut splices = Vec::new();
        for group in groups {
            let whole = descent.optimize_separable_subset(&bowl, start.clone(), group);
            splices.clear();
            let evaluations =
                descent.descend_group(&bowl, &start, &tables, group, &mut scratch, &mut splices);
            let mut spliced = start.clone();
            for &(idx, choice) in &splices {
                spliced[idx] = choice;
            }
            assert_eq!(whole.solution, spliced);
            assert_ne!(spliced, start, "the descent must move something");
            assert_eq!(whole.evaluations, evaluations);
        }
    }

    #[test]
    fn refreshed_tables_equal_fresh_ones() {
        let bowl = SepBowl {
            n: 5,
            target_mins: 9.0,
            budget_mins: Some(20.0),
        };
        let view = SeparableView(&bowl);
        let mut solution = vec![FnChoice::production_default(); 5];
        let mut tables = TermBaseline::default();
        tables.compute(&bowl, &solution);
        solution[1] = FnChoice::new(Arch::Arm, true, SimDuration::from_mins(9));
        solution[4] = FnChoice::drop_now(Arch::X86);
        tables.refresh(&bowl, &solution, &[1, 4]);
        let mut fresh = TermBaseline::default();
        fresh.compute(&bowl, &solution);
        assert_eq!(tables.service, fresh.service);
        assert_eq!(tables.cost, fresh.cost);
        assert_eq!(
            tables.evaluate().to_bits(),
            view.evaluate(&solution).to_bits()
        );
        assert_eq!(tables.is_feasible(&bowl), view.is_feasible(&solution));
        // A variant is scored as if evaluated from scratch.
        let mut other = solution.clone();
        other[2] = FnChoice::new(Arch::Arm, true, SimDuration::from_mins(3));
        let expected = if view.is_feasible(&other) {
            view.evaluate(&other)
        } else {
            f64::INFINITY
        };
        assert_eq!(
            tables.evaluate_variant(&bowl, &solution, &other).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn empty_active_set_is_a_noop() {
        let bowl = SepBowl {
            n: 3,
            target_mins: 7.0,
            budget_mins: None,
        };
        let start = vec![FnChoice::production_default(); 3];
        let out = CoordinateDescent::default().optimize_separable_subset(&bowl, start.clone(), &[]);
        assert_eq!(out.solution, start);
    }
}
