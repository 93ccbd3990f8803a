//! Sequential Random Embedding — the paper's optimizer.

use rand::rngs::StdRng;
use rand::SeedableRng;

use cc_types::FnChoice;

use crate::separable::{DescentScratch, TermBaseline};
use crate::space::{
    combine_solutions_into, sample_subproblems_into, IndexGroups, SubproblemScratch,
};
use crate::{CoordinateDescent, Objective, OptOutcome};

/// Reusable working storage for [`Sre`]'s round loop.
///
/// One SRE run churns through a family of short-lived buffers — sampling
/// weights, sub-problem index groups, the working-solution copy handed to
/// the inner descent, the touched-index list, the per-round snapshots, and
/// the descent's own working vectors. A long-lived scheduler that
/// re-optimizes every interval can hold one `SreScratch` and pass it to
/// the `_with_scratch` entry points so those buffers are allocated once
/// and recycled forever after: a steady-state serial round performs
/// **zero** heap allocations (the parallel path still allocates per-thread
/// copies). Groups and round snapshots are flat index-range-over-buffer
/// layouts rather than nested `Vec<Vec<_>>`, so refilling them never
/// re-allocates. Results are bit-identical with or without scratch reuse;
/// the scratch carries no state between runs other than spare capacity.
#[derive(Debug, Default)]
pub struct SreScratch {
    subproblems: SubproblemScratch,
    groups: IndexGroups,
    touched: Vec<usize>,
    /// Round snapshots, rounds-major: round `r` is `[r * n, (r + 1) * n)`.
    round_solutions: Vec<FnChoice>,
    /// The solution copy handed to the serial inner descent; recycled from
    /// the returned outcome after every group.
    work: Vec<FnChoice>,
    /// Per-round pending splice list `(function index, optimized choice)`,
    /// applied only after every group has optimized against the same
    /// pre-round working solution.
    splices: Vec<(usize, FnChoice)>,
    /// Output buffer for the final mean/majority combination.
    combined: Vec<FnChoice>,
    /// Pre-round snapshot used by the probe's accepted-move diff.
    probe_snapshot: Vec<FnChoice>,
    descent: DescentScratch,
    /// Shared per-round term tables: every sub-problem in a round descends
    /// from the same pre-round solution, so the separable path computes
    /// the O(N) service/cost baseline once per round here instead of once
    /// per sub-problem (see [`TermBaseline`]).
    baseline: TermBaseline,
}

/// The inner sub-problem optimizer handed to the round loop: takes a copy
/// of the working solution, the sampled function-index group, the caller's
/// descent scratch, and the round's shared term baseline (empty on the
/// generic, non-separable paths); returns the optimized copy.
type SubsetOptimizer<'a> =
    dyn Fn(Vec<FnChoice>, &[usize], &mut DescentScratch, &TermBaseline) -> OptOutcome + Sync + 'a;

/// Refreshes the shared [`TermBaseline`] from the round's starting
/// solution; `None` on the generic paths, which have no term structure.
type BaselinePrepare<'a> = dyn Fn(&[FnChoice], &mut TermBaseline) + 'a;

/// Per-round progress snapshot, reported through the optional probe of
/// [`Sre::optimize_probed`] / [`Sre::optimize_separable_probed`].
///
/// Probing is observation-only: the probed and unprobed runs produce
/// identical solutions, costs, and [`OptOutcome::evaluations`] (the one
/// extra objective evaluation needed for [`SreRoundStats::cost`] is not
/// counted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SreRoundStats {
    /// Round ordinal (0-based).
    pub round: u32,
    /// Disjoint sub-problems sampled this round.
    pub subproblems: u32,
    /// Choice dimensions optimized this round (3 per sampled function).
    pub dimensions: u32,
    /// Objective value of the spliced (and repaired) working solution.
    pub cost: f64,
    /// Coordinates (arch / compress / keep-alive each count) whose value
    /// changed versus the round's start.
    pub accepted_moves: u64,
    /// Objective evaluations consumed by this round's searches and repair.
    pub evaluations: u64,
}

/// Sequential Random Embedding over the choice space.
///
/// Per round, SRE samples disjoint low-dimensional sub-problems
/// (probabilistically favoring rarely-optimized functions), runs the inner
/// coordinate descent on each against the same pre-round solution, and
/// splices the sub-problem optima back into the working solution. With
/// [`Sre::parallel`] set, the sub-problems run on scoped threads; results
/// are identical either way, and CodeCrunch clears it because its
/// sub-problems are too small to pay for a thread each. After `rounds`
/// rounds, the final answer is the per-dimension mean/majority of the
/// round solutions — or the best single round if the combination turns
/// out infeasible or worse.
///
/// The per-round dimensionality (`num_subproblems × funcs_per_subproblem ×
/// 3 × rounds`) is kept roughly 10× below the full `3N`, per the paper.
///
/// # Example
///
/// ```
/// use cc_opt::{Objective, Sre};
/// use cc_types::{Arch, FnChoice};
///
/// struct PreferArm;
/// impl Objective for PreferArm {
///     fn num_functions(&self) -> usize {
///         12
///     }
///     fn evaluate(&self, s: &[FnChoice]) -> f64 {
///         s.iter().filter(|c| c.arch == Arch::X86).count() as f64
///     }
/// }
///
/// let mut counts = vec![0u32; 12];
/// let start = vec![FnChoice::production_default(); 12];
/// let out = Sre::scaled_to(12).optimize(&PreferArm, start, &mut counts);
/// // Three rounds of 2-function sub-problems move ~6 functions to ARM.
/// assert!(out.cost <= 7.0, "sub-problem optima spliced in, got {}", out.cost);
/// ```
#[derive(Debug, Clone)]
pub struct Sre {
    /// Functions per sub-problem (`D_SRE / 3` in the paper's notation).
    pub funcs_per_subproblem: usize,
    /// Sub-problems per round (`N_SRE`).
    pub num_subproblems: usize,
    /// Optimization rounds (`P_num`).
    pub rounds: usize,
    /// RNG seed for sub-problem sampling.
    pub seed: u64,
    /// Inner sub-problem optimizer.
    pub inner: CoordinateDescent,
    /// Run sub-problems on parallel threads (deterministic either way).
    pub parallel: bool,
}

impl Sre {
    /// Scales the SRE parameters to `n` functions the way the paper
    /// describes: sub-problem count and size grow with `n`. Each round
    /// samples roughly a third of the functions into sub-problems of at
    /// most a dozen, so across the three rounds most functions are
    /// revisited while every individual search stays low-dimensional —
    /// the joint spaces actually searched are exponentially smaller than
    /// the full `244^n` space.
    pub fn scaled_to(n: usize) -> Sre {
        let funcs_per_subproblem = n.div_ceil(24).clamp(2, 12);
        let num_subproblems = n.div_ceil(3 * funcs_per_subproblem).clamp(1, 16);
        Sre {
            funcs_per_subproblem,
            num_subproblems,
            rounds: 3,
            seed: 0,
            inner: CoordinateDescent {
                max_rounds: 16,
                eval_budget: 4_000,
            },
            parallel: true,
        }
    }

    /// Returns a copy with a different sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Sre {
        self.seed = seed;
        self
    }

    /// Optimizes starting from `start`.
    ///
    /// `opt_counts[i]` is how many times function `i` has been optimized in
    /// past rounds/intervals; SRE samples inversely to it and increments it
    /// for every function it optimizes (the caller persists it across
    /// intervals).
    ///
    /// # Panics
    ///
    /// Panics if `start` or `opt_counts` disagree with the objective size.
    pub fn optimize(
        &self,
        objective: &dyn Objective,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
    ) -> OptOutcome {
        let inner = self.inner.clone();
        let mut scratch = SreScratch::default();
        self.run_rounds(
            objective,
            start,
            opt_counts,
            None,
            &move |s, group, _scratch, _baseline| inner.optimize_subset(objective, s, group),
            None,
            &mut scratch,
        )
    }

    /// [`Sre::optimize`] with a per-round progress probe (observation only;
    /// the returned outcome is identical to the unprobed run).
    pub fn optimize_probed(
        &self,
        objective: &dyn Objective,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        probe: &mut dyn FnMut(SreRoundStats),
    ) -> OptOutcome {
        let inner = self.inner.clone();
        let mut scratch = SreScratch::default();
        self.run_rounds(
            objective,
            start,
            opt_counts,
            Some(probe),
            &move |s, group, _scratch, _baseline| inner.optimize_subset(objective, s, group),
            None,
            &mut scratch,
        )
    }

    /// [`Sre::optimize`] specialized for [separable
    /// objectives](crate::SeparableObjective): the inner descent scores
    /// moves in O(1) via term deltas, keeping SRE's total cost linear in
    /// the number of invoked functions.
    pub fn optimize_separable<T: crate::SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
    ) -> OptOutcome {
        let mut scratch = SreScratch::default();
        self.optimize_separable_with_scratch(objective, start, opt_counts, &mut scratch)
    }

    /// [`Sre::optimize_separable`] reusing caller-held working storage.
    ///
    /// Identical result to the plain variant; a scheduler that optimizes
    /// every interval should hold one [`SreScratch`] and pass it here so
    /// the round loop stops allocating in steady state.
    pub fn optimize_separable_with_scratch<T: crate::SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        scratch: &mut SreScratch,
    ) -> OptOutcome {
        let view = crate::SeparableView(objective);
        let inner = self.inner.clone();
        let prepare = |solution: &[FnChoice], baseline: &mut TermBaseline| {
            baseline.compute(objective, solution)
        };
        self.run_rounds(
            &view,
            start,
            opt_counts,
            None,
            &move |s, group, scratch, baseline| {
                inner.optimize_separable_subset_seeded(objective, s, group, scratch, baseline)
            },
            Some(&prepare),
            scratch,
        )
    }

    /// [`Sre::optimize_separable`] with a per-round progress probe
    /// (observation only; the returned outcome is identical to the
    /// unprobed run).
    pub fn optimize_separable_probed<T: crate::SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        probe: &mut dyn FnMut(SreRoundStats),
    ) -> OptOutcome {
        let mut scratch = SreScratch::default();
        self.optimize_separable_probed_with_scratch(
            objective,
            start,
            opt_counts,
            probe,
            &mut scratch,
        )
    }

    /// [`Sre::optimize_separable_probed`] reusing caller-held working
    /// storage (see [`Sre::optimize_separable_with_scratch`]).
    pub fn optimize_separable_probed_with_scratch<T: crate::SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        probe: &mut dyn FnMut(SreRoundStats),
        scratch: &mut SreScratch,
    ) -> OptOutcome {
        let view = crate::SeparableView(objective);
        let inner = self.inner.clone();
        let prepare = |solution: &[FnChoice], baseline: &mut TermBaseline| {
            baseline.compute(objective, solution)
        };
        self.run_rounds(
            &view,
            start,
            opt_counts,
            Some(probe),
            &move |s, group, scratch, baseline| {
                inner.optimize_separable_subset_seeded(objective, s, group, scratch, baseline)
            },
            Some(&prepare),
            scratch,
        )
    }

    /// Shared SRE machinery, parameterized over the sub-problem optimizer.
    ///
    /// All transient buffers (the flat group index list, the working
    /// solution handed to the descent, the pending-splice list, touched
    /// indices, the flat round snapshots, and the combination output) live
    /// in `scratch` and are recycled, so a caller reusing one scratch
    /// across intervals performs zero steady-state allocations on the
    /// serial path. Only the parallel path allocates (threads need owned
    /// solutions and their own descent scratch).
    ///
    /// Every group optimizes against the same pre-round working solution:
    /// splices are collected and applied only after the whole round, on
    /// both the serial and parallel paths, so the two agree bit-for-bit
    /// (a budget-constrained descent reads the *total* cost of its start,
    /// which an early in-place splice would perturb).
    ///
    /// That shared starting point is also why `prepare` exists: on the
    /// separable paths it refreshes the round's [`TermBaseline`] from the
    /// working solution exactly once, and every sub-problem descent seeds
    /// from it instead of re-deriving the O(N) term tables. Bit-identical
    /// either way — the baseline holds the very floats each descent would
    /// have computed.
    #[allow(clippy::too_many_arguments)]
    fn run_rounds(
        &self,
        objective: &dyn Objective,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        mut probe: Option<&mut dyn FnMut(SreRoundStats)>,
        optimize_subset: &SubsetOptimizer<'_>,
        prepare: Option<&BaselinePrepare<'_>>,
        scratch: &mut SreScratch,
    ) -> OptOutcome {
        let n = objective.num_functions();
        assert_eq!(start.len(), n, "start length must match objective");
        assert_eq!(
            opt_counts.len(),
            n,
            "opt_counts length must match objective"
        );
        if n == 0 {
            return OptOutcome {
                solution: start,
                cost: 0.0,
                evaluations: 0,
            };
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut current = start;
        let mut evaluations = 0u64;
        // Split-borrow the scratch once: the round loop needs several of
        // its buffers live at the same time.
        let SreScratch {
            subproblems,
            groups,
            touched,
            round_solutions,
            work,
            splices,
            combined,
            probe_snapshot,
            descent,
            baseline,
        } = scratch;
        round_solutions.clear();

        for round in 0..self.rounds {
            // Wall-clock probe (one relaxed atomic when profiling is off):
            // the optimizer is reached through `dyn Scheduler`, so the
            // engine's monomorphized profiler type cannot flow here.
            let _round_span = cc_prof::DynScope::new(cc_prof::Phase::SreRound);
            // Probe-only bookkeeping: a pre-round snapshot for the
            // accepted-move diff, and the evaluation watermark. Neither
            // costs anything on the unprobed path.
            if probe.is_some() {
                probe_snapshot.clear();
                probe_snapshot.extend_from_slice(&current);
            }
            let evals_before = evaluations;
            sample_subproblems_into(
                &mut rng,
                opt_counts,
                self.num_subproblems,
                self.funcs_per_subproblem,
                subproblems,
                groups,
            );
            splices.clear();
            // The term baseline is a function of the working solution, so
            // it must be refreshed after the previous round's splices and
            // repair — i.e. exactly once here, then shared by every group.
            if let Some(prepare) = prepare {
                prepare(&current, baseline);
            }
            if self.parallel && groups.len() > 1 {
                let current_ref = &current;
                let baseline_ref: &TermBaseline = baseline;
                let outcomes: Vec<OptOutcome> = std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .iter()
                        .map(|group| {
                            scope.spawn(move || {
                                let mut descent = DescentScratch::default();
                                optimize_subset(
                                    current_ref.clone(),
                                    group,
                                    &mut descent,
                                    baseline_ref,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("sub-problem thread panicked"))
                        .collect()
                });
                for (group, outcome) in groups.iter().zip(&outcomes) {
                    evaluations += outcome.evaluations;
                    for &idx in group {
                        splices.push((idx, outcome.solution[idx]));
                    }
                }
            } else {
                for group in groups.iter() {
                    let mut buf = std::mem::take(work);
                    buf.clear();
                    buf.extend_from_slice(&current);
                    let outcome = optimize_subset(buf, group, descent, baseline);
                    evaluations += outcome.evaluations;
                    for &idx in group {
                        splices.push((idx, outcome.solution[idx]));
                    }
                    // Recycle the descent's solution as the next group's
                    // working copy — the serial loop owns exactly one.
                    *work = outcome.solution;
                }
            }

            // Splice each sub-problem's optimized choices back in (groups
            // are disjoint, so every index appears at most once).
            touched.clear();
            for &(idx, choice) in splices.iter() {
                current[idx] = choice;
                opt_counts[idx] += 1;
                touched.push(idx);
            }
            // The sub-problems were optimized against the same budget
            // headroom, so the spliced solution can jointly overspend even
            // though each piece was feasible. Repair by scaling the
            // just-optimized keep-alive windows down until feasible.
            evaluations += 1;
            if !objective.is_feasible(&current) {
                for _ in 0..24 {
                    for &idx in touched.iter() {
                        current[idx].keep_alive = current[idx].keep_alive.scale(0.8);
                    }
                    evaluations += 1;
                    if objective.is_feasible(&current) {
                        break;
                    }
                }
                if !objective.is_feasible(&current) {
                    for &idx in touched.iter() {
                        current[idx].keep_alive = cc_types::SimDuration::ZERO;
                    }
                }
            }
            if let Some(probe) = probe.as_deref_mut() {
                let mut accepted_moves = 0u64;
                for &idx in touched.iter() {
                    let (a, b) = (probe_snapshot[idx], current[idx]);
                    accepted_moves += u64::from(a.arch != b.arch)
                        + u64::from(a.compress != b.compress)
                        + u64::from(a.keep_alive != b.keep_alive);
                }
                // This evaluate is probe-only and deliberately NOT counted
                // into `evaluations`, so probed and unprobed outcomes match.
                probe(SreRoundStats {
                    round: round as u32,
                    subproblems: groups.len() as u32,
                    dimensions: 3 * touched.len() as u32,
                    cost: objective.evaluate(&current),
                    accepted_moves,
                    evaluations: evaluations - evals_before,
                });
            }
            round_solutions.extend_from_slice(&current);
        }

        // Final answer: the mean of the round solutions — unless it is
        // infeasible or worse than the best round, in which case that
        // round wins.
        combine_solutions_into(round_solutions, n, combined);
        evaluations += 1;
        let combined_cost = if objective.is_feasible(combined) {
            objective.evaluate(combined)
        } else {
            f64::INFINITY
        };
        // First-minimum-wins, matching `Iterator::min_by` over the rounds
        // in order; the snapshots stay in the scratch for the next run.
        let mut best: Option<(f64, usize)> = None;
        for idx in 0..self.rounds {
            evaluations += 1;
            let cost = objective.evaluate(&round_solutions[idx * n..(idx + 1) * n]);
            let better = match best {
                None => true,
                Some((best_cost, _)) => cost.total_cmp(&best_cost) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some((cost, idx));
            }
        }
        let (best_round_cost, best_idx) = best.expect("at least one round ran");

        // Reuse `current` (already the right length and capacity) as the
        // returned solution buffer: the caller gave us `start` and gets it
        // back refilled, so the whole run is allocation-neutral.
        current.clear();
        if combined_cost <= best_round_cost {
            current.extend_from_slice(combined);
            OptOutcome {
                solution: current,
                cost: combined_cost,
                evaluations,
            }
        } else {
            current.extend_from_slice(&round_solutions[best_idx * n..(best_idx + 1) * n]);
            OptOutcome {
                solution: current,
                cost: best_round_cost,
                evaluations,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::testing::Bowl;

    fn bowl(n: usize) -> Bowl {
        Bowl {
            n,
            target_mins: 7.0,
            max_total_mins: None,
        }
    }

    #[test]
    fn sre_improves_over_start() {
        let b = bowl(40);
        let start = vec![FnChoice::production_default(); 40];
        let start_cost = b.evaluate(&start);
        let mut counts = vec![0u32; 40];
        let out = Sre::scaled_to(40).optimize(&b, start, &mut counts);
        assert!(out.cost < start_cost, "{} !< {start_cost}", out.cost);
        // The functions SRE touched were counted.
        assert!(counts.iter().any(|&c| c > 0));
    }

    #[test]
    fn sre_is_deterministic() {
        let b = bowl(20);
        let start = vec![FnChoice::production_default(); 20];
        let a = Sre::scaled_to(20).optimize(&b, start.clone(), &mut [0; 20]);
        let c = Sre::scaled_to(20).optimize(&b, start, &mut [0; 20]);
        assert_eq!(a.solution, c.solution);
        assert_eq!(a.cost, c.cost);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let b = bowl(30);
        let start = vec![FnChoice::production_default(); 30];
        let mut parallel = Sre::scaled_to(30);
        parallel.num_subproblems = 4;
        let mut serial = parallel.clone();
        serial.parallel = false;
        let pa = parallel.optimize(&b, start.clone(), &mut [0; 30]);
        let se = serial.optimize(&b, start, &mut [0; 30]);
        assert_eq!(pa.solution, se.solution);
    }

    #[test]
    fn sre_subproblems_stay_low_dimensional() {
        let n = 100;
        let b = bowl(n);
        let start = vec![FnChoice::production_default(); n];
        let sre = Sre::scaled_to(n);
        // Each sub-problem search space stays tiny relative to the joint
        // space (244^12 vs 244^100), and total work per interval is linear
        // in n rather than exponential.
        assert!(sre.funcs_per_subproblem <= 12);
        let per_round = sre.num_subproblems * sre.funcs_per_subproblem * 3;
        assert!(
            per_round * sre.rounds <= 4 * n,
            "per-interval dimension visits {} should stay linear in n",
            per_round * sre.rounds
        );
        let mut counts = vec![0u32; n];
        let out = sre.optimize(&b, start.clone(), &mut counts);
        assert!(out.cost < b.evaluate(&start));
    }

    #[test]
    fn sre_respects_budget_feasibility() {
        let b = Bowl {
            n: 12,
            target_mins: 40.0,
            max_total_mins: Some(120.0),
        };
        let start = vec![FnChoice::drop_now(cc_types::Arch::X86); 12];
        let mut counts = vec![0u32; 12];
        let out = Sre::scaled_to(12).optimize(&b, start, &mut counts);
        assert!(b.is_feasible(&out.solution));
    }

    #[test]
    fn probing_does_not_perturb_the_outcome() {
        let b = bowl(30);
        let start = vec![FnChoice::production_default(); 30];
        let sre = Sre::scaled_to(30);
        let plain = sre.optimize(&b, start.clone(), &mut [0; 30]);
        let mut rounds = Vec::new();
        let probed = sre.optimize_probed(&b, start, &mut [0; 30], &mut |s| rounds.push(s));
        assert_eq!(plain.solution, probed.solution);
        assert_eq!(plain.cost, probed.cost);
        assert_eq!(plain.evaluations, probed.evaluations);
        assert_eq!(rounds.len(), sre.rounds);
        for (i, r) in rounds.iter().enumerate() {
            assert_eq!(r.round as usize, i);
            assert!(r.subproblems >= 1);
            assert!(r.dimensions >= 3 * r.subproblems);
            assert!(r.evaluations > 0);
            assert!(r.cost.is_finite());
        }
        // The descent actually moves coordinates on a bowl objective.
        assert!(rounds.iter().any(|r| r.accepted_moves > 0));
    }

    #[test]
    fn scratch_reuse_is_behavior_preserving() {
        use crate::SeparableObjective;

        /// Minimal separable bowl for exercising the scratch paths.
        struct SepBowl;
        impl SeparableObjective for SepBowl {
            fn num_functions(&self) -> usize {
                24
            }
            fn service_term(&self, _idx: usize, c: &FnChoice) -> f64 {
                let d = c.keep_alive.as_mins_f64() - 7.0;
                d * d + if c.compress { 0.0 } else { 2.0 }
            }
            fn cost_term(&self, _idx: usize, c: &FnChoice) -> f64 {
                c.keep_alive.as_mins_f64()
            }
            fn budget(&self) -> Option<f64> {
                Some(150.0)
            }
        }

        let start = vec![FnChoice::production_default(); 24];
        let mut scratch = SreScratch::default();
        // A dirty scratch (reused across differently-seeded runs) must
        // reproduce the allocating path bit-for-bit every time.
        for seed in 0..4 {
            let sre = Sre::scaled_to(24).with_seed(seed);
            let fresh = sre.optimize_separable(&SepBowl, start.clone(), &mut [0; 24]);
            let reused = sre.optimize_separable_with_scratch(
                &SepBowl,
                start.clone(),
                &mut [0; 24],
                &mut scratch,
            );
            assert_eq!(fresh.solution, reused.solution, "seed {seed} diverged");
            assert_eq!(fresh.cost, reused.cost);
            assert_eq!(fresh.evaluations, reused.evaluations);
        }
    }

    #[test]
    fn empty_objective_is_a_noop() {
        let b = bowl(0);
        let out = Sre::scaled_to(1).optimize(&b, vec![], &mut []);
        assert!(out.solution.is_empty());
        assert_eq!(out.evaluations, 0);
    }
}
