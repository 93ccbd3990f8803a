//! Sequential Random Embedding — the paper's optimizer.

use rand::rngs::StdRng;
use rand::SeedableRng;

use cc_types::FnChoice;

use crate::separable::{DescentScratch, TermBaseline};
use crate::space::{combine_solutions_into, sample_filled, IndexGroups, SubproblemScratch};
use crate::{CoordinateDescent, OptOutcome, SeparableObjective};

/// Reusable working storage for [`Sre::optimize`].
///
/// One SRE run churns through a family of buffers — sampling weights,
/// sub-problem index groups, the interval's term tables, the descents'
/// overlay, the touched-index list, the per-round snapshots and costs.
/// A long-lived scheduler that re-optimizes every interval holds one
/// `SreScratch` and passes it to every run, so those buffers are
/// allocated once and recycled forever after: a steady-state run
/// performs **zero** heap allocations.
///
/// The sampling weights and the term tables are built once per run,
/// before round 0; after each round's splice and repair only the touched
/// functions' entries are refreshed, so every round after the first costs
/// work in proportion to the functions it touches. Groups and round
/// snapshots are flat index-range-over-buffer layouts, so refilling them
/// never re-allocates. Results are bit-identical with a fresh or a reused
/// scratch; it carries no state between runs other than spare capacity.
#[derive(Debug, Default)]
pub struct SreScratch {
    subproblems: SubproblemScratch,
    groups: IndexGroups,
    touched: Vec<usize>,
    /// Round snapshots, rounds-major: round `r` is `[r * n, (r + 1) * n)`.
    round_solutions: Vec<FnChoice>,
    /// The objective of each round's solution, in round order.
    round_costs: Vec<f64>,
    /// Per-round pending splice list `(function index, optimized choice)`,
    /// applied only after every group has optimized against the same
    /// pre-round working solution.
    splices: Vec<(usize, FnChoice)>,
    /// Output buffer for the final mean/majority combination.
    combined: Vec<FnChoice>,
    /// Pre-round snapshot used by the probe's accepted-move diff.
    probe_snapshot: Vec<FnChoice>,
    /// The group descents' overlay and candidate list.
    descent: DescentScratch,
    /// The term tables of the working solution.
    tables: TermBaseline,
}

/// Per-round progress snapshot, reported through the optional probe of
/// [`Sre::optimize`].
///
/// Probing is observation-only: the probed and unprobed runs produce
/// identical solutions, costs, and [`OptOutcome::evaluations`] (every run
/// scores each round's solution for the final pick; the probe only reads
/// that score).
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

/// Sequential Random Embedding over the choice space of a
/// [`SeparableObjective`].
///
/// Per round, SRE samples disjoint low-dimensional sub-problems
/// (probabilistically favoring rarely-optimized functions), runs the inner
/// coordinate descent on each against the same pre-round solution, and
/// splices the sub-problem optima back into the working solution. After
/// `rounds` rounds, the final answer is the per-dimension mean/majority of
/// the round solutions — or the best single round if the combination
/// turns out infeasible or worse.
///
/// The per-round dimensionality (`num_subproblems × funcs_per_subproblem ×
/// 3 × rounds`) is kept roughly 10× below the full `3N`, per the paper.
///
/// # Example
///
/// ```
/// use cc_opt::{SeparableObjective, Sre, SreScratch};
/// use cc_types::{Arch, FnChoice};
///
/// struct PreferArm;
/// impl SeparableObjective for PreferArm {
///     fn num_functions(&self) -> usize {
///         12
///     }
///     fn service_term(&self, _idx: usize, c: &FnChoice) -> f64 {
///         if c.arch == Arch::X86 { 1.0 } else { 0.0 }
///     }
///     fn cost_term(&self, _idx: usize, _c: &FnChoice) -> f64 {
///         0.0
///     }
/// }
///
/// let mut counts = vec![0u32; 12];
/// let start = vec![FnChoice::production_default(); 12];
/// let mut scratch = SreScratch::default();
/// let out = Sre::scaled_to(12).optimize(&PreferArm, start, &mut counts, &mut scratch, None);
/// // Three rounds of 2-function sub-problems move ~6 functions to ARM.
/// assert!(out.cost <= 7.0 / 12.0, "sub-problem optima spliced in, got {}", out.cost);
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
    /// intervals). `scratch` holds the working buffers (see
    /// [`SreScratch`]), and `probe`, when given, receives one
    /// [`SreRoundStats`] per round without changing the outcome.
    ///
    /// Every group optimizes against the same pre-round working solution:
    /// splices are collected and applied only after the whole round (a
    /// budget-constrained descent reads the *total* cost of its start,
    /// which an early in-place splice would perturb). The term tables are
    /// built once, before round 0, and refreshed only at the functions
    /// each round touches, in-order re-sums included, so that each total
    /// is the very float a full evaluation forms.
    ///
    /// # Panics
    ///
    /// Panics if `start` or `opt_counts` disagree with the objective size.
    pub fn optimize<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        scratch: &mut SreScratch,
        mut probe: Option<&mut dyn FnMut(SreRoundStats)>,
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
        // Split-borrow the buffers once: the round loop needs several of
        // them live at the same time.
        let SreScratch {
            subproblems,
            groups,
            touched,
            round_solutions,
            round_costs,
            splices,
            combined,
            probe_snapshot,
            descent,
            tables,
        } = scratch;
        round_solutions.clear();
        round_costs.clear();
        subproblems.fill(opt_counts);
        tables.compute(objective, &current);

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
            sample_filled(
                &mut rng,
                self.num_subproblems,
                self.funcs_per_subproblem,
                subproblems,
                groups,
            );
            splices.clear();
            for group in groups.iter() {
                let (_, spent) = self
                    .inner
                    .descend_group(objective, &current, tables, group, descent, splices);
                evaluations += spent;
            }

            // Splice each sub-problem's optimized choices back in (groups
            // are disjoint, so every index appears at most once).
            touched.clear();
            for &(idx, choice) in splices.iter() {
                current[idx] = choice;
                opt_counts[idx] += 1;
                touched.push(idx);
            }
            // The sampled functions' counts moved; the draws zeroed
            // exactly their weights.
            subproblems.refresh(opt_counts, touched);
            // The sub-problems were optimized against the same budget
            // headroom, so the spliced solution can jointly overspend even
            // though each piece was feasible. Repair by scaling the
            // just-optimized keep-alive windows down until feasible.
            evaluations += 1;
            tables.refresh_cost(objective, &current, touched);
            let mut feasible = tables.is_feasible(objective);
            if !feasible {
                for _ in 0..24 {
                    for &idx in touched.iter() {
                        current[idx].keep_alive = current[idx].keep_alive.scale(0.8);
                    }
                    evaluations += 1;
                    tables.refresh_cost(objective, &current, touched);
                    feasible = tables.is_feasible(objective);
                    if feasible {
                        break;
                    }
                }
                if !feasible {
                    for &idx in touched.iter() {
                        current[idx].keep_alive = cc_types::SimDuration::ZERO;
                    }
                    // The zeroed windows postdate the last cost refresh.
                    tables.refresh_cost(objective, &current, touched);
                }
            }
            // Not counted into `evaluations`: the final pick below charges
            // one evaluation per round for reading this cost back.
            tables.refresh_service(objective, &current, touched);
            let cost = tables.evaluate();
            round_costs.push(cost);
            if let Some(probe) = probe.as_deref_mut() {
                let accepted_moves = touched
                    .iter()
                    .map(|&idx| probe_snapshot[idx].changed_coordinates(&current[idx]))
                    .sum();
                probe(SreRoundStats {
                    round: round as u32,
                    subproblems: groups.len() as u32,
                    dimensions: 3 * touched.len() as u32,
                    cost,
                    accepted_moves,
                    evaluations: evaluations - evals_before,
                });
            }
            round_solutions.extend_from_slice(&current);
        }

        // Final answer: the mean of the round solutions — unless it is
        // infeasible or worse than the best round, in which case that
        // round wins. `current` is the last round's solution, whose
        // tables score every function the combination left alone.
        combine_solutions_into(round_solutions, n, combined);
        evaluations += 1;
        let combined_cost = tables.evaluate_variant(objective, &current, combined);
        // First-minimum-wins, matching `Iterator::min_by` over the rounds
        // in order; the snapshots stay in the scratch for the next run.
        let mut best: Option<(f64, usize)> = None;
        for (idx, &cost) in round_costs.iter().enumerate() {
            evaluations += 1;
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
    use crate::objective::testing::SepBowl;

    fn bowl(n: usize) -> SepBowl {
        SepBowl {
            n,
            target_mins: 7.0,
            budget_mins: None,
        }
    }

    fn run(sre: &Sre, b: &SepBowl, start: Vec<FnChoice>, counts: &mut [u32]) -> OptOutcome {
        sre.optimize(b, start, counts, &mut SreScratch::default(), None)
    }

    #[test]
    fn sre_improves_over_start() {
        let b = bowl(40);
        let start = vec![FnChoice::production_default(); 40];
        let start_cost = b.evaluate(&start);
        let mut counts = vec![0u32; 40];
        let out = run(&Sre::scaled_to(40), &b, start, &mut counts);
        assert!(out.cost < start_cost, "{} !< {start_cost}", out.cost);
        // The functions SRE touched were counted.
        assert!(counts.iter().any(|&c| c > 0));
    }

    #[test]
    fn sre_is_deterministic() {
        let b = bowl(20);
        let start = vec![FnChoice::production_default(); 20];
        let a = run(&Sre::scaled_to(20), &b, start.clone(), &mut [0; 20]);
        let c = run(&Sre::scaled_to(20), &b, start, &mut [0; 20]);
        assert_eq!(a.solution, c.solution);
        assert_eq!(a.cost, c.cost);
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
        let out = run(&sre, &b, start.clone(), &mut counts);
        assert!(out.cost < b.evaluate(&start));
    }

    #[test]
    fn sre_respects_budget_feasibility() {
        let b = SepBowl {
            n: 12,
            target_mins: 40.0,
            budget_mins: Some(120.0),
        };
        let start = vec![FnChoice::drop_now(cc_types::Arch::X86); 12];
        let mut counts = vec![0u32; 12];
        let out = run(&Sre::scaled_to(12), &b, start, &mut counts);
        assert!(b.is_feasible(&out.solution));
    }

    #[test]
    fn probing_does_not_perturb_the_outcome() {
        let b = bowl(30);
        let start = vec![FnChoice::production_default(); 30];
        let sre = Sre::scaled_to(30);
        let plain = run(&sre, &b, start.clone(), &mut [0; 30]);
        let mut rounds = Vec::new();
        let probed = sre.optimize(
            &b,
            start,
            &mut [0; 30],
            &mut SreScratch::default(),
            Some(&mut |s| rounds.push(s)),
        );
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
        let b = SepBowl {
            n: 24,
            target_mins: 7.0,
            budget_mins: Some(150.0),
        };
        let start = vec![FnChoice::production_default(); 24];
        let mut scratch = SreScratch::default();
        // A dirty scratch (reused across differently-seeded runs) must
        // reproduce a fresh one bit-for-bit every time.
        for seed in 0..4 {
            let sre = Sre::scaled_to(24).with_seed(seed);
            let fresh = run(&sre, &b, start.clone(), &mut [0; 24]);
            let reused = sre.optimize(&b, start.clone(), &mut [0; 24], &mut scratch, None);
            assert_eq!(fresh.solution, reused.solution, "seed {seed} diverged");
            assert_eq!(fresh.cost, reused.cost);
            assert_eq!(fresh.evaluations, reused.evaluations);
        }
    }

    #[test]
    fn empty_objective_is_a_noop() {
        let out = run(&Sre::scaled_to(1), &bowl(0), vec![], &mut []);
        assert!(out.solution.is_empty());
        assert_eq!(out.evaluations, 0);
    }
}
