//! Sequential Random Embedding — the paper's optimizer.

use rand::rngs::StdRng;
use rand::SeedableRng;

use cc_types::FnChoice;

use crate::separable::{DescentScratch, TermBaseline};
use crate::space::{combine_solutions_into, sample_filled, IndexGroups, SubproblemScratch};
use crate::{CoordinateDescent, Objective, OptOutcome, SeparableObjective};

/// Reusable working storage for [`Sre`]'s round loop.
///
/// One SRE run churns through a family of buffers — sampling weights,
/// sub-problem index groups, the interval's term tables, the descents'
/// overlays, the touched-index list, the per-round snapshots and costs.
/// A long-lived scheduler that re-optimizes every interval can hold one
/// `SreScratch` and pass it to the `_with_scratch` entry points so those
/// buffers are allocated once and recycled forever after: a steady-state
/// serial run performs **zero** heap allocations (the parallel path still
/// allocates per-thread overlays).
///
/// The sampling weights and the separable paths' term tables are built
/// once per run, before round 0; after each round's splice and repair
/// only the touched functions' entries are refreshed, so every round
/// after the first costs work in proportion to the functions it touches.
/// Groups and round snapshots are flat index-range-over-buffer layouts
/// rather than nested `Vec<Vec<_>>`, so refilling them never
/// re-allocates. Results are bit-identical with or without scratch reuse;
/// the scratch carries no state between runs other than spare capacity.
#[derive(Debug, Default)]
pub struct SreScratch {
    rounds: RoundBuffers,
    /// The separable group descents' overlay and candidate list.
    descent: DescentScratch,
    /// The separable paths' term tables of the working solution.
    tables: TermBaseline,
}

/// The round loop's own buffers, shared by the generic and separable
/// paths.
#[derive(Debug, Default)]
struct RoundBuffers {
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
}

/// How the round loop descends and scores solutions: through a generic
/// [`Objective`] ([`Generic`]), or through the interval's term tables
/// ([`Tabled`]). Both give the same floats for a separable objective.
trait Scorer: Sync {
    /// A descent's working storage: held across groups on the serial
    /// path, one per thread on the parallel path.
    type Scratch: Default + Send;

    /// Number of functions.
    fn len(&self) -> usize;

    /// Prepares for a run starting at `start`.
    fn begin(&mut self, start: &[FnChoice]);

    /// Optimizes `group` against `current`, appending `(index, choice)`
    /// splices in group order. Returns the evaluations charged.
    fn descend(
        &self,
        current: &[FnChoice],
        group: &[usize],
        scratch: &mut Self::Scratch,
        splices: &mut Vec<(usize, FnChoice)>,
    ) -> u64;

    /// Whether `current` is feasible; only the functions at `changed` may
    /// have moved since the previous call.
    fn is_feasible(&mut self, current: &[FnChoice], changed: &[usize]) -> bool;

    /// The objective of `current`; only the functions at `changed` may
    /// have moved since the previous call.
    fn evaluate(&mut self, current: &[FnChoice], changed: &[usize]) -> f64;

    /// The objective of `other` if it is feasible, else infinity;
    /// `current` is the solution last passed to [`Scorer::evaluate`].
    fn evaluate_other(&mut self, current: &[FnChoice], other: &[FnChoice]) -> f64;
}

/// Scores through the generic objective and descends on solution copies.
struct Generic<'a> {
    objective: &'a dyn Objective,
    inner: &'a CoordinateDescent,
}

impl Scorer for Generic<'_> {
    /// The working copy of the solution, recycled from each outcome.
    type Scratch = Vec<FnChoice>;

    fn len(&self) -> usize {
        self.objective.num_functions()
    }

    fn begin(&mut self, _start: &[FnChoice]) {}

    fn descend(
        &self,
        current: &[FnChoice],
        group: &[usize],
        work: &mut Vec<FnChoice>,
        splices: &mut Vec<(usize, FnChoice)>,
    ) -> u64 {
        let mut buf = std::mem::take(work);
        buf.clear();
        buf.extend_from_slice(current);
        let outcome = self.inner.optimize_subset(self.objective, buf, group);
        splices.extend(group.iter().map(|&idx| (idx, outcome.solution[idx])));
        *work = outcome.solution;
        outcome.evaluations
    }

    fn is_feasible(&mut self, current: &[FnChoice], _changed: &[usize]) -> bool {
        self.objective.is_feasible(current)
    }

    fn evaluate(&mut self, current: &[FnChoice], _changed: &[usize]) -> f64 {
        self.objective.evaluate(current)
    }

    fn evaluate_other(&mut self, _current: &[FnChoice], other: &[FnChoice]) -> f64 {
        if self.objective.is_feasible(other) {
            self.objective.evaluate(other)
        } else {
            f64::INFINITY
        }
    }
}

/// Scores a separable objective from term tables kept current at the
/// touched indices, and descends each group in place over them.
struct Tabled<'a, T: ?Sized> {
    objective: &'a T,
    inner: &'a CoordinateDescent,
    tables: &'a mut TermBaseline,
}

impl<T: SeparableObjective + ?Sized> Scorer for Tabled<'_, T> {
    type Scratch = DescentScratch;

    fn len(&self) -> usize {
        self.objective.num_functions()
    }

    fn begin(&mut self, start: &[FnChoice]) {
        self.tables.compute(self.objective, start);
    }

    fn descend(
        &self,
        current: &[FnChoice],
        group: &[usize],
        scratch: &mut DescentScratch,
        splices: &mut Vec<(usize, FnChoice)>,
    ) -> u64 {
        self.inner.descend_group(
            self.objective,
            current,
            self.tables,
            group,
            scratch,
            splices,
        )
    }

    fn is_feasible(&mut self, current: &[FnChoice], changed: &[usize]) -> bool {
        self.tables.refresh_cost(self.objective, current, changed);
        self.tables.is_feasible(self.objective)
    }

    fn evaluate(&mut self, current: &[FnChoice], changed: &[usize]) -> f64 {
        self.tables.refresh(self.objective, current, changed);
        self.tables.evaluate()
    }

    fn evaluate_other(&mut self, current: &[FnChoice], other: &[FnChoice]) -> f64 {
        self.tables.evaluate_variant(self.objective, current, other)
    }
}

/// Per-round progress snapshot, reported through the optional probe of
/// [`Sre::optimize_probed`] / [`Sre::optimize_separable_probed`].
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
        self.run_generic(objective, start, opt_counts, None)
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
        self.run_generic(objective, start, opt_counts, Some(probe))
    }

    /// [`Sre::optimize`] specialized for [separable
    /// objectives](crate::SeparableObjective): the inner descent scores
    /// moves in O(1) via term deltas, and the round loop keeps the term
    /// tables current at the touched indices, keeping SRE's total cost
    /// linear in the number of invoked functions.
    pub fn optimize_separable<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
    ) -> OptOutcome {
        let mut scratch = SreScratch::default();
        self.run_separable(objective, start, opt_counts, None, &mut scratch)
    }

    /// [`Sre::optimize_separable`] reusing caller-held working storage.
    ///
    /// Identical result to the plain variant; a scheduler that optimizes
    /// every interval should hold one [`SreScratch`] and pass it here so
    /// the round loop stops allocating in steady state.
    pub fn optimize_separable_with_scratch<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        scratch: &mut SreScratch,
    ) -> OptOutcome {
        self.run_separable(objective, start, opt_counts, None, scratch)
    }

    /// [`Sre::optimize_separable`] with a per-round progress probe
    /// (observation only; the returned outcome is identical to the
    /// unprobed run).
    pub fn optimize_separable_probed<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        probe: &mut dyn FnMut(SreRoundStats),
    ) -> OptOutcome {
        let mut scratch = SreScratch::default();
        self.run_separable(objective, start, opt_counts, Some(probe), &mut scratch)
    }

    /// [`Sre::optimize_separable_probed`] reusing caller-held working
    /// storage (see [`Sre::optimize_separable_with_scratch`]).
    pub fn optimize_separable_probed_with_scratch<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        probe: &mut dyn FnMut(SreRoundStats),
        scratch: &mut SreScratch,
    ) -> OptOutcome {
        self.run_separable(objective, start, opt_counts, Some(probe), scratch)
    }

    fn run_generic(
        &self,
        objective: &dyn Objective,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        probe: Option<&mut dyn FnMut(SreRoundStats)>,
    ) -> OptOutcome {
        let mut scorer = Generic {
            objective,
            inner: &self.inner,
        };
        self.run_rounds(
            &mut scorer,
            &mut Vec::new(),
            start,
            opt_counts,
            probe,
            &mut RoundBuffers::default(),
        )
    }

    fn run_separable<T: SeparableObjective + ?Sized>(
        &self,
        objective: &T,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        probe: Option<&mut dyn FnMut(SreRoundStats)>,
        scratch: &mut SreScratch,
    ) -> OptOutcome {
        let SreScratch {
            rounds,
            descent,
            tables,
        } = scratch;
        let mut scorer = Tabled {
            objective,
            inner: &self.inner,
            tables,
        };
        self.run_rounds(&mut scorer, descent, start, opt_counts, probe, rounds)
    }

    /// Shared SRE machinery, parameterized over how groups are descended
    /// and solutions scored.
    ///
    /// All transient buffers live in `buffers`, `descent` and the scorer,
    /// and are recycled, so a caller reusing one scratch across intervals
    /// performs zero steady-state allocations on the serial path. Only
    /// the parallel path allocates (threads need their own descent
    /// scratch).
    ///
    /// Every group optimizes against the same pre-round working solution:
    /// splices are collected and applied only after the whole round, on
    /// both the serial and parallel paths, so the two agree bit-for-bit
    /// (a budget-constrained descent reads the *total* cost of its start,
    /// which an early in-place splice would perturb).
    ///
    /// The sampling weights and the scorer's state are set up once, before
    /// round 0. After each round's splice and repair, only the touched
    /// functions have moved, so only their weights and terms are
    /// refreshed: every later round costs work in proportion to the
    /// functions it touches (plus in-order re-sums of the term tables, so
    /// that each total is the very float a full evaluation forms).
    fn run_rounds<S: Scorer>(
        &self,
        scorer: &mut S,
        descent: &mut S::Scratch,
        start: Vec<FnChoice>,
        opt_counts: &mut [u32],
        mut probe: Option<&mut dyn FnMut(SreRoundStats)>,
        buffers: &mut RoundBuffers,
    ) -> OptOutcome {
        let n = scorer.len();
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
        let RoundBuffers {
            subproblems,
            groups,
            touched,
            round_solutions,
            round_costs,
            splices,
            combined,
            probe_snapshot,
        } = buffers;
        round_solutions.clear();
        round_costs.clear();
        subproblems.fill(opt_counts);
        scorer.begin(&current);

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
            if self.parallel && groups.len() > 1 {
                let (scorer, current) = (&*scorer, &current);
                let outcomes: Vec<(u64, Vec<(usize, FnChoice)>)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .iter()
                        .map(|group| {
                            scope.spawn(move || {
                                let mut own = Vec::with_capacity(group.len());
                                let evals = scorer.descend(
                                    current,
                                    group,
                                    &mut S::Scratch::default(),
                                    &mut own,
                                );
                                (evals, own)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("sub-problem thread panicked"))
                        .collect()
                });
                for (evals, own) in outcomes {
                    evaluations += evals;
                    splices.extend(own);
                }
            } else {
                for group in groups.iter() {
                    evaluations += scorer.descend(&current, group, descent, splices);
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
            // The sampled functions' counts moved; the draws zeroed
            // exactly their weights.
            subproblems.refresh(opt_counts, touched);
            // The sub-problems were optimized against the same budget
            // headroom, so the spliced solution can jointly overspend even
            // though each piece was feasible. Repair by scaling the
            // just-optimized keep-alive windows down until feasible.
            evaluations += 1;
            let mut feasible = scorer.is_feasible(&current, touched);
            if !feasible {
                for _ in 0..24 {
                    for &idx in touched.iter() {
                        current[idx].keep_alive = current[idx].keep_alive.scale(0.8);
                    }
                    evaluations += 1;
                    feasible = scorer.is_feasible(&current, touched);
                    if feasible {
                        break;
                    }
                }
                if !feasible {
                    for &idx in touched.iter() {
                        current[idx].keep_alive = cc_types::SimDuration::ZERO;
                    }
                }
            }
            // Not counted into `evaluations`: the final pick below charges
            // one evaluation per round for reading this cost back.
            let cost = scorer.evaluate(&current, touched);
            round_costs.push(cost);
            if let Some(probe) = probe.as_deref_mut() {
                let mut accepted_moves = 0u64;
                for &idx in touched.iter() {
                    let (a, b) = (probe_snapshot[idx], current[idx]);
                    accepted_moves += u64::from(a.arch != b.arch)
                        + u64::from(a.compress != b.compress)
                        + u64::from(a.keep_alive != b.keep_alive);
                }
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
        // round wins. `current` is the last round's solution, which the
        // scorer reuses for every function the combination left alone.
        combine_solutions_into(round_solutions, n, combined);
        evaluations += 1;
        let combined_cost = scorer.evaluate_other(&current, combined);
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
