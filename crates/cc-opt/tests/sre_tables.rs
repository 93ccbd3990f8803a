//! SRE's term tables never drift from the solution they describe.
//!
//! SRE builds its service/cost tables once per
//! run and refreshes them only at the functions each round touches; the
//! round costs, the feasibility checks that drive the repair loop and the
//! final pick are all read off those tables. These properties generate
//! random separable objectives (1 to about 400 functions, so that some
//! descents move and others stop before their first neighbour, under
//! binding and unlimited budgets) and check that the reported cost is the
//! very float a from-scratch evaluation gives, that feasibility survives,
//! and that probing and scratch reuse change nothing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cc_opt::{OptOutcome, SeparableObjective, Sre, SreScratch};
use cc_types::{Arch, FnChoice, SimDuration};

/// A random separable objective shaped like CodeCrunch's interval
/// objective: execution plus an exponential-tail cold-start risk, a
/// keep-alive cost proportional to footprint and window, and functions
/// that may not be compressed.
#[derive(Debug)]
struct Random {
    exec: Vec<[f64; 2]>,
    cold: Vec<[f64; 2]>,
    decompress: Vec<f64>,
    pest_mins: Vec<f64>,
    memory: Vec<[f64; 2]>,
    rate: [f64; 2],
    no_compress: Vec<bool>,
    budget: Option<f64>,
}

impl SeparableObjective for Random {
    fn num_functions(&self) -> usize {
        self.exec.len()
    }

    fn service_term(&self, i: usize, c: &FnChoice) -> f64 {
        let a = c.arch.index();
        let p_warm = 1.0 - (-2.0 * c.keep_alive.as_mins_f64() / self.pest_mins[i]).exp();
        let warm = if c.compress { self.decompress[i] } else { 0.0 };
        self.exec[i][a] + p_warm * warm + (1.0 - p_warm) * self.cold[i][a]
    }

    fn cost_term(&self, i: usize, c: &FnChoice) -> f64 {
        self.rate[c.arch.index()] * self.memory_term(i, c)
    }

    fn memory_term(&self, i: usize, c: &FnChoice) -> f64 {
        self.memory[i][usize::from(c.compress)] * c.keep_alive.as_mins_f64()
    }

    fn allowed(&self, i: usize, c: &FnChoice) -> bool {
        !(c.compress && self.no_compress[i])
    }

    fn budget(&self) -> Option<f64> {
        self.budget
    }
}

/// One generated case.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    /// 0: unlimited; otherwise the budget is `binding` × the cost of
    /// keeping every function alive for 30 minutes uncompressed on x86.
    binding: f64,
    eval_budget: u64,
    /// Whether the start may hold compressed choices some functions
    /// forbid (an infeasible start).
    wild_start: bool,
    seed: u64,
}

impl Case {
    fn build(&self) -> (Random, Vec<FnChoice>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.n;
        let mut objective = Random {
            exec: Vec::with_capacity(n),
            cold: Vec::with_capacity(n),
            decompress: Vec::with_capacity(n),
            pest_mins: Vec::with_capacity(n),
            memory: Vec::with_capacity(n),
            rate: [1.0, rng.gen_range(0.6..1.0)],
            no_compress: Vec::with_capacity(n),
            budget: None,
        };
        for _ in 0..n {
            let exec: f64 = rng.gen_range(0.05..20.0);
            objective.exec.push([exec, exec * rng.gen_range(0.6..1.6)]);
            let cold: f64 = rng.gen_range(0.5..8.0);
            objective.cold.push([cold, cold * 1.25]);
            objective.decompress.push(rng.gen_range(0.05..1.0));
            objective.pest_mins.push(rng.gen_range(0.5..90.0));
            let memory: f64 = rng.gen_range(64.0..2048.0);
            objective
                .memory
                .push([memory, memory * rng.gen_range(0.2..0.8)]);
            objective.no_compress.push(rng.gen_range(0..4) == 0);
        }
        if self.binding > 0.0 {
            let full: f64 = objective.memory.iter().map(|m| m[0] * 30.0).sum();
            objective.budget = Some(self.binding * full);
        }
        let start = (0..n)
            .map(|i| {
                let arch = if rng.gen() { Arch::Arm } else { Arch::X86 };
                let compress =
                    rng.gen_range(0..3) == 0 && (self.wild_start || !objective.no_compress[i]);
                let mins = if self.binding > 0.0 && !self.wild_start {
                    0
                } else {
                    rng.gen_range(0..=60)
                };
                FnChoice::new(arch, compress, SimDuration::from_mins(mins))
            })
            .collect();
        let counts = (0..n).map(|_| rng.gen_range(0..6)).collect();
        (objective, start, counts)
    }

    fn sre(&self) -> Sre {
        let mut sre = Sre::scaled_to(self.n).with_seed(self.seed ^ 0x5eed);
        sre.inner.eval_budget = self.eval_budget;
        sre
    }
}

/// Sizes log-uniform over `1..=400`, half the cases budgeted (from
/// starved to loose), inner budgets CodeCrunch uses (250 per sub-problem)
/// and a generous one, so descents that stop at once (`n` at or above the
/// inner budget) and descents that move both occur.
fn cases() -> impl Strategy<Value = Case> {
    (
        0.0f64..=1.0,
        0u8..=3,
        0.02f64..1.2,
        0u8..=2,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(t, budget_mode, binding, eval, wild_start, seed)| Case {
            n: (400f64.powf(t).round() as usize).clamp(1, 400),
            binding: if budget_mode < 2 { 0.0 } else { binding },
            eval_budget: [40, 250, 4_000][eval as usize],
            wild_start,
            seed,
        })
}

fn same(label: &str, a: &OptOutcome, b: &OptOutcome) -> Result<(), String> {
    prop_assert_eq!(&a.solution, &b.solution, "{} changed the solution", label);
    prop_assert_eq!(
        a.cost.to_bits(),
        b.cost.to_bits(),
        "{} changed the cost",
        label
    );
    prop_assert_eq!(
        a.evaluations,
        b.evaluations,
        "{} changed the evaluations",
        label
    );
    Ok(())
}

fn check(case: Case) -> Result<(), String> {
    let (objective, start, counts) = case.build();
    let sre = case.sre();

    let mut plain_counts = counts.clone();
    let plain = sre.optimize(
        &objective,
        start.clone(),
        &mut plain_counts,
        &mut SreScratch::default(),
        None,
    );
    prop_assert_eq!(
        plain.cost.to_bits(),
        objective.evaluate(&plain.solution).to_bits(),
        "the reported cost is not the solution's evaluation on {:?}",
        case
    );
    if objective.is_feasible(&start) {
        prop_assert!(
            objective.is_feasible(&plain.solution),
            "a feasible start ended infeasible on {:?}",
            case
        );
    }

    let mut probed_counts = counts.clone();
    let mut rounds = Vec::new();
    let probed = sre.optimize(
        &objective,
        start.clone(),
        &mut probed_counts,
        &mut SreScratch::default(),
        Some(&mut |stats| rounds.push(stats)),
    );
    same("probing", &plain, &probed)?;
    prop_assert_eq!(&plain_counts, &probed_counts);
    prop_assert_eq!(rounds.len(), sre.rounds);
    prop_assert!(rounds.iter().all(|r| r.cost.is_finite()));

    // A scratch dirtied by a different, larger run.
    let mut scratch = SreScratch::default();
    let other = Case {
        n: 401 - case.n.min(400),
        seed: case.seed.wrapping_add(1),
        ..case
    };
    let (other_objective, other_start, mut other_counts) = other.build();
    other.sre().optimize(
        &other_objective,
        other_start,
        &mut other_counts,
        &mut scratch,
        None,
    );
    let mut reused_counts = counts;
    let reused = sre.optimize(&objective, start, &mut reused_counts, &mut scratch, None);
    same("a dirty scratch", &plain, &reused)?;
    prop_assert_eq!(&plain_counts, &reused_counts);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_tables_never_drift(case in cases()) {
        check(case)?;
    }
}

/// The generator really produces both kinds of descent and both budget
/// outcomes, so the property above is not vacuous.
#[test]
fn the_cases_cover_moving_and_stopped_descents_and_repairs() {
    let strategy = cases();
    let mut rng = TestRng::for_test("the_cases_cover_moving_and_stopped_descents_and_repairs");
    let (mut moved, mut stopped, mut repaired) = (0, 0, 0);
    for _ in 0..64 {
        let case = strategy.sample(&mut rng);
        let (objective, start, mut counts) = case.build();
        let mut accepted = 0;
        let mut rounds = Vec::new();
        case.sre().optimize(
            &objective,
            start,
            &mut counts,
            &mut SreScratch::default(),
            Some(&mut |stats| {
                accepted += stats.accepted_moves;
                rounds.push(stats);
            }),
        );
        if accepted > 0 {
            moved += 1;
        }
        if case.n as u64 >= case.eval_budget {
            stopped += 1;
        }
        // One search per group plus one feasibility check: anything more
        // is a repair pass.
        if rounds.iter().any(|r| {
            r.evaluations > u64::from(r.subproblems) * case.eval_budget.max(case.n as u64) + 1
        }) {
            repaired += 1;
        }
        check(case).unwrap_or_else(|e| panic!("{e}"));
    }
    println!("{moved} moved, {stopped} stopped at once, {repaired} repaired, of 64");
    assert!(moved > 0 && stopped > 0 && repaired > 0);
}
