//! Classical optimizers: Newton-like descent, random search, and brute
//! force. They score whole solutions with
//! [`SeparableObjective::evaluate`] and
//! [`SeparableObjective::is_feasible`], O(N) each.

use cc_types::{Arch, FnChoice, SimDuration, KEEP_ALIVE_MAX, KEEP_ALIVE_STEP};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{OptOutcome, SeparableObjective};

/// A Newton-flavored descent: uses first and second differences along the
/// keep-alive axis to jump multiple steps at once, plus plain flips for the
/// binary dimensions.
///
/// On the paper's rugged discrete space the quadratic model misleads —
/// which is the point of including it in the Fig. 3 comparison.
#[derive(Debug, Clone)]
pub struct NewtonDescent {
    /// Maximum descent rounds.
    pub max_rounds: usize,
    /// Hard cap on objective evaluations.
    pub eval_budget: u64,
}

impl Default for NewtonDescent {
    fn default() -> Self {
        NewtonDescent {
            max_rounds: 32,
            eval_budget: 100_000,
        }
    }
}

impl NewtonDescent {
    /// Optimizes starting from `start`.
    pub fn optimize(&self, objective: &dyn SeparableObjective, start: Vec<FnChoice>) -> OptOutcome {
        let mut current = start;
        let mut current_cost = objective.evaluate(&current);
        let mut evaluations = 1u64;

        'outer: for _ in 0..self.max_rounds {
            let mut improved = false;
            for idx in 0..current.len() {
                if evaluations >= self.eval_budget {
                    break 'outer;
                }
                // Newton step along keep-alive using central differences.
                let base = current[idx];
                let step = KEEP_ALIVE_STEP;
                let up = FnChoice {
                    keep_alive: (base.keep_alive + step).min(KEEP_ALIVE_MAX),
                    ..base
                };
                let down = FnChoice {
                    keep_alive: base.keep_alive.saturating_sub(step),
                    ..base
                };
                let f0 = current_cost;
                current[idx] = up;
                let fup = objective.evaluate(&current);
                current[idx] = down;
                let fdown = objective.evaluate(&current);
                current[idx] = base;
                evaluations += 2;

                let grad = (fup - fdown) / 2.0;
                let hess = fup - 2.0 * f0 + fdown;
                if grad.abs() > 1e-12 {
                    let steps = if hess > 1e-12 {
                        (-(grad / hess)).round()
                    } else {
                        -grad.signum() * 4.0
                    };
                    let steps = steps.clamp(-60.0, 60.0);
                    if steps != 0.0 {
                        let mins = base.keep_alive.as_mins_f64() + steps;
                        let target = SimDuration::from_mins(mins.clamp(0.0, 60.0) as u64);
                        let candidate = FnChoice {
                            keep_alive: target,
                            ..base
                        };
                        current[idx] = candidate;
                        evaluations += 1;
                        if objective.is_feasible(&current) {
                            let cost = objective.evaluate(&current);
                            if cost < current_cost {
                                current_cost = cost;
                                improved = true;
                                continue;
                            }
                        }
                        current[idx] = base;
                    }
                }

                // Binary dimensions: plain flips.
                for flip in [
                    FnChoice {
                        compress: !base.compress,
                        ..base
                    },
                    FnChoice {
                        arch: base.arch.other(),
                        ..base
                    },
                ] {
                    current[idx] = flip;
                    evaluations += 1;
                    if objective.is_feasible(&current) {
                        let cost = objective.evaluate(&current);
                        if cost < current_cost {
                            current_cost = cost;
                            improved = true;
                            break;
                        }
                    }
                    current[idx] = base;
                }
            }
            if !improved {
                break;
            }
        }
        OptOutcome {
            solution: current,
            cost: current_cost,
            evaluations,
        }
    }
}

/// Uniform random feasible sampling — the floor any real optimizer must
/// beat.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Number of samples to draw.
    pub samples: u64,
    /// RNG seed.
    pub seed: u64,
}

impl RandomSearch {
    /// Draws `samples` random solutions and keeps the best feasible one
    /// (falling back to `start` if none are feasible).
    pub fn optimize(&self, objective: &dyn SeparableObjective, start: Vec<FnChoice>) -> OptOutcome {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best = start;
        let mut best_cost = objective.evaluate(&best);
        let mut evaluations = 1u64;
        for _ in 0..self.samples {
            let candidate: Vec<FnChoice> = (0..objective.num_functions())
                .map(|_| random_choice(&mut rng))
                .collect();
            evaluations += 1;
            if objective.is_feasible(&candidate) {
                let cost = objective.evaluate(&candidate);
                if cost < best_cost {
                    best_cost = cost;
                    best = candidate;
                }
            }
        }
        OptOutcome {
            solution: best,
            cost: best_cost,
            evaluations,
        }
    }
}

/// Draws a uniformly random choice tuple.
pub(crate) fn random_choice(rng: &mut StdRng) -> FnChoice {
    FnChoice::new(
        Arch::from_bit(rng.gen_range(0..2)),
        rng.gen_bool(0.5),
        SimDuration::from_mins(rng.gen_range(0..=60)),
    )
}

/// Exact enumeration over a restricted keep-alive menu — Fig. 3's Oracle.
///
/// The space is `(2 × 2 × keep_alive_options.len())^N`; callers are
/// responsible for keeping `N` tiny.
///
/// # Panics
///
/// Panics if the space exceeds 20 million points (a brute force that large
/// is a bug, not an experiment).
pub fn brute_force(
    objective: &dyn SeparableObjective,
    keep_alive_options: &[SimDuration],
) -> OptOutcome {
    let n = objective.num_functions();
    let per_fn = 4 * keep_alive_options.len() as u128;
    let total = per_fn.checked_pow(n as u32).unwrap_or(u128::MAX);
    assert!(
        total <= 20_000_000,
        "brute force space {total} too large for exact search"
    );

    let mut best: Option<(f64, Vec<FnChoice>)> = None;
    let mut evaluations = 0u64;
    let mut indices = vec![0usize; n];
    let options: Vec<FnChoice> = keep_alive_options
        .iter()
        .flat_map(|&ka| {
            [
                FnChoice::new(Arch::X86, false, ka),
                FnChoice::new(Arch::X86, true, ka),
                FnChoice::new(Arch::Arm, false, ka),
                FnChoice::new(Arch::Arm, true, ka),
            ]
        })
        .collect();

    loop {
        let candidate: Vec<FnChoice> = indices.iter().map(|&i| options[i]).collect();
        evaluations += 1;
        if objective.is_feasible(&candidate) {
            let cost = objective.evaluate(&candidate);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, candidate));
            }
        }
        // Odometer increment.
        let mut digit = 0;
        loop {
            if digit == n {
                let (cost, solution) = best.expect("at least one feasible point evaluated");
                return OptOutcome {
                    solution,
                    cost,
                    evaluations,
                };
            }
            indices[digit] += 1;
            if indices[digit] < options.len() {
                break;
            }
            indices[digit] = 0;
            digit += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::testing::bowl;

    #[test]
    fn newton_descent_improves() {
        let b = bowl(4, 7.0);
        let start = vec![FnChoice::new(Arch::X86, false, SimDuration::from_mins(40)); 4];
        let start_cost = b.evaluate(&start);
        let out = NewtonDescent::default().optimize(&b, start);
        assert!(out.cost < start_cost, "{} !< {start_cost}", out.cost);
        // The quadratic model along keep-alive should land each function on
        // the target.
        for c in &out.solution {
            assert_eq!(c.keep_alive, SimDuration::from_mins(7));
        }
    }

    #[test]
    fn random_search_improves_over_bad_start() {
        let b = bowl(2, 7.0);
        let start = vec![FnChoice::new(Arch::X86, false, SimDuration::from_mins(60)); 2];
        let start_cost = b.evaluate(&start);
        let out = RandomSearch {
            samples: 500,
            seed: 1,
        }
        .optimize(&b, start);
        assert!(out.cost < start_cost);
    }

    #[test]
    fn brute_force_is_exact() {
        let b = bowl(2, 10.0);
        let menu = [0u64, 5, 10, 20].map(SimDuration::from_mins);
        let out = brute_force(&b, &menu);
        assert_eq!(out.cost, 0.0);
        for c in &out.solution {
            assert_eq!(c.keep_alive, SimDuration::from_mins(10));
            assert_eq!(c.arch, Arch::Arm);
            assert!(c.compress);
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn brute_force_rejects_huge_spaces() {
        let b = bowl(20, 7.0);
        let menu: Vec<SimDuration> = (0..=60).map(SimDuration::from_mins).collect();
        let _ = brute_force(&b, &menu);
    }
}
