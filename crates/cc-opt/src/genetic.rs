//! Genetic algorithm over the choice space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cc_types::FnChoice;

use crate::classic::random_choice;
use crate::{OptOutcome, SeparableObjective};

/// A conventional genetic algorithm: tournament selection, uniform
/// crossover, per-dimension mutation, elitism of one.
///
/// Included for the paper's Fig. 3 comparison, where it "performs poorly
/// due to the large size of the optimization space".
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-dimension mutation probability.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        GeneticAlgorithm {
            population: 32,
            generations: 40,
            mutation_rate: 0.05,
            seed: 0,
        }
    }
}

impl GeneticAlgorithm {
    /// Runs the GA seeded with `start` (which joins the initial
    /// population, so the result never regresses below it).
    pub fn optimize(&self, objective: &dyn SeparableObjective, start: Vec<FnChoice>) -> OptOutcome {
        assert!(self.population >= 2, "population must hold at least two");
        let n = objective.num_functions();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut evaluations = 0u64;

        let score = |sol: &Vec<FnChoice>, evals: &mut u64| -> f64 {
            *evals += 1;
            if objective.is_feasible(sol) {
                objective.evaluate(sol)
            } else {
                f64::INFINITY
            }
        };

        let mut population: Vec<(f64, Vec<FnChoice>)> = Vec::with_capacity(self.population);
        let start_cost = score(&start, &mut evaluations);
        population.push((start_cost, start));
        while population.len() < self.population {
            let individual: Vec<FnChoice> = (0..n).map(|_| random_choice(&mut rng)).collect();
            let cost = score(&individual, &mut evaluations);
            population.push((cost, individual));
        }

        for _ in 0..self.generations {
            population.sort_by(|a, b| a.0.total_cmp(&b.0));
            let elite = population[0].clone();
            let mut next = vec![elite];
            while next.len() < self.population {
                let a = self.tournament(&population, &mut rng);
                let b = self.tournament(&population, &mut rng);
                let mut child: Vec<FnChoice> = (0..n)
                    .map(|i| if rng.gen_bool(0.5) { a[i] } else { b[i] })
                    .collect();
                for gene in child.iter_mut() {
                    if rng.gen_bool(self.mutation_rate) {
                        *gene = random_choice(&mut rng);
                    }
                }
                let cost = score(&child, &mut evaluations);
                next.push((cost, child));
            }
            population = next;
        }
        population.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (cost, solution) = population.swap_remove(0);
        OptOutcome {
            solution,
            cost,
            evaluations,
        }
    }

    fn tournament<'p>(
        &self,
        population: &'p [(f64, Vec<FnChoice>)],
        rng: &mut StdRng,
    ) -> &'p Vec<FnChoice> {
        let a = &population[rng.gen_range(0..population.len())];
        let b = &population[rng.gen_range(0..population.len())];
        if a.0 <= b.0 {
            &a.1
        } else {
            &b.1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::testing::{bowl, optimum};
    use crate::CoordinateDescent;

    #[test]
    fn ga_improves_over_start() {
        let b = bowl(6, 12.0);
        let start = vec![FnChoice::production_default(); 6];
        let start_cost = b.evaluate(&start);
        let out = GeneticAlgorithm::default().optimize(&b, start);
        assert!(out.cost < start_cost);
    }

    #[test]
    fn ga_never_regresses_below_seed() {
        let b = bowl(3, 7.0);
        // Seed with the optimum; elitism must preserve it.
        let out = GeneticAlgorithm::default().optimize(&b, optimum(&b));
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let b = bowl(4, 9.0);
        let start = vec![FnChoice::production_default(); 4];
        let a = GeneticAlgorithm::default().optimize(&b, start.clone());
        let c = GeneticAlgorithm::default().optimize(&b, start);
        assert_eq!(a.cost, c.cost);
        assert_eq!(a.solution, c.solution);
    }

    #[test]
    fn ga_loses_to_descent_on_smooth_spaces() {
        // The paper's point, inverted: on a smooth bowl, descent is exact
        // while a small-budget GA usually is not. Either way the GA must
        // not beat the exact optimum.
        let b = bowl(8, 7.0);
        let start = vec![FnChoice::production_default(); 8];
        let cd = CoordinateDescent::default().optimize(&b, start.clone());
        let ga = GeneticAlgorithm::default().optimize(&b, start);
        assert!(cd.cost <= ga.cost);
    }

    #[test]
    #[should_panic(expected = "population must hold at least two")]
    fn rejects_tiny_population() {
        let b = bowl(1, 1.0);
        let ga = GeneticAlgorithm {
            population: 1,
            ..GeneticAlgorithm::default()
        };
        let _ = ga.optimize(&b, vec![FnChoice::production_default()]);
    }
}
