//! Property tests on the choice lattice and the optimizers' contracts.

use proptest::prelude::*;
use std::collections::HashSet;

use cc_opt::{combine_solutions_into, CoordinateDescent, SeparableObjective, Sre, SreScratch};
use cc_types::{Arch, FnChoice, SimDuration, KEEP_ALIVE_MAX};

fn choice_strategy() -> impl Strategy<Value = FnChoice> {
    (0u8..2, any::<bool>(), 0u64..=60).prop_map(|(arch, compress, mins)| {
        FnChoice::new(Arch::from_bit(arch), compress, SimDuration::from_mins(mins))
    })
}

/// Breadth-first distance between two choices under the neighbor relation.
fn lattice_distance(from: FnChoice, to: FnChoice) -> Option<usize> {
    if from == to {
        return Some(0);
    }
    let mut seen: HashSet<FnChoice> = HashSet::new();
    let mut frontier = vec![from];
    seen.insert(from);
    for depth in 1..=130 {
        let mut next = Vec::new();
        for node in frontier {
            for neighbor in node.neighbors() {
                if neighbor == to {
                    return Some(depth);
                }
                if seen.insert(neighbor) {
                    next.push(neighbor);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lattice_is_connected(a in choice_strategy(), b in choice_strategy()) {
        // Any choice is reachable from any other: the optimizer can never
        // be structurally locked out of the optimum.
        let d = lattice_distance(a, b);
        prop_assert!(d.is_some(), "{a} cannot reach {b}");
        // Diameter bound: 60 keep-alive steps + arch flip + compress flip.
        prop_assert!(d.unwrap() <= 62, "distance {d:?} exceeds the diameter bound");
    }

    #[test]
    fn neighbors_stay_in_bounds_and_differ(c in choice_strategy()) {
        for n in c.neighbors() {
            prop_assert!(n.keep_alive <= KEEP_ALIVE_MAX);
            prop_assert_ne!(n, c, "neighbor equals the origin");
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric(c in choice_strategy()) {
        for n in c.neighbors() {
            prop_assert!(
                n.neighbors().contains(&c),
                "asymmetric move {c} -> {n}"
            );
        }
    }

    #[test]
    fn combine_is_idempotent_on_agreement(
        solution in prop::collection::vec(choice_strategy(), 1..10),
        rounds in 1usize..5,
    ) {
        // When every round agrees, combining changes nothing (modulo the
        // sub-minute truncation of averaging identical values).
        let flat: Vec<FnChoice> = (0..rounds).flat_map(|_| solution.clone()).collect();
        let mut combined = Vec::new();
        combine_solutions_into(&flat, solution.len(), &mut combined);
        for (c, s) in combined.iter().zip(&solution) {
            prop_assert_eq!(c.arch, s.arch);
            prop_assert_eq!(c.compress, s.compress);
            prop_assert_eq!(c.keep_alive, s.keep_alive);
        }
    }
}

/// A rugged objective: descent must still terminate and never return an
/// infeasible or worse-than-start solution.
struct Rugged;

impl SeparableObjective for Rugged {
    fn num_functions(&self) -> usize {
        6
    }
    fn service_term(&self, i: usize, c: &FnChoice) -> f64 {
        let m = c.keep_alive.as_mins_f64();
        // Oscillating landscape with arch/compress interactions.
        (m * 0.7 + i as f64).sin() * 3.0
            + if c.compress == i.is_multiple_of(2) {
                0.0
            } else {
                1.0
            }
            + if c.arch == Arch::Arm { 0.3 } else { 0.0 }
            + m * 0.01
    }
    fn cost_term(&self, _i: usize, c: &FnChoice) -> f64 {
        c.keep_alive.as_mins_f64()
    }
    fn budget(&self) -> Option<f64> {
        Some(120.0)
    }
}

#[test]
fn descent_terminates_and_improves_on_rugged_objectives() {
    let start = vec![FnChoice::production_default(); 6];
    let start_cost = Rugged.evaluate(&start);
    let out = CoordinateDescent::default().optimize(&Rugged, start);
    assert!(out.cost <= start_cost);
    assert!(Rugged.is_feasible(&out.solution));
}

#[test]
fn sre_terminates_and_improves_on_rugged_objectives() {
    let start = vec![FnChoice::production_default(); 6];
    let start_cost = Rugged.evaluate(&start);
    let mut counts = vec![0u32; 6];
    let out = Sre::scaled_to(6).optimize(
        &Rugged,
        start,
        &mut counts,
        &mut SreScratch::default(),
        None,
    );
    assert!(out.cost <= start_cost);
    assert!(Rugged.is_feasible(&out.solution));
}
