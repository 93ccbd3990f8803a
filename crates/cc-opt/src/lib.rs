//! Discrete optimizers over CodeCrunch's per-function choice space.
//!
//! Every optimizer minimizes a [`SeparableObjective`] — a mean of
//! per-function service terms under a budget on a sum of per-function
//! cost terms — over joint assignments of [`cc_types::FnChoice`]: one
//! `(compression, processor, keep-alive)` tuple per invoked function, i.e.
//! `3N` decision dimensions for `N` functions. The paper's Fig. 3 compares
//! classical optimizers on this space and finds them all wanting; its
//! solution is **Sequential Random Embedding** ([`Sre`]), which repeatedly
//! optimizes small random sub-problems and recombines them.
//!
//! Provided optimizers:
//!
//! - [`CoordinateDescent`] — the paper's "gradient descent" adapted to a
//!   discrete lattice: steepest descent over single-choice neighbors,
//!   each scored by an O(1) term delta, with the paper's 10%-tie memory
//!   tie-break. SRE runs the same loop on each sub-problem.
//! - [`NewtonDescent`] — a Newton-flavored variant using second differences
//!   along the keep-alive axis to take larger steps.
//! - [`GeneticAlgorithm`] — tournament selection, uniform crossover,
//!   per-dimension mutation.
//! - [`RandomSearch`] — a sanity floor.
//! - [`brute_force`] — exact enumeration (Fig. 3's Oracle; tiny inputs
//!   only).
//! - [`Sre`] — the paper's contribution: random sub-problem embedding with
//!   shared term tables and solution averaging across rounds.
//!
//! The last four score whole solutions through the provided
//! [`SeparableObjective::evaluate`] and
//! [`SeparableObjective::is_feasible`].
//!
//! # Example
//!
//! ```
//! use cc_opt::{CoordinateDescent, SeparableObjective};
//! use cc_types::{Arch, FnChoice};
//!
//! struct PreferArm;
//! impl SeparableObjective for PreferArm {
//!     fn num_functions(&self) -> usize {
//!         4
//!     }
//!     fn service_term(&self, _idx: usize, c: &FnChoice) -> f64 {
//!         if c.arch == Arch::X86 { 1.0 } else { 0.0 }
//!     }
//!     fn cost_term(&self, _idx: usize, _c: &FnChoice) -> f64 {
//!         0.0
//!     }
//! }
//!
//! let start = vec![FnChoice::production_default(); 4];
//! let outcome = CoordinateDescent::default().optimize(&PreferArm, start);
//! assert_eq!(outcome.cost, 0.0); // all moved to ARM
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classic;
mod genetic;
mod objective;
mod separable;
mod space;
mod sre;

pub use classic::{brute_force, NewtonDescent, RandomSearch};
pub use genetic::GeneticAlgorithm;
pub use objective::{OptOutcome, SeparableObjective};
pub use separable::CoordinateDescent;
pub use space::{
    combine_solutions_into, sample_subproblems_into, search_space_size, IndexGroups,
    SubproblemScratch,
};
pub use sre::{Sre, SreRoundStats, SreScratch};
