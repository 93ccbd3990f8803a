//! Discrete optimizers over CodeCrunch's per-function choice space.
//!
//! Every optimizer minimizes an [`Objective`] over joint assignments of
//! [`cc_types::FnChoice`] — one `(compression, processor, keep-alive)`
//! tuple per invoked function, i.e. `3N` decision dimensions for `N`
//! functions. The paper's Fig. 3 compares classical optimizers on this
//! space and finds them all wanting; its solution is **Sequential Random
//! Embedding** ([`Sre`]), which repeatedly optimizes small random
//! sub-problems and recombines them.
//!
//! Provided optimizers:
//!
//! - [`CoordinateDescent`] — the paper's "gradient descent" adapted to a
//!   discrete lattice: steepest-descent over single-choice neighbors, with
//!   the paper's 10%-tie memory tie-break.
//! - [`NewtonDescent`] — a Newton-flavored variant using second differences
//!   along the keep-alive axis to take larger steps.
//! - [`GeneticAlgorithm`] — tournament selection, uniform crossover,
//!   per-dimension mutation.
//! - [`RandomSearch`] — a sanity floor.
//! - [`brute_force`] — exact enumeration (Fig. 3's Oracle; tiny inputs
//!   only).
//! - [`Sre`] — the paper's contribution: random sub-problem embedding over
//!   a [`SeparableObjective`], with an O(1)-per-move inner descent over
//!   shared term tables and solution averaging across rounds.
//!
//! The general optimizers take any [`Objective`]; [`SeparableView`]
//! presents a [`SeparableObjective`] as one.
//!
//! # Example
//!
//! ```
//! use cc_opt::{CoordinateDescent, Objective};
//! use cc_types::{Arch, FnChoice, SimDuration};
//!
//! struct PreferArm;
//! impl Objective for PreferArm {
//!     fn num_functions(&self) -> usize {
//!         4
//!     }
//!     fn evaluate(&self, solution: &[FnChoice]) -> f64 {
//!         solution.iter().filter(|c| c.arch == Arch::X86).count() as f64
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

pub use classic::{brute_force, CoordinateDescent, NewtonDescent, RandomSearch};
pub use genetic::GeneticAlgorithm;
pub use objective::{Objective, OptOutcome};
pub use separable::{SeparableObjective, SeparableView};
pub use space::{
    combine_solutions_into, sample_subproblems_into, search_space_size, IndexGroups,
    SubproblemScratch,
};
pub use sre::{Sre, SreRoundStats, SreScratch};
