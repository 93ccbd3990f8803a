//! Baseline keep-alive policies for the CodeCrunch reproduction.
//!
//! The paper evaluates CodeCrunch against three published schedulers plus
//! an oracle; all four are implemented here against the
//! [`cc_sim::Scheduler`] interface:
//!
//! - [`SitW`] — *Serverless in the Wild* (Shahrad et al., ATC '20): the
//!   hybrid histogram policy deployed on Azure. Tracks each function's
//!   idle-time distribution; patterned functions get a tail-percentile
//!   keep-alive window (released early and pre-warmed just before the head
//!   percentile), patternless functions fall back to a fixed window.
//! - [`FaasCache`] — Fuerst & Sharma (ASPLOS '21): keep-alive as caching,
//!   with greedy-dual-size-frequency eviction.
//! - [`IceBreaker`] — Roy et al. (ASPLOS '22): FFT-based invocation-period
//!   prediction with pre-warming on a two-tier (fast/cheap) node mix.
//! - [`Oracle`] — future knowledge of the trace; warms each function up
//!   right before its next invocation on its best architecture.
//! - [`Enhanced`] — the paper's Fig. 8 treatment: wraps any policy with
//!   CodeCrunch's two mechanical ideas (function compression under memory
//!   pressure, per-function x86/ARM selection) while leaving the wrapped
//!   policy's keep-alive logic untouched.
//!
//! # Example
//!
//! ```
//! use cc_policies::{Enhanced, SitW};
//!
//! let baseline = SitW::new();
//! let enhanced = Enhanced::new(SitW::new());
//! # let _ = (baseline, enhanced);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod enhanced;
mod faascache;
mod history;
mod icebreaker;
mod oracle;
mod sitw;

pub use enhanced::Enhanced;
pub use faascache::FaasCache;
pub use history::GapHistogram;
pub use icebreaker::IceBreaker;
pub use oracle::Oracle;
pub use sitw::SitW;

use cc_sim::ClusterView;
use cc_types::{Arch, FunctionId};

/// The entry of `function` in a dense per-function table, growing the
/// table with default entries up to it on first touch. Per-function policy
/// state is indexed by [`FunctionId::index`] instead of hashed.
pub(crate) fn entry<T: Default>(table: &mut Vec<T>, function: FunctionId) -> &mut T {
    let index = function.index();
    if index >= table.len() {
        table.resize_with(index + 1, T::default);
    }
    &mut table[index]
}

/// Picks the architecture with the lower cold-start-plus-execution time for
/// `function` — the "heterogeneity-aware" placement the paper adds to every
/// baseline for fair comparison.
pub(crate) fn faster_arch(function: FunctionId, view: &ClusterView<'_>) -> Arch {
    let spec = view.spec(function);
    let cost = |arch: Arch| spec.exec_time(arch) + spec.cold_start(arch);
    if cost(Arch::Arm) < cost(Arch::X86) {
        Arch::Arm
    } else {
        Arch::X86
    }
}
