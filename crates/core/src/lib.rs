//! CodeCrunch: the paper's contribution.
//!
//! CodeCrunch minimizes serverless **service time under a keep-alive
//! budget** by jointly choosing, per invoked function and per one-minute
//! optimization interval:
//!
//! 1. how long to keep the finished instance alive (`K_t ∈ [0, 60] min`),
//! 2. whether to store it **lz4-compressed** during keep-alive (smaller
//!    footprint, decompression on the next warm start), and
//! 3. which **processor type** (x86 or ARM) executes and hosts it (ARM is
//!    cheaper to reserve; per-function performance affinity differs).
//!
//! The joint `3N`-dimensional discrete problem is solved online with
//! [Sequential Random Embedding](cc_opt::Sre): each interval, CodeCrunch
//! builds an [`IntervalObjective`] from its re-invocation estimator
//! ([`PestEstimator`]) and observed per-architecture execution times
//! ([`ExecObserver`]), then lets SRE optimize random sub-problems, each
//! against the same pre-round solution. The objective is a
//! [`SeparableObjective`](cc_opt::SeparableObjective): SRE and the no-SRE
//! descent score it term by term, and the Fig. 3 optimizers score whole
//! solutions through its provided `evaluate` and `is_feasible`. Unspent
//! budget is credited to future intervals by the simulator's ledger,
//! which is why compression concentrates in load peaks.
//!
//! [`CodeCrunch`] implements [`cc_sim::Scheduler`], so it runs against the
//! same simulator as every baseline. [`CodeCrunchConfig`] exposes the
//! paper's ablations (no SRE, no compression, single-architecture, fixed
//! keep-alive) and the SLA-constrained mode of Fig. 9.
//!
//! # Example
//!
//! ```
//! use cc_compress::CompressionModel;
//! use cc_sim::{ClusterConfig, Simulation};
//! use cc_trace::SyntheticTrace;
//! use cc_types::SimDuration;
//! use cc_workload::{Catalog, Workload};
//! use codecrunch::CodeCrunch;
//!
//! let trace = SyntheticTrace::builder()
//!     .functions(20)
//!     .duration(SimDuration::from_mins(60))
//!     .seed(1)
//!     .build();
//! let workload = Workload::from_trace(
//!     &trace,
//!     &Catalog::paper_catalog(),
//!     &CompressionModel::paper_default(),
//! );
//! let mut policy = CodeCrunch::new();
//! let report = Simulation::new(ClusterConfig::paper_cluster(), &trace, &workload)
//!     .run(&mut policy);
//! assert_eq!(report.records.len(), trace.invocations().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod objective;
mod observe;
mod pest;
mod scheduler;

pub use config::{ArchPolicy, CodeCrunchConfig};
pub use objective::IntervalObjective;
pub use observe::ExecObserver;
pub use pest::PestEstimator;
pub use scheduler::CodeCrunch;
