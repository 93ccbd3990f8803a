//! Discrete-event serverless cluster simulator for the CodeCrunch
//! reproduction.
//!
//! This crate is the stand-in for the paper's 31-node EC2 testbed (13 x86
//! `m5` + 18 ARM `t4g` workers driven by an OpenWhisk-derived manager). It
//! simulates, with microsecond-integer determinism:
//!
//! - **Nodes** with per-architecture cost rates, core counts, and memory
//!   capacity ([`ClusterConfig`]).
//! - The **container lifecycle**: cold start → execution → keep-alive in
//!   the warm pool (optionally compressed) → reuse, expiry, or eviction.
//! - **Queueing**: when no node has a free core, invocations wait, and the
//!   wait is charged to service time exactly as in the paper.
//! - The **keep-alive budget ledger** ([`BudgetLedger`]): budget accrues
//!   per interval, keep-alive decisions reserve from it, early reuse and
//!   eviction refund it — which is precisely the "budget creditor"
//!   mechanism behind the paper's Fig. 10.
//! - The **policy interface** ([`Scheduler`]): placement of cold starts,
//!   keep-alive/compression decisions at completion, per-interval commands
//!   (pre-warming, eviction), and eviction ranking. Every baseline and
//!   CodeCrunch itself implement this trait.
//!
//! Every run goes through one builder, [`Simulation`]: over a [`Trace`]
//! or any [`ArrivalSource`], optionally perturbed, without records or
//! profiled, and run serially ([`Simulation::run`],
//! [`Simulation::run_with_sink`]) or on the pipelined engine
//! ([`Simulation::run_pipelined`]).
//!
//! [`Trace`]: cc_trace::Trace
//!
//! # Example
//!
//! ```
//! use cc_compress::CompressionModel;
//! use cc_sim::{ClusterConfig, FixedKeepAlive, Simulation};
//! use cc_trace::SyntheticTrace;
//! use cc_types::SimDuration;
//! use cc_workload::{Catalog, Workload};
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
//! let mut policy = FixedKeepAlive::ten_minutes();
//! let report = Simulation::new(ClusterConfig::paper_cluster(), &trace, &workload)
//!     .run(&mut policy);
//! assert_eq!(report.stats.invocations() as usize, trace.invocations().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod fixed;
mod ledger;
mod node;
mod parallel;
mod pool;
mod report;
mod scheduler;
mod source;
mod view;

pub use cc_obs::{
    BufferSink, ChromeTraceSink, Event, EventSink, IntervalSample, JsonlSink, NullSink,
    OptimizerRound, ReleaseReason, SharedTelemetry, Tee, Telemetry,
};
pub use cc_prof::{NullProfiler, Phase, Profiler, WallProfiler};
pub use cc_types::WarmId;
pub use config::{ClusterConfig, RuntimeKind};
pub use engine::Simulation;
pub use fixed::FixedKeepAlive;
pub use ledger::BudgetLedger;
pub use node::{NodeState, WarmInstance};
pub use parallel::{run_parallel, ParallelOptions, ParallelOutcome};
pub use report::{fnv1a, SimReport};
pub use scheduler::{Command, KeepDecision, Scheduler};
pub use source::{ArrivalSource, Fetch, SliceSource};
pub use view::ClusterView;
