//! Always-on streaming service mode for the CodeCrunch reproduction.
//!
//! Everything else in this suite runs *batch*: load a trace, run the
//! engine to exhaustion, read the report. Real control planes don't get
//! that luxury — arrivals trickle (and burst) in over a live socket, the
//! SRE optimizer ticks on wall-aligned intervals over whatever state
//! exists *now*, and shutdown must flush partial intervals instead of
//! conveniently coinciding with the end of a trace. This crate adds that
//! operating mode without forking the decision logic:
//!
//! - [`Clock`] abstracts time. [`RealClock`] maps the simulation timeline
//!   onto wall time (optionally compressed); [`VirtualClock`] is manually
//!   driven and deterministic, with a waker list that fires in
//!   `(deadline, registration)` order.
//! - [`IngestQueue`] is bounded ingestion with explicit backpressure,
//!   lossless burst catch-up, and graceful drain at an effective cut
//!   instant.
//! - [`PacedSource`] adapts queue + clock to the engine's
//!   [`ArrivalSource`](cc_sim::ArrivalSource), so a `cc_sim::Simulation`
//!   over it *is* the service loop — there is no second engine.
//! - [`Server`] / [`ServeHandle`] wire producer, queue, and decision core
//!   together and expose drain for SIGINT-clean shutdown.
//!
//! # The batch-equivalence contract
//!
//! Driving a [`Server`] on a [`VirtualClock`] over a recorded trace
//! produces **bit-identical** report digests, telemetry digests, and
//! JSONL bytes to `Simulation::run` on the same trace, for every policy.
//! `tests/serve_parity.rs` pins this for all six policies, plus drain
//! parity against truncated batch runs and a 48-virtual-hour soak audited
//! by `cc-replay`. The contract holds because the service loop *is* the
//! batch loop: the queue only controls *when* (on the clock) each arrival
//! is released, never *what* the engine sees.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cc_compress::CompressionModel;
//! use cc_serve::{Server, ServeOptions, VirtualClock};
//! use cc_sim::{ClusterConfig, FixedKeepAlive, NullSink, SliceSource};
//! use cc_trace::SyntheticTrace;
//! use cc_types::SimDuration;
//! use cc_workload::{Catalog, Workload};
//!
//! let trace = SyntheticTrace::builder()
//!     .functions(10)
//!     .duration(SimDuration::from_mins(30))
//!     .seed(7)
//!     .build();
//! let workload = Workload::from_trace(
//!     &trace,
//!     &Catalog::paper_catalog(),
//!     &CompressionModel::paper_default(),
//! );
//! let server = Server::new(Arc::new(VirtualClock::new()), ServeOptions::default());
//! let mut policy = FixedKeepAlive::ten_minutes();
//! let outcome = server.serve(
//!     &ClusterConfig::small(2, 2),
//!     SliceSource::from_trace(&trace),
//!     &workload,
//!     &mut policy,
//!     &mut NullSink,
//! );
//! assert_eq!(outcome.queue.pushed, outcome.queue.delivered);
//! assert_eq!(
//!     outcome.report.stats.invocations() as usize,
//!     trace.invocations().len(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod pace;
mod queue;
mod service;

pub use clock::{Clock, RealClock, VirtualClock, WakerId};
pub use pace::PacedSource;
pub use queue::{IngestQueue, PushRejected, QueueStats, OPEN_HORIZON};
pub use service::{ServeHandle, ServeOptions, ServeOutcome, Server};
