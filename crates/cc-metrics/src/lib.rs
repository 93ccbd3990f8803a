//! Metric accumulators for the CodeCrunch reproduction.
//!
//! The simulator emits a stream of [`cc_types::ServiceRecord`]s; the types in
//! this crate turn that stream into the quantities the paper reports:
//!
//! - [`Summary`] — streaming count/mean/min/max plus exact percentiles of a
//!   retained sample set.
//! - [`Cdf`] — empirical cumulative distribution points for plotting.
//! - [`TimeSeries`] — per-interval bucketed accumulation (e.g. warm-start
//!   fraction per minute).
//! - [`ServiceStats`] — everything the evaluation section needs from one
//!   simulation run: mean service time, per-[`StartKind`](cc_types::StartKind)
//!   breakdowns, warm-start fraction overall and per interval. It keeps
//!   counts and sums only, so its memory does not grow per invocation.
//! - [`P2Quantile`] — a constant-memory streaming quantile estimator for
//!   runs too large to retain every sample.
//!
//! # Example
//!
//! ```
//! use cc_metrics::Summary;
//!
//! let mut s = Summary::new();
//! for v in [1.0, 2.0, 3.0, 4.0] {
//!     s.record(v);
//! }
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.percentile(50.0), 2.0);
//! # let _ = s.count();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod p2;
mod series;
mod service;
mod summary;

pub use cdf::Cdf;
pub use p2::P2Quantile;
pub use series::TimeSeries;
pub use service::{ServiceStats, StartBreakdown};
pub use summary::Summary;
