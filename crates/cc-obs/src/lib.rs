//! # cc-obs: zero-cost event tracing and streaming telemetry
//!
//! The simulator's observability layer. The engine is generic over an
//! [`EventSink`]; with [`NullSink`] (the default) every emission site is
//! guarded by the sink's `ENABLED` associated constant and compiles to
//! nothing — event values are never constructed, so the uninstrumented hot
//! path is identical to a build without this crate.
//!
//! With a real sink attached, the engine emits a typed [`Event`] stream:
//! arrivals, queueing, execution starts (cold / warm / warm-compressed),
//! warm-pool admissions and releases, background compression, budget
//! debits/credits, dropped pre-warms, per-interval samples, and per-round
//! optimizer progress.
//!
//! Consumers compose from three families:
//!
//! * **Instruments** — [`Counter`], [`Gauge`], [`LogHistogram`], and the
//!   [`Telemetry`] aggregate, which folds the stream into a final report
//!   and a per-interval table (quantiles via [`cc_metrics`]'s P² and
//!   summary machinery).
//! * **Exporters** — [`JsonlSink`] (one JSON object per event, stable key
//!   order, deterministic bytes) and [`ChromeTraceSink`] (Chrome
//!   `trace_event` JSON loadable in Perfetto, rendering node occupancy and
//!   warm-instance lifetimes as tracks).
//! * **The JSONL schema** — one `macro_rules!` table (`schema.rs`) lists
//!   every line type: each [`Event`] variant's and each [`ShardMarker`]'s
//!   tag and fields in key order, the flattened [`OptimizerRound`] and
//!   [`IntervalSample`] records, and the label lists of `Arch`,
//!   `StartKind` and [`ReleaseReason`]. It generates the types, the
//!   allocation-free encoder ([`write_event_line`],
//!   `ShardMarker::write_line`), the strict decoder ([`decode_tagged`],
//!   with typed [`DecodeError`]s), `tag()`, [`Event::at`] and
//!   [`ReleaseReason::label`]. Adding a field is one table edit.
//! * **Combinators** — [`Tee`] to fan out to two sinks, [`BufferSink`] to
//!   retain events in memory, `&mut S` which forwards to `S`, and
//!   [`BatchSink`] which flushes window-aligned, index-tagged event
//!   batches to multiple subscribers (the transport for the intra-run
//!   parallel pipeline). The sharded driver needs no transport sink: each
//!   shard encodes into its own in-memory [`JsonlSink`].
//!
//! This crate deliberately depends only on `cc-types` and `cc-metrics`;
//! `cc-sim` depends on it (not the reverse), and re-exports the sink
//! vocabulary so most users never import `cc-obs` directly.

#![warn(missing_docs)]

mod batch;
mod chrome;
mod event;
mod instruments;
mod jsonl;
mod schema;
mod shared;
mod telemetry;
mod wire;

pub use batch::{BatchSink, EventBatch};
pub use chrome::ChromeTraceSink;
pub use event::{BufferSink, EventSink, NullSink, Tee};
pub use instruments::{Counter, Gauge, LogHistogram};
pub use jsonl::{event_line, write_event_line, JsonlSink};
pub use schema::{
    decode_tagged, Event, IntervalSample, OptimizerRound, ReleaseReason, ShardMarker, Tagged,
};
pub use shared::SharedTelemetry;
pub use telemetry::Telemetry;
pub use wire::{DecodeError, DecodeErrorKind};
