//! # cc-shard: sharded parallel simulation driver
//!
//! Runs a grid of simulation jobs (policy × seed × scenario) across a pool
//! of `std::thread` workers while preserving the determinism guarantees the
//! workspace is built on:
//!
//! * **Deterministic merge** — every job is a *shard* identified by its
//!   index in the submitted job list. Results come back ordered by shard
//!   id, never by completion order, so a sharded sweep's output is
//!   byte-identical run-to-run regardless of thread scheduling.
//! * **Panic isolation** — each shard runs under `catch_unwind`; one
//!   diverging policy cannot take down the sweep. The panic message is
//!   captured into the shard's [`ShardResult`].
//! * **One ordered JSONL writer** — with [`run_sharded_jsonl`], each
//!   shard encodes its events on its own worker into an in-memory
//!   [`JsonlSink`](cc_obs::JsonlSink) block, and [`mux_chunks`] — the same
//!   writer the intra-run parallel pipeline uses — writes the blocks in
//!   shard-id order. With one shard the merged bytes are identical to a
//!   serial [`JsonlSink`](cc_obs::JsonlSink) run; with more, each shard's
//!   block is bracketed by [`ShardMarker`](cc_obs::ShardMarker) lines, the
//!   end marker carrying its event count. Capture is always complete: the engine is
//!   deterministic, so a capture can be re-run exactly instead of sampled.
//!
//! The driver is generic over the job's result type and the sink the job
//! traces into, so uninstrumented sweeps use [`NullSinkFactory`] and pay
//! zero tracing cost (the engine's emission sites compile away exactly as
//! in a serial run).

#![warn(missing_docs)]

mod mux;
mod runner;

pub use mux::mux_chunks;
pub use runner::{
    run_sharded, run_sharded_jsonl, MuxReport, NullSinkFactory, ShardResult, SinkFactory, SinkStats,
};
