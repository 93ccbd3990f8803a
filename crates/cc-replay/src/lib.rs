//! Event-log replay for the CodeCrunch simulator.
//!
//! `cc-obs` makes a simulation run fully observable as a canonical JSONL
//! event stream; this crate closes the loop by making that stream fully
//! *recoverable*. It has three layers, each consuming the one below:
//!
//! 1. **Decoder** ([`decode`]) — parses the canonical JSONL back into the
//!    typed [`Event`](cc_obs::Event) enum, including the sharded framing
//!    ([`ShardMarker`](cc_obs::ShardMarker) lines) written by
//!    `cc_shard::run_sharded_jsonl`. Lines decode through the strict
//!    decoder that cc-obs's schema table generates next to the encoder;
//!    this crate adds the snapshot line and the marker grammar.
//!    Every malformed input is a typed [`DecodeError`]/[`StreamError`] with
//!    a byte or line position — never a panic. Because the encoder is
//!    canonical (stable key order, shortest-round-trip floats), decoding is
//!    exact: re-encoding a decoded event reproduces the input line
//!    byte-for-byte.
//! 2. **Auditor** ([`audit`]) — a single pass over a decoded stream that
//!    checks the engine's conservation laws (admit/release pairing, no use
//!    after eviction, budget debit/credit balance, monotone timestamps,
//!    compression pairing, per-interval sample consistency) and reports
//!    every violation with its line number. A shard whose end marker
//!    declares dropped events (a stream from some other producer; this
//!    workspace's writers are lossless) is audited in an explicit degraded
//!    mode instead of producing false positives.
//! 3. **Reconstructor** ([`reconstruct()`]) — rebuilds the
//!    [`Telemetry`](cc_obs::Telemetry) accumulator purely from the log, so
//!    every live table, report, and digest can be reproduced offline,
//!    byte-for-byte. `ccstat replay <file.jsonl>` is a thin CLI over this.
//!
//! The differential contract — *replayed telemetry equals live telemetry,
//! field for field, for every policy, serial and sharded* — is enforced by
//! the workspace's `replay_differential` golden test.
//!
//! # Example
//!
//! ```
//! use cc_obs::{EventSink, JsonlSink, Telemetry};
//! use cc_replay::{audit_log, decode_stream, reconstruct};
//! use cc_types::SimDuration;
//!
//! // A live run writes JSONL and accumulates telemetry...
//! let interval = SimDuration::from_micros(60_000_000);
//! let mut live = Telemetry::new(interval);
//! let mut sink = JsonlSink::new(Vec::new());
//! let event = cc_obs::Event::PrewarmDropped {
//!     at: cc_types::SimTime::from_micros(5),
//!     function: cc_types::FunctionId::new(3),
//!     arch: cc_types::Arch::X86,
//! };
//! live.record(&event);
//! sink.record(&event);
//!
//! // ...and the log alone reproduces it exactly.
//! let text = String::from_utf8(sink.finish().unwrap()).unwrap();
//! let log = decode_stream(&text).unwrap();
//! assert!(audit_log(&log, false).is_clean());
//! let replayed = cc_replay::reconstruct_with_interval(&log.shards[0], interval);
//! assert_eq!(replayed.digest(), live.digest());
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod decode;
pub mod reconstruct;

pub use audit::{audit_log, audit_log_within, AuditReport, IdBounds, ShardAudit, Violation};
pub use decode::{
    decode_line, decode_stream, DecodeError, DecodeErrorKind, Line, ReplayLog, ShardEndInfo,
    ShardStream, StreamError, StreamErrorKind,
};
pub use reconstruct::{
    infer_interval, reconstruct, reconstruct_records, reconstruct_with_interval, DEFAULT_INTERVAL,
};
