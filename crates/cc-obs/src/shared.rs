//! [`SharedTelemetry`]: the [`Telemetry`] aggregate behind a lock, so a
//! *running* service can be observed from other threads.
//!
//! Batch runs read telemetry after the engine returns; an always-on
//! service (cc-serve) wants live per-interval snapshots — a status line
//! printed as each optimization interval closes, a drain handler dumping
//! the final report. `SharedTelemetry` is the standard aggregate wrapped
//! in `Arc<Mutex<…>>`: clones share one aggregate, the engine records
//! into it through the normal [`EventSink`] path, and observers take
//! consistent snapshots through [`SharedTelemetry::with`].
//!
//! The lock is uncontended in the common case (one engine thread, an
//! observer polling at interval granularity), and the digest it yields is
//! the same [`Telemetry::digest`] a batch run produces — shared
//! observation does not perturb the batch-equivalence contract.

use std::sync::{Arc, Mutex};

use cc_types::SimDuration;

use crate::event::EventSink;
use crate::schema::Event;
use crate::telemetry::Telemetry;

/// A cloneable, lock-protected [`Telemetry`] usable as an [`EventSink`]
/// on one thread while other threads snapshot it.
#[derive(Debug, Clone)]
pub struct SharedTelemetry {
    inner: Arc<Mutex<Telemetry>>,
}

impl SharedTelemetry {
    /// An empty shared aggregate bucketing at `interval`.
    pub fn new(interval: SimDuration) -> SharedTelemetry {
        SharedTelemetry::from_telemetry(Telemetry::new(interval))
    }

    /// Wraps an existing aggregate (e.g. one pre-loaded with state).
    pub fn from_telemetry(telemetry: Telemetry) -> SharedTelemetry {
        SharedTelemetry {
            inner: Arc::new(Mutex::new(telemetry)),
        }
    }

    /// Runs `f` over a consistent snapshot of the aggregate. Keep `f`
    /// short: the engine's `record` path blocks on the same lock.
    pub fn with<R>(&self, f: impl FnOnce(&Telemetry) -> R) -> R {
        f(&self.inner.lock().expect("telemetry lock"))
    }

    /// The most recently closed interval row, if any
    /// (see [`Telemetry::latest_row`]).
    pub fn latest_row(&self) -> Option<String> {
        self.with(Telemetry::latest_row)
    }

    /// One-line live summary (see [`Telemetry::snapshot_line`]).
    pub fn snapshot_line(&self) -> String {
        self.with(Telemetry::snapshot_line)
    }

    /// Order-sensitive digest over everything recorded so far
    /// (see [`Telemetry::digest`]).
    pub fn digest(&self) -> u64 {
        self.with(Telemetry::digest)
    }

    /// The full printable report (see [`Telemetry::report`]).
    pub fn report(&self) -> String {
        self.with(Telemetry::report)
    }
}

impl EventSink for SharedTelemetry {
    fn record(&mut self, event: &Event) {
        self.inner.lock().expect("telemetry lock").record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{FunctionId, SimTime};

    #[test]
    fn shared_clones_observe_one_aggregate_and_digest_matches_unshared() {
        let interval = SimDuration::from_mins(10);
        let events = [
            Event::Arrival {
                at: SimTime::from_micros(1),
                function: FunctionId::new(0),
            },
            Event::Queued {
                at: SimTime::from_micros(2),
                function: FunctionId::new(0),
                depth: 3,
            },
        ];

        let mut shared = SharedTelemetry::new(interval);
        let observer = shared.clone();
        let mut plain = Telemetry::new(interval);
        for event in &events {
            shared.record(event);
            plain.record(event);
        }
        assert_eq!(observer.digest(), plain.digest());
        assert_eq!(observer.snapshot_line(), plain.snapshot_line());
        assert_eq!(observer.with(|t| t.samples().len()), 0);
    }
}
