//! The always-on service: producer feed, paced decision core, graceful
//! drain.
//!
//! [`Server::serve`] wires the pieces together: a producer thread pulls
//! arrivals from any [`ArrivalSource`] (a recorded trace, a streaming
//! generator, a real front door) and pushes them into the bounded
//! [`IngestQueue`]; the calling thread runs the *batch* decision core
//! (a [`Simulation`] over a [`PacedSource`]) so arrivals are
//! released on the service [`Clock`]. The optimizer's interval ticks are
//! the engine's own tick chain — on a real clock they fire wall-aligned;
//! on a [`VirtualClock`](crate::VirtualClock) the queue advances time
//! itself and the whole service runs at millions-of-x speed, bit-identical
//! to the batch run (`tests/serve_parity.rs` pins that contract).
//!
//! Shutdown is a [`ServeHandle::drain_now`] (or `drain_at`): the timeline
//! is cut at an effective instant strictly after everything already
//! processed, in-flight arrivals before the cut still flow, the final
//! partial telemetry interval is flushed by the engine's normal
//! end-of-run path, and `serve` returns the same [`SimReport`] a batch
//! run truncated at that instant would produce.

use std::sync::Arc;

use cc_sim::{ArrivalSource, ClusterConfig, EventSink, Scheduler, SimReport, Simulation};
use cc_types::{SimDuration, SimTime};
use cc_workload::Workload;

use crate::clock::Clock;
use crate::pace::PacedSource;
use crate::queue::{IngestQueue, PushRejected, QueueStats};

/// Configuration for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bound on undelivered queued arrivals before the producer blocks
    /// (backpressure). Default 1024.
    pub queue_capacity: usize,
    /// Whether the decision core keeps per-invocation records (needed for
    /// JSONL export digests; costs memory on long soaks). Default true.
    pub collect_records: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            queue_capacity: 1024,
            collect_records: true,
        }
    }
}

/// Everything one service run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The decision core's report — same type, same digests, as a batch
    /// [`Simulation`] run.
    pub report: SimReport,
    /// Ingestion counters (losslessness: `pushed == delivered` unless a
    /// drain cut queued arrivals, which `dropped_at_drain` counts).
    pub queue: QueueStats,
    /// The final stream horizon (trace end, or the drain cut).
    pub horizon: SimDuration,
}

/// A cloneable handle for steering a running service from other threads:
/// graceful drain and queue introspection.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    clock: Arc<dyn Clock>,
    queue: Arc<IngestQueue>,
}

impl ServeHandle {
    /// Initiates a graceful drain at the clock's current instant and
    /// returns the effective drain instant (see
    /// [`IngestQueue::drain_at`]).
    pub fn drain_now(&self) -> SimTime {
        self.queue.drain_at(self.clock.now())
    }

    /// Initiates a graceful drain at a chosen instant and returns the
    /// effective one.
    pub fn drain_at(&self, at: SimTime) -> SimTime {
        self.queue.drain_at(at)
    }

    /// The service clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Racy snapshot of the ingestion counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// One always-on service instance: a clock, a bounded ingestion queue,
/// and (once [`Server::serve`] is called) a producer thread feeding the
/// batch decision core. Single-use: one `serve` per `Server`.
#[derive(Debug)]
pub struct Server {
    clock: Arc<dyn Clock>,
    queue: Arc<IngestQueue>,
    options: ServeOptions,
}

impl Server {
    /// A server on the given clock.
    pub fn new(clock: Arc<dyn Clock>, options: ServeOptions) -> Server {
        let queue = Arc::new(IngestQueue::new(options.queue_capacity));
        Server {
            clock,
            queue,
            options,
        }
    }

    /// A handle for drain/introspection from other threads (e.g. a signal
    /// handler or a test harness). May be taken before `serve` starts.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            clock: Arc::clone(&self.clock),
            queue: Arc::clone(&self.queue),
        }
    }

    /// The service clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Runs the service to completion on the calling thread: spawns the
    /// producer feed over `source`, consumes arrivals paced by the clock,
    /// and returns once the stream ends (naturally or by drain) and every
    /// queued pre-cut arrival has been decided.
    ///
    /// On a manual ([`VirtualClock`](crate::VirtualClock)) clock the
    /// consumer advances time itself; the producer must push promptly
    /// without consulting the clock (any `ArrivalSource` does) or the two
    /// deadlock waiting on each other.
    pub fn serve<Src, S>(
        &self,
        config: &ClusterConfig,
        source: Src,
        workload: &Workload,
        policy: &mut dyn Scheduler,
        sink: &mut S,
    ) -> ServeOutcome
    where
        Src: ArrivalSource + Send,
        S: EventSink,
    {
        assert!(
            !self.queue.is_closed(),
            "a Server is single-use: this one already served a stream"
        );
        let report = std::thread::scope(|scope| {
            let feed_queue = Arc::clone(&self.queue);
            let functions = workload.len();
            scope.spawn(move || feed(source, &feed_queue, functions));
            // If the decision core unwinds, the feeder may be blocked on a
            // full queue; closing it wakes the feeder, so the scope joins
            // and the panic propagates instead of hanging.
            let _decide_guard = DecideGuard { queue: &self.queue };
            let paced = PacedSource::new(Arc::clone(&self.queue), Arc::clone(&self.clock));
            let mut simulation = Simulation::from_source(config.clone(), paced, workload);
            if !self.options.collect_records {
                simulation = simulation.without_records();
            }
            simulation.run_with_sink(policy, sink)
        });
        ServeOutcome {
            report,
            queue: self.queue.stats(),
            horizon: self
                .queue
                .horizon()
                .expect("horizon is final once the feed closed"),
        }
    }
}

/// Closes the queue at the pacing watermark if the feed unwinds without
/// reaching its normal close — otherwise the consumer would block forever
/// on a stream that will never end.
struct FeedGuard<'a> {
    queue: &'a IngestQueue,
    done: bool,
}

impl Drop for FeedGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.queue.close_abandoned();
        }
    }
}

/// Closes the queue if the decision core unwinds, so a feeder blocked in
/// [`IngestQueue::push`] sees [`PushRejected::Closed`] and returns.
struct DecideGuard<'a> {
    queue: &'a IngestQueue,
}

impl Drop for DecideGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.queue.close_abandoned();
        }
    }
}

/// Pushes `source` into `queue` until it ends or a drain cuts it. An
/// arrival whose function is not among the workload's `functions` is
/// skipped and counted, on this producer thread, so the decision thread
/// only ever sees ids it can resolve.
fn feed<Src: ArrivalSource>(mut source: Src, queue: &IngestQueue, functions: usize) {
    let mut guard = FeedGuard { queue, done: false };
    while let Some(inv) = source.next_invocation() {
        if inv.function.index() >= functions {
            queue.reject_unknown_function();
            continue;
        }
        match queue.push(inv) {
            Ok(()) => {}
            // Skipped and counted in the queue stats; the stream goes on.
            Err(PushRejected::OutOfOrder) => {}
            // A drain (or close) cut the stream: everything at or after
            // the cut is discarded by design.
            Err(PushRejected::Drained | PushRejected::Closed) => break,
        }
    }
    // Natural end and drain both land here; close() min-merges the
    // source horizon with any drain cut, so the shorter wins.
    queue.close(source.horizon());
    guard.done = true;
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use cc_compress::CompressionModel;
    use cc_obs::NullSink;
    use cc_sim::{ClusterView, FixedKeepAlive, KeepDecision, SliceSource};
    use cc_trace::SyntheticTrace;
    use cc_types::{Arch, FunctionId};
    use cc_workload::Catalog;

    use super::*;
    use crate::VirtualClock;

    /// Fixed keep-alive that panics at its `fuse`-th arrival.
    struct PanicsMidStream {
        inner: FixedKeepAlive,
        fuse: usize,
    }

    impl Scheduler for PanicsMidStream {
        fn name(&self) -> &str {
            "panics_mid_stream"
        }

        fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
            self.fuse -= 1;
            assert!(self.fuse > 0, "policy failure mid-stream");
            self.inner.on_arrival(function, now);
        }

        fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
            self.inner.place(function, view)
        }

        fn on_completion(
            &mut self,
            function: FunctionId,
            arch: Arch,
            view: &ClusterView<'_>,
        ) -> KeepDecision {
            self.inner.on_completion(function, arch, view)
        }
    }

    #[test]
    fn a_decision_panic_with_the_feeder_blocked_propagates() {
        let trace = SyntheticTrace::builder()
            .functions(200)
            .duration(SimDuration::from_mins(20))
            .seed(7)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        assert!(
            trace.invocations().len() > 1000,
            "the stream must outrun the queue"
        );
        // Serve on a helper thread so a hang fails the test instead of
        // hanging it.
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let server = Server::new(
                Arc::new(VirtualClock::new()),
                ServeOptions {
                    queue_capacity: 64,
                    collect_records: false,
                },
            );
            let mut policy = PanicsMidStream {
                inner: FixedKeepAlive::ten_minutes(),
                fuse: 500,
            };
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                server.serve(
                    &ClusterConfig::small(2, 2),
                    SliceSource::new(trace.invocations(), trace.duration()),
                    &workload,
                    &mut policy,
                    &mut NullSink,
                )
            }));
            let _ = done.send(served.is_err());
        });
        let panicked = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("serve hung after the decision core panicked");
        assert!(panicked, "the policy's panic must reach the caller");
    }
}
