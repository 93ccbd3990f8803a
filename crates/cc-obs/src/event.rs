//! The typed event stream the simulator emits, and the sink trait that
//! receives it.
//!
//! The engine is generic over an [`EventSink`]; the sink's associated
//! `ENABLED` constant lets every emission site compile down to nothing for
//! [`NullSink`] — the event value is never even constructed, so the
//! disabled path is byte-identical to an uninstrumented engine.

use cc_types::{
    Arch, Cost, FunctionId, MemoryMb, NodeId, ServiceRecord, SimDuration, SimTime, StartKind,
    WarmId,
};

/// Why a warm instance left the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseReason {
    /// Consumed by a warm start.
    Reused,
    /// Evicted under memory pressure or by a policy command.
    Evicted,
    /// Its keep-alive window elapsed.
    Expired,
}

impl ReleaseReason {
    /// Stable lowercase label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            ReleaseReason::Reused => "reused",
            ReleaseReason::Evicted => "evicted",
            ReleaseReason::Expired => "expired",
        }
    }
}

/// One round of the per-interval optimizer (SRE or the full-space descent
/// ablation), as reported by the policy through
/// `Scheduler::drain_optimizer_rounds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerRound {
    /// Round ordinal within the interval (0-based).
    pub round: u32,
    /// Sub-problems sampled this round (1 for full-space descent).
    pub subproblems: u32,
    /// Choice dimensions optimized this round (3 × sampled functions).
    pub dimensions: u32,
    /// Objective value of the spliced working solution after the round.
    pub objective: f64,
    /// Coordinates whose value changed versus the round's start.
    pub accepted_moves: u64,
    /// Objective evaluations consumed by the round's sub-problem searches.
    pub evaluations: u64,
}

/// The engine's state at one interval tick. The engine keeps one per tick
/// in `SimReport::intervals` and emits the same value as
/// [`Event::IntervalSampled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// Tick ordinal (0 at simulated time zero).
    pub index: u64,
    /// Keep-alive dollars spent since the previous tick (net of refunds).
    pub spend_delta_dollars: f64,
    /// Live warm instances at the tick.
    pub warm_pool: u64,
    /// Live compressed instances at the tick.
    pub compressed: u64,
    /// Fraction of execution cores busy at the tick.
    pub utilization: f64,
    /// Compressed admissions since the previous tick.
    pub compression_events_delta: u64,
    /// Invocations waiting for capacity at the tick.
    pub pending: u64,
}

/// A typed simulator event.
///
/// Every variant carries its simulated timestamp `at`. Events are emitted
/// in engine processing order, which is non-decreasing in `at` with one
/// exception: [`Event::CompressionFinished`] is emitted at admission time
/// (the moment its completion instant becomes known) but timestamped with
/// that future instant — consumers that need strict ordering should sort
/// by `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A trace invocation arrived.
    Arrival {
        /// Arrival time.
        at: SimTime,
        /// The invoked function.
        function: FunctionId,
    },
    /// An arrival could not be placed immediately and joined the queue
    /// (emitted once per invocation, not per retry).
    Queued {
        /// When the invocation joined the queue.
        at: SimTime,
        /// The invoked function.
        function: FunctionId,
        /// Queue depth after joining.
        depth: u64,
    },
    /// An execution started (the simulator knows all timing components up
    /// front, so the whole span is described here).
    ExecutionStarted {
        /// Start time (arrival + wait).
        at: SimTime,
        /// The function.
        function: FunctionId,
        /// Hosting node.
        node: NodeId,
        /// Node architecture.
        arch: Arch,
        /// Cold, warm-compressed (pays decompression), or warm.
        kind: StartKind,
        /// Queueing wait already paid.
        wait: SimDuration,
        /// Cold-start or decompression penalty.
        start_penalty: SimDuration,
        /// Execution time.
        execution: SimDuration,
    },
    /// A finished (or pre-warmed) instance entered the warm pool.
    InstanceAdmitted {
        /// Admission time.
        at: SimTime,
        /// Pool handle.
        id: WarmId,
        /// The function.
        function: FunctionId,
        /// Hosting node.
        node: NodeId,
        /// Node architecture.
        arch: Arch,
        /// Stored compressed.
        compressed: bool,
        /// Footprint charged to the node.
        memory: MemoryMb,
        /// Keep-alive expiry instant.
        expiry: SimTime,
        /// Budget reserved for the window.
        reserved: Cost,
    },
    /// A warm instance left the pool (reuse, eviction, or expiry).
    InstanceReleased {
        /// Release time.
        at: SimTime,
        /// Pool handle.
        id: WarmId,
        /// The function.
        function: FunctionId,
        /// Hosting node.
        node: NodeId,
        /// Footprint released.
        memory: MemoryMb,
        /// Was stored compressed.
        compressed: bool,
        /// When the instance was admitted (span start for exporters).
        since: SimTime,
        /// Why it left.
        reason: ReleaseReason,
    },
    /// Background compression of a freshly admitted instance began.
    CompressionStarted {
        /// Admission time.
        at: SimTime,
        /// Pool handle.
        id: WarmId,
        /// The function.
        function: FunctionId,
        /// Hosting node.
        node: NodeId,
        /// When compression completes (reuses before this pay nothing).
        ready_at: SimTime,
    },
    /// Background compression completed. Emitted at admission (see the
    /// enum docs); `at` is the completion instant.
    CompressionFinished {
        /// Completion instant.
        at: SimTime,
        /// Pool handle.
        id: WarmId,
        /// The function.
        function: FunctionId,
        /// Hosting node.
        node: NodeId,
    },
    /// The ledger granted (part of) a keep-alive reservation.
    BudgetDebit {
        /// Reservation time.
        at: SimTime,
        /// What the keep-alive decision asked for.
        requested: Cost,
        /// What the budget afforded (equal to `requested` when unlimited).
        granted: Cost,
    },
    /// The ledger was refunded an unused reservation tail.
    BudgetCredit {
        /// Refund time.
        at: SimTime,
        /// Amount returned to the balance.
        amount: Cost,
    },
    /// A pre-warm command found no node with capacity and was dropped.
    PrewarmDropped {
        /// Tick time.
        at: SimTime,
        /// The function that was to be warmed.
        function: FunctionId,
        /// Requested architecture.
        arch: Arch,
    },
    /// One optimizer round finished inside the policy's interval callback.
    OptimizerRound {
        /// Tick time.
        at: SimTime,
        /// Round telemetry.
        round: OptimizerRound,
    },
    /// Per-interval engine sample (the one kept in `SimReport::intervals`).
    IntervalSampled {
        /// Tick time.
        at: SimTime,
        /// The sampled values.
        sample: IntervalSample,
    },
}

impl Event {
    /// The event's simulated timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            Event::Arrival { at, .. }
            | Event::Queued { at, .. }
            | Event::ExecutionStarted { at, .. }
            | Event::InstanceAdmitted { at, .. }
            | Event::InstanceReleased { at, .. }
            | Event::CompressionStarted { at, .. }
            | Event::CompressionFinished { at, .. }
            | Event::BudgetDebit { at, .. }
            | Event::BudgetCredit { at, .. }
            | Event::PrewarmDropped { at, .. }
            | Event::OptimizerRound { at, .. }
            | Event::IntervalSampled { at, .. } => at,
        }
    }

    /// The [`ServiceRecord`] an [`Event::ExecutionStarted`] describes;
    /// `None` for every other event. Its `at` is arrival + wait, so the
    /// arrival is recovered exactly; it saturates at zero rather than trust
    /// a decoded (possibly hand-edited) log not to underflow.
    pub fn service_record(&self) -> Option<ServiceRecord> {
        match *self {
            Event::ExecutionStarted {
                at,
                function,
                arch,
                kind,
                wait,
                start_penalty,
                execution,
                ..
            } => Some(ServiceRecord {
                function,
                arrival: SimTime::from_micros(at.as_micros().saturating_sub(wait.as_micros())),
                wait,
                start_penalty,
                execution,
                kind,
                arch,
            }),
            _ => None,
        }
    }

    /// Stable lowercase type tag (used by the exporters).
    pub fn tag(&self) -> &'static str {
        match self {
            Event::Arrival { .. } => "arrival",
            Event::Queued { .. } => "queued",
            Event::ExecutionStarted { .. } => "exec_start",
            Event::InstanceAdmitted { .. } => "warm_admit",
            Event::InstanceReleased { .. } => "warm_release",
            Event::CompressionStarted { .. } => "compress_start",
            Event::CompressionFinished { .. } => "compress_finish",
            Event::BudgetDebit { .. } => "budget_debit",
            Event::BudgetCredit { .. } => "budget_credit",
            Event::PrewarmDropped { .. } => "prewarm_dropped",
            Event::OptimizerRound { .. } => "opt_round",
            Event::IntervalSampled { .. } => "interval",
        }
    }
}

/// Receives simulator events.
///
/// The engine is monomorphized over the sink type, and every emission site
/// is guarded by `S::ENABLED`, so a [`NullSink`] run contains no telemetry
/// code at all — not even event construction.
pub trait EventSink {
    /// Whether this sink observes anything. Emission sites skip event
    /// construction entirely when `false`.
    const ENABLED: bool = true;

    /// Receives one event.
    fn record(&mut self, event: &Event);
}

/// The disabled sink: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }
}

/// Fans one event stream out to two sinks (compose for more).
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: EventSink, B: EventSink> EventSink for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn record(&mut self, event: &Event) {
        if A::ENABLED {
            self.0.record(event);
        }
        if B::ENABLED {
            self.1.record(event);
        }
    }
}

/// Retains every event in memory (tests and small analyses).
#[derive(Debug, Default)]
pub struct BufferSink {
    /// The recorded events, in emission order.
    pub events: Vec<Event>,
}

impl BufferSink {
    /// Creates an empty buffer.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }
}

impl EventSink for BufferSink {
    fn record(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(us: u64) -> Event {
        Event::Arrival {
            at: SimTime::from_micros(us),
            function: FunctionId::new(7),
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        fn enabled<S: EventSink>() -> bool {
            S::ENABLED
        }
        assert!(!enabled::<NullSink>());
        assert!(enabled::<BufferSink>());
        // A tee is enabled iff either side is.
        assert!(enabled::<Tee<NullSink, BufferSink>>());
        assert!(!enabled::<Tee<NullSink, NullSink>>());
    }

    #[test]
    fn tee_duplicates_events() {
        let mut tee = Tee(BufferSink::new(), BufferSink::new());
        tee.record(&arrival(5));
        assert_eq!(tee.0.events.len(), 1);
        assert_eq!(tee.1.events, tee.0.events);
    }

    #[test]
    fn timestamps_and_tags_are_exposed() {
        let e = arrival(42);
        assert_eq!(e.at(), SimTime::from_micros(42));
        assert_eq!(e.tag(), "arrival");
        assert_eq!(ReleaseReason::Expired.label(), "expired");
    }

    #[test]
    fn mut_ref_sinks_forward() {
        let mut buffer = BufferSink::new();
        {
            let mut as_ref = &mut buffer;
            EventSink::record(&mut as_ref, &arrival(1));
        }
        assert_eq!(buffer.events.len(), 1);
    }
}
