//! Arrival sources: where the engine's invocation stream comes from.
//!
//! The engine consumes arrivals strictly in order and never looks more
//! than one invocation ahead (its arrival lane holds the next pulled
//! invocation beside the event heap), so the full trace never needs
//! to be addressable — a source is just a fallible iterator plus a fixed
//! horizon. [`SliceSource`] adapts a materialized [`Trace`]'s invocation
//! slice (the classic path, zero behavior change); a streaming generator
//! such as `cc_trace::StreamingTrace` plugs in the same way with O(#
//! functions) memory, which is what makes million-function multi-day
//! replays possible without materializing the invocation stream in RAM.

use cc_trace::{StreamingTrace, Trace};
use cc_types::{Invocation, SimDuration, SimTime};

/// Outcome of a deadline-bounded pull ([`ArrivalSource::fetch`]).
///
/// Batch sources only ever produce `Ready` or `Exhausted`; `NotBefore` is
/// how a *live* source (e.g. `cc-serve`'s paced ingestion queue) tells the
/// engine "nothing will arrive before this instant — go process your own
/// events up to it and ask again".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// The next invocation, in nondecreasing arrival order.
    Ready(Invocation),
    /// No arrival will be delivered strictly before the given instant
    /// (which is at least the deadline the caller passed). The caller may
    /// process internal work up to it, then fetch again.
    NotBefore(SimTime),
    /// The stream has ended; [`ArrivalSource::horizon`] is now final.
    Exhausted,
}

/// A strictly-ordered stream of invocations driving one simulation.
///
/// Implementations must yield invocations in nondecreasing arrival order.
/// The engine checks this in every build: an invocation earlier than the
/// one before it is skipped and counted in
/// [`SimReport::out_of_order_arrivals`](crate::SimReport::out_of_order_arrivals),
/// and one of a function outside the workload in
/// [`SimReport::rejected_arrivals`](crate::SimReport::rejected_arrivals).
/// [`ArrivalSource::horizon`] is the logical trace length that bounds the
/// interval-tick chain, and no arrival may come after it: one that does is
/// skipped and counted in
/// [`SimReport::past_horizon_arrivals`](crate::SimReport::past_horizon_arrivals).
/// Batch sources keep the horizon constant; a live source may report an
/// open horizon (`SimDuration::from_micros(u64::MAX)`) that collapses to
/// the final value once the stream closes — the engine reads it when the
/// run starts and re-reads it at every tick.
pub trait ArrivalSource {
    /// The next invocation, or `None` when the stream is exhausted. May
    /// block until one is available.
    fn next_invocation(&mut self) -> Option<Invocation>;

    /// The logical trace duration (last arrival offset). Ticks stop after
    /// this horizon.
    fn horizon(&self) -> SimDuration;

    /// Expected total invocation count, if cheaply known. Used only to
    /// pre-size the record buffer; `0` is always safe.
    fn len_hint(&self) -> usize {
        0
    }

    /// Deadline-bounded pull for live sources. `deadline` is the engine's
    /// next internal event instant (`None` when it has none pending):
    /// a live source blocks until an arrival is available, the stream
    /// closes, or time reaches the deadline — whichever comes first —
    /// and with `deadline == None` it must block until `Ready` or
    /// `Exhausted` (never returning `NotBefore`).
    ///
    /// Batch sources are always ready, so the default forwards to
    /// [`ArrivalSource::next_invocation`] and never waits.
    fn fetch(&mut self, deadline: Option<SimTime>) -> Fetch {
        let _ = deadline;
        match self.next_invocation() {
            Some(inv) => Fetch::Ready(inv),
            None => Fetch::Exhausted,
        }
    }
}

/// An [`ArrivalSource`] over a materialized invocation slice — the adapter
/// [`Simulation`](crate::Simulation) uses for an in-memory [`Trace`].
#[derive(Debug)]
pub struct SliceSource<'a> {
    invocations: &'a [Invocation],
    next: usize,
    horizon: SimDuration,
}

impl<'a> SliceSource<'a> {
    /// Wraps a sorted invocation slice with an explicit horizon.
    pub fn new(invocations: &'a [Invocation], horizon: SimDuration) -> Self {
        SliceSource {
            invocations,
            next: 0,
            horizon,
        }
    }

    /// Wraps a whole trace (horizon = the trace's duration).
    pub fn from_trace(trace: &'a Trace) -> Self {
        SliceSource::new(trace.invocations(), trace.duration())
    }
}

impl ArrivalSource for SliceSource<'_> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let inv = self.invocations.get(self.next).copied();
        if inv.is_some() {
            self.next += 1;
        }
        inv
    }

    fn horizon(&self) -> SimDuration {
        self.horizon
    }

    fn len_hint(&self) -> usize {
        self.invocations.len()
    }
}

impl ArrivalSource for StreamingTrace {
    fn next_invocation(&mut self) -> Option<Invocation> {
        StreamingTrace::next_invocation(self)
    }

    fn horizon(&self) -> SimDuration {
        StreamingTrace::horizon(self)
    }

    fn len_hint(&self) -> usize {
        self.expected_invocations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{FunctionId, SimTime};

    #[test]
    fn slice_source_yields_in_order_and_exhausts() {
        let invocations = vec![
            Invocation::new(FunctionId::new(0), SimTime::from_micros(10)),
            Invocation::new(FunctionId::new(1), SimTime::from_micros(20)),
        ];
        let mut source = SliceSource::new(&invocations, SimDuration::from_micros(20));
        assert_eq!(source.len_hint(), 2);
        assert_eq!(source.horizon(), SimDuration::from_micros(20));
        assert_eq!(source.next_invocation(), Some(invocations[0]));
        assert_eq!(source.next_invocation(), Some(invocations[1]));
        assert_eq!(source.next_invocation(), None);
        assert_eq!(source.next_invocation(), None);
    }
}
