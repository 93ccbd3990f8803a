//! The typed event stream the simulator emits, and the sink trait that
//! receives it.
//!
//! The engine is generic over an [`EventSink`]; the sink's associated
//! `ENABLED` constant lets every emission site compile down to nothing for
//! [`NullSink`] — the event value is never even constructed, so the
//! disabled path is byte-identical to an uninstrumented engine.

use cc_types::{ServiceRecord, SimTime};

use crate::schema::Event;

impl Event {
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
    use crate::schema::ReleaseReason;
    use cc_types::FunctionId;

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
