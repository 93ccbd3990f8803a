//! [`PacedSource`]: the adapter that lets the unmodified batch engine
//! consume a live, clock-paced arrival stream.
//!
//! The engine already speaks [`ArrivalSource`]; `PacedSource` implements
//! it over an [`IngestQueue`] plus a [`Clock`], so the engine a
//! `Simulation` runs over it is the *only* decision loop — service mode is not a second engine, it is the
//! batch engine fed at the pace the clock dictates. That is what makes
//! the bit-identical batch-equivalence contract provable at all.

use std::sync::Arc;

use cc_sim::{ArrivalSource, Fetch};
use cc_types::{Invocation, SimDuration, SimTime};

use crate::clock::Clock;
use crate::queue::{IngestQueue, OPEN_HORIZON};

/// An [`ArrivalSource`] that releases queued arrivals no earlier than
/// their recorded timestamps on the service [`Clock`], and bounds the
/// engine's internal-event processing to the clock the same way.
#[derive(Clone)]
pub struct PacedSource {
    queue: Arc<IngestQueue>,
    clock: Arc<dyn Clock>,
}

impl PacedSource {
    /// Pairs an ingestion queue with the clock that paces it.
    pub fn new(queue: Arc<IngestQueue>, clock: Arc<dyn Clock>) -> PacedSource {
        PacedSource { queue, clock }
    }
}

impl std::fmt::Debug for PacedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacedSource")
            .field("queue", &self.queue)
            .field("manual_clock", &self.clock.is_manual())
            .finish()
    }
}

impl ArrivalSource for PacedSource {
    fn next_invocation(&mut self) -> Option<Invocation> {
        match self.queue.fetch(&*self.clock, None) {
            Fetch::Ready(inv) => Some(inv),
            Fetch::Exhausted => None,
            Fetch::NotBefore(_) => {
                unreachable!("a deadline-free fetch never defers")
            }
        }
    }

    fn horizon(&self) -> SimDuration {
        // Open until the stream closes (or a drain cuts it); the engine
        // re-reads this at every interval tick.
        self.queue.horizon().unwrap_or(OPEN_HORIZON)
    }

    fn fetch(&mut self, deadline: Option<SimTime>) -> Fetch {
        self.queue.fetch(&*self.clock, deadline)
    }
}
