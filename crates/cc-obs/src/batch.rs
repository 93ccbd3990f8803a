//! Window-aligned event batching: the transport for the intra-run
//! parallel pipeline.
//!
//! A [`BatchSink`] buffers the engine's event stream and flushes it as
//! [`EventBatch`]es — shared, immutable event slices tagged with a
//! monotone batch index. A flush happens when simulated time crosses a
//! window boundary (every `window` of simulated time) or when the buffer
//! reaches its size cap, whichever comes first. Each batch is fanned out
//! to every subscribed channel, so independent consumers (JSONL encoder
//! workers, a telemetry folder) observe the same batches without copying
//! events.
//!
//! Determinism: batch indices are assigned in emission order, and events
//! within a batch stay in emission order, so any consumer that processes
//! batches in index order reconstructs the exact serial event stream —
//! regardless of the window length, the size cap, or how many worker
//! threads consume the batches. The window only controls flush *cadence*
//! (latency and batch granularity), never content order.

use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use cc_types::{SimDuration, SimTime};

use crate::event::EventSink;
use crate::schema::Event;

/// One flushed batch: a contiguous run of the event stream.
///
/// `index` is dense and monotone (0, 1, 2, …); concatenating batches in
/// index order yields the serial emission order.
#[derive(Debug, Clone)]
pub struct EventBatch {
    /// Dense, monotone batch ordinal.
    pub index: u64,
    /// The events, in emission order, shared across subscribers.
    pub events: Arc<[Event]>,
}

/// Buffers events into window-aligned, size-capped batches and fans each
/// batch out to every subscriber channel.
#[derive(Debug)]
pub struct BatchSink {
    window: SimDuration,
    cap: usize,
    window_end: SimTime,
    next_index: u64,
    buffer: Vec<Event>,
    subscribers: Vec<SyncSender<EventBatch>>,
    send_failures: u64,
}

impl BatchSink {
    /// Creates a sink flushing at every `window` of simulated time or
    /// every `cap` events, fanning batches out to `subscribers`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, `cap` is zero, or there are no
    /// subscribers (the batches would go nowhere).
    pub fn new(
        window: SimDuration,
        cap: usize,
        subscribers: Vec<SyncSender<EventBatch>>,
    ) -> BatchSink {
        assert!(window > SimDuration::ZERO, "window must be positive");
        assert!(cap > 0, "batch size cap must be positive");
        assert!(
            !subscribers.is_empty(),
            "batches need at least one subscriber"
        );
        BatchSink {
            window,
            cap,
            window_end: SimTime::ZERO + window,
            next_index: 0,
            buffer: Vec::with_capacity(cap),
            subscribers,
            send_failures: 0,
        }
    }

    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        // Dynamic probe (this sink is used behind `&mut dyn`-style
        // composition, so no profiler type parameter reaches it): one
        // relaxed atomic load when profiling is off. Blocked fan-out sends
        // (subscriber backpressure) are inside the span.
        let _span = cc_prof::DynScope::new(cc_prof::Phase::BatchFlush);
        cc_prof::dyn_add(cc_prof::PerfCounter::BatchFlushes, 1);
        let events: Arc<[Event]> = self.buffer.drain(..).collect();
        let index = self.next_index;
        self.next_index += 1;
        for tx in &self.subscribers {
            let batch = EventBatch {
                index,
                events: Arc::clone(&events),
            };
            if tx.send(batch).is_err() {
                self.send_failures += 1;
            }
        }
    }

    /// Flushes the final partial batch and hangs up the subscriber
    /// channels. Returns `(batches flushed, failed sends)`; a failed send
    /// means a subscriber disconnected early and its stream is incomplete.
    pub fn finish(mut self) -> (u64, u64) {
        self.flush();
        (self.next_index, self.send_failures)
    }
}

impl EventSink for BatchSink {
    fn record(&mut self, event: &Event) {
        let at = event.at();
        if at >= self.window_end {
            // Crossing into a new window: everything buffered belongs to
            // completed windows — flush it, then advance the boundary past
            // this event (skipping empty windows in one step).
            self.flush();
            while self.window_end <= at {
                self.window_end += self.window;
            }
        }
        self.buffer.push(*event);
        if self.buffer.len() >= self.cap {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::FunctionId;
    use std::sync::mpsc::sync_channel;

    fn arrival(us: u64) -> Event {
        Event::Arrival {
            at: SimTime::from_micros(us),
            function: FunctionId::new(0),
        }
    }

    #[test]
    fn batches_are_dense_and_preserve_order() {
        let (tx, rx) = sync_channel(64);
        let mut sink = BatchSink::new(SimDuration::from_micros(100), 3, vec![tx]);
        for us in [0, 10, 150, 160, 170, 180, 420] {
            sink.record(&arrival(us));
        }
        let (batches, failures) = sink.finish();
        assert_eq!(failures, 0);
        let received: Vec<EventBatch> = rx.into_iter().collect();
        assert_eq!(received.len() as u64, batches);
        let mut replayed = Vec::new();
        for (i, batch) in received.iter().enumerate() {
            assert_eq!(batch.index, i as u64, "indices must be dense");
            assert!(!batch.events.is_empty(), "no empty batches");
            assert!(batch.events.len() <= 3, "size cap respected");
            replayed.extend(batch.events.iter().map(|e| e.at().as_micros()));
        }
        // Window at 100µs splits 10→150; cap of 3 splits 150,160,170→180.
        assert_eq!(replayed, [0, 10, 150, 160, 170, 180, 420]);
        assert_eq!(batches, 4);
    }

    #[test]
    fn every_subscriber_sees_every_batch() {
        let (tx_a, rx_a) = sync_channel(8);
        let (tx_b, rx_b) = sync_channel(8);
        let mut sink = BatchSink::new(SimDuration::from_mins(1), 2, vec![tx_a, tx_b]);
        for us in 0..5 {
            sink.record(&arrival(us));
        }
        let (batches, failures) = sink.finish();
        assert_eq!((batches, failures), (3, 0));
        let a: Vec<EventBatch> = rx_a.into_iter().collect();
        let b: Vec<EventBatch> = rx_b.into_iter().collect();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert!(
                Arc::ptr_eq(&x.events, &y.events),
                "events are shared, not copied"
            );
        }
    }

    #[test]
    fn disconnected_subscriber_is_counted_not_fatal() {
        let (tx_gone, rx_gone) = sync_channel(1);
        let (tx_live, rx_live) = sync_channel(8);
        drop(rx_gone);
        let mut sink = BatchSink::new(SimDuration::from_mins(1), 1, vec![tx_gone, tx_live]);
        sink.record(&arrival(1));
        sink.record(&arrival(2));
        let (batches, failures) = sink.finish();
        assert_eq!(batches, 2);
        assert_eq!(failures, 2, "one failure per batch for the dead channel");
        assert_eq!(rx_live.into_iter().count(), 2, "live subscriber unaffected");
    }
}
