//! Bounded ingestion with explicit backpressure and lossless catch-up.
//!
//! The [`IngestQueue`] sits between the producer (a live front door, or a
//! trace generator replayed as one) and the single-threaded decision core.
//! It is deliberately small and explicit:
//!
//! - **Bounded**: [`IngestQueue::push`] blocks once `capacity` arrivals
//!   are queued — backpressure, not silent dropping. Every accepted
//!   arrival is eventually delivered (lossless burst catch-up): a burst
//!   deeper than the queue merely stalls the producer while the consumer
//!   drains at full speed, and late deliveries carry their *recorded*
//!   arrival timestamps so queueing delay is charged to wait time exactly
//!   as the batch engine would.
//! - **Ordered**: an arrival earlier than the last accepted one is refused
//!   and counted, so the consumer always sees nondecreasing arrivals.
//! - **Closable**: the producer calls [`IngestQueue::close`] with the
//!   final stream horizon; the consumer sees `Exhausted` once the last
//!   queued arrival is out.
//! - **Drainable**: graceful shutdown picks an *effective drain instant*
//!   and cuts the timeline there — arrivals strictly before it are still
//!   delivered, arrivals at or after it are refused/discarded, and the
//!   instant is chosen so that nothing already delivered or paced past is
//!   ever contradicted (see [`IngestQueue::drain_at`]).
//!
//! Pacing itself (consulting the [`Clock`]) lives in
//! [`IngestQueue::fetch`], which the [`PacedSource`](crate::PacedSource)
//! adapter exposes to the engine as an
//! [`ArrivalSource`](cc_sim::ArrivalSource).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

use cc_sim::Fetch;
use cc_types::{Invocation, SimDuration, SimTime};

use crate::clock::Clock;

/// The open-horizon sentinel a live source reports until its stream
/// closes (the engine re-reads the horizon at every interval tick).
pub const OPEN_HORIZON: SimDuration = SimDuration::from_micros(u64::MAX);

/// Why [`IngestQueue::push`] refused an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRejected {
    /// The stream was already closed (producer bug, or a second producer).
    Closed,
    /// A drain is in effect and the arrival is at or after the drain
    /// instant. The producer should stop and [`IngestQueue::close`].
    Drained,
    /// The arrival is earlier than one already accepted (queued or
    /// delivered). The arrival is skipped; later ones may still be pushed.
    OutOfOrder,
}

/// Counters describing one queue's lifetime, for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Arrivals accepted by [`IngestQueue::push`].
    pub pushed: u64,
    /// Arrivals handed to the consumer.
    pub delivered: u64,
    /// Queued arrivals discarded because a drain instant cut them off.
    pub dropped_at_drain: u64,
    /// Arrivals refused as [`PushRejected::OutOfOrder`].
    pub out_of_order: u64,
    /// Arrivals the producer skipped because their function is not in
    /// the served workload ([`IngestQueue::reject_unknown_function`]).
    pub unknown_function: u64,
    /// High-water mark of the queue depth.
    pub peak_depth: usize,
    /// Current depth.
    pub depth: usize,
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<Invocation>,
    closed: bool,
    horizon: Option<SimDuration>,
    drain_at: Option<SimTime>,
    /// Watermark: the consumer has paced (delivered arrivals or conceded
    /// `NotBefore`) up to this instant. A drain instant is always chosen
    /// strictly after it, so the cut never contradicts delivered work.
    paced_to: SimTime,
    /// Arrival instant of the last delivered invocation. A push must not
    /// go below the queue's back, or below this once the queue is empty:
    /// together they are the last accepted arrival a drain did not cut.
    last_delivered: Option<SimTime>,
    pushed: u64,
    delivered: u64,
    dropped_at_drain: u64,
    out_of_order: u64,
    unknown_function: u64,
    peak_depth: usize,
}

/// Bounded, closable, drainable arrival queue (see module docs).
#[derive(Debug)]
pub struct IngestQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl IngestQueue {
    /// A queue admitting at most `capacity` undelivered arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (the consumer could never see an
    /// arrival the producer is still blocked pushing).
    pub fn new(capacity: usize) -> IngestQueue {
        assert!(capacity > 0, "ingestion queue capacity must be positive");
        IngestQueue {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                horizon: None,
                drain_at: None,
                paced_to: SimTime::ZERO,
                last_delivered: None,
                pushed: 0,
                delivered: 0,
                dropped_at_drain: 0,
                out_of_order: 0,
                unknown_function: 0,
                peak_depth: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues an arrival, blocking while the queue is full
    /// (backpressure). Arrivals must be pushed in nondecreasing arrival
    /// order: one earlier than the last accepted arrival is refused with
    /// [`PushRejected::OutOfOrder`] and counted, in every build profile.
    pub fn push(&self, inv: Invocation) -> Result<(), PushRejected> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return Err(PushRejected::Closed);
            }
            if let Some(cut) = state.drain_at {
                if inv.arrival >= cut {
                    return Err(PushRejected::Drained);
                }
            }
            let floor = state
                .items
                .back()
                .map(|back| back.arrival)
                .or(state.last_delivered);
            if floor.is_some_and(|floor| inv.arrival < floor) {
                state.out_of_order += 1;
                return Err(PushRejected::OutOfOrder);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(inv);
                state.pushed += 1;
                state.peak_depth = state.peak_depth.max(state.items.len());
                self.not_empty.notify_all();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue lock");
        }
    }

    /// Counts an arrival the producer skipped instead of pushing because
    /// its function id is outside the served workload (the engine would
    /// index past the workload's function table).
    pub fn reject_unknown_function(&self) {
        self.state.lock().expect("queue lock").unknown_function += 1;
    }

    /// Closes the stream with its final horizon. If a drain already
    /// imposed a shorter horizon, the shorter one wins. Idempotent.
    pub fn close(&self, horizon: SimDuration) {
        let mut state = self.state.lock().expect("queue lock");
        self.close_locked(&mut state, horizon);
    }

    /// Emergency close for a producer or consumer unwinding mid-stream:
    /// freezes the horizon at the pacing watermark so the consumer can
    /// finish what was delivered, and a blocked producer wakes, instead of
    /// either blocking forever. It runs from `Drop` guards during a panic,
    /// where a second panic would abort, so a poisoned lock is taken over:
    /// closing only sets the flag and lowers the horizon.
    pub(crate) fn close_abandoned(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let watermark = SimDuration::from_micros(state.paced_to.as_micros());
        self.close_locked(&mut state, watermark);
    }

    fn close_locked(&self, state: &mut QueueState, horizon: SimDuration) {
        state.closed = true;
        state.horizon = Some(match state.horizon {
            Some(existing) => existing.min(horizon),
            None => horizon,
        });
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Requests a graceful drain at `at` and returns the *effective* drain
    /// instant actually used.
    ///
    /// The effective instant is `max(at, paced_to + 1µs)` — strictly after
    /// everything the consumer has already delivered or paced past — then
    /// merged (min) with any earlier drain. The timeline is cut there:
    /// queued arrivals at or after it are discarded, future pushes of such
    /// arrivals are refused, and the stream horizon collapses to it so the
    /// tick chain stops. Earlier arrivals still flow — a drain is
    /// lossless for everything before the cut.
    ///
    /// A drain that lands after the stream already finished (closed and
    /// fully delivered) has nothing left to cut: past the last fetch the
    /// engine runs out its remaining events unpaced, so the watermark no
    /// longer bounds its progress and shrinking the horizon could
    /// contradict ticks that already fired. The request is then a no-op
    /// returning the final horizon's end.
    pub fn drain_at(&self, at: SimTime) -> SimTime {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed && state.items.is_empty() {
            let final_horizon = state.horizon.expect("closed stream has a horizon");
            return SimTime::ZERO + final_horizon;
        }
        let floor = SimTime::from_micros(state.paced_to.as_micros().saturating_add(1));
        let mut eff = at.max(floor);
        if let Some(prev) = state.drain_at {
            eff = eff.min(prev);
        }
        state.drain_at = Some(eff);
        let cut_horizon = SimDuration::from_micros(eff.as_micros());
        state.horizon = Some(match state.horizon {
            Some(existing) => existing.min(cut_horizon),
            None => cut_horizon,
        });
        while let Some(back) = state.items.back() {
            if back.arrival >= eff {
                state.items.pop_back();
                state.dropped_at_drain += 1;
            } else {
                break;
            }
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
        eff
    }

    /// The stream horizon: `None` while the stream is live and uncut.
    pub fn horizon(&self) -> Option<SimDuration> {
        self.state.lock().expect("queue lock").horizon
    }

    /// Whether [`IngestQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Lifetime counters (racy snapshot while the service is running;
    /// exact once it has finished).
    pub fn stats(&self) -> QueueStats {
        let state = self.state.lock().expect("queue lock");
        QueueStats {
            pushed: state.pushed,
            delivered: state.delivered,
            dropped_at_drain: state.dropped_at_drain,
            out_of_order: state.out_of_order,
            unknown_function: state.unknown_function,
            peak_depth: state.peak_depth,
            depth: state.items.len(),
        }
    }

    /// The consumer-side deadline-bounded pull implementing the
    /// [`ArrivalSource::fetch`](cc_sim::ArrivalSource::fetch) contract.
    ///
    /// Pacing rules:
    /// - An arrival is never delivered before its recorded timestamp on
    ///   the [`Clock`] (release gating) — but one already *late* (a burst
    ///   being caught up) is delivered immediately.
    /// - `NotBefore(d)` is returned only once the clock has reached `d`,
    ///   so the engine never processes an internal event ahead of time.
    /// - On a manual clock the queue advances the clock itself (under the
    ///   queue lock, hence deterministically) instead of sleeping; the
    ///   producer must then push promptly without consulting the clock,
    ///   or producer and consumer deadlock waiting for each other.
    pub(crate) fn fetch(&self, clock: &dyn Clock, deadline: Option<SimTime>) -> Fetch {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(head) = state.items.front().map(|inv| inv.arrival) {
                // Wait until the earlier of the head's release instant and
                // the engine's deadline, then deliver or concede.
                let target = match deadline {
                    Some(d) => head.min(d),
                    None => head,
                };
                if clock.is_manual() {
                    state.paced_to = state.paced_to.max(target);
                    clock.advance_to(target);
                } else if let Some(wait) = clock.until(target) {
                    let (guard, _timeout) = self
                        .not_empty
                        .wait_timeout(state, wait)
                        .expect("queue lock");
                    // Nothing to learn from a notify here (the head can't
                    // change while we hold delivery rights), but re-check
                    // the clock either way.
                    state = guard;
                    continue;
                } else {
                    state.paced_to = state.paced_to.max(target);
                }
                return if head <= target {
                    let inv = state.items.pop_front().expect("head checked above");
                    state.delivered += 1;
                    state.last_delivered = Some(inv.arrival);
                    self.not_full.notify_all();
                    Fetch::Ready(inv)
                } else {
                    Fetch::NotBefore(target)
                };
            }
            if state.closed {
                return Fetch::Exhausted;
            }
            match deadline {
                Some(d) => {
                    if clock.is_manual() {
                        // An empty live queue on a manual clock: the only
                        // way forward is a producer push or close — wait
                        // for it rather than advancing time past arrivals
                        // that are still in flight.
                        state = self.not_empty.wait(state).expect("queue lock");
                    } else {
                        match clock.until(d) {
                            Some(wait) => {
                                let (guard, _timeout) = self
                                    .not_empty
                                    .wait_timeout(state, wait)
                                    .expect("queue lock");
                                state = guard;
                            }
                            None => {
                                state.paced_to = state.paced_to.max(d);
                                return Fetch::NotBefore(d);
                            }
                        }
                    }
                }
                None => {
                    // Deadline-free pull must block until Ready/Exhausted.
                    state = self.not_empty.wait(state).expect("queue lock");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use cc_types::FunctionId;
    use std::sync::Arc;

    fn inv(at: u64) -> Invocation {
        Invocation::new(FunctionId::new(0), SimTime::from_micros(at))
    }

    #[test]
    fn push_blocks_at_capacity_and_resumes_after_delivery() {
        let queue = Arc::new(IngestQueue::new(2));
        let clock = VirtualClock::new();
        queue.push(inv(10)).unwrap();
        queue.push(inv(20)).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(inv(30)))
        };
        // The producer is blocked: queue full.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!producer.is_finished(), "push must backpressure when full");
        assert_eq!(queue.fetch(&clock, None), Fetch::Ready(inv(10)));
        producer.join().unwrap().unwrap();
        let stats = queue.stats();
        assert_eq!(stats.pushed, 3);
        assert_eq!(stats.peak_depth, 2);
    }

    #[test]
    fn an_arrival_earlier_than_a_delivered_one_is_refused() {
        let queue = IngestQueue::new(8);
        let clock = VirtualClock::new();
        queue.push(inv(10)).unwrap();
        assert_eq!(queue.fetch(&clock, None), Fetch::Ready(inv(10)));
        // The queue is empty again, but t=5 is still behind t=10.
        assert_eq!(queue.push(inv(5)), Err(PushRejected::OutOfOrder));
        assert_eq!(queue.push(inv(10)), Ok(()), "ties are in order");
        assert_eq!(queue.push(inv(7)), Err(PushRejected::OutOfOrder));
        let stats = queue.stats();
        assert_eq!((stats.pushed, stats.out_of_order), (2, 2));
    }

    #[test]
    fn fetch_paces_deliveries_on_the_manual_clock() {
        let queue = IngestQueue::new(8);
        let clock = VirtualClock::new();
        queue.push(inv(500)).unwrap();
        queue.push(inv(900)).unwrap();
        queue.close(SimDuration::from_micros(900));
        // Release gating: delivery advances the clock to the arrival.
        assert_eq!(queue.fetch(&clock, None), Fetch::Ready(inv(500)));
        assert_eq!(clock.now(), SimTime::from_micros(500));
        // An engine deadline before the next arrival defers to it.
        let deadline = SimTime::from_micros(700);
        assert_eq!(
            queue.fetch(&clock, Some(deadline)),
            Fetch::NotBefore(deadline)
        );
        assert_eq!(clock.now(), deadline);
        assert_eq!(
            queue.fetch(&clock, Some(SimTime::from_micros(2_000))),
            Fetch::Ready(inv(900))
        );
        assert_eq!(
            queue.fetch(&clock, Some(SimTime::from_micros(2_000))),
            Fetch::Exhausted
        );
    }

    #[test]
    fn close_then_drain_keeps_the_shorter_horizon() {
        let queue = IngestQueue::new(8);
        queue.push(inv(100)).unwrap();
        queue.push(inv(300)).unwrap();
        let eff = queue.drain_at(SimTime::from_micros(200));
        assert_eq!(eff, SimTime::from_micros(200));
        assert_eq!(
            queue.stats().dropped_at_drain,
            1,
            "inv(300) is past the cut"
        );
        // Arrivals before the cut still flow; at/after are refused.
        assert_eq!(queue.push(inv(150)), Ok(()));
        assert_eq!(queue.push(inv(200)), Err(PushRejected::Drained));
        queue.close(SimDuration::from_mins(60));
        assert_eq!(queue.horizon(), Some(SimDuration::from_micros(200)));
        assert_eq!(queue.push(inv(199)), Err(PushRejected::Closed));
    }

    #[test]
    fn drain_never_cuts_before_the_pacing_watermark() {
        let queue = IngestQueue::new(8);
        let clock = VirtualClock::new();
        queue.push(inv(1_000)).unwrap();
        assert_eq!(queue.fetch(&clock, None), Fetch::Ready(inv(1_000)));
        // Requesting a drain in the past lands strictly after the
        // delivered arrival instead.
        let eff = queue.drain_at(SimTime::from_micros(400));
        assert_eq!(eff, SimTime::from_micros(1_001));
        // A second, later request cannot push the cut back out.
        assert_eq!(queue.drain_at(SimTime::from_micros(9_999)), eff);
    }

    mod adversarial {
        use super::*;
        use proptest::prelude::*;

        /// One step of an adversarial producer interleaved with the
        /// consumer: push an arrival (possibly behind the floor), deliver
        /// one, request a drain, or close.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Push(u64),
            Fetch,
            Drain(u64),
            Close(u64),
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let op = (0u8..12, 0u64..1_200).prop_map(|(kind, t)| match kind {
                0..=6 => Op::Push(t),
                7..=9 => Op::Fetch,
                10 => Op::Drain(t),
                _ => Op::Close(t),
            });
            prop::collection::vec(op, 0..64)
        }

        /// Delivers one arrival, or reports exhaustion, without blocking:
        /// the caller only fetches from a non-empty or closed queue.
        fn deliver(queue: &IngestQueue, clock: &VirtualClock) -> Option<Invocation> {
            match queue.fetch(clock, None) {
                Fetch::Ready(inv) => Some(inv),
                Fetch::Exhausted => None,
                other => panic!("a deadline-free fetch returned {other:?}"),
            }
        }

        /// Runs `ops` single-threaded against a queue of `capacity`. A
        /// push into a full queue first lets the consumer take one
        /// arrival, so the producer never blocks. Returns the final
        /// counters with the `Closed` and `Drained` refusals.
        fn run(capacity: usize, ops: &[Op]) -> Result<(QueueStats, u64, u64), String> {
            let queue = IngestQueue::new(capacity);
            let clock = VirtualClock::new();
            let mut delivered: Vec<SimTime> = Vec::new();
            let (mut attempts, mut closed, mut drained) = (0u64, 0u64, 0u64);
            let mut cut: Option<SimTime> = None;
            let mut is_closed = false;
            for &op in ops {
                match op {
                    Op::Push(t) => {
                        if queue.stats().depth == capacity {
                            delivered.extend(deliver(&queue, &clock).map(|inv| inv.arrival));
                        }
                        attempts += 1;
                        let at = SimTime::from_micros(t);
                        match queue.push(inv(t)) {
                            Ok(()) => {
                                prop_assert!(!is_closed, "accepted {} after close", t);
                                prop_assert!(
                                    cut.is_none_or(|c| at < c),
                                    "accepted {} past the cut",
                                    t
                                );
                            }
                            Err(PushRejected::Closed) => {
                                prop_assert!(is_closed);
                                closed += 1;
                            }
                            Err(PushRejected::Drained) => {
                                prop_assert!(cut.is_some_and(|c| at >= c));
                                drained += 1;
                            }
                            Err(PushRejected::OutOfOrder) => {}
                        }
                    }
                    Op::Fetch => {
                        if queue.stats().depth > 0 || is_closed {
                            delivered.extend(deliver(&queue, &clock).map(|inv| inv.arrival));
                        }
                    }
                    Op::Drain(t) => {
                        // A drain after the stream finished cuts nothing.
                        let finished = is_closed && queue.stats().depth == 0;
                        let eff = queue.drain_at(SimTime::from_micros(t));
                        if !finished {
                            prop_assert!(cut.is_none_or(|c| eff <= c), "a drain moved the cut out");
                            cut = Some(eff);
                        }
                    }
                    Op::Close(h) => {
                        queue.close(SimDuration::from_micros(h));
                        is_closed = true;
                    }
                }
            }
            queue.close(SimDuration::from_micros(1_200));
            while let Some(inv) = deliver(&queue, &clock) {
                delivered.push(inv.arrival);
            }
            let stats = queue.stats();
            prop_assert_eq!(
                stats.pushed + stats.out_of_order + closed + drained,
                attempts,
                "every push is accepted or refused once: {:?}",
                stats
            );
            prop_assert_eq!(
                stats.pushed,
                stats.delivered + stats.dropped_at_drain,
                "every accepted arrival is delivered or cut: {:?}",
                stats
            );
            prop_assert_eq!(stats.delivered, delivered.len() as u64);
            prop_assert_eq!(stats.depth, 0);
            prop_assert!(stats.peak_depth <= capacity);
            prop_assert!(
                delivered.windows(2).all(|w| w[0] <= w[1]),
                "deliveries out of order: {:?}",
                delivered
            );
            if let Some(c) = cut {
                prop_assert!(delivered.iter().all(|&at| at < c), "delivered past the cut");
            }
            Ok((stats, closed, drained))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn adversarial_producers_are_refused_with_typed_counted_errors(
                capacity in 1usize..=4,
                ops in ops(),
            ) {
                run(capacity, &ops)?;
            }
        }

        /// The generator reaches every refusal and the drain discard, so
        /// the property above is not vacuous.
        #[test]
        fn the_ops_reach_every_refusal() {
            let strategy = (1usize..=4, ops());
            let mut rng = TestRng::for_test("the_ops_reach_every_refusal");
            let mut seen = [0u64; 4];
            for _ in 0..64 {
                let (capacity, ops) = strategy.sample(&mut rng);
                let (stats, closed, drained) =
                    run(capacity, &ops).unwrap_or_else(|e| panic!("{e}"));
                for (total, n) in seen.iter_mut().zip([
                    stats.out_of_order,
                    closed,
                    drained,
                    stats.dropped_at_drain,
                ]) {
                    *total += n;
                }
            }
            assert!(
                seen.iter().all(|&n| n > 0),
                "out of order, closed, drained, dropped: {seen:?}"
            );
        }
    }
}
