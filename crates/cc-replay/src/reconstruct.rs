//! Telemetry reconstruction from a decoded event stream.
//!
//! [`Telemetry`] is a pure fold over the event stream —
//! every field it exposes is updated only inside `record`. That makes
//! offline reconstruction trivial and exact: feed the decoded events back
//! through a fresh accumulator and every table, report, and digest the
//! live run produced is reproduced byte-for-byte.
//!
//! The only piece of configuration the stream does not carry explicitly is
//! the sampling interval, which [`infer_interval`] recovers from the
//! interval samples themselves (tick `k` lands at `k · interval`).

use cc_obs::{Event, EventSink, Telemetry};
use cc_types::{Cost, ServiceRecord, SimDuration};

use crate::decode::ShardStream;

/// The engine's default sampling interval (one simulated minute), used
/// when a stream carries no non-zero interval sample to infer from.
pub const DEFAULT_INTERVAL: SimDuration = SimDuration::from_micros(60_000_000);

/// Infers the sampling interval from a stream's interval samples.
///
/// Tick `k` is emitted at simulated time `k · interval`, so the first
/// sample with a non-zero index pins the interval exactly. Streams short
/// enough to contain only tick 0 (or none at all) return `None`; callers
/// should fall back to [`DEFAULT_INTERVAL`]. Only run-total aggregates are
/// affected by a wrong interval guess — per-interval series keep their
/// values but shift their time axis.
pub fn infer_interval(events: &[(u64, Event)]) -> Option<SimDuration> {
    events.iter().find_map(|(_, event)| match event {
        Event::IntervalSampled { at, sample } if sample.index > 0 => {
            Some(SimDuration::from_micros(at.as_micros() / sample.index))
        }
        _ => None,
    })
}

/// Rebuilds a [`Telemetry`] accumulator from one shard's decoded events,
/// inferring the sampling interval (falling back to [`DEFAULT_INTERVAL`]).
pub fn reconstruct(shard: &ShardStream) -> Telemetry {
    let interval = infer_interval(&shard.events).unwrap_or(DEFAULT_INTERVAL);
    reconstruct_with_interval(shard, interval)
}

/// Rebuilds a [`Telemetry`] accumulator with an explicit interval.
pub fn reconstruct_with_interval(shard: &ShardStream, interval: SimDuration) -> Telemetry {
    let mut telemetry = Telemetry::new(interval);
    for (_, event) in &shard.events {
        telemetry.record(event);
    }
    telemetry
}

/// Rebuilds one shard's per-invocation [`ServiceRecord`]s and its net
/// keep-alive spend purely from the log — the inputs the `cc-bound`
/// estimators need for post-hoc gap analysis without re-simulating.
///
/// Every `exec_start` event carries the full record tuple (its `at` is
/// `arrival + wait`, so the arrival is recovered exactly), and the net
/// spend is the budget debits granted minus the credits refunded — the
/// same quantity the live report's `keep_alive_spend` exposes. Lossy or
/// sampled captures under-report both; audit the stream first if exact
/// accounting matters.
pub fn reconstruct_records(shard: &ShardStream) -> (Vec<ServiceRecord>, Cost) {
    let mut records = Vec::new();
    let mut debits = Cost::ZERO;
    let mut credits = Cost::ZERO;
    for (_, event) in &shard.events {
        match event {
            Event::ExecutionStarted { .. } => records.extend(event.service_record()),
            Event::BudgetDebit { granted, .. } => {
                debits = debits.saturating_add(*granted);
            }
            Event::BudgetCredit { amount, .. } => {
                credits = credits.saturating_add(*amount);
            }
            _ => {}
        }
    }
    (records, debits.saturating_sub(credits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{FunctionId, SimTime};

    fn sample_at(index: u64, at_us: u64) -> (u64, Event) {
        (
            index + 1,
            Event::IntervalSampled {
                at: SimTime::from_micros(at_us),
                sample: cc_obs::IntervalSample {
                    index,
                    spend_delta_dollars: 0.0,
                    warm_pool: 0,
                    compressed: 0,
                    utilization: 0.0,
                    compression_events_delta: 0,
                    pending: 0,
                },
            },
        )
    }

    #[test]
    fn interval_inferred_from_first_nonzero_tick() {
        let events = vec![
            sample_at(0, 0),
            sample_at(1, 30_000_000),
            sample_at(2, 60_000_000),
        ];
        assert_eq!(
            infer_interval(&events),
            Some(SimDuration::from_micros(30_000_000))
        );
    }

    #[test]
    fn tick_zero_alone_infers_nothing() {
        assert_eq!(infer_interval(&[sample_at(0, 0)]), None);
        assert_eq!(infer_interval(&[]), None);
    }

    #[test]
    fn reconstruction_matches_a_direct_fold() {
        let events = vec![
            (
                1,
                Event::Arrival {
                    at: SimTime::from_micros(5),
                    function: FunctionId::new(0),
                },
            ),
            sample_at(0, 0),
        ];
        let shard = ShardStream {
            shard: 0,
            events: events.clone(),
            end: None,
        };
        let mut live = Telemetry::new(DEFAULT_INTERVAL);
        for (_, event) in &events {
            live.record(event);
        }
        let replayed = reconstruct(&shard);
        assert_eq!(replayed.digest(), live.digest());
        assert_eq!(replayed.report(), live.report());
        assert_eq!(replayed.snapshot_line(), live.snapshot_line());
    }

    #[test]
    fn records_and_spend_recovered_from_events() {
        use cc_types::{Arch, NodeId, StartKind};
        let events = vec![
            (
                1,
                Event::ExecutionStarted {
                    at: SimTime::from_micros(150),
                    function: FunctionId::new(4),
                    node: NodeId::new(0),
                    arch: Arch::Arm,
                    kind: StartKind::Cold,
                    wait: SimDuration::from_micros(50),
                    start_penalty: SimDuration::from_micros(700),
                    execution: SimDuration::from_micros(9_000),
                },
            ),
            (
                2,
                Event::BudgetDebit {
                    at: SimTime::from_micros(200),
                    requested: Cost::from_picodollars(90),
                    granted: Cost::from_picodollars(70),
                },
            ),
            (
                3,
                Event::BudgetCredit {
                    at: SimTime::from_micros(300),
                    amount: Cost::from_picodollars(30),
                },
            ),
        ];
        let shard = ShardStream {
            shard: 0,
            events,
            end: None,
        };
        let (records, spend) = reconstruct_records(&shard);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.arrival, SimTime::from_micros(100));
        assert_eq!(r.wait, SimDuration::from_micros(50));
        assert_eq!(r.start_penalty, SimDuration::from_micros(700));
        assert_eq!(r.kind, StartKind::Cold);
        assert_eq!(r.arch, Arch::Arm);
        // Net spend = granted − credited (the requested amount is what the
        // policy asked for, not what the ledger charged).
        assert_eq!(spend, Cost::from_picodollars(40));
    }
}
