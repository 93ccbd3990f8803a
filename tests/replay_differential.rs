//! Differential replay tests: the JSONL event stream is a *complete*
//! record of a run's telemetry.
//!
//! The contract: reconstructing [`Telemetry`] offline from an exported
//! event stream (`cc_replay::reconstruct`) reproduces the live
//! accumulator field-for-field — same digest, same per-interval table,
//! same final report, same snapshot line — for every policy, in both the
//! serial `JsonlSink` path and the sharded mux path at any worker count.
//! The stream must also pass the invariant auditor with zero violations,
//! which is the golden guarantee the CI audit smoke step relies on.

mod common;

use cc_experiments::POLICIES;
use codecrunch_suite::prelude::*;
use common::{policy_under_test, scenario};

/// Asserts the replayed accumulator equals the live one on every exposed
/// surface: digest (every field), interval table, report, snapshot line.
fn assert_telemetry_equal(name: &str, live: &Telemetry, replayed: &Telemetry) {
    assert_eq!(
        replayed.digest(),
        live.digest(),
        "{name}: replayed telemetry digest diverges from live"
    );
    assert_eq!(
        replayed.interval_rows(),
        live.interval_rows(),
        "{name}: replayed interval table diverges from live"
    );
    assert_eq!(
        replayed.report(),
        live.report(),
        "{name}: replayed report diverges from live"
    );
    assert_eq!(
        replayed.snapshot_line(),
        live.snapshot_line(),
        "{name}: replayed snapshot diverges from live"
    );
}

/// Serial path: for every policy, a live run teeing into `Telemetry` and
/// a `JsonlSink` must be exactly reproducible from the JSONL bytes alone,
/// and the stream must satisfy every engine invariant.
#[test]
fn serial_replay_reproduces_live_telemetry_for_every_policy() {
    for name in POLICIES {
        let (trace, workload, config) = scenario();
        let mut live = Telemetry::new(config.interval);
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut policy = policy_under_test(name);
        {
            let mut tee = Tee(&mut live, &mut jsonl);
            Simulation::new(config, &trace, &workload).run_with_sink(policy.as_mut(), &mut tee);
        }
        let bytes = jsonl.finish().expect("in-memory writer cannot fail");
        let text = String::from_utf8(bytes).expect("jsonl is utf-8");

        let log = decode_stream(&text).expect("live stream must decode");
        assert!(!log.tagged, "{name}: serial stream must be untagged");
        assert_eq!(log.shards.len(), 1);

        let audit = audit_log(&log, false);
        assert!(
            audit.is_clean(),
            "{name}: live stream violates engine invariants:\n{}",
            audit.summary()
        );

        let replayed = reconstruct(&log.shards[0]);
        assert_telemetry_equal(name, &live, &replayed);
    }
}

/// One policy replayed inside a shard; the live telemetry travels back
/// with the report so the merged stream can be checked against it.
fn shard_job<'a>(
    name: &'a str,
    trace: &'a Trace,
    workload: &'a Workload,
    config: &'a ClusterConfig,
) -> impl Fn(&mut JsonlSink<Vec<u8>>) -> Telemetry + Send + 'a {
    move |sink: &mut JsonlSink<Vec<u8>>| {
        let mut policy = policy_under_test(name);
        let mut telemetry = Telemetry::new(config.interval);
        let mut tee = Tee(&mut telemetry, sink);
        Simulation::new(config.clone(), trace, workload).run_with_sink(policy.as_mut(), &mut tee);
        telemetry
    }
}

fn sharded_stream(workers: usize) -> (Vec<Telemetry>, String) {
    let (trace, workload, config) = scenario();
    let jobs: Vec<_> = POLICIES
        .iter()
        .map(|&name| shard_job(name, &trace, &workload, &config))
        .collect();
    let (results, merged, _) =
        run_sharded_jsonl(jobs, workers, Vec::new()).expect("in-memory mux cannot fail");
    let live: Vec<Telemetry> = results
        .into_iter()
        .map(|r| r.outcome.expect("shard panicked"))
        .collect();
    (live, String::from_utf8(merged).expect("jsonl is utf-8"))
}

/// Sharded path: the merged shard-tagged stream is identical at any
/// worker count, every shard block passes the auditor, and each block
/// reconstructs its policy's live telemetry exactly.
#[test]
fn sharded_replay_reproduces_live_telemetry_per_shard() {
    let (live_w1, text_w1) = sharded_stream(1);
    let (_, text_w2) = sharded_stream(2);
    assert_eq!(
        text_w1, text_w2,
        "merged stream must not depend on the worker count"
    );

    let log = decode_stream(&text_w1).expect("merged stream must decode");
    assert!(log.tagged, "multi-shard stream must carry shard markers");
    assert_eq!(log.shards.len(), POLICIES.len());

    let audit = audit_log(&log, false);
    assert!(
        audit.is_clean(),
        "sharded stream violates engine invariants:\n{}",
        audit.summary()
    );

    for ((shard, live), name) in log.shards.iter().zip(&live_w1).zip(POLICIES) {
        let end = shard.end.expect("tagged shard must carry its end marker");
        assert_eq!(end.events, shard.events.len() as u64);
        assert_eq!(end.dropped, 0);
        let replayed = reconstruct(shard);
        assert_telemetry_equal(name, live, &replayed);
    }
}
