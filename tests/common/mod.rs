//! The golden scenario the parity suites share, and its policies.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use cc_experiments::{policy, Scale};
use codecrunch_suite::prelude::*;

/// The golden scenario whose report digests `golden_determinism` pins:
/// large enough to exercise eviction, make-room, compression transitions,
/// budget caps, and pending queues on both architectures; small enough to
/// run in seconds in debug builds.
pub fn scenario() -> (Trace, Workload, ClusterConfig) {
    Scale {
        functions: 60,
        minutes: 90,
        x86_nodes: 2,
        arm_nodes: 2,
        seed: 4242,
        warm_fraction: 0.35,
    }
    .build()
}

/// The eviction-dominated scale `stress_golden` pins: 400 functions for
/// an hour on 2+2 nodes with a tenth of each node's memory open to warm
/// instances (about 16.5k invocations and 15k evictions per policy).
pub const STRESS: Scale = Scale {
    functions: 400,
    minutes: 60,
    x86_nodes: 2,
    arm_nodes: 2,
    seed: 2024,
    warm_fraction: 0.10,
};

/// A fresh instance of the table policy `name` for `trace`.
pub fn policy_for(name: &str, trace: &Trace) -> Box<dyn Scheduler> {
    policy(name, Some(trace)).expect("a table policy")
}

/// A fresh instance of the table policy `name` for the golden scenario.
pub fn policy_under_test(name: &str) -> Box<dyn Scheduler> {
    policy_for(name, &scenario().0)
}

/// Serial reference on the golden scenario: report, JSONL bytes and
/// telemetry of one instrumented run.
pub fn serial_reference(policy: &mut dyn Scheduler) -> (SimReport, Vec<u8>, Telemetry) {
    let (trace, workload, config) = scenario();
    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let report = Simulation::new(config, &trace, &workload).run_with_sink(policy, &mut tee);
    let bytes = tee.0.finish().expect("in-memory writer cannot fail");
    (report, bytes, tee.1)
}

/// The two folds of one run agree: the `Telemetry` folded from its events
/// holds the report's interval samples (tick `k` at `k · interval`), its
/// start counts by kind, and its warm fraction.
pub fn assert_folds_agree(label: &str, report: &SimReport, telemetry: &Telemetry) {
    let samples = telemetry.samples();
    assert_eq!(
        samples.len(),
        report.intervals.len(),
        "{label}: interval sample count"
    );
    let interval = telemetry.interval().as_micros();
    for (k, ((at, sample), expected)) in samples.iter().zip(&report.intervals).enumerate() {
        assert_eq!(sample, expected, "{label}: interval sample {k}");
        assert_eq!(sample.index, k as u64, "{label}: interval sample {k}");
        assert_eq!(
            at.as_micros(),
            k as u64 * interval,
            "{label}: tick {k} time"
        );
    }
    let count = |kind| report.stats.breakdown(kind).count;
    assert_eq!(
        telemetry.starts(),
        (
            count(StartKind::Cold),
            count(StartKind::WarmUncompressed),
            count(StartKind::WarmCompressed)
        ),
        "{label}: starts by kind (cold, warm, warm-compressed)"
    );
    assert_eq!(
        telemetry.warm_fraction().to_bits(),
        report.warm_fraction().to_bits(),
        "{label}: warm fraction"
    );
}
