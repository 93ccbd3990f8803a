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

/// A fresh instance of the table policy `name` for `trace`.
pub fn policy_for(name: &str, trace: &Trace) -> Box<dyn Scheduler> {
    policy(name, Some(trace)).expect("a table policy")
}

/// A fresh instance of the table policy `name` for the golden scenario.
pub fn policy_under_test(name: &str) -> Box<dyn Scheduler> {
    policy_for(name, &scenario().0)
}

/// Serial reference on the golden scenario: report, JSONL bytes and
/// telemetry digest of one instrumented run.
pub fn serial_reference(policy: &mut dyn Scheduler) -> (SimReport, Vec<u8>, u64) {
    let (trace, workload, config) = scenario();
    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let report = Simulation::new(config, &trace, &workload).run_with_sink(policy, &mut tee);
    let bytes = tee.0.finish().expect("in-memory writer cannot fail");
    (report, bytes, tee.1.digest())
}
