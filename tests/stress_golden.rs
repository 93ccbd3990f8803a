//! Stress-scale golden: every policy's report digest on a scenario where
//! evictions dominate, pinned to constants captured from the engine
//! before the lazy expiry calendar and the O(1) cluster totals.
//!
//! `golden_determinism` pins the small shared scenario, where the warm
//! pool's lazy calendars barely accumulate dead entries. Here almost
//! every start follows an eviction, so reused and evicted instances leave
//! enough dead calendar entries behind that the calendars compact, and
//! the test asserts that they do through cc-prof's
//! `calendar_compactions` counter.

mod common;

use cc_prof::PerfCounter;
use codecrunch_suite::prelude::*;
use common::{policy_for, STRESS};

/// Report digests captured from the engine with the `BTreeSet` expiry
/// calendar and the node-scanning cluster aggregates.
const GOLDEN_STRESS: [(&str, u64); 6] = [
    ("fixed_keepalive", 0xba99ac7ffaefe38e),
    ("sitw", 0x14b78a4e40ca41a2),
    ("faascache", 0x166ca069528bcdcd),
    ("icebreaker", 0x05c33cc5989fb62b),
    ("oracle", 0x449b3465f1e921bc),
    ("codecrunch", 0x740196d3adabb83a),
];

#[test]
fn every_policy_matches_the_stress_golden() {
    let (trace, workload, config) = STRESS.build();
    let mut diverged = Vec::new();
    for (name, golden) in GOLDEN_STRESS {
        let mut policy = policy_for(name, &trace);
        let report = Simulation::new(config.clone(), &trace, &workload).run(policy.as_mut());
        let digest = report.digest();
        println!(
            "policy {name}: digest {digest:#018x}, {} evictions, {} invocations",
            report.evictions,
            report.records.len()
        );
        assert!(
            report.evictions * 10 > report.records.len() as u64 * 8,
            "policy {name}: the stress scenario must be eviction-dominated"
        );
        if digest != golden {
            diverged.push(format!(
                "policy {name}: got {digest:#018x}, expected {golden:#018x}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "engine behavior diverged from the stress golden digests:\n{}",
        diverged.join("\n")
    );
}

/// CodeCrunch's varying keep-alive windows leave dead entries deep in the
/// expiry calendar, so the calendar compacts; profiling it changes
/// nothing in the report. The profiled run is compared with an unprofiled
/// run of the same scenario (the golden constant itself is checked by
/// `every_policy_matches_the_stress_golden`).
#[test]
fn the_lazy_calendar_compacts_under_stress() {
    let (trace, workload, config) = STRESS.build();
    let sim = Simulation::new(config, &trace, &workload);
    let unprofiled = sim.run(policy_for("codecrunch", &trace).as_mut());
    cc_prof::reset();
    let report = sim
        .profiled()
        .run(policy_for("codecrunch", &trace).as_mut());
    let profile = cc_prof::take_profile("stress codecrunch", 0);
    let compactions = profile.counter(PerfCounter::CalendarCompactions);
    println!(
        "codecrunch: {compactions} calendar compactions, {} dead-entry pops",
        profile.counter(PerfCounter::CalendarDeadPops)
    );
    assert!(compactions >= 1, "the calendars never compacted");
    assert_eq!(
        report.digest(),
        unprofiled.digest(),
        "profiling perturbed the simulation"
    );
}
