//! The allocation-discipline gate: after one warmup replay, a steady-state
//! replay's `sre_round` phase must perform **zero** heap allocations.
//!
//! This is the CI teeth behind the scratch-reuse contract (DESIGN.md §14):
//! every buffer the SRE round loop touches — sampling weights, the flat
//! group index list, the descent working vectors, splice/touched lists,
//! and the round snapshots — lives in scratch storage owned by the
//! scheduler and is recycled across interval ticks. The first replay grows
//! those buffers to their high-water capacities; the second replay then
//! runs the optimizer without a single trip to the allocator.
//!
//! Compiled only under `--features alloc-profile` (the counting global
//! allocator costs a few percent, so it is off by default):
//!
//! ```text
//! cargo test -p bench --release --features alloc-profile --test alloc_gate
//! ```

#![cfg(feature = "alloc-profile")]

use bench::BenchScenario;
use cc_prof::Phase;
use cc_sim::Simulation;
use codecrunch::CodeCrunch;

/// Every allocation in this test binary is counted and attributed to the
/// active profiling phase (test binaries are separate crates, so this does
/// not conflict with simbench's allocator).
#[global_allocator]
static ALLOC: cc_prof::CountingAllocator = cc_prof::CountingAllocator::new();

#[test]
fn steady_state_sre_rounds_allocate_nothing() {
    // The profiler aggregates into process-global state; this is the only
    // test in the binary, so no cross-test locking is needed.
    cc_prof::reset();
    let scenario = BenchScenario::small();
    let sim =
        Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload).profiled();

    // Warmup replay: the same policy instance keeps its scratch buffers,
    // so this run pays every capacity growth the optimizer will ever need
    // for this scenario. NullSink keeps optimizer introspection off — the
    // production stress configuration.
    let mut policy = CodeCrunch::new();
    let warm = sim.run(&mut policy);

    // Measured replay: identical workload, warm scratch.
    cc_prof::reset();
    cc_prof::set_wall_enabled(true);
    let measured = sim.run(&mut policy);
    cc_prof::set_wall_enabled(false);
    let profile = cc_prof::take_profile("alloc-gate", 1);

    let row = profile
        .row(Phase::SreRound)
        .expect("the codecrunch policy must have run SRE rounds");
    assert!(row.count > 0, "no sre_round spans were recorded");
    assert_eq!(
        row.alloc_count, 0,
        "steady-state sre_round performed {} heap allocations ({} bytes) across {} rounds",
        row.alloc_count, row.alloc_bytes, row.count
    );
    // Sanity: the measured replay really exercised the optimizer (the
    // second run of a warm policy still re-plans every interval).
    assert!(!warm.records.is_empty());
    assert!(!measured.records.is_empty());
    cc_prof::reset();
}
