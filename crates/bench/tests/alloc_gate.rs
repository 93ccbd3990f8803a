//! The allocation-discipline gates: after one warmup replay, a
//! steady-state replay's `sre_round` and `policy_decision` phases must
//! perform **zero** heap allocations, and so must encoding JSONL lines
//! into a pre-grown buffer.
//!
//! The first is the CI teeth behind the scratch-reuse contract (DESIGN.md
//! §14): every buffer an interval tick touches — sampling weights, the
//! flat group index list, the term tables and descent overlays,
//! splice/touched lists, the round snapshots and costs, and the tick's own
//! plan-assembly vectors — lives in scratch storage owned by the
//! scheduler and is recycled across interval ticks. The first replay grows
//! those buffers to their high-water capacities; the second replay then
//! runs the whole tick without a single trip to the allocator.
//!
//! The second backs DESIGN.md §9: the schema-generated encoder appends
//! static keys and hand-formatted numbers, so every event variant encodes
//! without allocating.
//!
//! Compiled only under `--features alloc-profile` (the counting global
//! allocator costs a few percent, so it is off by default):
//!
//! ```text
//! cargo test -p bench --release --features alloc-profile --test alloc_gate
//! ```

#![cfg(feature = "alloc-profile")]

use std::sync::{Mutex, MutexGuard};

use bench::BenchScenario;
use cc_obs::{write_event_line, Event, IntervalSample, OptimizerRound, ReleaseReason};
use cc_prof::Phase;
use cc_sim::Simulation;
use cc_types::{Arch, Cost, FunctionId, MemoryMb, NodeId, SimDuration, SimTime, StartKind, WarmId};
use codecrunch::CodeCrunch;

/// Every allocation in this test binary is counted and attributed to the
/// active profiling phase (test binaries are separate crates, so this does
/// not conflict with simbench's allocator).
#[global_allocator]
static ALLOC: cc_prof::CountingAllocator = cc_prof::CountingAllocator::new();

/// The profiler aggregates into process-global state, so the tests in this
/// binary take turns.
fn profiler() -> MutexGuard<'static, ()> {
    static PROFILER: Mutex<()> = Mutex::new(());
    PROFILER.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_sre_rounds_allocate_nothing() {
    let _profiler = profiler();
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
    // The rest of each tick runs outside the rounds but inside the
    // policy_decision span that wraps every policy callback: P_est and
    // plan assembly, the term-table build before round 0, and the final
    // combination. None of it may allocate either.
    let decision = profile
        .row(Phase::PolicyDecision)
        .expect("the replay must have made policy decisions");
    assert_eq!(
        decision.alloc_count, 0,
        "steady-state policy_decision performed {} heap allocations ({} bytes) across {} spans",
        decision.alloc_count, decision.alloc_bytes, decision.count
    );
    // Sanity: the measured replay really exercised the optimizer (the
    // second run of a warm policy still re-plans every interval).
    assert!(!warm.records.is_empty());
    assert!(!measured.records.is_empty());
    cc_prof::reset();
}

/// One event of every variant, with boundary integers and floats whose
/// `Display` forms are long.
fn every_variant() -> [Event; 12] {
    let at = SimTime::from_micros(u64::MAX);
    let function = FunctionId::new(u32::MAX);
    let node = NodeId::new(7);
    let id = WarmId::new(u32::MAX, 3);
    let pd = Cost::from_picodollars(u64::MAX);
    [
        Event::Arrival { at, function },
        Event::Queued {
            at,
            function,
            depth: u64::MAX,
        },
        Event::ExecutionStarted {
            at,
            function,
            node,
            arch: Arch::Arm,
            kind: StartKind::WarmCompressed,
            wait: SimDuration::from_micros(u64::MAX),
            start_penalty: SimDuration::from_micros(1),
            execution: SimDuration::from_micros(0),
        },
        Event::InstanceAdmitted {
            at,
            id,
            function,
            node,
            arch: Arch::X86,
            compressed: true,
            memory: MemoryMb::new(u32::MAX),
            expiry: at,
            reserved: pd,
        },
        Event::InstanceReleased {
            at,
            id,
            function,
            node,
            memory: MemoryMb::new(512),
            compressed: false,
            since: at,
            reason: ReleaseReason::Evicted,
        },
        Event::CompressionStarted {
            at,
            id,
            function,
            node,
            ready_at: at,
        },
        Event::CompressionFinished {
            at,
            id,
            function,
            node,
        },
        Event::BudgetDebit {
            at,
            requested: pd,
            granted: pd,
        },
        Event::BudgetCredit { at, amount: pd },
        Event::PrewarmDropped {
            at,
            function,
            arch: Arch::Arm,
        },
        Event::OptimizerRound {
            at,
            round: OptimizerRound {
                round: u32::MAX,
                subproblems: 8,
                dimensions: 24,
                objective: -1e300,
                accepted_moves: u64::MAX,
                evaluations: 4096,
            },
        },
        Event::IntervalSampled {
            at,
            sample: IntervalSample {
                index: u64::MAX,
                spend_delta_dollars: f64::MIN_POSITIVE,
                warm_pool: 42,
                compressed: 17,
                utilization: f64::NAN,
                compression_events_delta: 5,
                pending: 2,
            },
        },
    ]
}

#[test]
fn encoding_every_event_variant_allocates_nothing() {
    let _profiler = profiler();
    let events = every_variant();
    let mut sized = Vec::new();
    for event in &events {
        write_event_line(&mut sized, event);
    }
    let mut out = Vec::with_capacity(sized.len());

    cc_prof::reset();
    cc_prof::set_wall_enabled(true);
    {
        let _span = cc_prof::DynScope::new(Phase::Encode);
        for event in &events {
            write_event_line(&mut out, event);
        }
    }
    cc_prof::set_wall_enabled(false);
    let profile = cc_prof::take_profile("encode-gate", 1);
    cc_prof::reset();

    assert_eq!(out, sized, "the measured pass must encode the same bytes");
    let row = profile
        .row(Phase::Encode)
        .expect("the encode span must be recorded");
    assert_eq!(
        row.alloc_count, 0,
        "encoding all 12 event variants performed {} heap allocations ({} bytes)",
        row.alloc_count, row.alloc_bytes
    );
}
