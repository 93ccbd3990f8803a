//! Constant memory without records: a streamed run under
//! `Simulation::without_records` and `NullSink` allocates heap in
//! proportion to its functions and its intervals, not to its invocations.
//!
//! The same functions are replayed over a horizon and over four times
//! that horizon; the extra invocations of the long run may cost only a
//! few heap bytes each (the allocation counter sums every allocation and
//! every reallocation's new size, so a per-invocation `Vec<f64>` shows as
//! about 16 bytes per invocation).
//!
//! Compiled only under `--features alloc-profile` (the counting global
//! allocator), and kept in a binary of its own: it reads the process-wide
//! allocation totals, which any other test running alongside would move:
//!
//! ```text
//! cargo test -p bench --release --features alloc-profile --test stream_memory
//! ```

#![cfg(feature = "alloc-profile")]

use bench::StreamScenario;
use cc_experiments::policy;
use cc_sim::Simulation;

/// Every allocation in this test binary is counted.
#[global_allocator]
static ALLOC: cc_prof::CountingAllocator = cc_prof::CountingAllocator::new();

/// Functions replayed by both runs.
const FUNCTIONS: usize = 2_000;

/// Heap bytes a run may allocate per invocation beyond the short run's.
const BYTES_PER_INVOCATION: f64 = 4.0;

/// Heap bytes allocated by, and invocations of, one records-off NullSink
/// replay of the streamed functions over `minutes`.
fn replay(minutes: u64) -> (u64, u64) {
    let scenario = StreamScenario::sized(FUNCTIONS, minutes, 2);
    let mut policy = policy("fixed_keepalive", None).expect("a table policy");
    let simulation = Simulation::from_source(
        scenario.config.clone(),
        scenario.source(),
        &scenario.workload,
    )
    .without_records();
    let (_, before) = cc_prof::alloc_totals().expect("the counting allocator is installed");
    let report = simulation.run(policy.as_mut());
    let (_, after) = cc_prof::alloc_totals().expect("the counting allocator is installed");
    assert!(report.records.is_empty());
    (after - before, report.stats.invocations())
}

#[test]
fn a_records_off_run_allocates_per_interval_not_per_invocation() {
    let (short_bytes, short_invocations) = replay(60);
    let (long_bytes, long_invocations) = replay(240);
    assert!(
        long_invocations > 3 * short_invocations,
        "the long run must replay many more invocations ({long_invocations} vs \
         {short_invocations})"
    );
    let extra = long_bytes.saturating_sub(short_bytes) as f64;
    let per_invocation = extra / (long_invocations - short_invocations) as f64;
    assert!(
        per_invocation < BYTES_PER_INVOCATION,
        "{per_invocation:.2} heap bytes per extra invocation (short run: {short_bytes} B over \
         {short_invocations} invocations, long run: {long_bytes} B over {long_invocations})"
    );
}
