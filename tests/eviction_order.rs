//! Admission-order eviction differential tests.
//!
//! A policy whose eviction ranks follow admission order opts into
//! `Scheduler::evicts_in_admission_order`, and the engine then takes its
//! eviction victims straight off the front of the node's residency index,
//! with no `eviction_rank` calls and no sort. These tests run every opt-in
//! policy twice on memory-capped scenarios — bare, and inside [`Probe`]
//! set to keep the trait default, which forces the ranked path — serially
//! and on the parallel engine, and require the same report digest and the
//! same JSONL bytes.

use cc_experiments::Scale;
use codecrunch_suite::obs::OptimizerRound;
use codecrunch_suite::prelude::*;
use codecrunch_suite::sim::{ClusterView, Command, KeepDecision, WarmInstance};
use codecrunch_suite::types::ServiceRecord;
use proptest::prelude::*;

/// The opt-in policies. `fixed_keepalive_compressed` admits compressed
/// instances, whose reuse needs the extra memory back and so evicts
/// around the reused instance (`make_room` with an exclusion). FaasCache
/// overrides the rank, but its ranks never decrease in admission order.
const OPT_IN: [&str; 7] = [
    "fixed_keepalive",
    "fixed_keepalive_compressed",
    "sitw",
    "faascache",
    "icebreaker",
    "codecrunch",
    "enhanced_sitw",
];

/// The two extra opt-in policies, then the shared table.
fn policy(name: &str, trace: &Trace) -> Box<dyn Scheduler> {
    match name {
        "fixed_keepalive_compressed" => {
            Box::new(FixedKeepAlive::new(SimDuration::from_mins(10), true))
        }
        "enhanced_sitw" => Box::new(Enhanced::new(SitW::new())),
        other => cc_experiments::policy(other, Some(trace)).expect("a table policy"),
    }
}

/// A forwarding wrapper that counts `eviction_rank` calls. With
/// `admission_order` false it keeps the trait default for
/// `evicts_in_admission_order`, so the engine ranks every eviction.
struct Probe {
    inner: Box<dyn Scheduler>,
    admission_order: bool,
    ranks: u64,
}

impl Probe {
    /// Forwards everything, the eviction order included.
    fn forwarding(inner: Box<dyn Scheduler>) -> Probe {
        Probe {
            inner,
            admission_order: true,
            ranks: 0,
        }
    }

    /// Forwards everything but the eviction order: the ranked path.
    fn ranked(inner: Box<dyn Scheduler>) -> Probe {
        Probe {
            admission_order: false,
            ..Probe::forwarding(inner)
        }
    }
}

impl Scheduler for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        self.inner.on_arrival(function, now);
    }

    fn on_record(&mut self, record: &ServiceRecord) {
        self.inner.on_record(record);
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        self.inner.place(function, view)
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        self.inner.on_completion(function, arch, view)
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        self.inner.on_interval(view)
    }

    fn eviction_rank(&mut self, instance: &WarmInstance, view: &ClusterView<'_>) -> f64 {
        self.ranks += 1;
        self.inner.eviction_rank(instance, view)
    }

    fn evicts_in_admission_order(&self) -> bool {
        self.admission_order && self.inner.evicts_in_admission_order()
    }

    fn enable_introspection(&mut self, enabled: bool) {
        self.inner.enable_introspection(enabled);
    }

    fn drain_optimizer_rounds(&mut self) -> Vec<OptimizerRound> {
        self.inner.drain_optimizer_rounds()
    }
}

fn scenario(seed: u64, warm_fraction: f64) -> (Trace, Workload, ClusterConfig) {
    let (trace, workload, mut config) = Scale {
        functions: 120,
        minutes: 60,
        x86_nodes: 2,
        arm_nodes: 2,
        seed,
        warm_fraction,
    }
    .build();
    // 4 GB nodes fill up with executions and warm instances alike, so the
    // warm cap is not the only pressure: reusing a compressed instance then
    // often has to evict around it to win back its full footprint.
    config.memory_per_node = MemoryMb::from_gb(4);
    (trace, workload, config)
}

/// One serial and one parallel run: (serial report, serial JSONL bytes,
/// parallel report, parallel JSONL bytes).
fn both_engines(
    make: &mut dyn FnMut() -> Box<dyn Scheduler>,
    trace: &Trace,
    workload: &Workload,
    config: &ClusterConfig,
) -> (SimReport, Vec<u8>, SimReport, Vec<u8>) {
    let mut sink = JsonlSink::new(Vec::new());
    let serial =
        Simulation::new(config.clone(), trace, workload).run_with_sink(make().as_mut(), &mut sink);
    let serial_bytes = sink.finish().expect("in-memory writer cannot fail");
    let (outcome, parallel_bytes) = Simulation::new(config.clone(), trace, workload)
        .run_pipelined(
            make().as_mut(),
            Some(Vec::new()),
            &ParallelOptions::default().with_workers(2),
        )
        .expect("in-memory pipeline cannot fail");
    (
        serial,
        serial_bytes,
        outcome.report,
        parallel_bytes.expect("jsonl requested"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn admission_order_matches_the_ranked_path(
        seed in 0u64..1000,
        warm_fraction in 0.1f64..1.0,
    ) {
        let (trace, workload, config) = scenario(seed, warm_fraction);
        for name in OPT_IN {
            prop_assert!(policy(name, &trace).evicts_in_admission_order(), "{} opts in", name);
            let (bare, bare_bytes, bare_par, bare_par_bytes) =
                both_engines(&mut || policy(name, &trace), &trace, &workload, &config);
            let (ranked, ranked_bytes, ranked_par, ranked_par_bytes) = both_engines(
                &mut || Box::new(Probe::ranked(policy(name, &trace))),
                &trace,
                &workload,
                &config,
            );
            prop_assert!(bare.evictions > 0, "{}: no evictions at seed {}", name, seed);
            prop_assert_eq!(bare.digest(), ranked.digest(), "{}: serial report", name);
            prop_assert!(bare_bytes == ranked_bytes, "{}: serial JSONL bytes", name);
            prop_assert_eq!(bare_par.digest(), ranked_par.digest(), "{}: parallel report", name);
            prop_assert!(bare_par_bytes == ranked_par_bytes, "{}: parallel JSONL bytes", name);
            prop_assert_eq!(bare.digest(), bare_par.digest(), "{}: serial vs parallel", name);
        }
    }
}

/// Opt-in policies never see an `eviction_rank` call; Oracle (whose
/// Belady rank depends on the current time) still ranks every eviction.
#[test]
fn only_ranked_policies_are_asked_for_ranks() {
    let (trace, workload, config) = scenario(7, 0.5);
    for name in OPT_IN.iter().chain(&["oracle"]) {
        let mut probe = Probe::forwarding(policy(name, &trace));
        let report = Simulation::new(config.clone(), &trace, &workload).run(&mut probe);
        assert!(report.evictions > 0, "{name}: no evictions");
        if OPT_IN.contains(name) {
            assert_eq!(probe.ranks, 0, "{name} ranked on the admission-order path");
        } else {
            assert!(!probe.evicts_in_admission_order(), "{name} must rank");
            assert!(probe.ranks > 0, "{name} was never asked for a rank");
        }
    }
}
