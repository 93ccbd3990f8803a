//! Simulator throughput benchmarks: one full trace replay per policy —
//! the end-to-end cost of regenerating a paper figure.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{BenchScenario, StreamScenario};
use cc_experiments::{policy, POLICIES};
use cc_sim::{ClusterView, FixedKeepAlive, KeepDecision, Scheduler, Simulation};
use cc_types::{Arch, FunctionId};
use codecrunch::CodeCrunch;

fn bench_policies(c: &mut Criterion) {
    let scenario = BenchScenario::small();
    let mut group = c.benchmark_group("simulate_trace");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    for name in POLICIES {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut policy = policy(name, Some(&scenario.trace)).expect("a table policy");
                Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                    .run(policy.as_mut())
            })
        });
    }
    group.finish();
}

/// The 10 000-function stress replay: the scenario the hot-path indexing
/// work is measured against. One sample is one full trace replay, so use
/// few samples and throughput in invocations.
///
/// The group pairs the cheapest policy (fixed keep-alive — pure engine
/// cost, where the indexing shows up undiluted) with the most expensive
/// one (CodeCrunch, whose per-interval optimizer is policy compute shared
/// by any engine and bounds its end-to-end ratio); `simbench` measures all
/// six policies at this scale.
fn bench_large(c: &mut Criterion) {
    let scenario = BenchScenario::large();
    let invocations = scenario.trace.invocations().len() as u64;
    let mut group = c.benchmark_group("simulate_10k");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(10));
    group.throughput(criterion::Throughput::Elements(invocations));

    group.bench_function("fixed_keepalive", |b| {
        b.iter(|| {
            let mut policy = FixedKeepAlive::ten_minutes();
            Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                .run(&mut policy)
        })
    });
    group.bench_function("codecrunch", |b| {
        b.iter(|| {
            let mut policy = CodeCrunch::new();
            Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                .run(&mut policy)
        })
    });
    group.finish();
}

/// Fixed keep-alive behind a forwarding wrapper that keeps the trait's
/// default `evicts_in_admission_order` (false), so the engine ranks and
/// sorts every eviction's candidates instead of walking admission order.
struct Ranked(FixedKeepAlive);

impl Scheduler for Ranked {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        self.0.place(function, view)
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        self.0.on_completion(function, arch, view)
    }
}

/// Eviction cost in isolation: fixed keep-alive on the eviction-bound
/// capped scenario, once on the admission-order path and once on the
/// ranked path. Both produce the same report; the difference is the
/// rank-and-sort work.
fn bench_make_room(c: &mut Criterion) {
    let scenario = BenchScenario::capped();
    let invocations = scenario.trace.invocations().len() as u64;
    let mut group = c.benchmark_group("make_room");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.throughput(criterion::Throughput::Elements(invocations));

    group.bench_function("admission_order", |b| {
        b.iter(|| {
            let mut policy = FixedKeepAlive::ten_minutes();
            Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                .run(&mut policy)
        })
    });
    group.bench_function("ranked", |b| {
        b.iter(|| {
            let mut policy = Ranked(FixedKeepAlive::ten_minutes());
            Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                .run(&mut policy)
        })
    });
    group.finish();
}

/// The warm pool and placement indexes at population scale: fixed
/// keep-alive over a streamed 200k-function, 60-minute trace on the
/// memory-capped 124-node cluster, serially with no sink and no records.
/// Nearly every arrival is a cold start that evicts, so one replay is
/// admissions, evictions and placement-order updates with little else —
/// the decision-thread cost the streaming export workload is bound by.
fn bench_pool_churn(c: &mut Criterion) {
    let scenario = StreamScenario::sized(200_000, 60, 60);
    let mut group = c.benchmark_group("pool_churn");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(15));
    group.throughput(criterion::Throughput::Elements(
        scenario.expected_invocations as u64,
    ));

    group.bench_function("fixed_keepalive_200k", |b| {
        b.iter(|| {
            let mut policy = FixedKeepAlive::ten_minutes();
            Simulation::from_source(
                scenario.config.clone(),
                scenario.source(),
                &scenario.workload,
            )
            .without_records()
            .run(&mut policy)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_large,
    bench_make_room,
    bench_pool_churn
);
criterion_main!(benches);
