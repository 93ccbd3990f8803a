//! Optimizer comparison benchmarks: how long each optimizer takes to plan
//! one CodeCrunch interval (the Fig. 3 / Fig. 12 decision-latency story).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cc_compress::CompressionModel;
use cc_opt::{
    sample_subproblems_into, CoordinateDescent, GeneticAlgorithm, IndexGroups, RandomSearch,
    SeparableObjective, Sre, SreScratch, SubproblemScratch,
};
use cc_sim::{ClusterConfig, ClusterView, Command, KeepDecision, Scheduler, Simulation};
use cc_trace::SyntheticTrace;
use cc_types::{Arch, FnChoice, FunctionId, ServiceRecord, SimDuration, SimTime};
use cc_workload::{Catalog, Workload};
use codecrunch::CodeCrunch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A synthetic separable interval objective: quadratic bowls with
/// per-function targets, plus a budget.
struct Bowls {
    targets: Vec<f64>,
    budget_mins: f64,
}

impl Bowls {
    fn new(n: usize) -> Bowls {
        Bowls {
            targets: (0..n).map(|i| 3.0 + (i % 13) as f64).collect(),
            budget_mins: n as f64 * 8.0,
        }
    }
}

impl SeparableObjective for Bowls {
    fn num_functions(&self) -> usize {
        self.targets.len()
    }
    fn service_term(&self, idx: usize, c: &FnChoice) -> f64 {
        let d = c.keep_alive.as_mins_f64() - self.targets[idx];
        let arch_pen = if c.arch == Arch::X86 { 1.0 } else { 0.0 };
        d * d + arch_pen
    }
    fn cost_term(&self, _idx: usize, c: &FnChoice) -> f64 {
        c.keep_alive.as_mins_f64()
    }
    fn budget(&self) -> Option<f64> {
        Some(self.budget_mins)
    }
}

fn start(n: usize) -> Vec<FnChoice> {
    vec![FnChoice::new(Arch::X86, false, SimDuration::from_mins(1)); n]
}

fn bench_optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizers");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for n in [32usize, 128] {
        let bowls = Bowls::new(n);
        group.bench_with_input(BenchmarkId::new("sre_separable", n), &n, |b, &n| {
            b.iter(|| {
                let mut counts = vec![0u32; n];
                Sre::scaled_to(n).optimize(
                    &bowls,
                    start(n),
                    &mut counts,
                    &mut SreScratch::default(),
                    None,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("descent_full", n), &n, |b, &n| {
            b.iter(|| CoordinateDescent::default().optimize(&bowls, start(n)))
        });
        group.bench_with_input(BenchmarkId::new("genetic", n), &n, |b, &n| {
            b.iter(|| GeneticAlgorithm::default().optimize(&bowls, start(n)))
        });
        group.bench_with_input(BenchmarkId::new("random", n), &n, |b, &n| {
            b.iter(|| {
                RandomSearch {
                    samples: 200,
                    seed: 1,
                }
                .optimize(&bowls, start(n))
            })
        });
    }
    group.finish();
}

/// One SRE round at the stress scenario's dimensions (10 000 functions,
/// the `ccstat --stress` planning scale), scratch held across iterations — the scheduler's steady-state hot path. Each
/// iteration pays one `start` clone (the scheduler hands SRE an owned
/// start vector the same way), so the comparison across commits is fair.
fn bench_sre_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sre_round");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    let n = 10_000usize;
    let bowls = Bowls::new(n);
    let mut sre = Sre::scaled_to(n);
    sre.rounds = 1;
    let seed = start(n);
    let mut scratch = SreScratch::default();
    let mut counts = vec![0u32; n];
    group.bench_function(BenchmarkId::new("separable_scratch", n), |b| {
        b.iter(|| sre.optimize(&bowls, seed.clone(), &mut counts, &mut scratch, None))
    });
    group.finish();
}

/// One whole SRE interval the way CodeCrunch runs it: three rounds,
/// scratch held across iterations, and the inner descent's
/// evaluation budget CodeCrunch gives each of its 48 sub-problem searches
/// (12 000 / 48 = 250). At 1 300 functions (serve_live's invoked
/// population per tick) every descent stops at once, so the interval is
/// the round loop's own upkeep; at 150 the descents move.
fn bench_sre_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("sre_interval");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for n in [1_300usize, 150] {
        let bowls = Bowls::new(n);
        let mut sre = Sre::scaled_to(n);
        sre.inner.eval_budget = 12_000 / (sre.num_subproblems * sre.rounds) as u64;
        let seed = start(n);
        let mut scratch = SreScratch::default();
        let mut counts = vec![0u32; n];
        group.bench_function(BenchmarkId::new("separable_scratch", n), |b| {
            b.iter(|| sre.optimize(&bowls, seed.clone(), &mut counts, &mut scratch, None))
        });
    }
    group.finish();
}

/// One round of SRE sub-problem sampling alone, at the planning scale
/// `Sre::scaled_to(n)` picks (192 draws once `n` reaches a few hundred),
/// with buffers held across iterations the way `sre_round` holds them.
/// The optimization counts are uneven, as after many intervals of
/// re-planning, so the sampling weights differ.
fn bench_sre_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sre_sampling");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, n) in [("1k", 1_000usize), ("10k", 10_000), ("100k", 100_000)] {
        let sre = Sre::scaled_to(n);
        let counts: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 23)
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = SubproblemScratch::default();
        let mut groups = IndexGroups::default();
        group.bench_function(label, |b| {
            b.iter(|| {
                sample_subproblems_into(
                    &mut rng,
                    &counts,
                    sre.num_subproblems,
                    sre.funcs_per_subproblem,
                    &mut scratch,
                    &mut groups,
                );
                groups.len()
            })
        });
    }
    group.finish();
}

/// CodeCrunch with every callback forwarded and each interval tick
/// timed.
struct TimedTicks {
    inner: CodeCrunch,
    ticks: Vec<Duration>,
}

impl Scheduler for TimedTicks {
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
        let start = Instant::now();
        let commands = self.inner.on_interval(view);
        self.ticks.push(start.elapsed());
        // The engine drains the rounds after every tick when a sink
        // records them; so does this wrapper, outside the timed span.
        drop(self.inner.drain_optimizer_rounds());
        commands
    }
    fn evicts_in_admission_order(&self) -> bool {
        self.inner.evicts_in_admission_order()
    }
}

/// CodeCrunch's whole `on_interval` at serve_live's shape: the same
/// 4 000-function, 60-minute trace and 124-node cluster, no budget, and
/// introspection on (serve_live records into a telemetry sink), so about
/// 1 300 functions are invoked between ticks. One iteration is one tick.
/// A tick needs the engine's view of the cluster, so the trace is
/// replayed in batch and every tick after each replay's first (which
/// grows the recycled buffers) is timed once, in order; a sample takes
/// the next `iters` of them.
fn bench_codecrunch_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("codecrunch_tick");
    group.sample_size(50);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let trace = SyntheticTrace::builder()
        .functions(4_000)
        .duration(SimDuration::from_mins(60))
        .seed(7)
        .build();
    let workload = Workload::from_trace(
        &trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    let mut timed: VecDeque<Duration> = VecDeque::new();
    group.bench_function("serve_live", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                while timed.is_empty() {
                    let mut policy = TimedTicks {
                        inner: CodeCrunch::new(),
                        ticks: Vec::new(),
                    };
                    policy.inner.enable_introspection(true);
                    Simulation::new(ClusterConfig::small(52, 72), &trace, &workload)
                        .without_records()
                        .run(&mut policy);
                    timed.extend(policy.ticks.iter().skip(1));
                }
                total += timed.pop_front().expect("a replay times its ticks");
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_optimizers,
    bench_sre_round,
    bench_sre_interval,
    bench_sre_sampling,
    bench_codecrunch_tick
);
criterion_main!(benches);
