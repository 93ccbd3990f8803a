//! Simulator throughput (invocations/second) per policy on the
//! 10 000-function stress scenario, or on a smaller or streaming one.
//!
//! Usage (from the repo root):
//!
//! ```text
//! cargo run --release -p bench --bin simbench
//! cargo run --release -p bench --bin simbench -- --runs 5 --out /tmp/sim.json
//! cargo run --release -p bench --bin simbench -- --scenario small --sink jsonl
//! cargo run --release -p bench --bin simbench -- --scenario large --runs 2 \
//!     --floor fixed_keepalive=600000 --floor codecrunch=400000
//! ```
//!
//! Each policy is replayed `--runs` times (default 3) after one warm-up
//! replay; the reported figure is the best run, which is the least noisy
//! estimator on a shared machine. Every mode below drives that one loop;
//! what differs is how one run replays its policies.
//!
//! `--sink` selects the event sink the replay runs under: `null` (the
//! default, the uninstrumented fast path), `jsonl`, or `chrome` — the
//! exporters serialize the full event stream into `std::io::sink()`, so
//! the measured delta is pure observability overhead with no disk noise.
//!
//! Results print to stderr, ending with the process's peak RSS; `--out
//! PATH` also writes them as JSON (there is no default file).
//!
//! `--floor POLICY=INV_PER_S` (repeatable) exits 1 if the named policy's
//! measured throughput falls below the floor. A floor holds only on the
//! scenario and host it was measured on, so CI keeps its floors next to
//! the command that checks them.
//!
//! `--shards N` switches to the sharded parallel driver: every selected
//! policy becomes one shard, dispatched across `N` worker threads. The
//! headline figure is then the *aggregate* sweep throughput (all policies'
//! invocations over the sweep wall-clock). Every mode records each
//! policy's canonical report digest (`--workers N` its telemetry digest
//! too), and `--digests-match PATH` asserts they equal the digests in a
//! previously written file, which must record every policy of this run,
//! comparing the telemetry digests wherever both files carry one — the CI
//! proof that `--shards N` is behavior-preserving with respect to a
//! serial run.
//!
//! `--audit` (jsonl sink only) captures the serialized stream in memory
//! instead of discarding it, then runs the `cc-replay` invariant auditor
//! over every replay and exits non-zero on any violation — a cheap CI
//! smoke test that the live event stream obeys the engine's conservation
//! laws. Throughput measured under `--audit` includes the capture cost, so
//! don't hold those figures to a `--floor`.
//!
//! `--profile` runs the *measured* replays (never the warm-ups) under
//! `cc-prof`'s wall-clock profiler and prints the per-phase self-time
//! table after the results. `--profile-out PATH` writes the self-profile
//! JSON (the input to `ccprof diff`), and `--profile-trace PATH` writes a
//! Chrome/Perfetto trace of the simulator's own threads. Build with
//! `--features alloc-profile` to also attribute allocations per phase.
//!
//! `--gap` prices every selected policy's measured run against the
//! hindsight-optimal lower bound from `cc-bound` and prints one gap row per
//! policy (batch scenarios only — the estimators need the materialized
//! trace). The pricing reads the report of a measured run outside the
//! timed region, so it adds no replay and nothing to a `--profile`, and
//! under `--shards` or `--workers` it checks the invariant against that
//! driver's own runs. Any policy landing *below* the bound is a
//! conservation violation and exits non-zero; `--gap-ceiling POLICY=PCT`
//! additionally bounds a policy's gap from above (e.g. `--gap-ceiling
//! oracle=50` asserts the clairvoyant oracle stays within 50% of optimal).
//!
//! `--workers N` switches to the *intra-run* parallel engine
//! (`Simulation::run_pipelined`): ONE simulation per policy, with the
//! instrumentation pipeline (arrival prefetch, JSONL encoding, ordered
//! write-out, telemetry folding) spread across N encoder workers plus the
//! feeder/writer/telemetry threads. Results are worker-count-independent;
//! CI compares `--workers 1` against `--workers 2` digests via
//! `--digests-match`. The streaming scenarios (`--scenario stream|1m`)
//! require this mode: their invocation streams are generated on the fly
//! and never materialize, so `simulate_1m` (one million functions, two
//! simulated days, ~12M invocations) runs in O(#functions) memory.

use std::io::Write;
use std::time::{Duration, Instant};

use bench::{BenchScenario, StreamScenario};
use cc_bound::{measured_cost_of_report, GapReport, HindsightInput, NanoCost};
use cc_experiments::{policy, POLICIES};
use cc_shard::{run_sharded, run_sharded_jsonl, NullSinkFactory};
use cc_sim::{
    ArrivalSource, ChromeTraceSink, EventSink, JsonlSink, NullSink, ParallelOptions,
    ParallelOutcome, Scheduler, SimReport, Simulation,
};
use serde_json::json;

/// With the `alloc-profile` feature, every allocation in this binary is
/// counted and attributed to the active profiling phase.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: cc_prof::CountingAllocator = cc_prof::CountingAllocator::new();

const USAGE: &str = "usage: simbench [--runs N] [--out PATH] [--scenario large|small|stream|1m] \
                     [--sink null|jsonl|chrome] [--policies a,b,..] \
                     [--floor POLICY=INV_PER_S] \
                     [--shards N] [--workers N] [--digests-match PATH] [--audit] \
                     [--gap] [--gap-ceiling POLICY=PCT] \
                     [--profile] [--profile-out PATH] [--profile-trace PATH]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum SinkMode {
    Null,
    Jsonl,
    Chrome,
}

impl SinkMode {
    fn label(self) -> &'static str {
        match self {
            SinkMode::Null => "null",
            SinkMode::Jsonl => "jsonl",
            SinkMode::Chrome => "chrome",
        }
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, or a usage error saying what `flag` takes.
fn value(args: &mut impl Iterator<Item = String>, flag: &str, takes: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} takes {takes}")))
}

/// The positive count after `flag`.
fn count(args: &mut impl Iterator<Item = String>, flag: &str, takes: &str) -> usize {
    match value(args, flag, takes).parse() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!("{flag} takes {takes}")),
    }
}

/// The `POLICY=NUMBER` after `flag`, its number finite and `ok`.
fn policy_number(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    takes: &str,
    ok: fn(f64) -> bool,
    bad: &str,
) -> (String, f64) {
    let spec = value(args, flag, takes);
    let Some((name, number)) = spec.split_once('=') else {
        usage_error(&format!("{flag} takes {takes}"));
    };
    match number.trim().parse::<f64>() {
        Ok(n) if n.is_finite() && ok(n) => (name.trim().to_string(), n),
        _ => usage_error(&format!("{flag} {bad}")),
    }
}

/// Which scenario family the bench drives.
enum Bench {
    /// Materialized trace (the classic path).
    Batch(BenchScenario),
    /// On-the-fly invocation stream (requires `--workers`).
    Stream(StreamScenario),
}

fn main() {
    let mut runs = 3;
    let mut out: Option<String> = None;
    let mut scenario_name = String::from("large");
    let mut sink = SinkMode::Null;
    let mut policy_filter: Option<Vec<String>> = None;
    let mut floors: Vec<(String, f64)> = Vec::new();
    let mut shards: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut digests_match: Option<String> = None;
    let mut gap = false;
    let mut gap_ceilings: Vec<(String, f64)> = Vec::new();
    let mut audit = false;
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut profile_trace: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let args = &mut args;
        match flag.as_str() {
            "--runs" => runs = count(args, &flag, "a positive integer"),
            "--out" => out = Some(value(args, &flag, "a path")),
            "--scenario" => scenario_name = value(args, &flag, "large, small, stream, or 1m"),
            "--sink" => {
                sink = match value(args, &flag, "null, jsonl, or chrome").as_str() {
                    "null" => SinkMode::Null,
                    "jsonl" => SinkMode::Jsonl,
                    "chrome" => SinkMode::Chrome,
                    _ => usage_error("--sink takes null, jsonl, or chrome"),
                };
            }
            "--policies" => {
                let list = value(args, &flag, "a comma-separated list");
                policy_filter = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--floor" => floors.push(policy_number(
                args,
                &flag,
                "POLICY=INV_PER_S (e.g. codecrunch=400000)",
                |rate| rate > 0.0,
                "rate must be a positive number of inv/s",
            )),
            "--shards" => shards = Some(count(args, &flag, "a positive worker count")),
            "--workers" => workers = Some(count(args, &flag, "a positive worker count")),
            "--digests-match" => digests_match = Some(value(args, &flag, "a path")),
            "--gap" => gap = true,
            "--gap-ceiling" => gap_ceilings.push(policy_number(
                args,
                &flag,
                "POLICY=PCT (e.g. oracle=25)",
                |pct| pct >= 0.0,
                "percent must be a non-negative number",
            )),
            "--audit" => audit = true,
            "--profile" => profile = true,
            "--profile-out" => profile_out = Some(value(args, &flag, "a path")),
            "--profile-trace" => profile_trace = Some(value(args, &flag, "a path")),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if sink == SinkMode::Chrome && (shards.is_some() || workers.is_some()) {
        usage_error("--shards and --workers support null and jsonl sinks (chrome is serial-only)");
    }
    if shards.is_some() && !floors.is_empty() {
        usage_error("--floor checks per-policy throughput; use it without --shards");
    }
    if audit && sink != SinkMode::Jsonl {
        usage_error("--audit checks the serialized event stream; add --sink jsonl");
    }
    if workers.is_some() && shards.is_some() {
        usage_error(
            "--workers (intra-run pipeline) and --shards (run-level sharding) are exclusive",
        );
    }
    if !gap_ceilings.is_empty() && !gap {
        usage_error("--gap-ceiling needs --gap");
    }
    for (flag, names) in [("--gap-ceiling", &gap_ceilings), ("--floor", &floors)] {
        for (name, _) in names {
            if !POLICIES.contains(&name.as_str()) {
                usage_error(&format!(
                    "{flag} names unknown policy {name:?} (known: {POLICIES:?})"
                ));
            }
        }
    }

    // Profiling session: discard any residue, arm the DynScope probe sites,
    // and (when a Perfetto trace was requested) retain raw spans. Warm-up
    // replays run with profiling force-disabled, so only measured replays
    // land in the profile and `measured_wall_ns` is exactly the wall clock
    // the recorded spans must cover.
    let profiling = profile || profile_out.is_some() || profile_trace.is_some();
    if profiling {
        cc_prof::reset();
        cc_prof::set_wall_enabled(true);
        if profile_trace.is_some() {
            cc_prof::set_trace_capture(true);
        }
    }
    let mut measured_wall_ns: u64 = 0;

    let bench = match scenario_name.as_str() {
        "small" => Bench::Batch(BenchScenario::small()),
        "large" => Bench::Batch(BenchScenario::large()),
        "stream" => Bench::Stream(StreamScenario::smoke()),
        "1m" => Bench::Stream(StreamScenario::million()),
        _ => usage_error("--scenario takes large, small, stream, or 1m"),
    };
    let streaming = matches!(bench, Bench::Stream(_));
    if streaming && workers.is_none() {
        usage_error("streaming scenarios run on the intra-run pipeline; add --workers N");
    }
    if gap && streaming {
        usage_error("--gap prices a materialized trace; streaming scenarios never build one");
    }
    // A streaming run's invocation count is an estimate until it has run.
    let (benchmark, functions, mut invocations, config) = match &bench {
        Bench::Batch(s) => {
            let functions = s.trace.functions().len();
            (
                "simulate_10k",
                functions,
                s.trace.invocations().len(),
                &s.config,
            )
        }
        Bench::Stream(s) if scenario_name == "1m" => (
            "simulate_1m",
            s.functions,
            s.expected_invocations,
            &s.config,
        ),
        Bench::Stream(s) => (
            "simulate_stream",
            s.functions,
            s.expected_invocations,
            &s.config,
        ),
    };
    let nodes = config.total_nodes();
    let count = if streaming {
        format!("~{invocations} invocations expected, {nodes} nodes, streaming")
    } else {
        format!("{invocations} invocations, {nodes} nodes")
    };
    eprintln!(
        "scenario: {scenario_name} ({functions} functions, {count}), sink: {}",
        sink.label()
    );

    if let Some(filter) = &policy_filter {
        for name in filter {
            if !POLICIES.contains(&name.as_str()) {
                usage_error(&format!("unknown policy {name:?} (known: {POLICIES:?})"));
            }
        }
    }
    let selected: Vec<&'static str> = POLICIES
        .iter()
        .copied()
        .filter(|name| match &policy_filter {
            Some(filter) => filter.iter().any(|f| f == name),
            // Streaming scale defaults to the cheapest policy: the point
            // is the engine pipeline, not a policy sweep, and the oracle
            // cannot run without a materialized trace anyway.
            None if streaming => *name == "fixed_keepalive",
            None => true,
        })
        .collect();
    for (name, _) in &floors {
        if !selected.contains(&name.as_str()) {
            usage_error(&format!(
                "--floor names {name:?}, which this run does not select"
            ));
        }
    }
    if streaming && selected.contains(&"oracle") {
        usage_error("oracle needs a materialized trace (not available with --scenario stream|1m)");
    }

    // The bound is computed once, before any run and outside the profile:
    // it is no part of what the runs measure.
    let gap_reference = match &bench {
        Bench::Batch(s) if gap => Some(unprofiled(|| {
            let input = HindsightInput::from_trace(&s.trace, &s.workload, &s.config)
                .unwrap_or_else(|e| usage_error(&format!("--gap: {e}")));
            GapReport::for_input(&input)
        })),
        _ => None,
    };

    let runner = Runner {
        driver: match (shards, workers) {
            (Some(workers), _) => Driver::Sharded(workers),
            (None, Some(workers)) => {
                Driver::Pipelined(ParallelOptions::default().with_workers(workers))
            }
            (None, None) => Driver::Serial,
        },
        bench: &bench,
        sink,
        audit,
        lambda: gap_reference.as_ref().map(|g| g.lambda_nanos),
    };
    // The sharded driver replays every selected policy in one run (the
    // sweep); the others replay one policy per run.
    let groups: Vec<&[&'static str]> = match runner.driver {
        Driver::Sharded(_) => vec![&selected],
        _ => selected.chunks(1).collect(),
    };
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut entries = Vec::new();
    let mut aggregate = None;
    for group in groups {
        // Warm-up run (page in the trace, fault in allocator arenas);
        // streaming runs are long enough to amortize cold caches, and each
        // one rebuilds its source.
        if !streaming {
            unprofiled(|| runner.run(group, false));
        }
        let mut best: Option<(f64, Vec<Outcome>)> = None;
        for _ in 0..runs {
            let started = Instant::now();
            let this = runner.run(group, profiling);
            let elapsed = started.elapsed();
            measured_wall_ns += elapsed.as_nanos() as u64;
            let wall = elapsed.as_secs_f64();
            if let Some((best_wall, prev)) = &best {
                let digests = |o: &Outcome| (o.report, o.telemetry, o.invocations);
                assert!(
                    prev.iter().map(digests).eq(this.iter().map(digests)),
                    "{group:?} is not run-to-run deterministic"
                );
                if wall >= *best_wall {
                    continue;
                }
            }
            best = Some((wall, this));
        }
        let (wall, best) = best.expect("at least one run");
        aggregate = runner.aggregate(wall, &best);
        for outcome in best {
            entries.push(runner.result(&outcome));
            outcomes.push(outcome);
        }
    }
    if streaming {
        invocations = outcomes
            .last()
            .map_or(invocations, |o| o.invocations as usize);
    }

    let (gap_block, gap_failed) = match &gap_reference {
        Some(reference) => {
            let (block, failed) = gap_pass(reference, &outcomes, &gap_ceilings);
            (Some(block), failed)
        }
        None => (None, false),
    };

    // The process's high-water mark over every replay of this scenario.
    let peak_rss = cc_prof::peak_rss_bytes();
    match peak_rss {
        Some(bytes) => eprintln!("peak RSS: {}", cc_prof::fmt_bytes(bytes)),
        None => eprintln!("peak RSS: n/a"),
    }
    if let Some(out) = &out {
        let doc = json!({
            "benchmark": benchmark,
            "scenario_name": scenario_name,
            "sink": sink.label(),
            "functions": functions as u64,
            "invocations": invocations as u64,
            "nodes": nodes as u64,
            "runs_per_policy": runs as u64,
            "shards": shards.unwrap_or(0) as u64,
            "workers": workers.unwrap_or(0) as u64,
            "aggregate": aggregate,
            "gap": gap_block,
            "peak_rss_bytes": peak_rss,
            "results": entries,
        });
        let body = serde_json::to_string_pretty(&doc).expect("serialize");
        std::fs::write(out, body + "\n").expect("write output file");
        eprintln!("wrote {out}");
    }

    if gap_failed {
        eprintln!(
            "gap check failed: a policy priced below the hindsight lower bound or over its \
             --gap-ceiling"
        );
        std::process::exit(1);
    }

    if profiling {
        let label = format!("simbench-{scenario_name}");
        let self_profile = cc_prof::take_profile(&label, measured_wall_ns);
        eprintln!();
        eprint!("{}", self_profile.render_table());
        let exports = [
            (&profile_out, cc_prof::to_json(&self_profile)),
            (&profile_trace, cc_prof::to_chrome_trace(&self_profile)),
        ];
        for (path, body) in exports {
            if let Some(path) = path {
                std::fs::write(path, body)
                    .unwrap_or_else(|e| usage_error(&format!("cannot write {path:?}: {e}")));
                eprintln!("wrote {path}");
            }
        }
    }

    if let Some(path) = digests_match {
        check_digests(&path, &outcomes);
    }

    let mut below: Vec<&str> = Vec::new();
    for (name, floor) in &floors {
        let throughput = outcomes
            .iter()
            .find(|o| o.policy == name)
            .expect("every floor names a selected policy")
            .throughput();
        let holds = throughput >= *floor;
        let verdict = if holds { "ok" } else { "BELOW FLOOR" };
        eprintln!(
            "floor: {name:>16} measured {throughput:11.0} inv/s vs floor {floor:11.0} {verdict}"
        );
        if !holds {
            below.push(name);
        }
    }
    if !below.is_empty() {
        eprintln!(
            "floor check failed on scenario '{scenario_name}': {} below its floor",
            below.join(", ")
        );
        std::process::exit(1);
    }
}

/// How one run replays its policies.
enum Driver {
    /// One policy per run, on this thread.
    Serial,
    /// `--shards N`: every selected policy in one run, one shard each,
    /// across `N` worker threads.
    Sharded(usize),
    /// `--workers N`: one policy per run, on the pipelined engine.
    Pipelined(ParallelOptions),
}

/// Every run of one simbench invocation: the driver, and what all its
/// runs share.
struct Runner<'a> {
    driver: Driver,
    bench: &'a Bench,
    sink: SinkMode,
    /// `--audit`: every JSONL stream is kept and audited.
    audit: bool,
    /// The bound's λ, when `--gap` prices every run.
    lambda: Option<u64>,
}

/// What the results keep of one policy's run.
struct Outcome {
    policy: &'static str,
    report: u64,
    /// The telemetry digest, where the driver folds telemetry
    /// (`--workers`).
    telemetry: Option<u64>,
    invocations: u64,
    /// Seconds the replay took; under `--shards`, inside its shard.
    seconds: f64,
    /// The run's measured cost, when `--gap` prices it.
    cost: Option<NanoCost>,
}

impl Outcome {
    fn throughput(&self) -> f64 {
        self.invocations as f64 / self.seconds
    }
}

impl Runner<'_> {
    /// One run of `group`: one [`Outcome`] per policy, in order.
    fn run(&self, group: &[&'static str], profiled: bool) -> Vec<Outcome> {
        match (&self.driver, self.bench) {
            (Driver::Pipelined(options), _) => group
                .iter()
                .map(|name| self.pipelined(name, options, profiled))
                .collect(),
            (Driver::Serial, Bench::Batch(s)) => group
                .iter()
                .map(|name| self.serial(s, name, profiled))
                .collect(),
            (Driver::Sharded(workers), Bench::Batch(s)) => {
                self.sharded(s, group, *workers, profiled)
            }
            (_, Bench::Stream(_)) => {
                unreachable!("streaming scenarios were rejected without --workers")
            }
        }
    }

    /// Reduces one policy's finished replay, after its timer stopped:
    /// digests the report, checks that a batch run recorded every
    /// invocation, and prices it when `--gap` is on.
    fn outcome(
        &self,
        policy: &'static str,
        report: &SimReport,
        telemetry: Option<u64>,
        elapsed: Duration,
    ) -> Outcome {
        if let Bench::Batch(s) = self.bench {
            assert_eq!(
                report.records.len(),
                s.trace.invocations().len(),
                "{policy} did not record every invocation"
            );
        }
        Outcome {
            policy,
            report: report.digest(),
            telemetry,
            invocations: report.stats.invocations(),
            seconds: elapsed.as_secs_f64(),
            cost: self
                .lambda
                .map(|lambda| measured_cost_of_report(report, lambda)),
        }
    }

    /// Where a JSONL run writes: memory under `--audit`, else nowhere.
    fn capture(&self) -> Capture {
        Capture(self.audit.then(Vec::new))
    }

    /// One serial replay, audited after its timer stopped.
    fn serial(&self, s: &BenchScenario, name: &'static str, profiled: bool) -> Outcome {
        match self.sink {
            SinkMode::Null => self.replay(s, name, &mut NullSink, profiled),
            SinkMode::Jsonl => {
                let mut out = JsonlSink::new(self.capture());
                let outcome = self.replay(s, name, &mut out, profiled);
                assert!(out.events_written() > 0);
                audit(out.finish().expect("a capture cannot fail"));
                outcome
            }
            SinkMode::Chrome => {
                let mut out = ChromeTraceSink::new(std::io::sink());
                self.replay(s, name, &mut out, profiled)
            }
        }
    }

    /// Replays `name` on the batch scenario into `sink`, under the wall
    /// profiler when `profiled`, and times the replay alone.
    fn replay<S: EventSink>(
        &self,
        s: &BenchScenario,
        name: &'static str,
        sink: &mut S,
        profiled: bool,
    ) -> Outcome {
        let started = Instant::now();
        let mut policy = policy(name, Some(&s.trace)).expect("selected from POLICIES");
        let simulation = Simulation::new(s.config.clone(), &s.trace, &s.workload);
        let report = if profiled {
            simulation.profiled().run_with_sink(policy.as_mut(), sink)
        } else {
            simulation.run_with_sink(policy.as_mut(), sink)
        };
        self.outcome(name, &report, None, started.elapsed())
    }

    /// One sharded sweep: each policy of `group` is a shard, dispatched
    /// across `workers` threads.
    fn sharded(
        &self,
        s: &BenchScenario,
        group: &[&'static str],
        workers: usize,
        profiled: bool,
    ) -> Vec<Outcome> {
        let results = match self.sink {
            SinkMode::Null => run_sharded(
                self.shard_jobs(s, group, profiled),
                workers,
                &NullSinkFactory,
            ),
            SinkMode::Jsonl => {
                let jobs = self.shard_jobs(s, group, profiled);
                let (results, merged, mux) = run_sharded_jsonl(jobs, workers, self.capture())
                    .expect("a capture cannot fail");
                assert!(
                    mux.events_written > 0,
                    "sharded jsonl run emitted no events"
                );
                audit(merged);
                results
            }
            SinkMode::Chrome => unreachable!("rejected at argument parsing"),
        };
        results
            .into_iter()
            .map(|r| r.outcome.expect("shard panicked"))
            .collect()
    }

    /// One shard job per policy of `group`: a serial replay into the
    /// shard's sink.
    fn shard_jobs<'a, S: EventSink>(
        &'a self,
        s: &'a BenchScenario,
        group: &'a [&'static str],
        profiled: bool,
    ) -> Vec<impl FnOnce(&mut S) -> Outcome + Send + 'a> {
        group
            .iter()
            .map(move |&name| move |sink: &mut S| self.replay(s, name, sink, profiled))
            .collect()
    }

    /// One replay on the intra-run parallel engine, audited after its
    /// timer stopped.
    fn pipelined(&self, name: &'static str, options: &ParallelOptions, profiled: bool) -> Outcome {
        let jsonl = (self.sink == SinkMode::Jsonl).then(|| self.capture());
        let started = Instant::now();
        let (run, jsonl) = match self.bench {
            Bench::Batch(s) => {
                let mut policy = policy(name, Some(&s.trace)).expect("selected from POLICIES");
                let simulation = Simulation::new(s.config.clone(), &s.trace, &s.workload);
                pipelined(simulation, policy.as_mut(), options, jsonl, profiled)
            }
            Bench::Stream(s) => {
                let mut policy = policy(name, None).expect("streaming runs select no oracle");
                // Per-invocation records at streaming scale would defeat the
                // constant-memory point; the digest then covers the stats
                // and interval samples only.
                let simulation = Simulation::from_source(s.config.clone(), s.source(), &s.workload)
                    .without_records();
                pipelined(simulation, policy.as_mut(), options, jsonl, profiled)
            }
        };
        let elapsed = started.elapsed();
        if let Some(out) = jsonl {
            audit(out);
        }
        self.outcome(name, &run.report, Some(run.telemetry.digest()), elapsed)
    }

    /// The `aggregate` block of the output document, after a group's best
    /// run took `wall` seconds; the sharded sweep's also prints its line.
    fn aggregate(&self, wall: f64, best: &[Outcome]) -> Option<serde_json::Value> {
        match &self.driver {
            Driver::Serial => None,
            Driver::Sharded(workers) => {
                let total: u64 = best.iter().map(|o| o.invocations).sum();
                let throughput = total as f64 / wall;
                eprintln!(
                    "sharded sweep ({} policies, {workers} workers): {wall:7.3} s \
                     ({throughput:11.0} inv/s aggregate)",
                    best.len()
                );
                Some(json!({
                    "workers": *workers as u64,
                    "seconds_per_sweep": wall,
                    "total_invocations": total,
                    "invocations_per_sec": throughput,
                }))
            }
            Driver::Pipelined(options) => Some(json!({
                "workers": options.workers as u64,
                "mode": "intra_run",
                "window_secs": options.window.as_secs_f64(),
            })),
        }
    }

    /// Prints `outcome`'s result line and returns its `results` entry.
    fn result(&self, outcome: &Outcome) -> serde_json::Value {
        let (name, seconds) = (outcome.policy, outcome.seconds);
        let throughput = outcome.throughput();
        let digest = format!("{:#018x}", outcome.report);
        match &self.driver {
            Driver::Serial => {
                eprintln!("{name:>16}: {seconds:7.3} s  ({throughput:11.0} inv/s)");
                json!({
                    "policy": name,
                    "seconds_per_replay": seconds,
                    "invocations_per_sec": throughput,
                    "report_digest": digest,
                })
            }
            Driver::Sharded(_) => {
                eprintln!("{name:>16}: {seconds:7.3} s in shard, digest {digest}");
                json!({
                    "policy": name,
                    "seconds_in_shard": seconds,
                    "report_digest": digest,
                })
            }
            Driver::Pipelined(options) => {
                eprintln!(
                    "{name:>16}: {seconds:7.3} s  ({throughput:11.0} inv/s, {} invocations, \
                     {} workers)",
                    outcome.invocations, options.workers
                );
                let telemetry = outcome.telemetry.expect("the pipeline folds telemetry");
                json!({
                    "policy": name,
                    "seconds_per_replay": seconds,
                    "invocations_per_sec": throughput,
                    "report_digest": digest,
                    "telemetry_digest": format!("{telemetry:#018x}"),
                })
            }
        }
    }
}

/// Prices every policy's measured run against the scenario's
/// hindsight-optimal DP lower bound (`cc-bound`) and prints one gap row
/// per policy.
///
/// The costs are those of the measured runs themselves, each priced once
/// its replay's timer stopped ([`Runner::outcome`]), so no policy replays
/// again, and under `--shards` or `--workers` the invariant is checked
/// against that driver's own execution.
///
/// Returns the JSON block embedded under `"gap"` in the output document
/// and whether any row failed: a negative gap (the conservation invariant
/// broke — the bound or the engine's accounting has a bug) or a gap above
/// the policy's `--gap-ceiling`.
fn gap_pass(
    reference: &GapReport,
    outcomes: &[Outcome],
    ceilings: &[(String, f64)],
) -> (serde_json::Value, bool) {
    let mut rows = Vec::new();
    let mut failed = false;
    for outcome in outcomes {
        let name = outcome.policy;
        let row = reference.policy(name, outcome.cost.expect("--gap prices every run"));
        let ceiling = ceilings
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, pct)| pct);
        let over_ceiling = ceiling.is_some_and(|pct| row.gap_pct > pct);
        let verdict = if !row.holds() {
            "VIOLATED"
        } else if over_ceiling {
            "OVER CEILING"
        } else {
            "ok"
        };
        eprintln!(
            "gap: {name:>16} measured {:>20} lower {:>20} gap {:>8.2}% {verdict}",
            row.measured, row.lower_bound, row.gap_pct
        );
        failed |= !row.holds() || over_ceiling;
        rows.push(json!({
            "policy": name,
            "measured_nano": row.measured.to_string(),
            "lower_bound_nano": row.lower_bound.to_string(),
            "gap_nano": row.gap.to_string(),
            "gap_pct": row.gap_pct,
            "holds": row.holds(),
            "ceiling_pct": ceiling,
        }));
    }
    let block = json!({
        "lambda_nanos": reference.lambda_nanos,
        "lower_bound_nano": reference.lower_bound.to_string(),
        "policies": rows,
    });
    (block, failed)
}

/// Compares each outcome's digests with those recorded in the simbench
/// output file at `path`, and exits 1 if a policy has no recorded report
/// digest or any recorded digest differs. Telemetry digests are compared
/// where both sides have one.
fn check_digests(path: &str, outcomes: &[Outcome]) {
    use cc_prof::json::{parse, Value};
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read digest file {path:?}: {e}")));
    let doc = parse(&text)
        .unwrap_or_else(|e| usage_error(&format!("cannot parse digest file {path:?}: {e}")));
    let entries = doc.get("results").and_then(Value::as_arr);
    let hex = |entry: &Value, key: &str| {
        let token = entry.get(key)?.as_str()?;
        u64::from_str_radix(token.strip_prefix("0x").unwrap_or(token), 16).ok()
    };
    let recorded = |policy: &str, key: &str| {
        let entries = entries.unwrap_or_default().iter();
        entries
            .filter(|e| e.get("policy").and_then(Value::as_str) == Some(policy))
            .find_map(|e| hex(e, key))
    };
    if !POLICIES
        .iter()
        .any(|p| recorded(p, "report_digest").is_some())
    {
        usage_error(&format!("no report_digest entries in {path:?}"));
    }
    let mut failed = false;
    for outcome in outcomes {
        let name = outcome.policy;
        let Some(report) = recorded(name, "report_digest") else {
            eprintln!("digests: {name} has no recorded report digest in {path}");
            failed = true;
            continue;
        };
        let pairs = [
            ("report", Some(outcome.report), Some(report)),
            (
                "telemetry",
                outcome.telemetry,
                recorded(name, "telemetry_digest"),
            ),
        ];
        for (kind, digest, expected) in pairs {
            let (Some(digest), Some(expected)) = (digest, expected) else {
                continue;
            };
            let verdict = if digest == expected { "ok" } else { "DIVERGED" };
            eprintln!(
                "digests: {name:>16} {kind:>9} {digest:#018x} vs recorded {expected:#018x} {verdict}"
            );
            failed |= digest != expected;
        }
    }
    if failed {
        eprintln!("digest check failed: a policy has no recorded digest or diverged from it");
        std::process::exit(1);
    }
}

/// Runs `f` with the DynScope probe sites force-disabled — warm-up replays
/// must not leak spans into the measured profile.
fn unprofiled<T>(f: impl FnOnce() -> T) -> T {
    let was = cc_prof::wall_enabled();
    cc_prof::set_wall_enabled(false);
    let result = f();
    cc_prof::set_wall_enabled(was);
    result
}

/// Runs `simulation` on the pipelined engine, writing its JSONL stream
/// to `jsonl`, under the wall profiler when `profiled`.
fn pipelined<Src: ArrivalSource + Send>(
    simulation: Simulation<'_, Src>,
    policy: &mut dyn Scheduler,
    options: &ParallelOptions,
    jsonl: Option<Capture>,
    profiled: bool,
) -> (ParallelOutcome, Option<Capture>) {
    if profiled {
        simulation.profiled().run_pipelined(policy, jsonl, options)
    } else {
        simulation.run_pipelined(policy, jsonl, options)
    }
    .expect("pipeline io")
}

/// A JSONL run's output: kept in memory for `--audit` to check, else
/// dropped as `io::sink()` drops it.
struct Capture(Option<Vec<u8>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(kept) = &mut self.0 {
            kept.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Decodes and audits the stream `out` kept, if it kept one; exits
/// non-zero on a malformed stream or any invariant violation.
fn audit(out: Capture) {
    let Some(bytes) = out.0 else {
        return;
    };
    let text = std::str::from_utf8(&bytes).expect("jsonl output is utf-8");
    let log = cc_replay::decode_stream(text).unwrap_or_else(|e| {
        eprintln!("audit: stream failed to decode: {e}");
        std::process::exit(1);
    });
    let report = cc_replay::audit_log(&log, false);
    if !report.is_clean() {
        eprint!("{}", report.summary());
        std::process::exit(1);
    }
    eprintln!(
        "audit: {} events across {} shard(s), 0 violations",
        log.events(),
        log.shards.len()
    );
}
