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
//! estimator on a shared machine.
//!
//! `--sink` selects the event sink the replay runs under: `null` (the
//! default, PR 1's uninstrumented fast path), `jsonl`, or `chrome` — the
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
//! previously written file, comparing the telemetry digests wherever both
//! files carry one — the CI proof that `--shards N` is behavior-preserving
//! with respect to a serial run.
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
//! `--gap` prices every selected policy's run against the hindsight-optimal
//! lower bound from `cc-bound` and prints one gap row per policy (batch
//! scenarios only — the estimators need the materialized trace). Any
//! policy landing *below* the bound is a conservation violation and exits
//! non-zero; `--gap-ceiling POLICY=PCT` additionally bounds a policy's gap
//! from above (e.g. `--gap-ceiling oracle=50` asserts the clairvoyant
//! oracle stays within 50% of optimal). Under `--shards` the pricing
//! replays run on the sharded driver, so CI checks the invariant against
//! sharded execution itself.
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
use std::time::Instant;

use bench::{BenchScenario, StreamScenario};
use cc_bound::{measured_cost_of_report, GapReport, HindsightInput, NanoCost};
use cc_experiments::{policy, POLICIES};
use cc_shard::{run_sharded, run_sharded_jsonl, NullSinkFactory};
use cc_sim::{
    ArrivalSource, ChromeTraceSink, EventSink, JsonlSink, NullSink, ParallelOptions,
    ParallelOutcome, Scheduler, SimReport, Simulation,
};

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

/// Which scenario family the bench drives.
enum Bench {
    /// Materialized trace (the classic path).
    Batch(BenchScenario),
    /// On-the-fly invocation stream (requires `--workers`).
    Stream(StreamScenario),
}

fn main() {
    let mut runs: u32 = 3;
    let mut out: Option<String> = None;
    let mut scenario_name = String::from("large");
    let mut sink = SinkMode::Null;
    let mut policy_filter: Option<Vec<String>> = None;
    let mut floors: Vec<(String, f64)> = Vec::new();
    let mut shards: Option<usize> = None;
    let mut workers_opt: Option<usize> = None;
    let mut digests_match: Option<String> = None;
    let mut gap = false;
    let mut gap_ceilings: Vec<(String, f64)> = Vec::new();
    let mut audit = false;
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut profile_trace: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => {
                runs = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => usage_error("--runs takes a positive integer"),
                };
            }
            "--out" => {
                out = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--out takes a path"),
                };
            }
            "--scenario" => match args.next().as_deref() {
                Some(name @ ("large" | "small" | "stream" | "1m")) => {
                    scenario_name = name.into();
                }
                _ => usage_error("--scenario takes large, small, stream, or 1m"),
            },
            "--sink" => {
                sink = match args.next().as_deref() {
                    Some("null") => SinkMode::Null,
                    Some("jsonl") => SinkMode::Jsonl,
                    Some("chrome") => SinkMode::Chrome,
                    _ => usage_error("--sink takes null, jsonl, or chrome"),
                };
            }
            "--policies" => {
                policy_filter = match args.next() {
                    Some(list) => Some(list.split(',').map(|s| s.trim().to_string()).collect()),
                    None => usage_error("--policies takes a comma-separated list"),
                };
            }
            "--floor" => match args.next() {
                Some(spec) => match spec.split_once('=') {
                    Some((name, rate)) => match rate.trim().parse::<f64>() {
                        Ok(rate) if rate > 0.0 && rate.is_finite() => {
                            floors.push((name.trim().to_string(), rate));
                        }
                        _ => usage_error("--floor rate must be a positive number of inv/s"),
                    },
                    None => usage_error("--floor takes POLICY=INV_PER_S (e.g. codecrunch=400000)"),
                },
                None => usage_error("--floor takes POLICY=INV_PER_S (e.g. codecrunch=400000)"),
            },
            "--shards" => {
                shards = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => Some(n),
                    _ => usage_error("--shards takes a positive worker count"),
                };
            }
            "--workers" => {
                workers_opt = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => Some(n),
                    _ => usage_error("--workers takes a positive worker count"),
                };
            }
            "--digests-match" => {
                digests_match = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--digests-match takes a path"),
                };
            }
            "--gap" => gap = true,
            "--gap-ceiling" => match args.next() {
                Some(spec) => match spec.split_once('=') {
                    Some((name, pct)) => match pct.trim().parse::<f64>() {
                        Ok(pct) if pct >= 0.0 && pct.is_finite() => {
                            gap_ceilings.push((name.trim().to_string(), pct));
                        }
                        _ => usage_error("--gap-ceiling percent must be a non-negative number"),
                    },
                    None => usage_error("--gap-ceiling takes POLICY=PCT (e.g. oracle=25)"),
                },
                None => usage_error("--gap-ceiling takes POLICY=PCT (e.g. oracle=25)"),
            },
            "--audit" => audit = true,
            "--profile" => profile = true,
            "--profile-out" => {
                profile_out = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--profile-out takes a path"),
                };
            }
            "--profile-trace" => {
                profile_trace = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--profile-trace takes a path"),
                };
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if shards.is_some() && sink == SinkMode::Chrome {
        usage_error("--shards supports null and jsonl sinks (chrome is serial-only)");
    }
    if shards.is_some() && !floors.is_empty() {
        usage_error("--floor checks per-policy throughput; use it without --shards");
    }
    if audit && sink != SinkMode::Jsonl {
        usage_error("--audit checks the serialized event stream; add --sink jsonl");
    }
    if workers_opt.is_some() && shards.is_some() {
        usage_error(
            "--workers (intra-run pipeline) and --shards (run-level sharding) are exclusive",
        );
    }
    if workers_opt.is_some() && sink == SinkMode::Chrome {
        usage_error("--workers supports null and jsonl sinks (chrome is serial-only)");
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
        _ => unreachable!("scenario name validated at parse time"),
    };
    if matches!(bench, Bench::Stream(_)) && workers_opt.is_none() {
        usage_error("streaming scenarios run on the intra-run pipeline; add --workers N");
    }
    if gap && matches!(bench, Bench::Stream(_)) {
        usage_error("--gap prices a materialized trace; streaming scenarios never build one");
    }
    match &bench {
        Bench::Batch(scenario) => eprintln!(
            "scenario: {scenario_name} ({} functions, {} invocations, {} nodes), sink: {}",
            scenario.trace.functions().len(),
            scenario.trace.invocations().len(),
            scenario.config.total_nodes(),
            sink.label(),
        ),
        Bench::Stream(scenario) => eprintln!(
            "scenario: {scenario_name} ({} functions, ~{} invocations expected, {} nodes, \
             streaming), sink: {}",
            scenario.functions,
            scenario.expected_invocations,
            scenario.config.total_nodes(),
            sink.label(),
        ),
    }

    if let Some(filter) = &policy_filter {
        for name in filter {
            if !POLICIES.contains(&name.as_str()) {
                usage_error(&format!("unknown policy {name:?} (known: {POLICIES:?})"));
            }
        }
    }
    let selected: Vec<&str> = POLICIES
        .iter()
        .copied()
        .filter(|name| match &policy_filter {
            Some(filter) => filter.iter().any(|f| f == name),
            // Streaming scale defaults to the cheapest policy: the point
            // is the engine pipeline, not a policy sweep, and the oracle
            // cannot run without a materialized trace anyway.
            None if matches!(bench, Bench::Stream(_)) => *name == "fixed_keepalive",
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
    if matches!(bench, Bench::Stream(_)) && selected.contains(&"oracle") {
        usage_error("oracle needs a materialized trace (not available with --scenario stream|1m)");
    }

    let mut entries = Vec::new();
    let mut measured: Vec<(String, f64)> = Vec::new();
    let mut digests: Vec<Digests> = Vec::new();
    let mut aggregate = None;
    let mut actual_invocations: Option<u64> = None;

    if let Some(workers) = workers_opt {
        // Intra-run parallel mode: one simulation per policy on the
        // pipelined engine. Results are worker-count-independent, so the
        // recorded digests double as the parity reference.
        let options = ParallelOptions::default().with_workers(workers);
        for name in &selected {
            if matches!(bench, Bench::Batch(_)) {
                // Warm-up replay; streaming replays are long enough to
                // amortize cold caches, and each one rebuilds the source.
                unprofiled(|| parallel_once(&bench, name, &options, sink, audit, false));
            }
            let mut best = f64::INFINITY;
            let mut reference: Option<(u64, u64, u64)> = None;
            for _ in 0..runs {
                let started = Instant::now();
                let result = parallel_once(&bench, name, &options, sink, audit, profiling);
                let elapsed = started.elapsed();
                best = best.min(elapsed.as_secs_f64());
                measured_wall_ns += elapsed.as_nanos() as u64;
                if let Some(prev) = reference {
                    assert_eq!(
                        prev, result,
                        "policy {name} is not run-to-run deterministic under --workers"
                    );
                }
                reference = Some(result);
            }
            let (digest, tel_digest, inv) = reference.expect("at least one run");
            let throughput = inv as f64 / best;
            eprintln!(
                "{name:>16}: {best:7.3} s  ({throughput:11.0} inv/s, {inv} invocations, \
                 {workers} workers)"
            );
            entries.push(serde_json::json!({
                "policy": *name,
                "seconds_per_replay": best,
                "invocations_per_sec": throughput,
                "report_digest": format!("{digest:#018x}"),
                "telemetry_digest": format!("{tel_digest:#018x}"),
            }));
            measured.push((name.to_string(), throughput));
            digests.push(Digests {
                policy: name.to_string(),
                report: Some(digest),
                telemetry: Some(tel_digest),
            });
            actual_invocations = Some(inv);
        }
        aggregate = Some(serde_json::json!({
            "workers": workers as u64,
            "mode": "intra_run",
            "window_secs": options.window.as_secs_f64(),
        }));
    } else if let Some(workers) = shards {
        let Bench::Batch(scenario) = &bench else {
            unreachable!("streaming scenarios were rejected without --workers");
        };
        let invocations = scenario.trace.invocations().len() as u64;
        // Sharded mode: one shard per policy, `workers` threads, one
        // warm-up sweep, then best-of-`runs` on the sweep wall-clock.
        unprofiled(|| sharded_sweep(scenario, &selected, workers, sink, audit, false)); // warm-up
        let mut best_wall = f64::INFINITY;
        let mut best_shards: Vec<(u64, f64)> = Vec::new();
        for _ in 0..runs {
            let (wall, per_shard) =
                sharded_sweep(scenario, &selected, workers, sink, audit, profiling);
            measured_wall_ns += (wall * 1e9) as u64;
            if !best_shards.is_empty() {
                let prev: Vec<u64> = best_shards.iter().map(|(d, _)| *d).collect();
                let this: Vec<u64> = per_shard.iter().map(|(d, _)| *d).collect();
                assert_eq!(prev, this, "sharded sweep is not run-to-run deterministic");
            }
            if wall < best_wall || best_shards.is_empty() {
                best_wall = wall;
                best_shards = per_shard;
            }
        }
        let total_invocations = invocations * selected.len() as u64;
        let sweep_throughput = total_invocations as f64 / best_wall;
        eprintln!(
            "sharded sweep ({} policies, {workers} workers): {best_wall:7.3} s \
             ({sweep_throughput:11.0} inv/s aggregate)",
            selected.len()
        );
        for (name, (digest, secs)) in selected.iter().zip(&best_shards) {
            eprintln!("{name:>16}: {secs:7.3} s in shard, digest {digest:#018x}");
            entries.push(serde_json::json!({
                "policy": *name,
                "seconds_in_shard": *secs,
                "report_digest": format!("{digest:#018x}"),
            }));
            digests.push(Digests {
                policy: name.to_string(),
                report: Some(*digest),
                telemetry: None,
            });
        }
        aggregate = Some(serde_json::json!({
            "workers": workers as u64,
            "seconds_per_sweep": best_wall,
            "total_invocations": total_invocations,
            "invocations_per_sec": sweep_throughput,
        }));
    } else {
        let Bench::Batch(scenario) = &bench else {
            unreachable!("streaming scenarios were rejected without --workers");
        };
        let invocations = scenario.trace.invocations().len() as u64;
        for name in &selected {
            // Warm-up replay (page in the trace, fault in allocator arenas).
            unprofiled(|| {
                run_once(
                    scenario,
                    policy(name, Some(&scenario.trace))
                        .expect("selected from POLICIES")
                        .as_mut(),
                    sink,
                    audit,
                    false,
                )
            });
            let mut best = f64::INFINITY;
            let mut digest: Option<u64> = None;
            for _ in 0..runs {
                let started = Instant::now();
                let d = run_once(
                    scenario,
                    policy(name, Some(&scenario.trace))
                        .expect("selected from POLICIES")
                        .as_mut(),
                    sink,
                    audit,
                    profiling,
                );
                let elapsed = started.elapsed();
                best = best.min(elapsed.as_secs_f64());
                measured_wall_ns += elapsed.as_nanos() as u64;
                if let Some(prev) = digest {
                    assert_eq!(prev, d, "policy {name} is not run-to-run deterministic");
                }
                digest = Some(d);
            }
            let digest = digest.expect("at least one run");
            let throughput = invocations as f64 / best;
            eprintln!("{name:>16}: {best:7.3} s  ({throughput:11.0} inv/s)");
            entries.push(serde_json::json!({
                "policy": *name,
                "seconds_per_replay": best,
                "invocations_per_sec": throughput,
                "report_digest": format!("{digest:#018x}"),
            }));
            measured.push((name.to_string(), throughput));
            digests.push(Digests {
                policy: name.to_string(),
                report: Some(digest),
                telemetry: None,
            });
        }
    }

    let (gap_block, gap_failed) = if gap {
        let Bench::Batch(scenario) = &bench else {
            unreachable!("streaming scenarios were rejected with --gap");
        };
        let (block, failed) = gap_pass(scenario, &selected, shards, &gap_ceilings);
        (Some(block), failed)
    } else {
        (None, false)
    };

    let (benchmark, functions, nodes, invocations_doc) = match &bench {
        Bench::Batch(s) => (
            "simulate_10k",
            s.trace.functions().len() as u64,
            s.config.total_nodes() as u64,
            s.trace.invocations().len() as u64,
        ),
        Bench::Stream(s) => (
            if scenario_name == "1m" {
                "simulate_1m"
            } else {
                "simulate_stream"
            },
            s.functions as u64,
            s.config.total_nodes() as u64,
            actual_invocations.unwrap_or(s.expected_invocations as u64),
        ),
    };
    // The process's high-water mark over every replay of this scenario.
    let peak_rss = cc_prof::peak_rss_bytes();
    match peak_rss {
        Some(bytes) => eprintln!("peak RSS: {}", cc_prof::fmt_bytes(bytes)),
        None => eprintln!("peak RSS: n/a"),
    }
    let doc = serde_json::json!({
        "benchmark": benchmark,
        "scenario_name": scenario_name,
        "sink": sink.label(),
        "functions": functions,
        "invocations": invocations_doc,
        "nodes": nodes,
        "runs_per_policy": runs as u64,
        "shards": shards.unwrap_or(0) as u64,
        "workers": workers_opt.unwrap_or(0) as u64,
        "aggregate": aggregate,
        "gap": gap_block,
        "peak_rss_bytes": peak_rss,
        "results": entries,
    });
    if let Some(out) = &out {
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
        if let Some(path) = &profile_out {
            std::fs::write(path, cc_prof::to_json(&self_profile))
                .unwrap_or_else(|e| usage_error(&format!("cannot write {path:?}: {e}")));
            eprintln!("wrote {path}");
        }
        if let Some(path) = &profile_trace {
            std::fs::write(path, cc_prof::to_chrome_trace(&self_profile))
                .unwrap_or_else(|e| usage_error(&format!("cannot write {path:?}: {e}")));
            eprintln!("wrote {path}");
        }
    }

    if let Some(path) = digests_match {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read digest file {path:?}: {e}")));
        let reference = parse_digests(&text);
        if reference.is_empty() {
            usage_error(&format!("no report_digest entries in {path:?}"));
        }
        let mut failed = false;
        for measured in &digests {
            let name = &measured.policy;
            let Some(recorded) = reference.iter().find(|r| r.policy == *name) else {
                eprintln!("digests: {name} not in {path}, skipping");
                continue;
            };
            let pairs = [
                ("report", measured.report, recorded.report),
                ("telemetry", measured.telemetry, recorded.telemetry),
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
            eprintln!("digest check failed: the output diverged from the recorded digests");
            std::process::exit(1);
        }
    }

    let mut below: Vec<&str> = Vec::new();
    for (name, floor) in &floors {
        let (_, throughput) = measured
            .iter()
            .find(|(n, _)| n == name)
            .expect("every floor names a selected policy");
        let verdict = if throughput >= floor {
            "ok"
        } else {
            "BELOW FLOOR"
        };
        eprintln!(
            "floor: {name:>16} measured {throughput:11.0} inv/s vs floor {floor:11.0} {verdict}"
        );
        if throughput < floor {
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

/// Prices every selected policy against the scenario's hindsight-optimal
/// DP lower bound (`cc-bound`) and prints one gap row per policy.
///
/// Measured costs come from a dedicated pricing replay per policy — under
/// `--shards` those replays run on the sharded driver with the same worker
/// count, so the invariant is checked against sharded execution itself;
/// other modes price serially (`--workers` results are proven
/// worker-count-independent by the digest parity check, so the serial
/// replay prices the identical run).
///
/// Returns the JSON block embedded under `"gap"` in the output document
/// and whether any row failed: a negative gap (the conservation invariant
/// broke — the bound or the engine's accounting has a bug) or a gap above
/// the policy's `--gap-ceiling`.
fn gap_pass(
    scenario: &BenchScenario,
    selected: &[&str],
    shards: Option<usize>,
    ceilings: &[(String, f64)],
) -> (serde_json::Value, bool) {
    let input = HindsightInput::from_trace(&scenario.trace, &scenario.workload, &scenario.config)
        .unwrap_or_else(|e| usage_error(&format!("--gap: {e}")));
    let reference = GapReport::for_input(&input);
    let lambda = reference.lambda_nanos;
    let price = |name: &str| -> NanoCost {
        let mut policy = policy(name, Some(&scenario.trace)).expect("selected from POLICIES");
        let report = Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
            .run(policy.as_mut());
        measured_cost_of_report(&report, lambda)
    };
    let measured: Vec<(&str, NanoCost)> = match shards {
        Some(workers) => {
            let jobs: Vec<_> = selected
                .iter()
                .map(|&name| move |_sink: &mut NullSink| price(name))
                .collect();
            run_sharded(jobs, workers, &NullSinkFactory)
                .into_iter()
                .zip(selected)
                .map(|(r, &name)| (name, r.outcome.expect("shard panicked")))
                .collect()
        }
        None => selected.iter().map(|&name| (name, price(name))).collect(),
    };
    let mut rows = Vec::new();
    let mut failed = false;
    for (name, cost) in measured {
        let row = reference.policy(name, cost);
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
        rows.push(serde_json::json!({
            "policy": name,
            "measured_nano": row.measured.to_string(),
            "lower_bound_nano": row.lower_bound.to_string(),
            "gap_nano": row.gap.to_string(),
            "gap_pct": row.gap_pct,
            "holds": row.holds(),
            "ceiling_pct": ceiling,
        }));
    }
    let block = serde_json::json!({
        "lambda_nanos": lambda,
        "lower_bound_nano": reference.lower_bound.to_string(),
        "policies": rows,
    });
    (block, failed)
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

/// One replay on the intra-run parallel engine. Returns
/// `(report digest, telemetry digest, invocations)` — the tuple the
/// determinism assertion and the digest file both key on.
fn parallel_once(
    bench: &Bench,
    name: &str,
    options: &ParallelOptions,
    sink: SinkMode,
    audit: bool,
    profiled: bool,
) -> (u64, u64, u64) {
    match bench {
        Bench::Batch(s) => {
            let mut policy = policy(name, Some(&s.trace)).expect("selected from POLICIES");
            let simulation = Simulation::new(s.config.clone(), &s.trace, &s.workload);
            run_parallel_once(simulation, policy.as_mut(), options, sink, audit, profiled)
        }
        Bench::Stream(s) => {
            let mut policy = policy(name, None).expect("streaming runs select no oracle");
            // Per-invocation records at streaming scale would defeat the
            // constant-memory point; the digest then covers the stats and
            // interval samples only.
            let simulation = Simulation::from_source(s.config.clone(), s.source(), &s.workload)
                .without_records();
            run_parallel_once(simulation, policy.as_mut(), options, sink, audit, profiled)
        }
    }
}

fn run_parallel_once<Src: ArrivalSource + Send>(
    simulation: Simulation<'_, Src>,
    policy: &mut dyn Scheduler,
    options: &ParallelOptions,
    sink: SinkMode,
    audit: bool,
    profiled: bool,
) -> (u64, u64, u64) {
    let outcome = match sink {
        SinkMode::Null => {
            let none = None::<std::io::Sink>;
            pipelined(simulation, policy, none, options, profiled).0
        }
        SinkMode::Jsonl if audit => {
            let (outcome, bytes) =
                pipelined(simulation, policy, Some(Vec::new()), options, profiled);
            audit_stream(&bytes.expect("jsonl requested"));
            outcome
        }
        SinkMode::Jsonl => {
            pipelined(simulation, policy, Some(std::io::sink()), options, profiled).0
        }
        SinkMode::Chrome => unreachable!("rejected at argument parsing"),
    };
    (
        outcome.report.digest(),
        outcome.telemetry.digest(),
        outcome.report.stats.invocations(),
    )
}

/// Runs `simulation` on the pipelined engine, under the wall profiler when
/// `profiled`.
fn pipelined<Src: ArrivalSource + Send, W: Write + Send>(
    simulation: Simulation<'_, Src>,
    policy: &mut dyn Scheduler,
    jsonl: Option<W>,
    options: &ParallelOptions,
    profiled: bool,
) -> (ParallelOutcome, Option<W>) {
    if profiled {
        simulation.profiled().run_pipelined(policy, jsonl, options)
    } else {
        simulation.run_pipelined(policy, jsonl, options)
    }
    .expect("pipeline io")
}

/// Runs `simulation` serially into `sink`, under the wall profiler when
/// `profiled`.
fn replay<S: EventSink>(
    simulation: Simulation<'_>,
    policy: &mut dyn Scheduler,
    sink: &mut S,
    profiled: bool,
) -> SimReport {
    if profiled {
        simulation.profiled().run_with_sink(policy, sink)
    } else {
        simulation.run_with_sink(policy, sink)
    }
}

fn check_report(scenario: &BenchScenario, report: &SimReport) -> u64 {
    assert_eq!(
        report.records.len() as u64,
        scenario.trace.invocations().len() as u64
    );
    report.digest()
}

fn run_once(
    scenario: &BenchScenario,
    policy: &mut dyn Scheduler,
    sink: SinkMode,
    audit: bool,
    profiled: bool,
) -> u64 {
    let simulation = Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload);
    let report = match sink {
        SinkMode::Null => replay(simulation, policy, &mut NullSink, profiled),
        SinkMode::Jsonl if audit => {
            // Audit mode keeps the serialized stream in memory and runs
            // the invariant auditor over it after the replay.
            let mut sink = JsonlSink::new(Vec::new());
            let report = replay(simulation, policy, &mut sink, profiled);
            let bytes = sink.finish().expect("writing to memory cannot fail");
            audit_stream(&bytes);
            report
        }
        SinkMode::Jsonl => {
            let mut sink = JsonlSink::new(std::io::sink());
            let report = replay(simulation, policy, &mut sink, profiled);
            assert!(sink.events_written() > 0);
            report
        }
        SinkMode::Chrome => {
            let mut sink = ChromeTraceSink::new(std::io::sink());
            replay(simulation, policy, &mut sink, profiled)
        }
    };
    check_report(scenario, &report)
}

/// Decodes and audits one captured JSONL stream; exits non-zero on a
/// malformed stream or any invariant violation.
fn audit_stream(bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).expect("jsonl output is utf-8");
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

/// One sharded sweep: each selected policy is a shard, dispatched across
/// `workers` threads. Returns the sweep wall-clock and per-shard
/// `(report digest, seconds inside the shard)` in policy order.
fn sharded_sweep(
    scenario: &BenchScenario,
    selected: &[&str],
    workers: usize,
    sink: SinkMode,
    audit: bool,
    profiled: bool,
) -> (f64, Vec<(u64, f64)>) {
    let started = Instant::now();
    let per_shard: Vec<(u64, f64)> = match sink {
        SinkMode::Null => {
            let jobs: Vec<_> = selected
                .iter()
                .map(|&name| {
                    move |_sink: &mut NullSink| {
                        let shard_started = Instant::now();
                        let mut policy =
                            policy(name, Some(&scenario.trace)).expect("selected from POLICIES");
                        let simulation = Simulation::new(
                            scenario.config.clone(),
                            &scenario.trace,
                            &scenario.workload,
                        );
                        let report = replay(simulation, policy.as_mut(), &mut NullSink, profiled);
                        (
                            check_report(scenario, &report),
                            shard_started.elapsed().as_secs_f64(),
                        )
                    }
                })
                .collect();
            run_sharded(jobs, workers, &NullSinkFactory)
                .into_iter()
                .map(|r| r.outcome.expect("shard panicked"))
                .collect()
        }
        SinkMode::Jsonl => {
            let jobs: Vec<_> = selected
                .iter()
                .map(|&name| {
                    move |sink: &mut JsonlSink<Vec<u8>>| {
                        let shard_started = Instant::now();
                        let mut policy =
                            policy(name, Some(&scenario.trace)).expect("selected from POLICIES");
                        let simulation = Simulation::new(
                            scenario.config.clone(),
                            &scenario.trace,
                            &scenario.workload,
                        );
                        let report = replay(simulation, policy.as_mut(), sink, profiled);
                        (
                            check_report(scenario, &report),
                            shard_started.elapsed().as_secs_f64(),
                        )
                    }
                })
                .collect();
            if audit {
                let (results, merged, mux) = run_sharded_jsonl(jobs, workers, Vec::new())
                    .expect("writing to memory cannot fail");
                assert!(
                    mux.events_written > 0,
                    "sharded jsonl run emitted no events"
                );
                audit_stream(&merged);
                results
                    .into_iter()
                    .map(|r| r.outcome.expect("shard panicked"))
                    .collect()
            } else {
                let (results, _, mux) = run_sharded_jsonl(jobs, workers, std::io::sink())
                    .expect("writing to io::sink cannot fail");
                assert!(
                    mux.events_written > 0,
                    "sharded jsonl run emitted no events"
                );
                results
                    .into_iter()
                    .map(|r| r.outcome.expect("shard panicked"))
                    .collect()
            }
        }
        SinkMode::Chrome => unreachable!("rejected at argument parsing"),
    };
    (started.elapsed().as_secs_f64(), per_shard)
}

/// One policy's digests; only `--workers` runs record the telemetry
/// digest.
struct Digests {
    policy: String,
    report: Option<u64>,
    telemetry: Option<u64>,
}

/// Pulls each policy's `report_digest` and `telemetry_digest` out of a
/// file this binary wrote with a line scan (the vendored `serde_json` has
/// no parser, and the schema is shallow enough that one is not needed): a
/// `"policy"` line opens an entry and the digest lines after it fill it.
/// Entries without a report digest are dropped.
fn parse_digests(text: &str) -> Vec<Digests> {
    let hex = |rest: &str| {
        let token = rest.trim().trim_end_matches(',').trim_matches('"');
        u64::from_str_radix(token.strip_prefix("0x").unwrap_or(token), 16).ok()
    };
    let mut entries: Vec<Digests> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"policy\":") {
            entries.push(Digests {
                policy: rest
                    .trim()
                    .trim_end_matches(',')
                    .trim_matches('"')
                    .to_string(),
                report: None,
                telemetry: None,
            });
        } else if let (Some(rest), Some(entry)) =
            (line.strip_prefix("\"report_digest\":"), entries.last_mut())
        {
            entry.report = hex(rest);
        } else if let (Some(rest), Some(entry)) = (
            line.strip_prefix("\"telemetry_digest\":"),
            entries.last_mut(),
        ) {
            entry.telemetry = hex(rest);
        }
    }
    entries.retain(|entry| entry.report.is_some());
    entries
}
