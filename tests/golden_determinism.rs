//! Golden determinism tests for the simulation engine.
//!
//! Two guarantees, both load-bearing for the hot-path refactor:
//!
//! 1. **Determinism**: running any baseline policy twice on the same
//!    scenario yields byte-identical `SimReport`s (digest equality over a
//!    canonical encoding).
//! 2. **Golden equivalence**: the digests match constants captured from
//!    the engine *before* the indexing refactor, proving the refactor is
//!    behavior-preserving — same records, spend, evictions, and series,
//!    not merely "similar" aggregates.
//!
//! If an intentional behavior change ever lands, regenerate the constants
//! with `cargo test -q golden -- --nocapture` and update them in the same
//! commit that changes behavior, explaining why.

mod common;

use codecrunch_suite::prelude::*;
use common::{policy_under_test, scenario};

fn run(policy: &mut dyn Scheduler) -> SimReport {
    let (trace, workload, config) = scenario();
    Simulation::new(config, &trace, &workload).run(policy)
}

/// Golden digests captured from the pre-refactor engine (hash-map pool +
/// per-arrival sorts). The indexing refactor must reproduce them exactly.
const GOLDEN: [(&str, u64); 6] = [
    ("fixed_keepalive", 0x46b0492b8fbd77a0),
    ("sitw", 0x80287e151a53c7d8),
    ("faascache", 0x8e254dc622b61fec),
    ("icebreaker", 0x57edf4152245b8ff),
    ("oracle", 0x8db8e8f26fccd766),
    ("codecrunch", 0xd248939b20b3c7b6),
];

/// Golden FNV-1a digest and length of codecrunch's JSONL event stream on
/// the same scenario. The report digests do not cover the per-round
/// `opt_round` objectives; this pins them (and every other exported
/// event) byte for byte. Captured before the block-sum SRE sampler, which
/// must leave it unchanged.
const GOLDEN_CODECRUNCH_JSONL: (usize, u64) = (1_811_946, 0xe9a127ff1e996abb);

#[test]
fn every_policy_is_deterministic_and_matches_golden() {
    let mut diverged = Vec::new();
    for (name, golden) in GOLDEN {
        let first = run(policy_under_test(name).as_mut());
        let second = run(policy_under_test(name).as_mut());
        let d1 = first.digest();
        let d2 = second.digest();
        println!("policy {name}: digest {d1:#018x}");
        assert_eq!(d1, d2, "policy {name} is not run-to-run deterministic");
        if d1 != golden {
            diverged.push(format!(
                "policy {name}: got {d1:#018x}, expected {golden:#018x}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "engine behavior diverged from the golden digests:\n{}",
        diverged.join("\n")
    );
}

fn run_with_jsonl(policy: &mut dyn Scheduler) -> (SimReport, Vec<u8>) {
    let (trace, workload, config) = scenario();
    let mut sink = JsonlSink::new(Vec::new());
    let report = Simulation::new(config, &trace, &workload).run_with_sink(policy, &mut sink);
    let stream = sink.finish().expect("in-memory writer cannot fail");
    (report, stream)
}

/// The instrumented run must (a) produce a byte-identical JSONL event
/// stream run-to-run that matches its golden digest, and (b) leave the
/// simulation itself untouched: the report digest with a sink attached
/// still matches the golden constant captured from the uninstrumented
/// engine.
#[test]
fn jsonl_event_stream_is_deterministic_and_sink_is_inert() {
    let golden = GOLDEN
        .iter()
        .find(|(name, _)| *name == "codecrunch")
        .expect("codecrunch golden digest")
        .1;
    let (first, stream_a) = run_with_jsonl(policy_under_test("codecrunch").as_mut());
    let (second, stream_b) = run_with_jsonl(policy_under_test("codecrunch").as_mut());
    assert!(!stream_a.is_empty(), "instrumented run emitted no events");
    println!(
        "codecrunch jsonl: {} bytes, digest {:#018x}",
        stream_a.len(),
        fnv1a(&stream_a)
    );
    assert_eq!(
        fnv1a(&stream_a),
        fnv1a(&stream_b),
        "JSONL event stream is not run-to-run deterministic"
    );
    assert_eq!(stream_a, stream_b);
    assert_eq!(
        (stream_a.len(), fnv1a(&stream_a)),
        GOLDEN_CODECRUNCH_JSONL,
        "codecrunch's JSONL event stream diverged from its golden (length, digest)"
    );
    for report in [&first, &second] {
        assert_eq!(
            report.digest(),
            golden,
            "attaching an event sink perturbed the simulation"
        );
    }
}

/// The sharded driver is behavior-preserving: running every policy as a
/// parallel shard (uninstrumented, like a `--shards N` sweep) reproduces
/// the exact golden digests, and the results come back ordered by shard id.
#[test]
fn sharded_sweep_reproduces_golden_digests() {
    let jobs: Vec<_> = GOLDEN
        .iter()
        .map(|&(name, _)| {
            move |_sink: &mut NullSink| {
                let (trace, workload, config) = scenario();
                let mut policy = policy_under_test(name);
                Simulation::new(config, &trace, &workload).run(policy.as_mut())
            }
        })
        .collect();
    let results = run_sharded(jobs, 3, &NullSinkFactory);
    assert_eq!(results.len(), GOLDEN.len());
    for (shard, (result, (name, golden))) in results.iter().zip(GOLDEN).enumerate() {
        let report = result.outcome.as_ref().expect("shard panicked");
        assert_eq!(result.shard as usize, shard, "results not in shard order");
        assert_eq!(
            report.digest(),
            golden,
            "sharded run of {name} diverged from the serial golden digest"
        );
    }
}

/// A `--shards 1` instrumented run must produce byte-identical JSONL to
/// the serial `JsonlSink` path: same events, same encoding, no shard
/// markers.
#[test]
fn single_shard_jsonl_is_byte_identical_to_serial() {
    let (_, serial_stream) = run_with_jsonl(policy_under_test("codecrunch").as_mut());

    let job = |sink: &mut JsonlSink<Vec<u8>>| {
        let (trace, workload, config) = scenario();
        let mut policy = policy_under_test("codecrunch");
        Simulation::new(config, &trace, &workload).run_with_sink(policy.as_mut(), sink)
    };
    let (results, sharded_stream, mux) =
        run_sharded_jsonl(vec![job], 1, Vec::new()).expect("in-memory mux cannot fail");
    let report = results[0].outcome.as_ref().expect("shard panicked");

    assert_eq!(
        fnv1a(&sharded_stream),
        fnv1a(&serial_stream),
        "single-shard mux bytes diverge from the serial JSONL stream"
    );
    assert_eq!(sharded_stream, serial_stream);
    assert_eq!(mux.events_written, results[0].sink.sent);
    let golden = GOLDEN
        .iter()
        .find(|(name, _)| *name == "codecrunch")
        .unwrap()
        .1;
    assert_eq!(
        report.digest(),
        golden,
        "sharded JSONL instrumentation perturbed the simulation"
    );
}

#[test]
fn digest_is_sensitive_to_report_contents() {
    let mut report = run(policy_under_test("sitw").as_mut());
    let base = report.digest();
    report.evictions += 1;
    assert_ne!(base, report.digest(), "digest ignores evictions");
    report.evictions -= 1;
    assert_eq!(base, report.digest());
    if let Some(sample) = report.intervals.first_mut() {
        sample.utilization += 1.0;
        assert_ne!(base, report.digest(), "digest ignores series");
    }
}
