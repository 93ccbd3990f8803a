//! Intra-run parallel engine parity tests.
//!
//! `Simulation::run_pipelined` pipelines one simulation across threads (arrival
//! prefetch, window-batched event encoding, ordered write-out, telemetry
//! folding) while the decision core runs the exact serial loop. These
//! tests pin the headline guarantee: for every policy and every worker
//! count, the parallel engine produces the **same bytes** as the serial
//! engine — report digest, telemetry digest, and the JSONL event stream —
//! and the stream still satisfies the cc-replay invariant auditor.

mod common;

use cc_experiments::{Scale, POLICIES};
use codecrunch_suite::prelude::*;
use codecrunch_suite::sim::{ClusterView, Command, KeepDecision};
use common::{assert_folds_agree, policy_for, policy_under_test, scenario, serial_reference};

fn parallel_run(
    policy: &mut dyn Scheduler,
    options: &ParallelOptions,
) -> (ParallelOutcome, Vec<u8>) {
    let (trace, workload, config) = scenario();
    let (outcome, bytes) = Simulation::new(config, &trace, &workload)
        .run_pipelined(policy, Some(Vec::new()), options)
        .expect("in-memory pipeline cannot fail");
    (outcome, bytes.expect("jsonl requested"))
}

/// Every policy, at workers ∈ {1, 2, 3, 4, 8}: report digest, telemetry
/// digest, and JSONL bytes all equal the serial run's, and in every run
/// the telemetry fold agrees with the report.
#[test]
fn every_policy_matches_serial_at_every_worker_count() {
    for name in POLICIES {
        let (serial_report, serial_bytes, serial_tel) =
            serial_reference(policy_under_test(name).as_mut());
        assert_folds_agree(&format!("{name} serial"), &serial_report, &serial_tel);
        let serial_tel = serial_tel.digest();
        for workers in [1usize, 2, 3, 4, 8] {
            let options = ParallelOptions::default()
                .with_workers(workers)
                .with_window(SimDuration::from_secs(30));
            let (outcome, bytes) = parallel_run(policy_under_test(name).as_mut(), &options);
            assert_folds_agree(
                &format!("{name} at {workers} workers"),
                &outcome.report,
                &outcome.telemetry,
            );
            assert_eq!(
                outcome.report.digest(),
                serial_report.digest(),
                "policy {name}: report digest diverged at {workers} workers"
            );
            assert_eq!(
                outcome.telemetry.digest(),
                serial_tel,
                "policy {name}: telemetry digest diverged at {workers} workers"
            );
            assert_eq!(
                bytes, serial_bytes,
                "policy {name}: JSONL bytes diverged at {workers} workers"
            );
        }
    }
}

/// The parallel JSONL stream passes the cc-replay invariant auditor with
/// zero violations — same bar the serial stream is held to.
#[test]
fn parallel_jsonl_passes_the_replay_auditor() {
    let options = ParallelOptions::default().with_workers(3);
    let (outcome, bytes) = parallel_run(policy_under_test("codecrunch").as_mut(), &options);
    assert!(outcome.events > 0);
    let text = std::str::from_utf8(&bytes).expect("jsonl is utf-8");
    let log = decode_stream(text).expect("parallel stream decodes");
    let report = audit_log(&log, false);
    assert!(
        report.is_clean(),
        "parallel stream violates invariants:\n{}",
        report.summary()
    );
}

/// An adversarial policy that pre-warms on every interval tick: the
/// prewarm commands (and their budget/admission events) are timestamped
/// exactly at `k * interval` — which, with `window == interval`, is
/// exactly a batch-window boundary. Keep-alive is exactly one interval, so
/// expiries crowd the boundaries too. Any off-by-one in the window-crossing
/// flush (`at >= window_end` vs `>`) would reorder these events relative
/// to the serial stream.
struct BoundaryProber;

impl Scheduler for BoundaryProber {
    fn name(&self) -> &str {
        "boundary_prober"
    }

    fn place(&mut self, _function: FunctionId, _view: &ClusterView<'_>) -> Arch {
        Arch::X86
    }

    fn on_completion(
        &mut self,
        _function: FunctionId,
        _arch: Arch,
        _view: &ClusterView<'_>,
    ) -> KeepDecision {
        KeepDecision::uncompressed(SimDuration::from_mins(1))
    }

    fn on_interval(&mut self, _view: &ClusterView<'_>) -> Vec<Command> {
        (0..4)
            .map(|i| Command::Prewarm {
                function: FunctionId::new(i),
                arch: if i % 2 == 0 { Arch::X86 } else { Arch::Arm },
                keep_alive: SimDuration::from_mins(1),
                compress: i % 3 == 0,
            })
            .collect()
    }
}

#[test]
fn prewarms_landing_exactly_on_window_boundaries_stay_in_order() {
    let (serial_report, serial_bytes, serial_tel) = serial_reference(&mut BoundaryProber);
    let serial_tel = serial_tel.digest();
    assert!(!serial_bytes.is_empty());
    // window == interval: tick-timestamped events sit exactly on batch
    // boundaries. 61s and 1s probe misaligned and dense flushing around
    // the same instants.
    for window_secs in [60u64, 61, 1] {
        for workers in [1usize, 2, 4] {
            let options = ParallelOptions::default()
                .with_workers(workers)
                .with_window(SimDuration::from_secs(window_secs));
            let (outcome, bytes) = parallel_run(&mut BoundaryProber, &options);
            assert_eq!(
                outcome.report.digest(),
                serial_report.digest(),
                "report digest diverged (window {window_secs}s, {workers} workers)"
            );
            assert_eq!(
                outcome.telemetry.digest(),
                serial_tel,
                "telemetry digest diverged (window {window_secs}s, {workers} workers)"
            );
            assert_eq!(
                bytes, serial_bytes,
                "JSONL bytes diverged (window {window_secs}s, {workers} workers)"
            );
        }
    }
    // The boundary-crowded stream also satisfies the auditor.
    let text = String::from_utf8(serial_bytes).expect("jsonl is utf-8");
    let log = decode_stream(&text).expect("stream decodes");
    assert!(audit_log(&log, false).is_clean());
}

/// Satellite: window-barrier determinism over *randomized* scenarios, not
/// just the golden one. Each case draws a fresh trace, cluster shape, and
/// flush window, then checks that every worker count in {1, 2, 3, 4, 8}
/// reproduces the serial report and telemetry digests exactly.
mod randomized {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn digests_are_worker_count_independent(
            seed in 0u64..1000,
            functions in 5usize..30,
            minutes in 20u64..60,
            warm_fraction in 0.15f64..0.9,
            policy_index in 0usize..6,
            window_secs in 1u64..120,
        ) {
            let scale = Scale {
                functions,
                minutes,
                x86_nodes: 2,
                arm_nodes: 2,
                seed,
                warm_fraction,
            };
            let (trace, workload, config) = scale.build();
            let name = POLICIES[policy_index];

            let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
            let serial_report = Simulation::new(config, &trace, &workload)
                .run_with_sink(policy_for(name, &trace).as_mut(), &mut tee);
            let serial_bytes = tee.0.finish().expect("in-memory writer cannot fail");
            let serial_tel = tee.1.digest();

            for workers in [1usize, 2, 3, 4, 8] {
                let config = scale.cluster();
                let options = ParallelOptions::default()
                    .with_workers(workers)
                    .with_window(SimDuration::from_secs(window_secs));
                let (outcome, bytes) = Simulation::new(config, &trace, &workload)
                    .run_pipelined(policy_for(name, &trace).as_mut(), Some(Vec::new()), &options)
                    .expect("in-memory pipeline cannot fail");
                prop_assert_eq!(
                    outcome.report.digest(),
                    serial_report.digest(),
                    "policy {} report digest diverged at {} workers",
                    name,
                    workers
                );
                prop_assert_eq!(
                    outcome.telemetry.digest(),
                    serial_tel,
                    "policy {} telemetry digest diverged at {} workers",
                    name,
                    workers
                );
                prop_assert_eq!(
                    bytes.expect("jsonl requested"),
                    serial_bytes.clone(),
                    "policy {} JSONL bytes diverged at {} workers",
                    name,
                    workers
                );
            }
        }
    }
}
