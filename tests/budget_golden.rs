//! Budgeted CodeCrunch goldens: the report digest and the JSONL event
//! stream (length and FNV-1a digest) of CodeCrunch under a binding
//! keep-alive budget.
//!
//! The other goldens run without a budget, so SRE's feasibility checks
//! and its repair loop (scaling the just-optimized keep-alive windows down
//! until the spliced solution fits) never decide anything there. Both
//! scenarios here repair on many intervals, and the `opt_round` lines in
//! the JSONL stream pin every round's objective and evaluation count.
//! The constants were captured before SRE kept its term tables across
//! rounds, which must leave them unchanged.
//!
//! The `codecrunch-nosre` goldens pin the Fig. 12 "without SRE" arm (one
//! full-space coordinate descent per interval) on the 60-function
//! scenario, unbudgeted and budgeted; their `opt_round` lines pin that
//! descent's objective and evaluation count on every interval.

mod common;

use codecrunch_suite::prelude::*;
use common::{scenario, STRESS};

/// `(report digest, JSONL length, JSONL digest)` of one budgeted run.
type Golden = (u64, usize, u64);

/// The 60-function golden scenario with $1e-4 of keep-alive credit per
/// interval.
const GOLDEN_SMALL_BUDGETED: Golden = (0x80df3ede8d03577b, 826_330, 0x52f76c2d7c72f2ed);

/// The 400-function stress scale with $1e-3 per interval.
const GOLDEN_STRESS_BUDGETED: Golden = (0xbcd4c0e7f0f61997, 6_771_720, 0x43298affe1fc25d7);

/// `codecrunch-nosre` on the 60-function golden scenario, no budget.
const GOLDEN_SMALL_NOSRE: Golden = (0x588ed670233fb96b, 1_788_794, 0xabd3d963e3fc5554);

/// `codecrunch-nosre` on the 60-function golden scenario with $1e-4 of
/// keep-alive credit per interval.
const GOLDEN_SMALL_NOSRE_BUDGETED: Golden = (0x94ce507dae336cfc, 750_369, 0x5dfce9f736f44d40);

/// Runs CodeCrunch with a JSONL sink attached (which turns on the
/// optimizer's per-round probe) and once without (the unprobed path),
/// asserts the two reports agree, and returns the first run's golden.
fn run(label: &str, scenario: (Trace, Workload, ClusterConfig)) -> Golden {
    run_with(label, scenario, CodeCrunchConfig::default())
}

/// [`run`] with CodeCrunch configured by `codecrunch`.
fn run_with(
    label: &str,
    (trace, workload, config): (Trace, Workload, ClusterConfig),
    codecrunch: CodeCrunchConfig,
) -> Golden {
    let sim = Simulation::new(config, &trace, &workload);
    let mut sink = JsonlSink::new(Vec::new());
    let report = sim.run_with_sink(&mut CodeCrunch::with_config(codecrunch.clone()), &mut sink);
    let stream = sink.finish().expect("in-memory writer cannot fail");
    let got = (report.digest(), stream.len(), fnv1a(&stream));
    assert_eq!(
        sim.run(&mut CodeCrunch::with_config(codecrunch)).digest(),
        got.0,
        "{label}: probing the optimizer perturbed the simulation"
    );
    println!(
        "{label}: digest {:#018x}, jsonl {} bytes, digest {:#018x}",
        got.0, got.1, got.2
    );
    got
}

#[test]
fn codecrunch_matches_the_budgeted_golden() {
    let (trace, workload, config) = scenario();
    let config = config.with_budget(Cost::from_dollars(1e-4));
    assert_eq!(
        run("small budgeted", (trace, workload, config)),
        GOLDEN_SMALL_BUDGETED
    );
}

#[test]
fn codecrunch_matches_the_budgeted_stress_golden() {
    let (trace, workload, config) = STRESS.build();
    let config = config.with_budget(Cost::from_dollars(1e-3));
    assert_eq!(
        run("stress budgeted", (trace, workload, config)),
        GOLDEN_STRESS_BUDGETED
    );
}

fn no_sre() -> CodeCrunchConfig {
    CodeCrunchConfig {
        use_sre: false,
        ..CodeCrunchConfig::default()
    }
}

#[test]
fn codecrunch_without_sre_matches_its_golden() {
    assert_eq!(
        run_with("small nosre", scenario(), no_sre()),
        GOLDEN_SMALL_NOSRE
    );
}

#[test]
fn codecrunch_without_sre_matches_its_budgeted_golden() {
    let (trace, workload, config) = scenario();
    let config = config.with_budget(Cost::from_dollars(1e-4));
    assert_eq!(
        run_with("small nosre budgeted", (trace, workload, config), no_sre()),
        GOLDEN_SMALL_NOSRE_BUDGETED
    );
}
