//! End-to-end integration tests: full trace → workload → simulator →
//! policy pipelines across the whole workspace.

use cc_experiments::{policy, Scale, POLICIES};
use codecrunch_suite::prelude::*;

fn scenario(seed: u64) -> Scale {
    Scale {
        functions: 50,
        minutes: 150,
        x86_nodes: 2,
        arm_nodes: 3,
        seed,
        warm_fraction: 0.3,
    }
}

/// The scenario under a per-minute budget of `fraction` of SitW's
/// natural keep-alive spend.
fn budgeted(seed: u64, fraction: f64) -> (Trace, Workload, ClusterConfig) {
    let (trace, workload, config) = scenario(seed).build();
    let mut probe = SitW::new();
    let natural = Simulation::new(config.clone(), &trace, &workload).run(&mut probe);
    let minutes = trace.duration().as_mins_f64().max(1.0);
    let config = config.with_budget(natural.keep_alive_spend.scale(fraction / minutes));
    (trace, workload, config)
}

#[test]
fn every_policy_serves_every_invocation() {
    let (trace, workload, config) = budgeted(100, 1.0);
    let table = POLICIES.map(|name| policy(name, Some(&trace)).expect("a table policy"));
    let enhanced: Box<dyn Scheduler> = Box::new(Enhanced::new(SitW::new()));
    for mut policy in table.into_iter().chain([enhanced]) {
        let report = Simulation::new(config.clone(), &trace, &workload).run(policy.as_mut());
        assert_eq!(
            report.records.len(),
            trace.invocations().len(),
            "{} lost invocations",
            report.policy
        );
        // Each record's service time includes its execution.
        for record in &report.records {
            assert!(record.service_time() >= record.execution);
        }
    }
}

#[test]
fn oracle_is_the_lower_bound() {
    let (trace, workload, config) = budgeted(101, 1.0);
    let mut oracle = Oracle::new(&trace);
    let r_oracle = Simulation::new(config.clone(), &trace, &workload).run(&mut oracle);
    for policy in [
        Box::new(SitW::new()) as Box<dyn Scheduler>,
        Box::new(FixedKeepAlive::ten_minutes()),
        Box::new(CodeCrunch::new()),
    ] {
        let mut policy = policy;
        let report = Simulation::new(config.clone(), &trace, &workload).run(policy.as_mut());
        assert!(
            report.mean_service_time_secs() >= r_oracle.mean_service_time_secs() * 0.97,
            "{} ({:.3}s) undercut the oracle ({:.3}s)",
            report.policy,
            report.mean_service_time_secs(),
            r_oracle.mean_service_time_secs()
        );
    }
}

#[test]
fn codecrunch_beats_the_baseline_under_pressure() {
    let (trace, workload, config) = budgeted(102, 0.5);
    let mut sitw = SitW::new();
    let mut crunch = CodeCrunch::new();
    let r_sitw = Simulation::new(config.clone(), &trace, &workload).run(&mut sitw);
    let r_crunch = Simulation::new(config, &trace, &workload).run(&mut crunch);
    assert!(
        r_crunch.mean_service_time_secs() <= r_sitw.mean_service_time_secs() * 1.02,
        "codecrunch {:.3}s vs sitw {:.3}s",
        r_crunch.mean_service_time_secs(),
        r_sitw.mean_service_time_secs()
    );
    assert!(
        r_crunch.warm_fraction() >= r_sitw.warm_fraction() - 0.02,
        "codecrunch warm {:.3} vs sitw {:.3}",
        r_crunch.warm_fraction(),
        r_sitw.warm_fraction()
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (trace, workload, config) = budgeted(103, 0.7);
        let mut crunch = CodeCrunch::new();
        let report = Simulation::new(config, &trace, &workload).run(&mut crunch);
        (
            report.records.clone(),
            report.keep_alive_spend,
            report.compression_events,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn perturbed_runs_complete_and_adapt() {
    let scale = scenario(104);
    let burst = Perturbation::Burst {
        at: SimTime::ZERO + SimDuration::from_mins(60),
        duration: SimDuration::from_mins(10),
        factor: 2.5,
    };
    let trace = burst.apply_to_trace(scale.trace(), 1);
    let workload = scale.workload(&trace);
    let config = ClusterConfig::small(2, 3);
    let mut crunch = CodeCrunch::new();
    let report = Simulation::new(config, &trace, &workload)
        .with_perturbations(vec![Perturbation::InputChange {
            at: SimTime::ZERO + SimDuration::from_mins(30),
            factor: 1.5,
        }])
        .run(&mut crunch);
    assert_eq!(report.records.len(), trace.invocations().len());
}

#[test]
fn facade_prelude_covers_the_workflow() {
    // The doc-advertised prelude path compiles and runs end to end.
    let trace = SyntheticTrace::builder()
        .functions(10)
        .duration(SimDuration::from_mins(20))
        .seed(9)
        .build();
    let workload = Workload::from_trace(
        &trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    let mut policy = CodeCrunch::new();
    let report =
        Simulation::new(ClusterConfig::paper_cluster(), &trace, &workload).run(&mut policy);
    assert!(report.mean_service_time_secs() > 0.0);
}
