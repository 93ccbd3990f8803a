//! Property-based integration tests: simulator conservation laws and
//! serialization roundtrips over randomized scenarios.

use proptest::prelude::*;

use cc_experiments::{policy, Scale, POLICIES};
use codecrunch_suite::prelude::*;
use codecrunch_suite::trace::azure;
use codecrunch_suite::types::Cost;

fn arbitrary_scenario() -> impl Strategy<Value = Scale> {
    (0u64..1000, 5usize..40, 30u64..120, 1u32..3, 1u32..3).prop_map(
        |(seed, functions, minutes, x86_nodes, arm_nodes)| Scale {
            functions,
            minutes,
            x86_nodes,
            arm_nodes,
            seed,
            warm_fraction: 1.0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulator_conservation_laws(
        scale in arbitrary_scenario(),
        warm_fraction in 0.1f64..1.0,
    ) {
        let (trace, workload, config) = Scale { warm_fraction, ..scale }.build();
        let mut policy = CodeCrunch::new();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);

        // Every invocation completes exactly once.
        prop_assert_eq!(report.records.len(), trace.invocations().len());
        // Service components are consistent.
        for record in &report.records {
            prop_assert!(record.service_time() >= record.execution);
            prop_assert!(record.kind.is_warm() == (record.kind != StartKind::Cold));
            if record.kind == StartKind::WarmUncompressed {
                prop_assert!(record.start_penalty.is_zero());
            }
        }
        // Warm + cold fractions partition the run.
        let stats = &report.stats;
        prop_assert!((stats.warm_fraction() + stats.cold_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_is_never_overspent(
        scale in arbitrary_scenario(),
        budget_pd in 0u64..50_000_000_000,
    ) {
        let (trace, workload, config) = scale.build();
        let budget = Cost::from_picodollars(budget_pd);
        let config = config.with_budget(budget);
        let mut policy = FixedKeepAlive::ten_minutes();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);

        // Spend cannot exceed the credit accrued through the last instant
        // the simulator touched the ledger — executions (and their
        // keep-alive decisions) drain past the final arrival, so the bound
        // covers completions, not just arrivals.
        let last_touch = report
            .records
            .iter()
            .map(|r| r.completion().as_micros())
            .max()
            .unwrap_or(0)
            .max(trace.duration().as_micros());
        let intervals = last_touch / 60_000_000 + 1;
        prop_assert!(
            report.keep_alive_spend <= budget * intervals,
            "spend {} exceeds accrued {} over {} intervals",
            report.keep_alive_spend,
            budget * intervals,
            intervals
        );
    }

    #[test]
    fn csv_roundtrip_preserves_counts(
        scale in arbitrary_scenario(),
    ) {
        let trace = scale.trace();
        let mut buf = Vec::new();
        azure::write_combined_csv(&trace, &mut buf).expect("write");
        let back = azure::read_combined_csv(&buf[..]).expect("read");
        prop_assert_eq!(back.functions().len(), trace.functions().len());
        prop_assert_eq!(back.invocations().len(), trace.invocations().len());
        for f in trace.functions() {
            prop_assert_eq!(
                trace.per_minute_counts(f.id),
                back.per_minute_counts(f.id)
            );
        }
    }

    #[test]
    fn policies_agree_on_invocation_conservation(
        scale in arbitrary_scenario(),
        policy_idx in 0usize..4,
    ) {
        let (trace, workload, config) = scale.build();
        // sitw, faascache, icebreaker or oracle.
        let mut policy = policy(POLICIES[1 + policy_idx], Some(&trace)).expect("a table policy");
        let report = Simulation::new(config, &trace, &workload).run(policy.as_mut());
        prop_assert_eq!(report.records.len(), trace.invocations().len());
    }
}
