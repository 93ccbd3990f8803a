//! Property tests for CodeCrunch's interval objective.

use proptest::prelude::*;

use cc_opt::SeparableObjective;
use cc_types::{Arch, Cost, CostRate, FnChoice, FunctionId, MemoryMb, SimDuration};
use cc_workload::{FunctionSpec, Workload};
use codecrunch::{ArchPolicy, ExecObserver, IntervalObjective};

fn spec(id: u32, exec_ms: u64, mem: u32) -> FunctionSpec {
    let exec = SimDuration::from_millis(exec_ms);
    FunctionSpec {
        id: FunctionId::new(id),
        profile_name: format!("prop{id}"),
        exec: [exec, exec.scale(1.2)],
        cold: [
            SimDuration::from_millis(exec_ms / 2 + 500),
            SimDuration::from_millis((exec_ms / 2 + 500) * 5 / 4),
        ],
        decompress: [SimDuration::from_millis(300), SimDuration::from_millis(330)],
        compress: SimDuration::from_millis(1500),
        memory: MemoryMb::new(mem),
        compressed_memory: MemoryMb::new((mem * 2 / 5).max(1)),
    }
}

fn choice_strategy() -> impl Strategy<Value = FnChoice> {
    (0u8..2, any::<bool>(), 0u64..=60).prop_map(|(arch, compress, mins)| {
        FnChoice::new(Arch::from_bit(arch), compress, SimDuration::from_mins(mins))
    })
}

proptest! {
    #[test]
    fn objective_terms_are_finite_and_consistent(
        fns in prop::collection::vec((100u64..30_000, 64u32..2048), 1..12),
        choices_seed in prop::collection::vec(choice_strategy(), 12),
        pest_mins in prop::collection::vec(prop::option::of(1u64..120), 12),
        budget_pd in prop::option::of(0u64..1_000_000_000_000),
    ) {
        let n = fns.len();
        let specs: Vec<FunctionSpec> = fns
            .iter()
            .enumerate()
            .map(|(i, &(exec, mem))| spec(i as u32, exec, mem))
            .collect();
        let workload = Workload::from_specs(specs);
        let functions: Vec<FunctionId> = (0..n).map(|i| FunctionId::new(i as u32)).collect();
        let exec = ExecObserver::new(n, 0.3);
        let pest: Vec<Option<SimDuration>> = pest_mins[..n]
            .iter()
            .map(|m| m.map(SimDuration::from_mins))
            .collect();
        let objective = IntervalObjective {
            functions: &functions,
            workload: &workload,
            exec: &exec,
            pest: &pest,
            rates: [CostRate::paper_rate(Arch::X86), CostRate::paper_rate(Arch::Arm)],
            budget: budget_pd.map(Cost::from_picodollars),
            sla: None,
            arch_policy: ArchPolicy::Both,
            allow_compression: true,
        };
        let solution: Vec<FnChoice> = choices_seed[..n].to_vec();

        // Every term is finite and non-negative, and the provided float
        // feasibility agrees with the integer plan cost (totals here stay
        // far below 2^53 picodollars).
        for (i, c) in solution.iter().enumerate() {
            let service = objective.predicted_service(i, c);
            prop_assert!(service.is_finite() && service > 0.0);
            let p = objective.warm_probability(i, c);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(SeparableObjective::service_term(&objective, i, c).is_finite());
        }
        prop_assert!(objective.evaluate(&solution).is_finite());
        let within_budget = objective
            .budget
            .is_none_or(|budget| objective.plan_cost(&solution) <= budget);
        prop_assert_eq!(within_budget, objective.is_feasible(&solution));

        // Dropping everything is always feasible and costs nothing.
        let drop_all: Vec<FnChoice> = (0..n).map(|_| FnChoice::drop_now(Arch::X86)).collect();
        prop_assert!(objective.is_feasible(&drop_all));
        prop_assert_eq!(objective.plan_cost(&drop_all), Cost::ZERO);
    }

    #[test]
    fn longer_windows_never_hurt_predicted_service(
        exec_ms in 100u64..30_000,
        pest_mins in 1u64..120,
        compress in any::<bool>(),
        arch_bit in 0u8..2,
    ) {
        let workload = Workload::from_specs(vec![spec(0, exec_ms, 512)]);
        let functions = [FunctionId::new(0)];
        let exec = ExecObserver::new(1, 0.3);
        let pest = [Some(SimDuration::from_mins(pest_mins))];
        let objective = IntervalObjective {
            functions: &functions,
            workload: &workload,
            exec: &exec,
            pest: &pest,
            rates: [CostRate::paper_rate(Arch::X86), CostRate::paper_rate(Arch::Arm)],
            budget: None,
            sla: None,
            arch_policy: ArchPolicy::Both,
            allow_compression: true,
        };
        let arch = Arch::from_bit(arch_bit);
        let mut previous = f64::INFINITY;
        for mins in [0u64, 1, 2, 5, 10, 20, 40, 60] {
            let c = FnChoice::new(arch, compress, SimDuration::from_mins(mins));
            let service = objective.predicted_service(0, &c);
            // The favorable direction: more keep-alive, same or better
            // predicted service (decompression < cold here by spec
            // construction: 0.3s vs >= 0.55s).
            prop_assert!(
                service <= previous + 1e-12,
                "service {service} rose at {mins}min (prev {previous})"
            );
            previous = service;
        }
    }

    #[test]
    fn plan_cost_is_additive_and_monotone(
        mems in prop::collection::vec(64u32..2048, 2..8),
        mins in 1u64..=60,
    ) {
        let n = mems.len();
        let specs: Vec<FunctionSpec> = mems
            .iter()
            .enumerate()
            .map(|(i, &mem)| spec(i as u32, 1000, mem))
            .collect();
        let workload = Workload::from_specs(specs);
        let functions: Vec<FunctionId> = (0..n).map(|i| FunctionId::new(i as u32)).collect();
        let exec = ExecObserver::new(n, 0.3);
        let pest: Vec<Option<SimDuration>> = vec![None; n];
        let objective = IntervalObjective {
            functions: &functions,
            workload: &workload,
            exec: &exec,
            pest: &pest,
            rates: [CostRate::paper_rate(Arch::X86), CostRate::paper_rate(Arch::Arm)],
            budget: None,
            sla: None,
            arch_policy: ArchPolicy::Both,
            allow_compression: true,
        };
        let window = SimDuration::from_mins(mins);
        let raw: Vec<FnChoice> = (0..n).map(|_| FnChoice::new(Arch::X86, false, window)).collect();
        let packed: Vec<FnChoice> = (0..n).map(|_| FnChoice::new(Arch::X86, true, window)).collect();
        let on_arm: Vec<FnChoice> = (0..n).map(|_| FnChoice::new(Arch::Arm, false, window)).collect();

        // Additivity: total = Σ per-choice.
        let total: Cost = (0..n).map(|i| objective.choice_cost(i, &raw[i])).sum();
        prop_assert_eq!(objective.plan_cost(&raw), total);
        // Compression and ARM each reduce cost.
        prop_assert!(objective.plan_cost(&packed) < objective.plan_cost(&raw));
        prop_assert!(objective.plan_cost(&on_arm) < objective.plan_cost(&raw));
    }
}
