//! Fig. 3: the optimization space is huge and classical optimizers are
//! sub-optimal on it.
//!
//! (a) the joint choice-space size per optimization interval over the
//! trace; (b) mean estimated service time achieved by gradient descent,
//! Newton's method, and a genetic algorithm against the brute-force
//! optimum (the figure's "Oracle") on a representative interval snapshot.

use serde_json::json;

use cc_opt::{
    brute_force, search_space_size, CoordinateDescent, GeneticAlgorithm, NewtonDescent,
    RandomSearch, SeparableObjective, Sre, SreScratch,
};
use cc_types::{Arch, CostRate, FnChoice, FunctionId, SimDuration};
use codecrunch::{ArchPolicy, ExecObserver, IntervalObjective, PestEstimator};

use crate::common::{ExperimentOutput, Scale};
use crate::Experiment;

/// Fig. 3 experiment.
pub struct Fig3;

/// Functions in the brute-forceable snapshot (keeps `(4×menu)^N` exact).
const SNAPSHOT_FUNCTIONS: usize = 5;

impl Experiment for Fig3 {
    fn id(&self) -> &'static str {
        "fig3"
    }

    fn title(&self) -> &'static str {
        "choice-space size over time and classical optimizers vs the exact optimum (Fig. 3)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let trace = scale.trace();
        let workload = scale.workload(&trace);

        // (a) distinct functions invoked per minute -> space size.
        let minute = SimDuration::from_mins(1);
        let mut invoked_per_minute: Vec<std::collections::BTreeSet<FunctionId>> = Vec::new();
        for inv in trace.invocations() {
            let idx = inv.arrival.interval_index(minute) as usize;
            if idx >= invoked_per_minute.len() {
                invoked_per_minute.resize_with(idx + 1, Default::default);
            }
            invoked_per_minute[idx].insert(inv.function);
        }
        let space_log10: Vec<f64> = invoked_per_minute
            .iter()
            .map(|set| {
                let size = search_space_size(set.len());
                if size == u128::MAX {
                    // log10(244) per function, saturated representation.
                    set.len() as f64 * 244f64.log10()
                } else {
                    (size as f64).log10()
                }
            })
            .collect();
        let max_log10 = space_log10.iter().copied().fold(0.0, f64::max);

        // (b) a representative interval snapshot: the most-invoked
        // functions, with P_est fed from their actual arrival history.
        let mut counts = vec![0u64; trace.functions().len()];
        for inv in trace.invocations() {
            counts[inv.function.index()] += 1;
        }
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let functions: Vec<FunctionId> = order
            .iter()
            .take(SNAPSHOT_FUNCTIONS)
            .map(|&i| FunctionId::new(i as u32))
            .collect();

        let mut pest = Vec::new();
        for &f in &functions {
            let mut estimator = PestEstimator::new();
            for inv in trace.invocations().iter().filter(|i| i.function == f) {
                estimator.record(inv.arrival);
            }
            pest.push(estimator.estimate());
        }
        let exec = ExecObserver::new(workload.len(), 0.3);
        // A budget tight enough that the constraint matters but feasible
        // plans exist.
        let mem_sum: u64 = functions
            .iter()
            .map(|&f| workload.spec(f).memory.as_mb() as u64)
            .sum();
        let budget = CostRate::paper_rate(Arch::Arm).keep_alive_cost(
            cc_types::MemoryMb::new(mem_sum as u32),
            SimDuration::from_mins(12),
        );
        let objective = IntervalObjective {
            functions: &functions,
            workload: &workload,
            exec: &exec,
            pest: &pest,
            rates: [
                CostRate::paper_rate(Arch::X86),
                CostRate::paper_rate(Arch::Arm),
            ],
            budget: Some(budget),
            sla: None,
            arch_policy: ArchPolicy::Both,
            allow_compression: true,
        };

        let start = vec![FnChoice::drop_now(Arch::X86); functions.len()];
        let menu: Vec<SimDuration> = [0u64, 2, 5, 10, 20, 40, 60]
            .iter()
            .map(|&m| SimDuration::from_mins(m))
            .collect();
        let exact = brute_force(&objective, &menu);

        let cd = CoordinateDescent::default().optimize(&objective, start.clone());
        let newton = NewtonDescent::default().optimize(&objective, start.clone());
        let ga = GeneticAlgorithm::default().optimize(&objective, start.clone());
        let random = RandomSearch {
            samples: 1000,
            seed: 3,
        }
        .optimize(&objective, start.clone());
        let mut counts_sre = vec![0u32; functions.len()];
        let sre = Sre::scaled_to(functions.len()).optimize(
            &objective,
            start,
            &mut counts_sre,
            &mut SreScratch::default(),
            None,
        );

        // Every row is scored the same way, by one in-order evaluation of
        // its solution: the optimizers form their own costs differently
        // (the descent keeps a running sum), and equally good plans must
        // sort as equals, the oracle first.
        let mut rows: Vec<(&str, f64, u64)> = [
            ("oracle (brute force)", &exact),
            ("gradient descent", &cd),
            ("newton", &newton),
            ("genetic", &ga),
            ("random search", &random),
            ("sre", &sre),
        ]
        .iter()
        .map(|&(name, out)| (name, objective.evaluate(&out.solution), out.evaluations))
        .collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let oracle_cost = rows[0].1;

        let mut lines = vec![
            format!(
                "(a) choice-space size peaks at 10^{max_log10:.0} over {} intervals \
                 (paper: millions and beyond)",
                space_log10.len()
            ),
            format!(
                "(b) estimated mean service time on a {SNAPSHOT_FUNCTIONS}-function interval \
                 snapshot (budget ${:.9}):",
                budget.as_dollars()
            ),
        ];
        for (name, cost, evals) in &rows {
            lines.push(format!("  {name:<22} {cost:>8.3}s  ({evals} evaluations)"));
        }

        let data = json!({
            "space_log10_per_minute": space_log10,
            "optimizers": rows
                .iter()
                .map(|(n, c, e)| json!({"name": n, "cost": c, "evaluations": e}))
                .collect::<Vec<_>>(),
            "oracle_cost": oracle_cost,
        });
        ExperimentOutput::new(self.id(), lines, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_lower_bounds_all_optimizers() {
        let out = Fig3.run(&Scale::smoke());
        let oracle = out.data["oracle_cost"].as_f64().unwrap();
        for opt in out.data["optimizers"].as_array().unwrap() {
            let cost = opt["cost"].as_f64().unwrap();
            assert!(
                cost + 1e-9 >= oracle,
                "{} beat the brute force: {cost} < {oracle}",
                opt["name"]
            );
        }
    }

    #[test]
    fn space_grows_with_load() {
        let out = Fig3.run(&Scale::smoke());
        let series = out.data["space_log10_per_minute"].as_array().unwrap();
        assert!(!series.is_empty());
        let max = series
            .iter()
            .map(|v| v.as_f64().unwrap())
            .fold(0.0, f64::max);
        assert!(max > 2.0, "space should be large, got 10^{max}");
    }
}
