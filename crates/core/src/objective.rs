//! The per-interval optimization objective.

use cc_opt::SeparableObjective;
use cc_types::{Arch, Cost, CostRate, FnChoice, FunctionId, SimDuration};
use cc_workload::Workload;

use crate::{ArchPolicy, ExecObserver};

/// The objective CodeCrunch minimizes each interval: the **estimated mean
/// service time** of the functions invoked in that interval, subject to
/// the keep-alive budget (the paper's `argmin Σ CS_i(j) + EX_i(j)` under
/// the `Σ cost ≤ K_t` constraint).
///
/// For a candidate choice `(C, T, K)` of function `i`:
///
/// - execution time is the observed (EWMA) time on `T`;
/// - if `K ≥ P_est(i)` the function is predicted to re-invoke warm: the
///   start penalty is the decompression time when `C` says compressed,
///   zero otherwise;
/// - if `K < P_est(i)` (or no estimate exists) the re-invocation is
///   predicted cold and pays the full cold start on `T`.
///
/// The keep-alive cost of a choice is `rate(T) × footprint(C) × K`, and
/// the sum across functions must stay within the interval's available
/// budget (accrued credit included — the creditor mechanism).
///
/// In SLA mode an additional penalty drives the optimizer away from
/// choices whose predicted service time exceeds
/// `(1 + sla) × exec_x86` (the uncompressed-warm-on-x86 reference).
pub struct IntervalObjective<'a> {
    /// Functions invoked in the interval, aligning with solutions.
    pub functions: &'a [FunctionId],
    /// Resolved workload specs.
    pub workload: &'a Workload,
    /// Observed execution times.
    pub exec: &'a ExecObserver,
    /// `P_est` per function (aligned with `functions`); `None` = no
    /// estimate yet (predicted cold).
    pub pest: &'a [Option<SimDuration>],
    /// Keep-alive cost rates indexed by [`Arch::index`].
    pub rates: [CostRate; 2],
    /// Available keep-alive budget for this interval's plan; `None` =
    /// unlimited.
    pub budget: Option<Cost>,
    /// SLA mode: allowed fractional increase over warm-x86 service.
    pub sla: Option<f64>,
    /// Architecture restriction.
    pub arch_policy: ArchPolicy,
    /// Compression permission (ablation switch).
    pub allow_compression: bool,
}

impl IntervalObjective<'_> {
    /// Probability that the function re-invokes while still warm under
    /// `choice`, given its `P_est` estimate.
    ///
    /// The paper's rule is binary (`K ≥ P_est` ⇒ warm), but a binary
    /// landscape gives the sub-problem gradient descent no slope to climb
    /// and ignores the heavy tail of real inter-arrival distributions
    /// (`P_est` is mean + one σ; plenty of gaps land beyond it). We model
    /// the re-invocation gap with an exponential-tail CDF scaled so that a
    /// window of exactly `P_est` is ≈86% likely to catch the next
    /// invocation and longer windows keep paying off with diminishing
    /// returns:
    ///
    /// ```text
    /// P(warm | K) = 1 − exp(−2 K / P_est)
    /// ```
    pub fn warm_probability(&self, idx: usize, choice: &FnChoice) -> f64 {
        let Some(pest) = self.pest[idx] else {
            return 0.0; // no estimate: predicted cold
        };
        if !choice.keeps_alive() {
            return 0.0;
        }
        if pest.is_zero() {
            return 1.0;
        }
        let ratio = choice.keep_alive.as_secs_f64() / pest.as_secs_f64();
        1.0 - (-2.0 * ratio).exp()
    }

    /// Predicted service time (seconds) of one function under one choice.
    pub fn predicted_service(&self, idx: usize, choice: &FnChoice) -> f64 {
        let f = self.functions[idx];
        let spec = self.workload.spec(f);
        let exec = self.exec.exec_time(f, choice.arch, self.workload);
        let p_warm = self.warm_probability(idx, choice);
        let warm_penalty = if choice.compress {
            spec.decompress_time(choice.arch)
        } else {
            SimDuration::ZERO
        };
        let cold_penalty = spec.cold_start(choice.arch);
        let penalty =
            p_warm * warm_penalty.as_secs_f64() + (1.0 - p_warm) * cold_penalty.as_secs_f64();
        exec.as_secs_f64() + penalty
    }

    /// Keep-alive cost of one choice.
    pub fn choice_cost(&self, idx: usize, choice: &FnChoice) -> Cost {
        if !choice.keeps_alive() {
            return Cost::ZERO;
        }
        let spec = self.workload.spec(self.functions[idx]);
        let footprint = if choice.compress {
            spec.compressed_memory
        } else {
            spec.memory
        };
        self.rates[choice.arch.index()].keep_alive_cost(footprint, choice.keep_alive)
    }

    /// Total plan cost.
    pub fn plan_cost(&self, solution: &[FnChoice]) -> Cost {
        solution
            .iter()
            .enumerate()
            .map(|(i, c)| self.choice_cost(i, c))
            .sum()
    }

    fn sla_penalty(&self, idx: usize, choice: &FnChoice, service: f64) -> f64 {
        let Some(sla) = self.sla else {
            return 0.0;
        };
        let _ = choice;
        let f = self.functions[idx];
        let reference = self
            .exec
            .exec_time(f, Arch::X86, self.workload)
            .as_secs_f64();
        let limit = (1.0 + sla) * reference;
        if service > limit {
            // Steep, smooth penalty: violations dominate the mean but stay
            // finite so descent has a gradient to follow.
            100.0 * (service - limit)
        } else {
            0.0
        }
    }
}

impl SeparableObjective for IntervalObjective<'_> {
    fn num_functions(&self) -> usize {
        self.functions.len()
    }

    fn service_term(&self, idx: usize, choice: &FnChoice) -> f64 {
        let service = self.predicted_service(idx, choice);
        service + self.sla_penalty(idx, choice, service)
    }

    fn cost_term(&self, idx: usize, choice: &FnChoice) -> f64 {
        self.choice_cost(idx, choice).as_picodollars() as f64
    }

    fn memory_term(&self, idx: usize, choice: &FnChoice) -> f64 {
        if !choice.keeps_alive() {
            return 0.0;
        }
        let spec = self.workload.spec(self.functions[idx]);
        let footprint = if choice.compress {
            spec.compressed_memory
        } else {
            spec.memory
        };
        footprint.as_mb() as f64 * choice.keep_alive.as_mins_f64()
    }

    fn allowed(&self, _idx: usize, choice: &FnChoice) -> bool {
        self.arch_policy.allows(choice.arch) && (self.allow_compression || !choice.compress)
    }

    fn budget(&self) -> Option<f64> {
        self.budget.map(|b| b.as_picodollars() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::MemoryMb;
    use cc_workload::FunctionSpec;

    fn spec(id: u32, exec_x86_s: u64, arm_ratio: f64, cold_s: u64) -> FunctionSpec {
        let exec = SimDuration::from_secs(exec_x86_s);
        FunctionSpec {
            id: FunctionId::new(id),
            profile_name: format!("test{id}"),
            exec: [exec, exec.scale(arm_ratio)],
            cold: [
                SimDuration::from_secs(cold_s),
                SimDuration::from_secs(cold_s).scale(1.25),
            ],
            decompress: [SimDuration::from_millis(300), SimDuration::from_millis(330)],
            compress: SimDuration::from_millis(1500),
            memory: MemoryMb::new(256),
            compressed_memory: MemoryMb::new(100),
        }
    }

    struct Fixture {
        workload: Workload,
        functions: Vec<FunctionId>,
        pest: Vec<Option<SimDuration>>,
        exec: ExecObserver,
    }

    fn fixture() -> Fixture {
        let workload = Workload::from_specs(vec![
            spec(0, 2, 0.8, 3), // ARM faster
            spec(1, 4, 1.3, 2), // x86 faster
        ]);
        Fixture {
            exec: ExecObserver::new(2, 0.3),
            functions: vec![FunctionId::new(0), FunctionId::new(1)],
            pest: vec![
                Some(SimDuration::from_mins(5)),
                Some(SimDuration::from_mins(20)),
            ],
            workload,
        }
    }

    fn objective<'a>(fx: &'a Fixture, budget: Option<Cost>) -> IntervalObjective<'a> {
        IntervalObjective {
            functions: &fx.functions,
            workload: &fx.workload,
            exec: &fx.exec,
            pest: &fx.pest,
            rates: [
                CostRate::paper_rate(Arch::X86),
                CostRate::paper_rate(Arch::Arm),
            ],
            budget,
            sla: None,
            arch_policy: ArchPolicy::Both,
            allow_compression: true,
        }
    }

    /// The exponential-tail warm model: `1 − exp(−2·K/P_est)`.
    fn p_warm(keep_alive_mins: f64, pest_mins: f64) -> f64 {
        1.0 - (-2.0 * keep_alive_mins / pest_mins).exp()
    }

    #[test]
    fn warm_prediction_removes_cold_penalty() {
        let fx = fixture();
        let obj = objective(&fx, None);
        // Function 0's P_est is 5 minutes.
        let no_keep = FnChoice::drop_now(Arch::X86);
        let partial = FnChoice::new(Arch::X86, false, SimDuration::from_mins(1));
        let warm_choice = FnChoice::new(Arch::X86, false, SimDuration::from_mins(10));
        assert_eq!(obj.predicted_service(0, &no_keep), 2.0 + 3.0);
        assert_eq!(obj.warm_probability(0, &no_keep), 0.0);

        let p1 = p_warm(1.0, 5.0);
        assert!((obj.warm_probability(0, &partial) - p1).abs() < 1e-12);
        assert!((obj.predicted_service(0, &partial) - (2.0 + (1.0 - p1) * 3.0)).abs() < 1e-9);

        // A window at 2× P_est is near-certain warm (≈98%).
        let p10 = p_warm(10.0, 5.0);
        assert!(p10 > 0.98);
        assert!((obj.predicted_service(0, &warm_choice) - (2.0 + (1.0 - p10) * 3.0)).abs() < 1e-9);
        // Longer windows keep improving: monotone in keep-alive.
        assert!(obj.predicted_service(0, &warm_choice) < obj.predicted_service(0, &partial));
    }

    #[test]
    fn compressed_warm_pays_decompression() {
        let fx = fixture();
        let obj = objective(&fx, None);
        let c = FnChoice::new(Arch::X86, true, SimDuration::from_mins(10));
        let p = p_warm(10.0, 5.0);
        let expected = 2.0 + p * 0.3 + (1.0 - p) * 3.0;
        assert!((obj.predicted_service(0, &c) - expected).abs() < 1e-9);
    }

    #[test]
    fn arm_choice_uses_arm_times() {
        let fx = fixture();
        let obj = objective(&fx, None);
        let c = FnChoice::new(Arch::Arm, false, SimDuration::from_mins(10));
        let p = p_warm(10.0, 5.0);
        let expected = 1.6 + (1.0 - p) * 3.75; // ARM exec and ARM cold start
        assert!((obj.predicted_service(0, &c) - expected).abs() < 1e-9);
    }

    #[test]
    fn budget_infeasibility() {
        let fx = fixture();
        let generous = objective(&fx, None);
        let broke = objective(&fx, Some(Cost::ZERO));
        let plan = vec![FnChoice::production_default(); 2];
        assert!(generous.is_feasible(&plan));
        assert!(!broke.is_feasible(&plan));
        // Dropping everything costs nothing and is always feasible.
        let drop_all = vec![FnChoice::drop_now(Arch::X86); 2];
        assert!(broke.is_feasible(&drop_all));
    }

    #[test]
    fn compression_halves_plan_cost_roughly() {
        let fx = fixture();
        let obj = objective(&fx, None);
        let raw = vec![FnChoice::new(Arch::X86, false, SimDuration::from_mins(10)); 2];
        let packed = vec![FnChoice::new(Arch::X86, true, SimDuration::from_mins(10)); 2];
        let ratio = obj.plan_cost(&packed).as_picodollars() as f64
            / obj.plan_cost(&raw).as_picodollars() as f64;
        assert!((ratio - 100.0 / 256.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn arch_policy_restricts_feasibility() {
        let fx = fixture();
        let mut obj = objective(&fx, None);
        obj.arch_policy = ArchPolicy::X86Only;
        let arm_plan = vec![FnChoice::new(Arch::Arm, false, SimDuration::from_mins(1)); 2];
        assert!(!obj.is_feasible(&arm_plan));
    }

    #[test]
    fn compression_ban_restricts_feasibility() {
        let fx = fixture();
        let mut obj = objective(&fx, None);
        obj.allow_compression = false;
        let plan = vec![FnChoice::new(Arch::X86, true, SimDuration::from_mins(1)); 2];
        assert!(!obj.is_feasible(&plan));
    }

    #[test]
    fn sla_penalizes_slow_choices() {
        let fx = fixture();
        let mut obj = objective(&fx, None);
        obj.sla = Some(0.2);
        // Cold start on function 0: service 5.0 vs limit 1.2 × 2.0 = 2.4.
        let violating = vec![
            FnChoice::drop_now(Arch::X86),
            FnChoice::new(Arch::X86, false, SimDuration::from_mins(30)),
        ];
        let compliant = vec![
            FnChoice::new(Arch::X86, false, SimDuration::from_mins(10)),
            FnChoice::new(Arch::X86, false, SimDuration::from_mins(30)),
        ];
        assert!(obj.evaluate(&violating) > obj.evaluate(&compliant) + 100.0);
    }

    #[test]
    fn unknown_pest_predicts_cold() {
        let fx = fixture();
        let pest = vec![None, None];
        let obj = IntervalObjective {
            pest: &pest,
            ..objective(&fx, None)
        };
        let c = FnChoice::new(Arch::X86, false, SimDuration::from_mins(60));
        assert_eq!(obj.predicted_service(0, &c), 5.0);
    }
}
