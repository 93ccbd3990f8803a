//! Fig. 9: operating under a service-time SLA.
//!
//! Paper result: at a 20% allowed increase over an uncompressed warm x86
//! start, CodeCrunch violates the SLA for only 1.8% of functions while the
//! competing techniques violate it for >19%.

use serde_json::json;

use cc_sim::SimReport;
use cc_types::Arch;
use cc_workload::Workload;
use codecrunch::{CodeCrunch, CodeCrunchConfig};

use crate::common::{policy, run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// Fig. 9 experiment.
pub struct Fig9;

/// Fraction of invocations violating a `(1 + sla) × warm-x86` service
/// target.
fn violation_fraction(report: &SimReport, workload: &Workload, sla: f64) -> f64 {
    if report.records.is_empty() {
        return 0.0;
    }
    let violations = report
        .records
        .iter()
        .filter(|r| {
            let reference = workload.spec(r.function).exec_time(Arch::X86).as_secs_f64();
            r.service_time().as_secs_f64() > (1.0 + sla) * reference
        })
        .count();
    violations as f64 / report.records.len() as f64
}

impl Experiment for Fig9 {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "SLA-violation fraction vs allowed service-time increase (Fig. 9)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let trace = scale.trace();
        let workload = scale.workload(&trace);
        // The SLA study runs without the warm-memory cap (the paper's SLA
        // experiment assumes the provider provisions for the SLA) but under
        // SitW's budget, so protection is a matter of *allocating* credit
        // to the functions whose cold starts would violate.
        let unlimited = scale.cluster().with_warm_memory_fraction(1.0);
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited);
        let config = unlimited.with_budget(budget);

        let slas = [0.05, 0.10, 0.20, 0.30];
        let mut lines = vec![format!(
            "{:<16} {}",
            "policy",
            slas.iter()
                .map(|s| format!("{:>9}", format!("sla {:.0}%", s * 100.0)))
                .collect::<Vec<_>>()
                .join(" ")
        )];
        let mut rows = Vec::new();

        // Baselines run once (they are SLA-oblivious); CodeCrunch runs per
        // SLA with the constraint active.
        for name in ["sitw", "faascache", "icebreaker"] {
            let mut policy = policy(name, None).expect("a table policy");
            let report = run_policy(policy.as_mut(), &config, &trace, &workload);
            let fractions: Vec<f64> = slas
                .iter()
                .map(|&s| violation_fraction(&report, &workload, s))
                .collect();
            lines.push(format!(
                "{:<16} {}",
                name,
                fractions
                    .iter()
                    .map(|f| format!("{:>8.1}%", f * 100.0))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            rows.push(json!({"policy": name, "violations": fractions}));
        }

        let mut fractions = Vec::new();
        for &sla in &slas {
            let mut policy = CodeCrunch::with_config(CodeCrunchConfig {
                sla_allowed_increase: Some(sla),
                ..CodeCrunchConfig::default()
            });
            let report = run_policy(&mut policy, &config, &trace, &workload);
            fractions.push(violation_fraction(&report, &workload, sla));
        }
        lines.push(format!(
            "{:<16} {}",
            "codecrunch-sla",
            fractions
                .iter()
                .map(|f| format!("{:>8.1}%", f * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        lines.push("(paper @20% SLA: CodeCrunch 1.8% violations, all others >19%)".to_owned());
        rows.push(json!({"policy": "codecrunch-sla", "violations": fractions}));

        ExperimentOutput::new(self.id(), lines, json!({"slas": slas, "rows": rows}))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codecrunch_sla_violates_least_at_20_percent() {
        let out = Fig9.run(&Scale::smoke());
        let rows = out.data["rows"].as_array().unwrap();
        let at_20 = |name: &str| {
            rows.iter().find(|r| r["policy"] == name).unwrap()["violations"][2]
                .as_f64()
                .unwrap()
        };
        let crunch = at_20("codecrunch-sla");
        for baseline in ["sitw", "faascache", "icebreaker"] {
            assert!(
                crunch <= at_20(baseline) + 0.02,
                "codecrunch-sla {crunch} vs {baseline} {}",
                at_20(baseline)
            );
        }
    }
}
