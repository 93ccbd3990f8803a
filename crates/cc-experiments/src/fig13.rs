//! Fig. 13: sensitivity to the keep-alive budget.
//!
//! Paper result: CodeCrunch at 0.5× SitW's spend already matches SitW's
//! service time, and at 0.25× it is only ≈5% worse; more budget keeps
//! helping.

use serde_json::json;

use cc_policies::SitW;
use codecrunch::CodeCrunch;

use crate::common::{run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// Fig. 13 experiment.
pub struct Fig13;

impl Experiment for Fig13 {
    fn id(&self) -> &'static str {
        "fig13"
    }

    fn title(&self) -> &'static str {
        "CodeCrunch service time vs keep-alive budget, against the SitW reference (Fig. 13)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let sitw_budget = sitw_budget_per_interval(&trace, &workload, &unlimited);

        // The dashed reference line: SitW under its own (full) budget.
        let mut sitw = SitW::new();
        let sitw_report = run_policy(
            &mut sitw,
            &unlimited.clone().with_budget(sitw_budget),
            &trace,
            &workload,
        );
        let reference = sitw_report.mean_service_time_secs();

        let multipliers = [0.25, 0.5, 1.0, 2.0];
        let mut lines = vec![format!(
            "SitW reference service time: {reference:.3}s at budget 1.0x"
        )];
        let mut rows = Vec::new();
        for &m in &multipliers {
            let config = unlimited.clone().with_budget(sitw_budget.scale(m));
            let mut policy = CodeCrunch::new();
            let report = run_policy(&mut policy, &config, &trace, &workload);
            lines.push(format!(
                "codecrunch @ {m:>4.2}x budget: {:>8.3}s ({:+.1}% vs SitW), warm {:.1}%, spend ${:.6}",
                report.mean_service_time_secs(),
                (report.mean_service_time_secs() / reference - 1.0) * 100.0,
                report.warm_fraction() * 100.0,
                report.keep_alive_spend.as_dollars()
            ));
            rows.push(json!({
                "budget_multiplier": m,
                "mean_service_secs": report.mean_service_time_secs(),
                "warm_fraction": report.warm_fraction(),
                "spend_dollars": report.keep_alive_spend.as_dollars(),
            }));
        }
        lines.push("(paper: ~SitW-parity at 0.5x, +5% at 0.25x of SitW's expenditure)".to_owned());

        ExperimentOutput::new(
            self.id(),
            lines,
            json!({"sitw_reference_secs": reference, "rows": rows}),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_monotone_in_budget() {
        let out = Fig13.run(&Scale::smoke());
        let rows = out.data["rows"].as_array().unwrap();
        let services: Vec<f64> = rows
            .iter()
            .map(|r| r["mean_service_secs"].as_f64().unwrap())
            .collect();
        // More budget should never make things substantially worse.
        for pair in services.windows(2) {
            assert!(
                pair[1] <= pair[0] * 1.05,
                "service should not degrade with budget: {services:?}"
            );
        }
    }

    #[test]
    fn full_budget_codecrunch_not_worse_than_sitw() {
        let out = Fig13.run(&Scale::smoke());
        let reference = out.data["sitw_reference_secs"].as_f64().unwrap();
        let at_full = out.data["rows"][2]["mean_service_secs"].as_f64().unwrap();
        assert!(
            at_full <= reference * 1.05,
            "codecrunch @1x {at_full} vs sitw {reference}"
        );
    }
}
