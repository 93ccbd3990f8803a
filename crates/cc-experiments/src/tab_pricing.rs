//! §5: CodeCrunch is effective even when both processor types cost the
//! same to reserve.
//!
//! Paper result: equal pricing moves the mean service time from 6.75 s to
//! only 6.87 s — scheduling decisions rest on relative execution times,
//! compression-friendliness, and invocation frequency, not the price gap.

use serde_json::json;

use codecrunch::CodeCrunch;

use crate::common::{run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// Pricing-sensitivity experiment.
pub struct TabPricing;

impl Experiment for TabPricing {
    fn id(&self) -> &'static str {
        "tab_pricing"
    }

    fn title(&self) -> &'static str {
        "equal x86/ARM pricing sensitivity (§5 pricing study)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, base) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &base).scale(0.5);

        let paper_pricing = base.clone().with_budget(budget);
        let equal_pricing = base.with_equal_pricing().with_budget(budget);

        let mut p1 = CodeCrunch::new();
        let mut p2 = CodeCrunch::new();
        let r_paper = run_policy(&mut p1, &paper_pricing, &trace, &workload);
        let r_equal = run_policy(&mut p2, &equal_pricing, &trace, &workload);

        let lines = vec![
            format!(
                "paper pricing (ARM cheaper): {:.3}s mean service, warm {:.1}%",
                r_paper.mean_service_time_secs(),
                r_paper.warm_fraction() * 100.0
            ),
            format!(
                "equal pricing:               {:.3}s mean service, warm {:.1}%",
                r_equal.mean_service_time_secs(),
                r_equal.warm_fraction() * 100.0
            ),
            format!(
                "difference: {:+.1}% (paper: 6.75s -> 6.87s, +1.8%)",
                (r_equal.mean_service_time_secs() / r_paper.mean_service_time_secs() - 1.0) * 100.0
            ),
        ];
        let data = json!({
            "paper_pricing_secs": r_paper.mean_service_time_secs(),
            "equal_pricing_secs": r_equal.mean_service_time_secs(),
        });
        ExperimentOutput::new(self.id(), lines, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pricing_model_barely_matters() {
        let out = TabPricing.run(&Scale::smoke());
        let paper = out.data["paper_pricing_secs"].as_f64().unwrap();
        let equal = out.data["equal_pricing_secs"].as_f64().unwrap();
        // The paper reports a <2% shift; allow 15% at smoke scale.
        assert!(
            (equal / paper - 1.0).abs() < 0.15,
            "pricing shift too large: {paper} vs {equal}"
        );
    }
}
