//! §3.1: sensitivity of CodeCrunch to the `P_est` local window size.
//!
//! Paper result: with *local* defined as anywhere from the last 2 to the
//! last 100 invocations, CodeCrunch's effectiveness changes by no more
//! than 2.6% — the estimator blends local and global statistics, so the
//! window size is not a sensitive hyperparameter.

use serde_json::json;

use codecrunch::{CodeCrunch, CodeCrunchConfig};

use crate::common::{run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// P_est window-sensitivity experiment.
pub struct TabPestWindow;

impl Experiment for TabPestWindow {
    fn id(&self) -> &'static str {
        "tab_pest_window"
    }

    fn title(&self) -> &'static str {
        "sensitivity to the P_est local window size (paper §3.1: ≤2.6% from 2 to 100)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited).scale(0.5);
        let config = unlimited.with_budget(budget);

        let windows = [2usize, 5, 10, 25, 100];
        let mut lines = vec![format!(
            "{:<10} {:>12} {:>8}",
            "window", "service (s)", "warm %"
        )];
        let mut services = Vec::new();
        let mut rows = Vec::new();
        for &window in &windows {
            let mut policy = CodeCrunch::with_config(CodeCrunchConfig {
                pest_local_window: window,
                ..CodeCrunchConfig::default()
            });
            let report = run_policy(&mut policy, &config, &trace, &workload);
            lines.push(format!(
                "{:<10} {:>12.3} {:>7.1}%",
                window,
                report.mean_service_time_secs(),
                report.warm_fraction() * 100.0
            ));
            services.push(report.mean_service_time_secs());
            rows.push(json!({
                "window": window,
                "mean_service_secs": report.mean_service_time_secs(),
                "warm_fraction": report.warm_fraction(),
            }));
        }
        let min = services.iter().copied().fold(f64::INFINITY, f64::min);
        let max = services.iter().copied().fold(0.0, f64::max);
        let spread = (max / min - 1.0) * 100.0;
        lines.push(format!(
            "service-time spread across windows: {spread:.1}% (paper: <=2.6%)"
        ));

        ExperimentOutput::new(
            self.id(),
            lines,
            json!({"rows": rows, "spread_percent": spread}),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_size_is_not_a_sensitive_hyperparameter() {
        let out = TabPestWindow.run(&Scale::smoke());
        let spread = out.data["spread_percent"].as_f64().unwrap();
        // Paper: ≤2.6% at Azure scale; allow more slack at smoke scale.
        assert!(spread < 10.0, "spread {spread}% too sensitive");
    }
}
