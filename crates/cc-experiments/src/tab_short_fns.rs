//! §5: CodeCrunch helps short-running functions too.
//!
//! Paper result: even for functions with service time < 1 second,
//! CodeCrunch reduces service time by 8.6% / 12.1% / 11.7% over
//! IceBreaker / FaasCache / SitW — cold-start elimination matters *most*
//! when execution itself is short.

use serde_json::json;

use cc_sim::SimReport;
use cc_types::{FunctionId, SimDuration};

use crate::common::{policy, run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// Short-function table experiment.
pub struct TabShortFns;

/// Mean service time restricted to the given function subset.
fn mean_service_over(report: &SimReport, subset: &[bool]) -> f64 {
    let samples: Vec<f64> = report
        .records
        .iter()
        .filter(|r| subset[r.function.index()])
        .map(|r| r.service_time().as_secs_f64())
        .collect();
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

impl Experiment for TabShortFns {
    fn id(&self) -> &'static str {
        "tab_short_fns"
    }

    fn title(&self) -> &'static str {
        "service-time improvement restricted to short-running functions (§5 text)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited);
        let config = unlimited.with_budget(budget);

        // "Short-running": execution under a second on x86 (the paper cuts
        // on service < 1s; execution is the stable per-function property).
        let short: Vec<bool> = (0..workload.len())
            .map(|i| {
                workload
                    .spec(FunctionId::new(i as u32))
                    .exec_time(cc_types::Arch::X86)
                    < SimDuration::from_secs(1)
            })
            .collect();
        let short_count = short.iter().filter(|&&s| s).count();

        let mut lines = vec![format!(
            "{short_count}/{} functions are short-running (exec < 1s on x86)",
            workload.len()
        )];
        lines.push(format!(
            "{:<12} {:>16} {:>16}",
            "policy", "short-fn svc (s)", "all-fn svc (s)"
        ));
        let mut rows = Vec::new();
        for name in ["sitw", "faascache", "icebreaker", "codecrunch"] {
            let mut policy = policy(name, None).expect("a table policy");
            let report = run_policy(policy.as_mut(), &config, &trace, &workload);
            let short_mean = mean_service_over(&report, &short);
            lines.push(format!(
                "{:<12} {:>16.3} {:>16.3}",
                report.policy,
                short_mean,
                report.mean_service_time_secs()
            ));
            rows.push(json!({
                "policy": report.policy,
                "short_mean_service_secs": short_mean,
                "mean_service_secs": report.mean_service_time_secs(),
            }));
        }
        let get = |name: &str| {
            rows.iter()
                .find(|r| r["policy"] == name)
                .and_then(|r| r["short_mean_service_secs"].as_f64())
                .unwrap_or(f64::NAN)
        };
        let crunch = get("codecrunch");
        lines.push(format!(
            "short-fn improvement: {:.1}% vs sitw / {:.1}% vs faascache / {:.1}% vs icebreaker \
             (paper: 11.7% / 12.1% / 8.6%)",
            (1.0 - crunch / get("sitw")) * 100.0,
            (1.0 - crunch / get("faascache")) * 100.0,
            (1.0 - crunch / get("icebreaker")) * 100.0
        ));

        ExperimentOutput::new(
            self.id(),
            lines,
            json!({"rows": rows, "short_function_count": short_count}),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codecrunch_serves_short_functions_competitively() {
        let out = TabShortFns.run(&Scale::smoke());
        let rows = out.data["rows"].as_array().unwrap();
        let get = |name: &str| {
            rows.iter().find(|r| r["policy"] == name).unwrap()["short_mean_service_secs"]
                .as_f64()
                .unwrap()
        };
        let crunch = get("codecrunch");
        let best_baseline = ["sitw", "faascache", "icebreaker"]
            .iter()
            .map(|p| get(p))
            .fold(f64::INFINITY, f64::min);
        assert!(
            crunch <= best_baseline * 1.10,
            "codecrunch {crunch} vs best baseline {best_baseline}"
        );
    }
}
