//! Fig. 7: the headline comparison — CodeCrunch vs SitW, FaasCache,
//! IceBreaker, and the Oracle, all under SitW's keep-alive budget.
//!
//! Paper result: CodeCrunch improves mean service time 32% over SitW, 34%
//! over FaasCache, 17% over IceBreaker, and lands within 6% of the Oracle;
//! Fig. 7(b) shows the per-invocation service-time CDF.

use cc_metrics::Cdf;
use serde_json::json;

use crate::common::{policy, run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// Fig. 7 experiment.
pub struct Fig7;

impl Experiment for Fig7 {
    fn id(&self) -> &'static str {
        "fig7"
    }

    fn title(&self) -> &'static str {
        "mean service time across policies under SitW's budget, plus the service-time CDF (Fig. 7)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited);
        let config = unlimited.with_budget(budget);

        let mut lines = vec![format!(
            "budget normalized to SitW's spend: ${:.9}/interval",
            budget.as_dollars()
        )];
        lines.push(format!(
            "{:<12} {:>12} {:>8} {:>8} {:>12}",
            "policy", "service (s)", "warm %", "cold %", "spend ($)"
        ));
        let mut rows = Vec::new();
        let mut cdfs = Vec::new();
        let mut per_invocation: Vec<(String, Vec<f64>)> = Vec::new();
        for name in ["sitw", "faascache", "icebreaker", "codecrunch", "oracle"] {
            let mut policy = policy(name, Some(&trace)).expect("a table policy");
            let report = run_policy(policy.as_mut(), &config, &trace, &workload);
            // Per-invocation service times in trace order (the runs share
            // the trace, so index i is the same request in every run).
            let mut services = vec![0.0f64; report.records.len()];
            let mut sorted: Vec<_> = report.records.clone();
            sorted.sort_by_key(|r| (r.arrival, r.function));
            for (i, r) in sorted.iter().enumerate() {
                services[i] = r.service_time().as_secs_f64();
            }
            let cdf = Cdf::from_samples(services.clone());
            per_invocation.push((report.policy.clone(), services));
            lines.push(format!(
                "{:<12} {:>12.3} {:>7.1}% {:>7.1}% {:>12.6}",
                report.policy,
                report.mean_service_time_secs(),
                report.warm_fraction() * 100.0,
                report.stats.cold_fraction() * 100.0,
                report.keep_alive_spend.as_dollars()
            ));
            cdfs.push(json!({
                "policy": report.policy,
                "points": cdf.plot_points(20),
            }));
            rows.push(json!({
                "policy": report.policy,
                "mean_service_secs": report.mean_service_time_secs(),
                "warm_fraction": report.warm_fraction(),
                "spend_dollars": report.keep_alive_spend.as_dollars(),
            }));
        }

        let get = |name: &str| -> f64 {
            rows.iter()
                .find(|r| r["policy"] == name)
                .and_then(|r| r["mean_service_secs"].as_f64())
                .unwrap_or(f64::NAN)
        };
        let crunch = get("codecrunch");
        lines.push(format!(
            "improvement over sitw {:.1}% / faascache {:.1}% / icebreaker {:.1}%; \
             within {:.1}% of oracle (paper: 32% / 34% / 17% / 6%)",
            (1.0 - crunch / get("sitw")) * 100.0,
            (1.0 - crunch / get("faascache")) * 100.0,
            (1.0 - crunch / get("icebreaker")) * 100.0,
            (crunch / get("oracle") - 1.0) * 100.0
        ));

        // The paper's per-invocation claim: CodeCrunch is slower than
        // FaasCache/IceBreaker for only ~6% of invocations (rare functions
        // with >60-minute re-invocation periods it deliberately drops).
        let services_of = |name: &str| {
            per_invocation
                .iter()
                .find(|(p, _)| p == name)
                .map(|(_, s)| s.clone())
                .unwrap_or_default()
        };
        let crunch_services = services_of("codecrunch");
        let mut slower_fractions = Vec::new();
        for baseline in ["sitw", "faascache", "icebreaker"] {
            let other = services_of(baseline);
            let n = crunch_services.len().min(other.len());
            if n == 0 {
                continue;
            }
            let slower = crunch_services[..n]
                .iter()
                .zip(&other[..n])
                .filter(|&(c, o)| *c > *o + 1e-9)
                .count();
            let fraction = slower as f64 / n as f64;
            slower_fractions.push(json!({"baseline": baseline, "fraction": fraction}));
            lines.push(format!(
                "codecrunch slower than {baseline} for {:.1}% of invocations (paper: ~6% vs FaasCache/IceBreaker)",
                fraction * 100.0
            ));
        }

        let data = json!({"rows": rows, "cdf": cdfs, "slower_fractions": slower_fractions});
        ExperimentOutput::new(self.id(), lines, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codecrunch_is_competitive_and_oracle_is_best() {
        let out = Fig7.run(&Scale::smoke());
        let rows = out.data["rows"].as_array().unwrap();
        let get = |name: &str| {
            rows.iter().find(|r| r["policy"] == name).unwrap()["mean_service_secs"]
                .as_f64()
                .unwrap()
        };
        let oracle = get("oracle");
        let crunch = get("codecrunch");
        for policy in ["sitw", "faascache", "icebreaker", "codecrunch"] {
            assert!(
                get(policy) >= oracle * 0.98,
                "{policy} beat the oracle: {} < {oracle}",
                get(policy)
            );
        }
        // CodeCrunch must be the best non-oracle policy (within noise).
        let best_baseline = ["sitw", "faascache", "icebreaker"]
            .iter()
            .map(|p| get(p))
            .fold(f64::INFINITY, f64::min);
        assert!(
            crunch <= best_baseline * 1.05,
            "codecrunch {crunch} vs best baseline {best_baseline}"
        );
    }
}
