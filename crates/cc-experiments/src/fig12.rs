//! Fig. 12: ablations — what each CodeCrunch ingredient contributes.
//!
//! Paper absolute numbers: full system 6.75 s; without compression 8.15 s;
//! x86-only 7.87 s; ARM-only 8.4 s; fixed 10-minute keep-alive 7.38 s;
//! and SRE beats same-time full-space optimization by 19%.

use serde_json::json;

use cc_types::SimDuration;
use codecrunch::{ArchPolicy, CodeCrunch, CodeCrunchConfig};

use crate::common::{run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// Fig. 12 experiment.
pub struct Fig12;

impl Experiment for Fig12 {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn title(&self) -> &'static str {
        "CodeCrunch ablations: SRE, compression, heterogeneity, keep-alive optimization (Fig. 12)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited).scale(0.5);
        let config = unlimited.with_budget(budget);

        let variants: Vec<(&str, CodeCrunchConfig)> = vec![
            ("full", CodeCrunchConfig::default()),
            (
                "no-sre",
                CodeCrunchConfig {
                    use_sre: false,
                    ..CodeCrunchConfig::default()
                },
            ),
            (
                "no-compression",
                CodeCrunchConfig {
                    allow_compression: false,
                    ..CodeCrunchConfig::default()
                },
            ),
            (
                "x86-only",
                CodeCrunchConfig {
                    arch_policy: ArchPolicy::X86Only,
                    ..CodeCrunchConfig::default()
                },
            ),
            (
                "arm-only",
                CodeCrunchConfig {
                    arch_policy: ArchPolicy::ArmOnly,
                    ..CodeCrunchConfig::default()
                },
            ),
            (
                "fixed-10min-ka",
                CodeCrunchConfig {
                    fixed_keep_alive: Some(SimDuration::from_mins(10)),
                    ..CodeCrunchConfig::default()
                },
            ),
        ];

        let mut lines = vec![format!(
            "{:<16} {:>12} {:>8} {:>8}",
            "variant", "service (s)", "warm %", "cold %"
        )];
        let mut rows = Vec::new();
        for (name, cc_config) in variants {
            let mut policy = CodeCrunch::with_config(cc_config);
            let report = run_policy(&mut policy, &config, &trace, &workload);
            lines.push(format!(
                "{:<16} {:>12.3} {:>7.1}% {:>7.1}%",
                name,
                report.mean_service_time_secs(),
                report.warm_fraction() * 100.0,
                report.stats.cold_fraction() * 100.0
            ));
            rows.push(json!({
                "variant": name,
                "mean_service_secs": report.mean_service_time_secs(),
                "warm_fraction": report.warm_fraction(),
                "cold_fraction": report.stats.cold_fraction(),
            }));
        }
        lines.push(
            "(paper: full 6.75s; no-compression 8.15s; x86-only 7.87s; arm-only 8.4s; \
             fixed-ka 7.38s)"
                .to_owned(),
        );

        ExperimentOutput::new(self.id(), lines, json!({ "rows": rows }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_system_is_best_or_close() {
        let out = Fig12.run(&Scale::smoke());
        let rows = out.data["rows"].as_array().unwrap();
        let get = |name: &str| {
            rows.iter().find(|r| r["variant"] == name).unwrap()["mean_service_secs"]
                .as_f64()
                .unwrap()
        };
        let full = get("full");
        for variant in ["no-compression", "x86-only", "arm-only", "fixed-10min-ka"] {
            assert!(
                full <= get(variant) * 1.05,
                "full {full} should not trail {variant} {}",
                get(variant)
            );
        }
    }
}
