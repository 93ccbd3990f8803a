//! §5: compression keeps paying off even with fast-booting microVMs.
//!
//! Paper result: Docker 6.75 s with compression / 8.15 s without;
//! Firecracker 6.66 s / 8.05 s — faster sandboxes shrink every number a
//! little but do not close the compression gap.

use serde_json::json;

use cc_sim::RuntimeKind;
use codecrunch::{CodeCrunch, CodeCrunchConfig};

use crate::common::{run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// MicroVM table experiment.
pub struct TabMicroVm;

impl Experiment for TabMicroVm {
    fn id(&self) -> &'static str {
        "tab_microvm"
    }

    fn title(&self) -> &'static str {
        "Docker vs Firecracker runtimes, with and without compression (§5 microVM study)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited).scale(0.5);

        let mut lines = vec![format!(
            "{:<14} {:>18} {:>20}",
            "runtime", "compressed (s)", "uncompressed (s)"
        )];
        let mut rows = Vec::new();
        for runtime in [RuntimeKind::Docker, RuntimeKind::Firecracker] {
            let config = unlimited.clone().with_runtime(runtime).with_budget(budget);
            let mut with = CodeCrunch::new();
            let mut without = CodeCrunch::with_config(CodeCrunchConfig {
                allow_compression: false,
                ..CodeCrunchConfig::default()
            });
            let r_with = run_policy(&mut with, &config, &trace, &workload);
            let r_without = run_policy(&mut without, &config, &trace, &workload);
            lines.push(format!(
                "{:<14} {:>18.3} {:>20.3}",
                format!("{runtime:?}"),
                r_with.mean_service_time_secs(),
                r_without.mean_service_time_secs()
            ));
            rows.push(json!({
                "runtime": format!("{runtime:?}"),
                "with_compression_secs": r_with.mean_service_time_secs(),
                "without_compression_secs": r_without.mean_service_time_secs(),
            }));
        }
        lines.push(
            "(paper: Docker 6.75/8.15s, Firecracker 6.66/8.05s — compression helps under both)"
                .to_owned(),
        );

        ExperimentOutput::new(self.id(), lines, json!({ "rows": rows }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firecracker_is_no_slower_than_docker() {
        let out = TabMicroVm.run(&Scale::smoke());
        let rows = out.data["rows"].as_array().unwrap();
        let docker = rows[0]["with_compression_secs"].as_f64().unwrap();
        let firecracker = rows[1]["with_compression_secs"].as_f64().unwrap();
        // Faster cold starts shave a fixed slice off every cold path, but
        // they also perturb the whole event cascade (completion order,
        // budget reservations), so at smoke scale a small inversion is
        // within noise.
        assert!(
            firecracker <= docker * 1.05,
            "firecracker {firecracker} vs docker {docker}"
        );
    }

    #[test]
    fn compression_helps_under_both_runtimes() {
        let out = TabMicroVm.run(&Scale::smoke());
        for row in out.data["rows"].as_array().unwrap() {
            let with = row["with_compression_secs"].as_f64().unwrap();
            let without = row["without_compression_secs"].as_f64().unwrap();
            assert!(
                with <= without * 1.05,
                "{}: with {with} vs without {without}",
                row["runtime"]
            );
        }
    }
}
