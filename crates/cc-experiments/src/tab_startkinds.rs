//! §5 absolute service-time numbers per start kind, plus the
//! compression/decompression latency statistics.
//!
//! Paper (Oracle, best processor per function): warm uncompressed 6.3 s,
//! warm compressed 6.99 s, cold 10.2 s; decompression mean/p75/max
//! 0.37/0.52/0.68 s; compression mean/p75/max 1.57/1.82/2.01 s.

use serde_json::json;

use cc_metrics::Summary;
use cc_types::{Arch, StartKind};
use codecrunch::CodeCrunch;

use crate::common::{run_policy, sitw_budget_per_interval, ExperimentOutput, Scale};
use crate::Experiment;

/// Start-kind table experiment.
pub struct TabStartKinds;

impl Experiment for TabStartKinds {
    fn id(&self) -> &'static str {
        "tab_startkinds"
    }

    fn title(&self) -> &'static str {
        "mean service time per start kind and compression latency statistics (§5 absolutes)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited).scale(0.5);
        let config = unlimited.with_budget(budget);

        let mut policy = CodeCrunch::new();
        let report = run_policy(&mut policy, &config, &trace, &workload);

        let mut lines = vec![format!(
            "{:<18} {:>12} {:>12} {:>10}",
            "start kind", "service (s)", "penalty (s)", "count"
        )];
        let mut kinds = Vec::new();
        for kind in [
            StartKind::WarmUncompressed,
            StartKind::WarmCompressed,
            StartKind::Cold,
        ] {
            let breakdown = report.stats.breakdown(kind);
            // Mean start penalty isolates the mechanism from the function
            // mix (compression targets long-cold-start functions, so the
            // raw service means mix different populations).
            let penalties: Vec<f64> = report
                .records
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.start_penalty.as_secs_f64())
                .collect();
            let mean_penalty = if penalties.is_empty() {
                0.0
            } else {
                penalties.iter().sum::<f64>() / penalties.len() as f64
            };
            lines.push(format!(
                "{:<18} {:>12.3} {:>12.3} {:>10}",
                kind.to_string(),
                breakdown.mean_service_secs(),
                mean_penalty,
                breakdown.count
            ));
            kinds.push(json!({
                "kind": kind.to_string(),
                "mean_service_secs": breakdown.mean_service_secs(),
                "mean_penalty_secs": mean_penalty,
                "count": breakdown.count,
            }));
        }
        lines.push(
            "(paper: warm 6.3s / warm-compressed 6.99s / cold 10.2s; the per-kind \
             service means mix different function populations — the penalty column \
             isolates the start cost)"
                .to_owned(),
        );

        // Latency statistics over the functions CodeCrunch actually
        // compressed at least once.
        let compressed_fns: std::collections::BTreeSet<_> = report
            .records
            .iter()
            .filter(|r| r.kind == StartKind::WarmCompressed)
            .map(|r| r.function)
            .collect();
        let mut dec = Summary::new();
        let mut comp = Summary::new();
        for &f in &compressed_fns {
            let spec = workload.spec(f);
            dec.record(spec.decompress_time(Arch::X86).as_secs_f64());
            comp.record(spec.compress.as_secs_f64());
        }
        if dec.is_empty() {
            lines.push("no compressed warm starts occurred at this scale".to_owned());
        } else {
            lines.push(format!(
                "decompression over compressed functions: mean {:.2}s, p75 {:.2}s, max {:.2}s \
                 (paper: 0.37/0.52/0.68)",
                dec.mean(),
                dec.percentile(75.0),
                dec.max().unwrap_or(0.0)
            ));
            lines.push(format!(
                "compression: mean {:.2}s, p75 {:.2}s, max {:.2}s (paper: 1.57/1.82/2.01; \
                 off the critical path)",
                comp.mean(),
                comp.percentile(75.0),
                comp.max().unwrap_or(0.0)
            ));
        }

        let data = json!({
            "kinds": kinds,
            "decompression_mean": dec.mean(),
            "decompression_p75": if dec.is_empty() { 0.0 } else { dec.percentile(75.0) },
            "decompression_max": dec.max().unwrap_or(0.0),
            "compression_mean": comp.mean(),
            "compressed_function_count": compressed_fns.len(),
        });
        ExperimentOutput::new(self.id(), lines, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_is_slowest_warm_is_fastest() {
        let out = TabStartKinds.run(&Scale::smoke());
        let kinds = out.data["kinds"].as_array().unwrap();
        let get = |name: &str| {
            kinds.iter().find(|k| k["kind"] == name).unwrap()["mean_service_secs"]
                .as_f64()
                .unwrap()
        };
        let warm = get("warm");
        let cold = get("cold");
        if warm > 0.0 && cold > 0.0 {
            assert!(cold > warm, "cold {cold} should exceed warm {warm}");
        }
    }
}
