//! Fig. 15: adaptation to unannounced input changes and load bursts.
//!
//! Halfway through the trace, execution times jump (input change) and a
//! burst triples arrivals; neither event is announced. Paper result:
//! CodeCrunch tracks the Oracle's service-time curve while SitW degrades
//! during the peak.

use serde_json::json;

use cc_sim::Simulation;
use cc_trace::Perturbation;
use cc_types::{SimDuration, SimTime};

use crate::common::{
    downsample, fmt_series, policy, sitw_budget_per_interval, ExperimentOutput, Scale,
};
use crate::Experiment;

/// Fig. 15 experiment.
pub struct Fig15;

impl Experiment for Fig15 {
    fn id(&self) -> &'static str {
        "fig15"
    }

    fn title(&self) -> &'static str {
        "service-time tracking under unannounced input change + load burst (Fig. 15)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let base = scale.trace();
        let change_at = SimTime::ZERO + SimDuration::from_mins(scale.minutes / 2);
        let burst_at = SimTime::ZERO + SimDuration::from_mins(scale.minutes * 2 / 3);
        // Perturbation strengths are chosen to stress the schedulers
        // without saturating the cluster outright — a saturated cluster
        // queues identically under every policy and the tracking signal
        // disappears.
        let burst = Perturbation::Burst {
            at: burst_at,
            duration: SimDuration::from_mins((scale.minutes / 20).max(3)),
            factor: 2.0,
        };
        let trace = burst.apply_to_trace(base, scale.seed);
        let input_change = Perturbation::InputChange {
            at: change_at,
            factor: 1.25,
        };

        let workload = scale.workload(&trace);
        let unlimited = scale.cluster();
        // Half of SitW's spend: the budget scarcity is what makes slow
        // adaptation visible during the burst.
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited).scale(0.5);
        let config = unlimited.with_budget(budget);

        let mut lines = vec![format!(
            "input change (x1.25 exec) at minute {}, burst (x2 load) at minute {}",
            change_at.as_secs_f64() / 60.0,
            burst_at.as_secs_f64() / 60.0
        )];
        let mut series = Vec::new();
        let chunk = (scale.minutes as usize / 24).max(1);
        let mut summary = Vec::new();
        for name in ["sitw", "codecrunch", "oracle"] {
            let mut policy = policy(name, Some(&trace)).expect("a table policy");
            let report = Simulation::new(config.clone(), &trace, &workload)
                .with_perturbations(vec![input_change])
                .run(policy.as_mut());
            let s = report.stats.service_time_series();
            lines.push(format!(
                "{:<12} mean {:.3}s | {}",
                report.policy,
                report.mean_service_time_secs(),
                fmt_series(&downsample(&s, chunk), 2)
            ));
            summary.push((report.policy.clone(), report.mean_service_time_secs()));
            series.push(json!({"policy": report.policy, "service_per_minute": s}));
        }

        // Oracle-tracking metric: mean absolute gap to the oracle curve
        // after the perturbations begin.
        let oracle_curve: Vec<f64> = series.iter().find(|s| s["policy"] == "oracle").unwrap()
            ["service_per_minute"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        let tracking_gap = |name: &str| -> f64 {
            let curve: Vec<f64> = series.iter().find(|s| s["policy"] == name).unwrap()
                ["service_per_minute"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            let from = (scale.minutes / 2) as usize;
            let n = curve.len().min(oracle_curve.len());
            let window = &curve[from.min(n)..n];
            let oracle_window = &oracle_curve[from.min(n)..n];
            window
                .iter()
                .zip(oracle_window)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / window.len().max(1) as f64
        };
        let gap_sitw = tracking_gap("sitw");
        let gap_crunch = tracking_gap("codecrunch");
        lines.push(format!(
            "mean |gap to oracle| after the change: codecrunch {gap_crunch:.3}s vs sitw {gap_sitw:.3}s"
        ));

        ExperimentOutput::new(
            self.id(),
            lines,
            json!({
                "series": series,
                "tracking_gap_codecrunch": gap_crunch,
                "tracking_gap_sitw": gap_sitw,
                "summary": summary.iter().map(|(p, s)| json!({"policy": p, "mean": s})).collect::<Vec<_>>(),
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codecrunch_tracks_oracle_at_least_as_well_as_sitw() {
        let out = Fig15.run(&Scale::smoke());
        let crunch = out.data["tracking_gap_codecrunch"].as_f64().unwrap();
        let sitw = out.data["tracking_gap_sitw"].as_f64().unwrap();
        assert!(
            crunch <= sitw * 1.25,
            "codecrunch gap {crunch} vs sitw gap {sitw}"
        );
    }
}
