//! Fig. 10: the keep-alive budget creditor.
//!
//! (a) CodeCrunch achieves a higher warm-start fraction than SitW under
//! the same budget (paper: +18 points), and (b) its per-minute budget
//! spend dips below the accrual rate in quiet periods and spikes above it
//! during peaks — the saved-up credit at work.

use serde_json::json;

use cc_policies::SitW;
use codecrunch::CodeCrunch;

use crate::common::{
    downsample, fmt_series, run_policy, sitw_budget_per_interval, sparkline, ExperimentOutput,
    Scale,
};
use crate::Experiment;

/// Fig. 10 experiment.
pub struct Fig10;

impl Experiment for Fig10 {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn title(&self) -> &'static str {
        "warm starts and per-minute budget spend under the creditor (Fig. 10)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        // Half of SitW's natural spend: scarce enough that crediting matters.
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited).scale(0.5);
        let config = unlimited.with_budget(budget);

        let mut sitw = SitW::new();
        let mut crunch = CodeCrunch::new();
        let r_sitw = run_policy(&mut sitw, &config, &trace, &workload);
        let r_crunch = run_policy(&mut crunch, &config, &trace, &workload);

        let warm_sitw = r_sitw.stats.warm_fraction_series();
        let warm_crunch = r_crunch.stats.warm_fraction_series();
        let spend: Vec<f64> = r_crunch
            .intervals
            .iter()
            .map(|s| s.spend_delta_dollars)
            .collect();
        let accrual = budget.as_dollars();
        let over_accrual = spend.iter().filter(|&&s| s > accrual * 1.2).count();
        let under_accrual = spend.iter().filter(|&&s| s < accrual * 0.8).count();

        let chunk = (scale.minutes as usize / 24).max(1);
        let lines = vec![
            format!(
                "warm starts: codecrunch {:.1}% vs sitw {:.1}% under the same budget (paper: +18 points)",
                r_crunch.warm_fraction() * 100.0,
                r_sitw.warm_fraction() * 100.0
            ),
            format!(
                "warm% series codecrunch: {}",
                fmt_series(&downsample(&warm_crunch, chunk), 2)
            ),
            format!(
                "warm% series sitw:       {}",
                fmt_series(&downsample(&warm_sitw, chunk), 2)
            ),
            format!(
                "budget accrual ${accrual:.9}/min; spend dips below it in {under_accrual} minutes \
                 and exceeds it in {over_accrual} minutes — saved credit spent at peaks"
            ),
            format!(
                "spend series ($/min): {}",
                fmt_series(&downsample(&spend, chunk), 9)
            ),
            format!("spend shape:          {}", sparkline(&downsample(&spend, chunk))),
        ];
        let data = json!({
            "warm_sitw": warm_sitw,
            "warm_codecrunch": warm_crunch,
            "mean_warm_sitw": r_sitw.warm_fraction(),
            "mean_warm_codecrunch": r_crunch.warm_fraction(),
            "spend_per_minute": spend,
            "accrual_per_minute": accrual,
            "minutes_over_accrual": over_accrual,
            "minutes_under_accrual": under_accrual,
        });
        ExperimentOutput::new(self.id(), lines, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codecrunch_warms_at_least_as_much_as_sitw() {
        let out = Fig10.run(&Scale::smoke());
        let crunch = out.data["mean_warm_codecrunch"].as_f64().unwrap();
        let sitw = out.data["mean_warm_sitw"].as_f64().unwrap();
        assert!(
            crunch >= sitw - 0.05,
            "codecrunch {crunch} should not trail sitw {sitw}"
        );
    }

    #[test]
    fn credit_is_banked_and_spent() {
        let out = Fig10.run(&Scale::smoke());
        // Crediting only manifests if spend varies around the accrual rate.
        let under = out.data["minutes_under_accrual"].as_u64().unwrap();
        assert!(under > 0, "spend should dip below accrual in quiet minutes");
    }
}
