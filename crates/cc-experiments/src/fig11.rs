//! Fig. 11: compression concentrates in load peaks and raises warm starts.
//!
//! Paper result: CodeCrunch compresses mainly during the three high-load
//! windows, lifting the overall warm-start fraction by >10 points over
//! CodeCrunch-without-compression.

use serde_json::json;

use codecrunch::{CodeCrunch, CodeCrunchConfig};

use crate::common::{
    downsample, fmt_series, run_policy, sitw_budget_per_interval, sparkline, ExperimentOutput,
    Scale,
};
use crate::Experiment;

/// Fig. 11 experiment.
pub struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "compression activity tracks load peaks; warm starts with vs without compression (Fig. 11)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let (trace, workload, unlimited) = scale.build();
        let budget = sitw_budget_per_interval(&trace, &workload, &unlimited).scale(0.5);
        let config = unlimited.with_budget(budget);

        let mut with = CodeCrunch::new();
        let mut without = CodeCrunch::with_config(CodeCrunchConfig {
            allow_compression: false,
            ..CodeCrunchConfig::default()
        });
        let r_with = run_policy(&mut with, &config, &trace, &workload);
        let r_without = run_policy(&mut without, &config, &trace, &workload);

        let load: Vec<f64> = trace.load_per_minute().iter().map(|&c| c as f64).collect();
        let compressed: Vec<f64> = r_with
            .intervals
            .iter()
            .map(|s| s.compression_events_delta as f64)
            .collect();
        let warm_with = r_with.stats.warm_fraction_series();
        let warm_without = r_without.stats.warm_fraction_series();

        // Correlation between load and per-minute compression *events*: the
        // paper's "SRE mainly compresses functions during periods of high
        // invocation load". (Counting live compressed instances instead
        // would anti-correlate — peaks churn the pool.)
        let n = load.len().min(compressed.len());
        let corr = pearson(&load[..n], &compressed[..n]);

        let chunk = (scale.minutes as usize / 24).max(1);
        let lines = vec![
            format!(
                "warm starts: {:.1}% with compression vs {:.1}% without (paper: >10 points apart)",
                r_with.warm_fraction() * 100.0,
                r_without.warm_fraction() * 100.0
            ),
            format!(
                "service time: {:.3}s with vs {:.3}s without compression",
                r_with.mean_service_time_secs(),
                r_without.mean_service_time_secs()
            ),
            format!(
                "compression events vs load correlation: {corr:.2} \
                 ({} compressions total)",
                r_with.compression_events
            ),
            format!("load:       {}", fmt_series(&downsample(&load, chunk), 0)),
            format!(
                "compressed: {}",
                fmt_series(&downsample(&compressed, chunk), 1)
            ),
            format!(
                "warm% with: {}",
                fmt_series(&downsample(&warm_with, chunk), 2)
            ),
            format!(
                "warm% w/o:  {}",
                fmt_series(&downsample(&warm_without, chunk), 2)
            ),
            format!(
                "load shape:        {}",
                sparkline(&downsample(&load, chunk))
            ),
            format!(
                "compression shape: {}",
                sparkline(&downsample(&compressed, chunk))
            ),
        ];
        let data = json!({
            "load_per_minute": load,
            "compression_events_per_minute": compressed,
            "warm_with_compression": warm_with,
            "warm_without_compression": warm_without,
            "mean_warm_with": r_with.warm_fraction(),
            "mean_warm_without": r_without.warm_fraction(),
            "mean_service_with": r_with.mean_service_time_secs(),
            "mean_service_without": r_without.mean_service_time_secs(),
            "load_compression_correlation": corr,
            "compression_events": r_with.compression_events,
        });
        ExperimentOutput::new(self.id(), lines, data)
    }
}

/// Pearson correlation of two equal-length series (0 when degenerate).
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_does_not_lose_warm_starts() {
        let out = Fig11.run(&Scale::smoke());
        let with = out.data["mean_warm_with"].as_f64().unwrap();
        let without = out.data["mean_warm_without"].as_f64().unwrap();
        assert!(with >= without - 0.03, "with {with} vs without {without}");
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }
}
