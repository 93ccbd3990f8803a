//! The IceBreaker FFT-prediction baseline (Roy et al., ASPLOS '22).

use cc_fft::dominant_period;
use cc_sim::{ClusterView, Command, KeepDecision, Scheduler};
use cc_types::{Arch, FunctionId, SimDuration, SimTime};

use crate::entry;

/// IceBreaker predicts each function's invocation period with a Fourier
/// transform over its per-minute invocation counts and pre-warms the
/// function just before the predicted next invocation.
///
/// Node choice follows the original paper's two-tier scheme — a function is
/// warmed on the **fast** tier (x86 here) when its re-invocation is
/// imminent/likely, and on the **cheap** tier (ARM) otherwise. Crucially,
/// and as the CodeCrunch paper points out, this is *not*
/// function-performance-aware: IceBreaker never asks which architecture
/// runs this particular function faster.
///
/// The FFT over every function's full history each refresh interval is
/// exactly the "high decision-making overhead" the paper measures.
#[derive(Debug, Clone)]
pub struct IceBreaker {
    /// Per-minute invocation counts per function, from the first tick
    /// after its first arrival on (empty before). Every per-function
    /// table is indexed by [`FunctionId::index`].
    counts: Vec<Vec<f64>>,
    /// Arrivals observed since the last tick.
    pending_counts: Vec<f64>,
    /// Cached period prediction (in minutes) per function; `None` until
    /// a refresh finds a dominant period.
    period: Vec<Option<f64>>,
    /// Last arrival per function.
    last_arrival: Vec<Option<SimTime>>,
    /// Ticks between FFT refreshes.
    refresh_every: u64,
    tick: u64,
    /// Keep-alive window granted after completion while waiting for the
    /// next prediction.
    post_completion_window: SimDuration,
}

impl IceBreaker {
    /// Creates the policy with a 5-tick FFT refresh cadence.
    pub fn new() -> IceBreaker {
        IceBreaker {
            counts: Vec::new(),
            pending_counts: Vec::new(),
            period: Vec::new(),
            last_arrival: Vec::new(),
            refresh_every: 5,
            tick: 0,
            post_completion_window: SimDuration::from_mins(2),
        }
    }

    /// Predicted next invocation of `function`, if its history shows a
    /// dominant period.
    fn predicted_next(&self, function: FunctionId) -> Option<SimTime> {
        let period_mins = (*self.period.get(function.index())?)?;
        let last = (*self.last_arrival.get(function.index())?)?;
        Some(last + SimDuration::from_secs_f64(period_mins * 60.0))
    }
}

impl Default for IceBreaker {
    fn default() -> Self {
        IceBreaker::new()
    }
}

impl Scheduler for IceBreaker {
    fn name(&self) -> &str {
        "icebreaker"
    }

    /// Keeps the default LRU eviction rank.
    fn evicts_in_admission_order(&self) -> bool {
        true
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        *entry(&mut self.pending_counts, function) += 1.0;
        *entry(&mut self.last_arrival, function) = Some(now);
    }

    fn place(&mut self, _function: FunctionId, view: &ClusterView<'_>) -> Arch {
        // Two-tier placement: the fast tier when it has room, else cheap.
        if view.free_cores(Arch::X86) > 0 {
            Arch::X86
        } else {
            Arch::Arm
        }
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        _arch: Arch,
        _view: &ClusterView<'_>,
    ) -> KeepDecision {
        match self.period.get(function.index()) {
            // Periodic function: a pre-warm will cover the next invocation,
            // keep only a short safety window now.
            Some(Some(_)) => KeepDecision::uncompressed(self.post_completion_window),
            // Unknown or patternless: moderate keep-alive fallback.
            _ => KeepDecision::uncompressed(SimDuration::from_mins(10)),
        }
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        self.tick += 1;
        // Roll the per-minute counters forward: every function that has
        // ever arrived gets this tick's count (an arrival makes its
        // pending count positive).
        self.counts.resize_with(self.pending_counts.len(), Vec::new);
        for (signal, pending) in self.counts.iter_mut().zip(&mut self.pending_counts) {
            if !signal.is_empty() || *pending > 0.0 {
                signal.push(std::mem::take(pending));
            }
        }

        // Refresh the FFT predictions — deliberately over every function's
        // full history, reproducing IceBreaker's overhead profile.
        if self.tick.is_multiple_of(self.refresh_every) {
            self.period.resize(self.counts.len(), None);
            for (period, signal) in self.period.iter_mut().zip(&self.counts) {
                if signal.len() >= 8 {
                    *period = dominant_period(signal);
                }
            }
        }

        // Pre-warm functions predicted to fire within the next interval,
        // in function-id order.
        let horizon = view.now + view.config.interval * 2;
        let mut commands = Vec::new();
        for (index, signal) in self.counts.iter().enumerate() {
            let f = FunctionId::new(index as u32);
            if signal.is_empty() || view.is_warm(f) {
                continue;
            }
            let Some(next) = self.predicted_next(f) else {
                continue;
            };
            if next >= view.now && next <= horizon {
                let period_mins = self.period[index].expect("checked by predicted_next");
                // Frequent (short-period) functions go to the fast tier.
                let arch = if period_mins <= 30.0 {
                    Arch::X86
                } else {
                    Arch::Arm
                };
                commands.push(Command::Prewarm {
                    function: f,
                    arch,
                    keep_alive: SimDuration::from_mins(3),
                    compress: false,
                });
            }
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_compress::CompressionModel;
    use cc_sim::{ClusterConfig, Simulation};
    use cc_trace::{PatternMix, SyntheticTrace};
    use cc_workload::{Catalog, Workload};

    #[test]
    fn predicts_periodic_functions_and_prewarms() {
        // Strongly periodic workload: IceBreaker should find periods.
        let mix = PatternMix {
            periodic: 1.0,
            multi_periodic: 0.0,
            poisson: 0.0,
            bursty: 0.0,
            rare: 0.0,
        };
        let mut b = SyntheticTrace::builder();
        b.functions(20)
            .duration(SimDuration::from_mins(240))
            .seed(31)
            .pattern_mix(mix)
            .without_peaks();
        let trace = b.build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let mut policy = IceBreaker::new();
        let report =
            Simulation::new(ClusterConfig::small(3, 3), &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
        let with_period = policy.period.iter().filter(|p| p.is_some()).count();
        assert!(with_period > 0, "no periods detected on a periodic trace");
        assert!(
            report.warm_fraction() > 0.2,
            "warm {}",
            report.warm_fraction()
        );
    }

    #[test]
    fn handles_patternless_traces() {
        let mix = PatternMix {
            periodic: 0.0,
            multi_periodic: 0.0,
            poisson: 1.0,
            bursty: 0.0,
            rare: 0.0,
        };
        let mut b = SyntheticTrace::builder();
        b.functions(15)
            .duration(SimDuration::from_mins(90))
            .seed(32)
            .pattern_mix(mix);
        let trace = b.build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let mut policy = IceBreaker::new();
        let report =
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
    }

    #[test]
    fn predicted_next_requires_history() {
        let policy = IceBreaker::new();
        assert_eq!(policy.predicted_next(FunctionId::new(0)), None);
    }
}
