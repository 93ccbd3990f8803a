//! The IceBreaker FFT-prediction baseline (Roy et al., ASPLOS '22).

use cc_types::FxHashMap;

use cc_fft::dominant_period;
use cc_sim::{ClusterView, Command, KeepDecision, Scheduler};
use cc_types::{Arch, FunctionId, SimDuration, SimTime};

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
    /// Per-minute invocation counts per function.
    counts: FxHashMap<FunctionId, Vec<f64>>,
    /// Arrivals observed since the last tick.
    pending_counts: FxHashMap<FunctionId, f64>,
    /// Cached period prediction (in minutes) per function.
    period: FxHashMap<FunctionId, Option<f64>>,
    /// Last arrival per function.
    last_arrival: FxHashMap<FunctionId, SimTime>,
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
            counts: FxHashMap::default(),
            pending_counts: FxHashMap::default(),
            period: FxHashMap::default(),
            last_arrival: FxHashMap::default(),
            refresh_every: 5,
            tick: 0,
            post_completion_window: SimDuration::from_mins(2),
        }
    }

    /// Predicted next invocation of `function`, if its history shows a
    /// dominant period.
    fn predicted_next(&self, function: FunctionId) -> Option<SimTime> {
        let period_mins = (*self.period.get(&function)?)?;
        let last = *self.last_arrival.get(&function)?;
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
        *self.pending_counts.entry(function).or_insert(0.0) += 1.0;
        self.last_arrival.insert(function, now);
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
        match self.period.get(&function) {
            // Periodic function: a pre-warm will cover the next invocation,
            // keep only a short safety window now.
            Some(Some(_)) => KeepDecision::uncompressed(self.post_completion_window),
            // Unknown or patternless: moderate keep-alive fallback.
            _ => KeepDecision::uncompressed(SimDuration::from_mins(10)),
        }
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        self.tick += 1;
        // Roll the per-minute counters forward.
        let touched: Vec<FunctionId> = self.counts.keys().copied().collect();
        for f in touched {
            let pending = self.pending_counts.remove(&f).unwrap_or(0.0);
            self.counts.get_mut(&f).expect("key exists").push(pending);
        }
        for (f, pending) in self.pending_counts.drain() {
            self.counts.entry(f).or_default().push(pending);
        }

        // Refresh the FFT predictions — deliberately over every function's
        // full history, reproducing IceBreaker's overhead profile.
        if self.tick.is_multiple_of(self.refresh_every) {
            for (f, signal) in &self.counts {
                if signal.len() >= 8 {
                    self.period.insert(*f, dominant_period(signal));
                }
            }
        }

        // Pre-warm functions predicted to fire within the next interval.
        let horizon = view.now + view.config.interval * 2;
        let mut commands = Vec::new();
        // Sorted for cross-run determinism (map iteration order is arbitrary).
        let mut functions: Vec<FunctionId> = self.counts.keys().copied().collect();
        functions.sort_unstable();
        for f in functions {
            if view.is_warm(f) {
                continue;
            }
            let Some(next) = self.predicted_next(f) else {
                continue;
            };
            if next >= view.now && next <= horizon {
                let period_mins = self.period[&f].expect("checked by predicted_next");
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
        let with_period = policy.period.values().filter(|p| p.is_some()).count();
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
