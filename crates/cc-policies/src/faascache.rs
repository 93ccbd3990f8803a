//! The FaasCache greedy-dual baseline (Fuerst & Sharma, ASPLOS '21).

use cc_sim::{ClusterView, KeepDecision, Scheduler, WarmInstance};
use cc_types::{Arch, FunctionId, SimTime, KEEP_ALIVE_MAX};

use crate::{entry, faster_arch};

/// FaasCache treats the warm pool as a cache: every finished instance is
/// kept (up to the platform bound) and victims are chosen by
/// **greedy-dual-size-frequency** priority,
///
/// ```text
/// priority(f) = clock + frequency(f) × cold_start(f) / memory(f)
/// ```
///
/// where `clock` ages the cache: it rises to the priority of each evicted
/// instance, so long-idle entries eventually lose to fresh ones regardless
/// of historical frequency. Placement is heterogeneity-aware per the
/// paper's modification.
///
/// As implemented the aging is degenerate: the clock adopts each rank the
/// moment the next one is asked for, so ranks never decrease along the
/// ranking order and the policy evicts in admission order (see
/// [`FaasCache::evicts_in_admission_order`]).
#[derive(Debug, Clone)]
pub struct FaasCache {
    /// Arrivals per function, indexed by [`FunctionId::index`].
    frequency: Vec<u64>,
    /// Greedy-dual aging clock (in priority units: seconds per MiB).
    clock: f64,
    /// Lowest priority handed out in the current ranking round; adopted
    /// into `clock` on the next round (the engine evicts the minimum).
    round_min: Option<f64>,
}

impl FaasCache {
    /// Creates the policy.
    pub fn new() -> FaasCache {
        FaasCache {
            frequency: Vec::new(),
            clock: 0.0,
            round_min: None,
        }
    }

    fn priority(&self, function: FunctionId, view: &ClusterView<'_>) -> f64 {
        let spec = view.spec(function);
        let freq = self
            .frequency
            .get(function.index())
            .map_or(1, |&n| n.max(1)) as f64;
        let cost = spec.cold_start(Arch::X86).as_secs_f64();
        let size = spec.memory.as_mb().max(1) as f64;
        self.clock + freq * cost / size
    }
}

impl Default for FaasCache {
    fn default() -> Self {
        FaasCache::new()
    }
}

impl Scheduler for FaasCache {
    fn name(&self) -> &str {
        "faascache"
    }

    /// The greedy-dual ranks of one eviction come out non-decreasing in
    /// the order the engine asks for them, which is admission order, so
    /// sorting by `(rank, seq)` returns admission order and the ranks
    /// need not be asked for at all. Each [`eviction_rank`] call first
    /// raises the clock to the previous call's rank (`round_min` holds
    /// exactly that one rank: it is taken on every call, not once per
    /// eviction), then returns the clock plus
    /// `frequency × cold_start / memory`, which is never negative. So
    /// every rank is at least the one before it, within one eviction and
    /// across evictions alike; rounding cannot break this, since adding a
    /// non-negative float never lowers the sum. Nothing else reads the
    /// clock, so skipping the calls changes no decision.
    ///
    /// [`eviction_rank`]: Scheduler::eviction_rank
    fn evicts_in_admission_order(&self) -> bool {
        true
    }

    fn on_arrival(&mut self, function: FunctionId, _now: SimTime) {
        *entry(&mut self.frequency, function) += 1;
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        faster_arch(function, view)
    }

    fn on_completion(
        &mut self,
        _function: FunctionId,
        _arch: Arch,
        _view: &ClusterView<'_>,
    ) -> KeepDecision {
        // Cache everything; eviction under pressure is where the policy
        // lives.
        KeepDecision::uncompressed(KEEP_ALIVE_MAX)
    }

    fn eviction_rank(&mut self, instance: &WarmInstance, view: &ClusterView<'_>) -> f64 {
        // Adopt the previous round's minimum as the new clock (the engine
        // evicted that instance).
        if let Some(min) = self.round_min.take() {
            self.clock = self.clock.max(min);
        }
        let p = self.priority(instance.function, view);
        self.round_min = Some(match self.round_min {
            Some(m) => p.min(m),
            None => p,
        });
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_compress::CompressionModel;
    use cc_sim::{ClusterConfig, Simulation};
    use cc_trace::SyntheticTrace;
    use cc_types::SimDuration;
    use cc_workload::{Catalog, Workload};

    #[test]
    fn runs_to_completion_with_evictions() {
        let trace = SyntheticTrace::builder()
            .functions(60)
            .duration(SimDuration::from_mins(180))
            .seed(21)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        // Small warm cap forces the greedy-dual eviction path.
        let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.3);
        let mut policy = FaasCache::new();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
        assert!(report.evictions > 0, "expected eviction pressure");
        assert!(report.warm_fraction() > 0.2);
    }

    #[test]
    fn frequency_raises_priority() {
        let trace = SyntheticTrace::builder()
            .functions(2)
            .duration(SimDuration::from_mins(30))
            .seed(3)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let config = ClusterConfig::small(1, 1);
        let mut policy = FaasCache::new();
        // Simulate some arrivals to build frequency.
        policy.on_arrival(FunctionId::new(0), SimTime::ZERO);
        policy.on_arrival(FunctionId::new(0), SimTime::ZERO);
        policy.on_arrival(FunctionId::new(1), SimTime::ZERO);
        // Build a view through a real simulation run to access specs.
        let _ = Simulation::new(config, &trace, &workload).run(&mut FaasCache::new());
        assert_eq!(policy.frequency, [2, 1]);
    }
}
