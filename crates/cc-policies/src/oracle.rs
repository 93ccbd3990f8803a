//! The Oracle upper bound: future knowledge of the trace.

use cc_sim::{ClusterView, Command, KeepDecision, Scheduler};
use cc_trace::Trace;
use cc_types::{Arch, FunctionId, SimDuration, SimTime, KEEP_ALIVE_MAX};

use crate::entry;

/// The theoretically-best-but-infeasible policy: it knows every future
/// invocation, so it
///
/// - keeps an instance alive exactly until its next invocation when that is
///   imminent,
/// - otherwise drops it and pre-warms a fresh instance just before the next
///   invocation (paying the cold start off the critical path),
/// - and places every function on its faster architecture.
///
/// As in the paper, Oracle still pays real keep-alive costs and competes
/// for real capacity — it is an upper bound on scheduling quality, not a
/// free pass.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Every arrival time, grouped by function in function-id order and
    /// sorted within each group: function `f`'s are
    /// `arrivals[starts[f]..starts[f + 1]]`.
    arrivals: Vec<SimTime>,
    /// Per function, then one past the last: where its group starts.
    starts: Vec<usize>,
    /// Per function: the position in `arrivals` of its next unconsumed
    /// arrival.
    cursor: Vec<usize>,
    /// `(arrived, completed)` counters per function, indexed by
    /// [`FunctionId::index`], to detect in-flight invocations at
    /// completion time.
    in_flight: Vec<(u64, u64)>,
}

impl Oracle {
    /// Builds the oracle from the full trace (the "offline future
    /// knowledge" of the paper).
    pub fn new(trace: &Trace) -> Oracle {
        let functions = trace
            .invocations()
            .iter()
            .map(|inv| inv.function.index() + 1)
            .max()
            .unwrap_or(0);
        // A counting sort by function; the trace is time-sorted and the
        // sort is stable, so each group comes out sorted.
        let mut starts = vec![0; functions + 1];
        for inv in trace.invocations() {
            starts[inv.function.index() + 1] += 1;
        }
        for f in 0..functions {
            starts[f + 1] += starts[f];
        }
        let mut cursor = starts[..functions].to_vec();
        let mut arrivals = vec![SimTime::ZERO; trace.invocations().len()];
        for inv in trace.invocations() {
            let next = &mut cursor[inv.function.index()];
            arrivals[*next] = inv.arrival;
            *next += 1;
        }
        cursor.copy_from_slice(&starts[..functions]);
        Oracle {
            arrivals,
            starts,
            cursor,
            in_flight: Vec::new(),
        }
    }

    /// The next invocation of `function` strictly after `now`.
    fn next_invocation(&mut self, function: FunctionId, now: SimTime) -> Option<SimTime> {
        let index = function.index();
        let end = *self.starts.get(index + 1)?;
        let cursor = &mut self.cursor[index];
        while *cursor < end && self.arrivals[*cursor] <= now {
            *cursor += 1;
        }
        (*cursor < end).then(|| self.arrivals[*cursor])
    }
}

impl Scheduler for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn on_arrival(&mut self, function: FunctionId, _now: SimTime) {
        entry(&mut self.in_flight, function).0 += 1;
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        crate::faster_arch(function, view)
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        let counters = entry(&mut self.in_flight, function);
        counters.1 += 1;
        let in_flight = counters.0.saturating_sub(counters.1);
        if in_flight > 0 {
            // Another invocation of this function has already arrived and
            // may be queued: keep the instance hot for it.
            return KeepDecision::uncompressed(SimDuration::from_mins(2));
        }
        let Some(next) = self.next_invocation(function, view.now) else {
            return KeepDecision::DROP; // never invoked again
        };
        let gap = next.saturating_since(view.now);
        let spec = view.spec(function);
        let cold = spec.cold_start(arch);
        // A generous margin so queueing delays cannot expire the instance
        // moments before its invocation gets a core.
        let margin = SimDuration::from_secs(30);
        if gap + margin > KEEP_ALIVE_MAX {
            return KeepDecision::DROP; // a pre-warm will handle it
        }
        // With an unconstrained budget, keeping the instance exactly until
        // its next invocation is always optimal.
        if !view.ledger.is_budgeted() {
            return KeepDecision::uncompressed(gap + margin);
        }
        // Under a budget: keeping alive until `next` is still the best use
        // of credit when affordable — an exact window wastes nothing, and
        // a pre-warm would occupy a core for the cold-start duration,
        // stealing capacity from real executions. Fall back to dropping
        // (and pre-warming later) only when the credit does not cover the
        // window.
        let spec = view.spec(function);
        let cost = view
            .config
            .rate(arch)
            .keep_alive_cost(spec.memory, gap + margin);
        if cost <= view.ledger.balance() {
            KeepDecision::uncompressed(gap + margin)
        } else {
            let keep_threshold = SimDuration::from_mins(2).max(cold * 4);
            if gap <= keep_threshold {
                KeepDecision::uncompressed(gap + margin)
            } else {
                KeepDecision::DROP
            }
        }
    }

    fn eviction_rank(&mut self, instance: &cc_sim::WarmInstance, view: &ClusterView<'_>) -> f64 {
        // Belady's rule, the optimal eviction policy: under memory
        // pressure, sacrifice the instance whose next invocation is
        // furthest away (never-again instances first).
        match self.next_invocation(instance.function, view.now) {
            None => f64::MIN,
            Some(next) => -next.saturating_since(view.now).as_secs_f64(),
        }
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        // Pre-warm every function whose next invocation lands within the
        // coming interval (plus cold-start lead time), on its faster arch.
        // Command order affects placement: function-id order.
        let mut commands = Vec::new();
        for index in 0..self.cursor.len() {
            let function = FunctionId::new(index as u32);
            if self.starts[index] == self.starts[index + 1] || view.is_warm(function) {
                continue;
            }
            let spec = view.spec(function);
            let arch = crate::faster_arch(function, view);
            let cold = spec.cold_start(arch);
            let Some(next) = self.next_invocation(function, view.now) else {
                continue;
            };
            let lead = view.now + cold;
            if next > lead && next <= lead + view.config.interval {
                let keep_alive = next.saturating_since(lead) + SimDuration::from_secs(30);
                commands.push(Command::Prewarm {
                    function,
                    arch,
                    keep_alive,
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
    use cc_sim::{ClusterConfig, FixedKeepAlive, Simulation};
    use cc_trace::SyntheticTrace;
    use cc_workload::{Catalog, Workload};

    fn setup(seed: u64) -> (Trace, Workload) {
        let trace = SyntheticTrace::builder()
            .functions(30)
            .duration(SimDuration::from_mins(180))
            .seed(seed)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        (trace, workload)
    }

    #[test]
    fn oracle_beats_fixed_keepalive() {
        let (trace, workload) = setup(41);
        let config = ClusterConfig::small(3, 3);
        let mut oracle = Oracle::new(&trace);
        let mut fixed = FixedKeepAlive::ten_minutes();
        let r_oracle = Simulation::new(config.clone(), &trace, &workload).run(&mut oracle);
        let r_fixed = Simulation::new(config, &trace, &workload).run(&mut fixed);
        assert!(
            r_oracle.mean_service_time_secs() <= r_fixed.mean_service_time_secs(),
            "oracle {}s vs fixed {}s",
            r_oracle.mean_service_time_secs(),
            r_fixed.mean_service_time_secs()
        );
        // Oracle optimizes service time, not warm count; allow a sliver of
        // warm-fraction slack but demand it spends less doing it.
        assert!(
            r_oracle.warm_fraction() >= r_fixed.warm_fraction() - 0.02,
            "oracle warm {} vs fixed {}",
            r_oracle.warm_fraction(),
            r_fixed.warm_fraction()
        );
        assert!(
            r_oracle.keep_alive_spend <= r_fixed.keep_alive_spend,
            "oracle should not outspend the fixed baseline"
        );
    }

    #[test]
    fn oracle_achieves_high_warm_fraction() {
        let (trace, workload) = setup(42);
        let mut oracle = Oracle::new(&trace);
        let report =
            Simulation::new(ClusterConfig::small(3, 3), &trace, &workload).run(&mut oracle);
        assert!(
            report.warm_fraction() > 0.6,
            "oracle warm fraction {}",
            report.warm_fraction()
        );
    }

    #[test]
    fn next_invocation_advances_past_now() {
        let (trace, _) = setup(43);
        let mut oracle = Oracle::new(&trace);
        let f = trace.invocations()[0].function;
        let first = trace.invocations()[0].arrival;
        let next = oracle.next_invocation(f, first);
        assert!(next.is_none() || next.unwrap() > first);
    }
}
