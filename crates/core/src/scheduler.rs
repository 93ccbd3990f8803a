//! The CodeCrunch scheduler: SRE-driven per-interval planning.

use cc_opt::{CoordinateDescent, SeparableObjective, Sre, SreRoundStats, SreScratch};
use cc_sim::{ClusterView, Command, KeepDecision, OptimizerRound, Scheduler};
use cc_types::{Arch, FnChoice, FunctionId, ServiceRecord, SimDuration, SimTime};

use crate::{CodeCrunchConfig, ExecObserver, IntervalObjective, PestEstimator};

/// The CodeCrunch policy (see the crate docs for the algorithm overview).
///
/// State per function: a [`PestEstimator`], observed per-arch execution
/// times, the SRE optimization counter, and the currently planned
/// [`FnChoice`]. Each interval tick re-optimizes the functions invoked in
/// that interval; all others retain their previous plans, exactly as the
/// paper specifies.
#[derive(Debug)]
pub struct CodeCrunch {
    config: CodeCrunchConfig,
    name: String,
    pest: Vec<PestEstimator>,
    exec: ExecObserver,
    opt_counts: Vec<u32>,
    /// The planned choice per function, indexed by [`FunctionId::index`]
    /// (function ids are dense). `place`/`on_completion` run once per
    /// invocation, so the lookup must be an array index, not a hash.
    plan: Vec<Option<FnChoice>>,
    /// The functions invoked this interval.
    invoked: InvokedSet,
    interval_index: u64,
    /// When set (by the engine, only while a real event sink is attached),
    /// per-round optimizer progress is buffered in `opt_rounds` for
    /// [`Scheduler::drain_optimizer_rounds`]. Recording is observation-only
    /// and never changes the optimized plan.
    introspect: bool,
    opt_rounds: Vec<OptimizerRound>,
    /// Recycled SRE working buffers, reused across intervals so the
    /// per-interval optimization allocates nothing in steady state.
    sre_scratch: SreScratch,
    /// Recycled interval-tick buffers (invoked-function list, `P_est`
    /// column, start solution, local opt-counts); like `sre_scratch`,
    /// these make the steady-state tick allocation-free.
    scratch_functions: Vec<FunctionId>,
    scratch_pest: Vec<Option<SimDuration>>,
    scratch_start: Vec<FnChoice>,
    scratch_counts: Vec<u32>,
}

impl CodeCrunch {
    /// Creates the full system with default configuration.
    pub fn new() -> CodeCrunch {
        CodeCrunch::with_config(CodeCrunchConfig::default())
    }

    /// Creates a configured (possibly ablated) instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_config(config: CodeCrunchConfig) -> CodeCrunch {
        config.validate();
        let name = config.policy_name();
        let exec_alpha = config.exec_alpha;
        CodeCrunch {
            config,
            name,
            pest: Vec::new(),
            exec: ExecObserver::new(0, exec_alpha),
            opt_counts: Vec::new(),
            plan: Vec::new(),
            invoked: InvokedSet::default(),
            interval_index: 0,
            introspect: false,
            opt_rounds: Vec::new(),
            sre_scratch: SreScratch::default(),
            scratch_functions: Vec::new(),
            scratch_pest: Vec::new(),
            scratch_start: Vec::new(),
            scratch_counts: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CodeCrunchConfig {
        &self.config
    }

    /// The current planned choice for a function, if any.
    pub fn planned(&self, function: FunctionId) -> Option<FnChoice> {
        self.plan.get(function.index()).copied().flatten()
    }

    /// The current `P_est` re-invocation estimate for a function, if the
    /// scheduler has seen at least two arrivals (diagnostics/analysis).
    pub fn pest_estimate(&self, function: FunctionId) -> Option<SimDuration> {
        self.pest.get(function.index())?.estimate()
    }

    fn ensure_capacity(&mut self, function: FunctionId) {
        let needed = function.index() + 1;
        while self.pest.len() < needed {
            self.pest.push(PestEstimator::with_local_window(
                self.config.pest_local_window,
            ));
            self.opt_counts.push(0);
            self.plan.push(None);
            self.invoked.grow(needed);
        }
        if !self.exec.covers(needed) {
            self.exec.grow(needed);
        }
    }

    /// The plan used before a function has ever been optimized: its faster
    /// permitted architecture, uncompressed, a 10-minute window.
    fn default_choice(&self, function: FunctionId, view: &ClusterView<'_>) -> FnChoice {
        let spec = view.spec(function);
        let arch = if spec.exec_time(Arch::Arm) < spec.exec_time(Arch::X86) {
            Arch::Arm
        } else {
            Arch::X86
        };
        FnChoice::new(
            self.config.arch_policy.clamp(arch),
            false,
            self.config
                .fixed_keep_alive
                .unwrap_or(SimDuration::from_mins(10)),
        )
    }

    /// Builds the SLA-mode seed plan: functions ranked by how badly a cold
    /// start would overshoot the SLA limit claim keep-alive windows of
    /// `P_est` first, compressed only when the budget demands it *and*
    /// decompression still meets the SLA.
    fn sla_seed(
        &self,
        objective: &IntervalObjective<'_>,
        functions: &[FunctionId],
        pest: &[Option<SimDuration>],
    ) -> Vec<FnChoice> {
        let sla = self
            .config
            .sla_allowed_increase
            .expect("sla_seed only runs in SLA mode");
        let n = functions.len();
        let mut choices: Vec<FnChoice> = functions
            .iter()
            .map(|&f| {
                let spec = objective.workload.spec(f);
                let arch = if spec.exec_time(Arch::Arm) < spec.exec_time(Arch::X86) {
                    Arch::Arm
                } else {
                    Arch::X86
                };
                FnChoice::drop_now(self.config.arch_policy.clamp(arch))
            })
            .collect();

        // Rank by cold-start overshoot of the SLA limit, worst first.
        let mut order: Vec<usize> = (0..n).collect();
        let overshoot = |idx: usize| -> f64 {
            let f = functions[idx];
            let arch = choices[idx].arch;
            let exec = self
                .exec
                .exec_time(f, arch, objective.workload)
                .as_secs_f64();
            let reference = self
                .exec
                .exec_time(f, Arch::X86, objective.workload)
                .as_secs_f64();
            let cold = objective.workload.spec(f).cold_start(arch).as_secs_f64();
            (exec + cold) - (1.0 + sla) * reference
        };
        order.sort_by(|&a, &b| overshoot(b).total_cmp(&overshoot(a)));

        let mut remaining = objective.budget;
        for idx in order {
            let Some(p) = pest[idx] else {
                continue; // no estimate: cannot target a window yet
            };
            let window = (p + SimDuration::from_mins(1)).min(cc_types::KEEP_ALIVE_MAX);
            for compress in [false, true] {
                if compress && !self.config.allow_compression {
                    continue;
                }
                let candidate = FnChoice::new(choices[idx].arch, compress, window);
                if compress {
                    // Compression only helps if decompression still meets
                    // the SLA.
                    let service = objective.predicted_service(idx, &candidate);
                    let reference = self
                        .exec
                        .exec_time(functions[idx], Arch::X86, objective.workload)
                        .as_secs_f64();
                    if service > (1.0 + sla) * reference {
                        continue;
                    }
                }
                let cost = objective.choice_cost(idx, &candidate);
                let affordable = match remaining {
                    None => true,
                    Some(budget) => cost <= budget,
                };
                if affordable {
                    choices[idx] = candidate;
                    if let Some(budget) = remaining {
                        remaining = Some(budget - cost);
                    }
                    break;
                }
            }
        }
        choices
    }

    /// Applies the configured post-processing to an optimized choice.
    fn finalize_choice(&self, mut choice: FnChoice) -> FnChoice {
        choice.arch = self.config.arch_policy.clamp(choice.arch);
        if !self.config.allow_compression {
            choice.compress = false;
        }
        if let Some(fixed) = self.config.fixed_keep_alive {
            choice.keep_alive = fixed;
        }
        choice
    }
}

impl Default for CodeCrunch {
    fn default() -> Self {
        CodeCrunch::new()
    }
}

/// The set of functions invoked since the last tick, one bit per dense
/// function index. `on_arrival` sets a bit in O(1), and the tick drains
/// the words in order, which yields the invoked ids ascending — the order
/// the interval's optimization, and so every plan, depends on.
#[derive(Debug, Default)]
struct InvokedSet {
    words: Vec<u64>,
}

impl InvokedSet {
    /// Makes room for function indices below `len`.
    fn grow(&mut self, len: usize) {
        let words = len.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Adds function index `idx`; [`InvokedSet::grow`] must cover it.
    fn insert(&mut self, idx: usize) {
        self.words[idx / 64] |= 1 << (idx % 64);
    }

    /// Replaces `out`'s contents with the members in ascending order and
    /// empties the set.
    fn drain_into(&mut self, out: &mut Vec<FunctionId>) {
        out.clear();
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(FunctionId::new((w * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }
}

/// Translates an SRE round snapshot into the observability vocabulary.
fn convert_round(stats: SreRoundStats) -> OptimizerRound {
    OptimizerRound {
        round: stats.round,
        subproblems: stats.subproblems,
        dimensions: stats.dimensions,
        objective: stats.cost,
        accepted_moves: stats.accepted_moves,
        evaluations: stats.evaluations,
    }
}

impl Scheduler for CodeCrunch {
    fn name(&self) -> &str {
        &self.name
    }

    /// Keeps the default LRU eviction rank.
    fn evicts_in_admission_order(&self) -> bool {
        true
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        self.ensure_capacity(function);
        let idx = function.index();
        self.pest[idx].record(now);
        self.invoked.insert(idx);
    }

    fn on_record(&mut self, record: &ServiceRecord) {
        self.ensure_capacity(record.function);
        self.exec.observe(record);
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        self.ensure_capacity(function);
        match self.plan[function.index()] {
            Some(choice) => self.config.arch_policy.clamp(choice.arch),
            None => self.default_choice(function, view).arch,
        }
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        _arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        self.ensure_capacity(function);
        let choice =
            self.plan[function.index()].unwrap_or_else(|| self.default_choice(function, view));
        let choice = self.finalize_choice(choice);
        KeepDecision {
            keep_alive: choice.keep_alive,
            compress: choice.compress,
        }
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        self.interval_index += 1;
        // All interval-tick working vectors are recycled through the
        // scratch fields: taken here, returned before every exit, so the
        // steady-state tick performs no heap allocation.
        let mut functions = std::mem::take(&mut self.scratch_functions);
        self.invoked.drain_into(&mut functions);
        if functions.is_empty() {
            self.scratch_functions = functions;
            return Vec::new();
        }

        let mut pest = std::mem::take(&mut self.scratch_pest);
        pest.clear();
        pest.extend(functions.iter().map(|f| self.pest[f.index()].estimate()));
        let pest = pest;
        let budget = view.ledger.is_budgeted().then(|| view.ledger.balance());
        let objective = IntervalObjective {
            functions: &functions,
            workload: view.workload,
            exec: &self.exec,
            pest: &pest,
            rates: [view.config.rate(Arch::X86), view.config.rate(Arch::Arm)],
            budget,
            sla: self.config.sla_allowed_increase,
            arch_policy: self.config.arch_policy,
            allow_compression: self.config.allow_compression,
        };

        // Start from the current plans (or defaults), coerced feasible:
        // dropping everything always fits any budget. Feasibility is the
        // picodollar test SRE's repair loop applies.
        let mut start = std::mem::take(&mut self.scratch_start);
        start.clear();
        start.extend(functions.iter().map(|&f| {
            self.finalize_choice(
                self.plan[f.index()].unwrap_or_else(|| self.default_choice(f, view)),
            )
        }));
        if !objective.is_feasible(&start) {
            // Scale every window down proportionally until the carried-over
            // plan fits the currently available credit; zeroing everything
            // would throw away the structure SRE built in past intervals.
            for _ in 0..12 {
                for c in start.iter_mut() {
                    c.keep_alive = c.keep_alive.scale(0.6);
                    if c.keep_alive < SimDuration::from_secs(30) {
                        c.keep_alive = SimDuration::ZERO;
                    }
                }
                if objective.is_feasible(&start) {
                    break;
                }
            }
            if !objective.is_feasible(&start) {
                for c in start.iter_mut() {
                    c.keep_alive = SimDuration::ZERO;
                    c.compress = false;
                }
            }
        }
        if self.config.sla_allowed_increase.is_some() {
            // SLA mode: coordinate descent cannot trade budget between
            // functions, so seed the plan greedily — protect the functions
            // whose cold start would violate the SLA first.
            start = self.sla_seed(&objective, &functions, &pest);
        }

        let outcome = if self.config.use_sre {
            let mut local_counts = std::mem::take(&mut self.scratch_counts);
            local_counts.clear();
            local_counts.extend(functions.iter().map(|f| self.opt_counts[f.index()]));
            let mut sre =
                Sre::scaled_to(functions.len()).with_seed(self.config.seed ^ self.interval_index);
            sre.inner.eval_budget =
                self.config.eval_budget / (sre.num_subproblems * sre.rounds).max(1) as u64;
            let opt_rounds = &mut self.opt_rounds;
            let mut record = |stats: SreRoundStats| opt_rounds.push(convert_round(stats));
            let outcome = sre.optimize(
                &objective,
                start,
                &mut local_counts,
                &mut self.sre_scratch,
                self.introspect.then_some(&mut record as _),
            );
            for (i, &f) in functions.iter().enumerate() {
                self.opt_counts[f.index()] = local_counts[i];
            }
            self.scratch_counts = local_counts;
            outcome
        } else {
            // The Fig. 12 "without SRE" arm: full-space descent under the
            // same evaluation budget.
            let descent = CoordinateDescent {
                max_rounds: 64,
                eval_budget: self.config.eval_budget,
            };
            for &f in &functions {
                self.opt_counts[f.index()] += 1;
            }
            let before = self.introspect.then(|| start.clone());
            let outcome = descent.optimize(&objective, start);
            if let Some(before) = before {
                let accepted_moves = before
                    .iter()
                    .zip(&outcome.solution)
                    .map(|(a, b)| a.changed_coordinates(b))
                    .sum();
                self.opt_rounds.push(OptimizerRound {
                    round: 0,
                    subproblems: 1,
                    dimensions: 3 * functions.len() as u32,
                    objective: outcome.cost,
                    accepted_moves,
                    evaluations: outcome.evaluations,
                });
            }
            outcome
        };

        for (i, &f) in functions.iter().enumerate() {
            self.plan[f.index()] = Some(self.finalize_choice(outcome.solution[i]));
        }
        // The optimizer hands the start buffer back as its solution;
        // recycle everything for the next tick.
        self.scratch_start = outcome.solution;
        self.scratch_pest = pest;
        self.scratch_functions = functions;
        Vec::new()
    }

    fn enable_introspection(&mut self, enabled: bool) {
        self.introspect = enabled;
        if !enabled {
            self.opt_rounds.clear();
        }
    }

    fn drain_optimizer_rounds(&mut self) -> Vec<OptimizerRound> {
        std::mem::take(&mut self.opt_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchPolicy;
    use cc_compress::CompressionModel;
    use cc_sim::{ClusterConfig, FixedKeepAlive, Simulation};
    use cc_trace::SyntheticTrace;
    use cc_types::Cost;
    use cc_workload::{Catalog, Workload};

    fn setup(functions: usize, minutes: u64, seed: u64) -> (cc_trace::Trace, Workload) {
        let trace = SyntheticTrace::builder()
            .functions(functions)
            .duration(SimDuration::from_mins(minutes))
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
    fn completes_every_invocation() {
        let (trace, workload) = setup(30, 120, 61);
        let mut policy = CodeCrunch::new();
        let report =
            Simulation::new(ClusterConfig::small(3, 3), &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
        assert_eq!(report.policy, "codecrunch");
    }

    #[test]
    fn is_deterministic() {
        let (trace, workload) = setup(20, 90, 62);
        let run = || {
            let mut policy = CodeCrunch::new();
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy)
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn beats_fixed_keepalive_under_budget() {
        let (trace, workload) = setup(60, 240, 63);
        // First measure the fixed baseline's natural spend, then give both
        // policies that budget — the paper's normalization.
        let unlimited = ClusterConfig::small(2, 2);
        let mut fixed = FixedKeepAlive::ten_minutes();
        let natural = Simulation::new(unlimited, &trace, &workload).run(&mut fixed);
        let minutes = trace.duration().as_mins_f64().max(1.0);
        let per_interval = natural.keep_alive_spend.scale(1.0 / minutes);

        let budgeted = ClusterConfig::small(2, 2).with_budget(per_interval);
        let mut fixed2 = FixedKeepAlive::ten_minutes();
        let mut crunch = CodeCrunch::new();
        let r_fixed = Simulation::new(budgeted.clone(), &trace, &workload).run(&mut fixed2);
        let r_crunch = Simulation::new(budgeted, &trace, &workload).run(&mut crunch);
        assert!(
            r_crunch.mean_service_time_secs() <= r_fixed.mean_service_time_secs() * 1.02,
            "codecrunch {}s vs fixed {}s",
            r_crunch.mean_service_time_secs(),
            r_fixed.mean_service_time_secs()
        );
    }

    /// Measures the fixed baseline's natural spend and returns a budgeted
    /// config granting `fraction` of it per interval.
    fn budgeted_config(
        trace: &cc_trace::Trace,
        workload: &Workload,
        fraction: f64,
    ) -> ClusterConfig {
        let mut fixed = FixedKeepAlive::ten_minutes();
        let natural = Simulation::new(ClusterConfig::small(2, 2), trace, workload).run(&mut fixed);
        let minutes = trace.duration().as_mins_f64().max(1.0);
        let per_interval = natural.keep_alive_spend.scale(fraction / minutes);
        ClusterConfig::small(2, 2).with_budget(per_interval)
    }

    #[test]
    fn compression_events_occur_under_tight_budget() {
        let (trace, workload) = setup(50, 180, 64);
        let config = budgeted_config(&trace, &workload, 0.4);
        let mut crunch = CodeCrunch::new();
        let report = Simulation::new(config, &trace, &workload).run(&mut crunch);
        assert!(
            report.compression_events > 0,
            "tight budget should force compression"
        );
    }

    #[test]
    fn compression_improves_service_under_tight_budget() {
        let (trace, workload) = setup(50, 180, 69);
        let config = budgeted_config(&trace, &workload, 0.4);
        let mut with = CodeCrunch::new();
        let mut without = CodeCrunch::with_config(CodeCrunchConfig {
            allow_compression: false,
            ..CodeCrunchConfig::default()
        });
        let r_with = Simulation::new(config.clone(), &trace, &workload).run(&mut with);
        let r_without = Simulation::new(config, &trace, &workload).run(&mut without);
        assert!(
            r_with.mean_service_time_secs() <= r_without.mean_service_time_secs() * 1.02,
            "compression {}s vs none {}s",
            r_with.mean_service_time_secs(),
            r_without.mean_service_time_secs()
        );
    }

    #[test]
    fn no_compression_ablation_never_compresses() {
        let (trace, workload) = setup(40, 120, 65);
        let config = ClusterConfig::small(2, 2).with_budget(Cost::from_dollars(2e-7));
        let mut crunch = CodeCrunch::with_config(CodeCrunchConfig {
            allow_compression: false,
            ..CodeCrunchConfig::default()
        });
        let report = Simulation::new(config, &trace, &workload).run(&mut crunch);
        assert_eq!(report.compression_events, 0);
    }

    #[test]
    fn arch_ablations_respect_restriction() {
        let (trace, workload) = setup(25, 90, 66);
        for (policy, arch) in [
            (ArchPolicy::X86Only, Arch::X86),
            (ArchPolicy::ArmOnly, Arch::Arm),
        ] {
            let mut crunch = CodeCrunch::with_config(CodeCrunchConfig {
                arch_policy: policy,
                ..CodeCrunchConfig::default()
            });
            let report =
                Simulation::new(ClusterConfig::small(3, 3), &trace, &workload).run(&mut crunch);
            // Spillover to the other arch only happens when the restricted
            // side is saturated; on this lightly-loaded cluster every
            // record stays on the chosen architecture.
            let on_arch = report.records.iter().filter(|r| r.arch == arch).count();
            assert!(
                on_arch as f64 >= report.records.len() as f64 * 0.95,
                "{policy:?}: {on_arch}/{}",
                report.records.len()
            );
        }
    }

    #[test]
    fn sla_mode_reduces_violations() {
        let (trace, workload) = setup(40, 180, 67);
        let sla = 0.2;
        // A tight budget forces cold starts, so the SLA constraint has
        // something to protect against.
        let config = budgeted_config(&trace, &workload, 0.5);
        let mut plain = CodeCrunch::new();
        let mut constrained = CodeCrunch::with_config(CodeCrunchConfig {
            sla_allowed_increase: Some(sla),
            ..CodeCrunchConfig::default()
        });
        let r_plain = Simulation::new(config.clone(), &trace, &workload).run(&mut plain);
        let r_sla = Simulation::new(config, &trace, &workload).run(&mut constrained);

        let violations = |report: &cc_sim::SimReport| {
            report
                .records
                .iter()
                .filter(|r| {
                    let reference = workload.spec(r.function).exec_time(Arch::X86);
                    r.service_time().as_secs_f64() > (1.0 + sla) * reference.as_secs_f64()
                })
                .count() as f64
                / report.records.len() as f64
        };
        // Plain CodeCrunch already violates rarely (its objective minimizes
        // the same service times); the SLA mode must hold that line. The
        // sharper contrast — SLA-mode CodeCrunch vs the SLA-oblivious
        // baselines — is asserted in the fig9 experiment test.
        assert!(
            violations(&r_sla) <= violations(&r_plain) + 0.01,
            "sla {} vs plain {}",
            violations(&r_sla),
            violations(&r_plain)
        );
    }

    #[test]
    fn introspection_emits_rounds_without_perturbing_the_run() {
        let (trace, workload) = setup(30, 90, 70);
        let config = ClusterConfig::small(2, 2);
        let mut plain = CodeCrunch::new();
        let base = Simulation::new(config.clone(), &trace, &workload).run(&mut plain);

        let mut probed = CodeCrunch::new();
        let mut sink = cc_sim::BufferSink::new();
        let traced =
            Simulation::new(config, &trace, &workload).run_with_sink(&mut probed, &mut sink);

        // The sink observes; it never steers.
        assert_eq!(base.records, traced.records);
        assert_eq!(base.keep_alive_spend, traced.keep_alive_spend);

        let rounds: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                cc_sim::Event::OptimizerRound { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert!(!rounds.is_empty(), "SRE rounds should be reported");
        assert!(rounds
            .iter()
            .all(|r| r.subproblems >= 1 && r.dimensions >= 3));
        assert!(rounds.iter().any(|r| r.evaluations > 0));
    }

    /// Repeated arrivals in any order reach the tick as the ascending
    /// distinct ids, across word boundaries, and the drain empties the set.
    #[test]
    fn invoked_set_drains_ascending_distinct_ids() {
        let mut crunch = CodeCrunch::new();
        let mut now = SimTime::ZERO;
        for id in [4_095, 64, 0, 127, 63, 64, 4_095, 0, 127, 127, 63, 0] {
            now += SimDuration::from_secs(1);
            crunch.on_arrival(FunctionId::new(id), now);
        }
        let mut functions = Vec::new();
        crunch.invoked.drain_into(&mut functions);
        let ids: Vec<usize> = functions.iter().map(|f| f.index()).collect();
        assert_eq!(ids, [0, 63, 64, 127, 4_095]);
        crunch.invoked.drain_into(&mut functions);
        assert!(functions.is_empty(), "the drain must empty the set");
        assert!(crunch.invoked.words.iter().all(|&w| w == 0));
    }

    #[test]
    fn plans_persist_for_uninvoked_functions() {
        let (trace, workload) = setup(10, 60, 68);
        let mut crunch = CodeCrunch::new();
        let _ = Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut crunch);
        // After a run, invoked functions have plans.
        let planned = (0..10)
            .filter(|&i| crunch.planned(FunctionId::new(i)).is_some())
            .count();
        assert!(planned > 0);
    }
}
