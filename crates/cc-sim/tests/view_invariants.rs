//! Invariants of the [`ClusterView`] observed live, from inside a policy,
//! at every callback of a full simulation run.

use cc_compress::CompressionModel;
use cc_sim::{ClusterConfig, ClusterView, KeepDecision, Scheduler, Simulation};
use cc_trace::SyntheticTrace;
use cc_types::{Arch, FunctionId, MemoryMb, SimDuration, SimTime};
use cc_workload::{Catalog, Workload};

/// A policy that behaves like the fixed baseline but asserts view
/// invariants at every opportunity.
struct InvariantProbe {
    checks: u64,
    last_now: SimTime,
}

impl InvariantProbe {
    fn new() -> Self {
        InvariantProbe {
            checks: 0,
            last_now: SimTime::ZERO,
        }
    }

    fn check(&mut self, view: &ClusterView<'_>) {
        self.checks += 1;
        // Time is monotone across callbacks.
        assert!(view.now >= self.last_now, "time ran backwards");
        self.last_now = view.now;

        // Per-node accounting stays within capacity.
        for node in view.nodes {
            assert!(node.busy_cores <= node.cores, "{}: cores", node.id);
            let used = node.running_memory + node.warm_memory;
            assert!(used <= node.memory, "{}: memory over capacity", node.id);
            // The warm cap holds at all times.
            assert!(
                node.warm_memory <= view.config.warm_memory_cap(),
                "{}: warm cap violated ({} > {})",
                node.id,
                node.warm_memory,
                view.config.warm_memory_cap()
            );
        }

        // The per-function index agrees with the O(1) aggregate counters,
        // and every instance it yields is internally consistent.
        let mut via_index = 0usize;
        let mut compressed = 0usize;
        let mut warm_mem_instances = MemoryMb::ZERO;
        for f in 0..view.workload.len() {
            let function = FunctionId::new(f as u32);
            let instances = view.warm_instances_of(function);
            assert_eq!(view.is_warm(function), !instances.is_empty());
            assert!(
                instances.windows(2).all(|pair| pair[0].seq < pair[1].seq),
                "warm instances out of admission order"
            );
            via_index += instances.len();
            for inst in instances {
                assert_eq!(inst.function, function);
                // The handle the index hands out resolves back to the same
                // instance (generation check passes while it is live).
                assert_eq!(view.instance(inst.id).map(|i| i.seq), Some(inst.seq));
                let node = &view.nodes[inst.node.index()];
                assert_eq!(node.arch, inst.arch);
                assert!(inst.expiry >= inst.since);
                warm_mem_instances += inst.memory;
                if inst.compressed {
                    compressed += 1;
                }
            }
        }
        assert_eq!(via_index, view.warm_count(), "index out of sync with count");
        let warm_mem_nodes: MemoryMb = view.nodes.iter().map(|n| n.warm_memory).sum();
        assert_eq!(
            warm_mem_nodes, warm_mem_instances,
            "warm memory out of sync"
        );

        // Aggregates are consistent, and the O(1) totals equal a scan of
        // the nodes in release builds too.
        assert_eq!(view.total_warm_memory(), warm_mem_nodes);
        assert!(view.busy_core_fraction() >= 0.0 && view.busy_core_fraction() <= 1.0);
        let cores: u32 = view.nodes.iter().map(|n| n.cores).sum();
        let busy: u32 = view.nodes.iter().map(|n| n.busy_cores).sum();
        assert_eq!(view.busy_core_fraction(), busy as f64 / cores as f64);
        for arch in Arch::ALL {
            let of_arch = || view.nodes.iter().filter(|n| n.arch == arch);
            assert_eq!(
                view.free_cores(arch),
                of_arch().map(|n| n.free_cores()).sum::<u32>()
            );
            assert_eq!(
                view.free_memory(arch),
                of_arch().map(|n| n.free_memory()).sum::<MemoryMb>()
            );
        }
        assert_eq!(view.compressed_count(), compressed);
    }
}

impl Scheduler for InvariantProbe {
    fn name(&self) -> &str {
        "invariant-probe"
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        self.check(view);
        // Exercise per-function queries too.
        let _ = view.is_warm(function);
        let _ = view.warm_instances_of(function);
        if view.free_cores(Arch::X86) >= view.free_cores(Arch::Arm) {
            Arch::X86
        } else {
            Arch::Arm
        }
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        _arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        self.check(view);
        // Compress every third function to exercise both pool shapes.
        KeepDecision {
            keep_alive: SimDuration::from_mins(8),
            compress: function.index().is_multiple_of(3),
        }
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<cc_sim::Command> {
        self.check(view);
        Vec::new()
    }
}

#[test]
fn view_invariants_hold_throughout_a_pressured_run() {
    let trace = SyntheticTrace::builder()
        .functions(60)
        .duration(SimDuration::from_mins(120))
        .seed(55)
        .build();
    let workload = Workload::from_trace(
        &trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    // Tight warm cap: eviction, compression, and queueing all fire.
    let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.15);
    let mut probe = InvariantProbe::new();
    let report = Simulation::new(config, &trace, &workload).run(&mut probe);
    assert_eq!(report.records.len(), trace.invocations().len());
    assert!(
        probe.checks > 1000,
        "probe barely ran: {} checks",
        probe.checks
    );
    assert!(report.compression_events > 0);
}
