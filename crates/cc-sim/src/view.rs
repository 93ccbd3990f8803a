//! Read-only view of cluster state handed to policies.

use cc_types::{Arch, FunctionId, MemoryMb, SimTime, WarmId};
use cc_workload::{FunctionSpec, Workload};

use crate::node::{NodeState, WarmInstance};
use crate::pool::WarmPool;
use crate::{BudgetLedger, ClusterConfig};

/// A read-only snapshot of the cluster offered to policy callbacks.
///
/// Everything a policy may legitimately observe is here: the clock, node
/// states, warm-pool contents, the budget ledger, the resolved function
/// specs, and the current queueing pressure. Policies must not (and cannot)
/// see the future of the trace — except [`Oracle`](https://docs.rs/cc-policies),
/// which captures the trace at construction instead.
///
/// Warm-pool contents are exposed through methods
/// ([`ClusterView::warm_instances_of`], [`ClusterView::instance`],
/// [`ClusterView::warm_count`], …) rather than raw maps: the engine stores
/// instances in a slab arena with ordered indexes, and the accessors read
/// those directly.
///
/// These queries are O(1), read from counters the engine keeps up to date
/// rather than scans: [`ClusterView::free_cores`],
/// [`ClusterView::free_memory`], [`ClusterView::total_warm_memory`],
/// [`ClusterView::busy_core_fraction`], [`ClusterView::warm_count`],
/// [`ClusterView::compressed_count`], [`ClusterView::is_warm`] and
/// [`ClusterView::instance`]. Debug builds check each cluster total
/// against a scan of `nodes` on every read.
pub struct ClusterView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Static cluster configuration.
    pub config: &'a ClusterConfig,
    /// All node states.
    pub nodes: &'a [NodeState],
    /// The budget ledger.
    pub ledger: &'a BudgetLedger,
    /// Resolved per-function specs.
    pub workload: &'a Workload,
    /// Number of invocations waiting for capacity.
    pub pending: usize,
    /// The warm pool.
    pub(crate) pool: &'a WarmPool,
    /// Per architecture: the sums of its nodes' states.
    pub(crate) totals: &'a [ArchTotals; 2],
}

/// Sums of the node states of one architecture. The engine keeps one per
/// architecture: every node-state change goes through its
/// `mutate_node`, which takes the node's contribution out before the
/// change and adds it back after, so the sums stay integer-exact and the
/// view's aggregate queries never scan the nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArchTotals {
    /// Cores.
    pub(crate) cores: u32,
    /// Busy cores.
    pub(crate) busy_cores: u32,
    /// Free memory (each node's [`NodeState::free_memory`]).
    pub(crate) free_memory: MemoryMb,
    /// Memory held by warm instances.
    pub(crate) warm_memory: MemoryMb,
}

impl ArchTotals {
    /// The totals of `arch`'s nodes, by a scan.
    pub(crate) fn scan(nodes: &[NodeState], arch: Arch) -> ArchTotals {
        let mut totals = ArchTotals::default();
        for node in nodes.iter().filter(|n| n.arch == arch) {
            totals.add(node);
        }
        totals
    }

    /// Adds `node`'s contribution.
    pub(crate) fn add(&mut self, node: &NodeState) {
        self.cores += node.cores;
        self.busy_cores += node.busy_cores;
        self.free_memory += node.free_memory();
        self.warm_memory += node.warm_memory;
    }

    /// Takes out `node`'s contribution, which must have been added.
    pub(crate) fn sub(&mut self, node: &NodeState) {
        self.cores -= node.cores;
        self.busy_cores -= node.busy_cores;
        self.free_memory -= node.free_memory();
        self.warm_memory -= node.warm_memory;
    }

    /// Cores not currently executing.
    pub(crate) fn free_cores(&self) -> u32 {
        self.cores - self.busy_cores
    }
}

impl<'a> ClusterView<'a> {
    /// The totals of `arch`'s nodes; debug builds check them against a
    /// scan.
    fn totals(&self, arch: Arch) -> &ArchTotals {
        let totals = &self.totals[arch.index()];
        debug_assert_eq!(
            *totals,
            ArchTotals::scan(self.nodes, arch),
            "cluster totals out of sync with the node states"
        );
        totals
    }

    /// The spec of one function.
    pub fn spec(&self, function: FunctionId) -> &FunctionSpec {
        self.workload.spec(function)
    }

    /// Warm instances currently alive for `function`, in admission order.
    /// O(k log k) in the function's k live instances.
    pub fn warm_instances_of(&self, function: FunctionId) -> Vec<&'a WarmInstance> {
        let mut instances: Vec<&'a WarmInstance> = self
            .pool
            .candidates_of(function)
            .map(|id| {
                self.pool
                    .get(id)
                    .expect("candidate index holds live instances")
            })
            .collect();
        instances.sort_unstable_by_key(|inst| inst.seq);
        instances
    }

    /// The live warm instance behind `id`, or `None` if the handle is
    /// stale (the instance has been reused, evicted, or expired since the
    /// id was observed).
    pub fn instance(&self, id: WarmId) -> Option<&'a WarmInstance> {
        self.pool.get(id)
    }

    /// Whether `function` has any warm instance. O(1).
    pub fn is_warm(&self, function: FunctionId) -> bool {
        self.pool.is_warm(function)
    }

    /// Total free cores on nodes of `arch`. O(1).
    pub fn free_cores(&self, arch: Arch) -> u32 {
        self.totals(arch).free_cores()
    }

    /// Total free memory on nodes of `arch`. O(1).
    pub fn free_memory(&self, arch: Arch) -> MemoryMb {
        self.totals(arch).free_memory
    }

    /// Total memory held by warm instances across the cluster. O(1).
    pub fn total_warm_memory(&self) -> MemoryMb {
        Arch::ALL
            .iter()
            .map(|&arch| self.totals(arch).warm_memory)
            .sum()
    }

    /// Number of warm instances across the cluster. O(1).
    pub fn warm_count(&self) -> usize {
        self.pool.len()
    }

    /// Number of warm instances stored compressed. O(1).
    pub fn compressed_count(&self) -> usize {
        self.pool.compressed_count()
    }

    /// Fraction of all execution cores currently busy, in `[0, 1]` — the
    /// load signal policies use to detect peaks. O(1).
    pub fn busy_core_fraction(&self) -> f64 {
        let total: u32 = Arch::ALL.iter().map(|&arch| self.totals(arch).cores).sum();
        let busy: u32 = Arch::ALL
            .iter()
            .map(|&arch| self.totals(arch).busy_cores)
            .sum();
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }
}
