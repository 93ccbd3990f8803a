//! Worker-node and warm-instance state.

use cc_types::{Arch, Cost, FunctionId, MemoryMb, NodeId, SimDuration, SimTime, WarmId};

/// A function instance kept alive in a node's memory.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmInstance {
    /// Generational handle into the warm pool's slab (assigned by the pool
    /// at admission).
    pub id: WarmId,
    /// Admission sequence number: strictly increasing across the whole
    /// run, so it totally orders instances by creation. All deterministic
    /// tie-breaks (candidate selection, eviction ranking) use this, never
    /// the slab handle, whose slot numbering reflects reuse.
    pub seq: u64,
    /// The function this instance can serve.
    pub function: FunctionId,
    /// The node holding it.
    pub node: NodeId,
    /// The node's architecture (cached for convenience).
    pub arch: Arch,
    /// Whether the instance is stored compressed.
    pub compressed: bool,
    /// Memory footprint currently charged to the node.
    pub memory: MemoryMb,
    /// When the instance entered the warm pool.
    pub since: SimTime,
    /// When it will be dropped if not reused.
    pub expiry: SimTime,
    /// Remaining reserved keep-alive cost (refunded pro-rata on early exit).
    pub reserved: Cost,
    /// For compressed instances: when background compression completes. A
    /// reuse before this instant still finds the uncompressed copy and pays
    /// no decompression.
    pub compressed_ready_at: SimTime,
    /// The start penalty a reuse pays once compression has completed
    /// (`spec.decompress_time(arch)`, cached at admission so the pool's
    /// candidate index can re-key the instance without consulting the
    /// workload). Zero for uncompressed instances.
    pub decompress_penalty: SimDuration,
}

impl WarmInstance {
    /// The keep-alive cost refundable if the instance leaves the pool at
    /// `now` (the unused tail of the reservation, pro-rata).
    pub fn refundable_at(&self, now: SimTime) -> Cost {
        if now >= self.expiry {
            return Cost::ZERO;
        }
        let total = self.expiry.saturating_since(self.since);
        if total.is_zero() {
            return Cost::ZERO;
        }
        let unused = self.expiry.saturating_since(now);
        // reserved × unused/total, in integer arithmetic.
        let pd = self.reserved.as_picodollars() as u128 * unused.as_micros() as u128
            / total.as_micros() as u128;
        Cost::from_picodollars(pd as u64)
    }

    /// Whether a reuse at `now` pays decompression.
    pub fn pays_decompression(&self, now: SimTime) -> bool {
        self.compressed && now >= self.compressed_ready_at
    }

    /// The candidate-key penalty class this instance enters the pool
    /// with: a compressed instance whose compression is already complete
    /// at admission pays decompression from the start; everything else
    /// enters the zero-penalty class (a reuse before
    /// `compressed_ready_at` still finds the uncompressed copy) and is
    /// re-keyed by the pool's transition migration once compression
    /// completes.
    pub(crate) fn admission_key_penalty(&self) -> SimDuration {
        if self.compressed && self.compressed_ready_at <= self.since {
            self.decompress_penalty
        } else {
            SimDuration::ZERO
        }
    }

    /// The penalty class this instance's candidate key carries once
    /// compression has completed. An instance whose key still differs
    /// from it is parked for re-keying; one whose decompression is free
    /// never needs the re-key, as it would not move the key.
    pub(crate) fn settled_key_penalty(&self) -> SimDuration {
        if self.compressed {
            self.decompress_penalty
        } else {
            SimDuration::ZERO
        }
    }
}

/// Mutable state of one worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// Node identifier.
    pub id: NodeId,
    /// Architecture.
    pub arch: Arch,
    /// Total cores.
    pub cores: u32,
    /// Total memory.
    pub memory: MemoryMb,
    /// Cores currently running executions (or pre-warms).
    pub busy_cores: u32,
    /// Memory held by running executions.
    pub running_memory: MemoryMb,
    /// Memory held by warm instances.
    pub warm_memory: MemoryMb,
}

impl NodeState {
    /// Creates an idle node.
    pub fn new(id: NodeId, arch: Arch, cores: u32, memory: MemoryMb) -> NodeState {
        NodeState {
            id,
            arch,
            cores,
            memory,
            busy_cores: 0,
            running_memory: MemoryMb::ZERO,
            warm_memory: MemoryMb::ZERO,
        }
    }

    /// Cores not currently executing.
    pub fn free_cores(&self) -> u32 {
        self.cores - self.busy_cores
    }

    /// Memory not held by executions or warm instances.
    pub fn free_memory(&self) -> MemoryMb {
        self.memory
            .saturating_sub(self.running_memory)
            .saturating_sub(self.warm_memory)
    }

    /// Takes one core and `memory` for an execution.
    ///
    /// # Panics
    ///
    /// Panics if no core or insufficient memory is available — callers must
    /// check first.
    pub fn start_execution(&mut self, memory: MemoryMb) {
        assert!(self.free_cores() > 0, "no free core on {}", self.id);
        assert!(
            self.free_memory() >= memory,
            "insufficient memory on {} for {memory}",
            self.id
        );
        self.busy_cores += 1;
        self.running_memory += memory;
    }

    /// Releases one core and `memory` after an execution.
    ///
    /// # Panics
    ///
    /// Panics if the node was not running anything of that size.
    pub fn finish_execution(&mut self, memory: MemoryMb) {
        assert!(self.busy_cores > 0, "no execution to finish on {}", self.id);
        self.busy_cores -= 1;
        self.running_memory -= memory;
    }

    /// Adds a warm instance's footprint.
    ///
    /// # Panics
    ///
    /// Panics if the node lacks free memory.
    pub fn add_warm(&mut self, memory: MemoryMb) {
        assert!(
            self.free_memory() >= memory,
            "insufficient memory on {} to keep {memory} warm",
            self.id
        );
        self.warm_memory += memory;
    }

    /// Removes a warm instance's footprint.
    pub fn remove_warm(&mut self, memory: MemoryMb) {
        self.warm_memory -= memory;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::SimDuration;

    fn node() -> NodeState {
        NodeState::new(NodeId::new(0), Arch::X86, 2, MemoryMb::new(1000))
    }

    #[test]
    fn execution_lifecycle() {
        let mut n = node();
        n.start_execution(MemoryMb::new(400));
        assert_eq!(n.free_cores(), 1);
        assert_eq!(n.free_memory(), MemoryMb::new(600));
        n.finish_execution(MemoryMb::new(400));
        assert_eq!(n.free_cores(), 2);
        assert_eq!(n.free_memory(), MemoryMb::new(1000));
    }

    #[test]
    fn warm_memory_reduces_free() {
        let mut n = node();
        n.add_warm(MemoryMb::new(300));
        assert_eq!(n.free_memory(), MemoryMb::new(700));
        n.remove_warm(MemoryMb::new(300));
        assert_eq!(n.free_memory(), MemoryMb::new(1000));
    }

    #[test]
    #[should_panic(expected = "no free core")]
    fn over_allocating_cores_panics() {
        let mut n = node();
        n.start_execution(MemoryMb::new(1));
        n.start_execution(MemoryMb::new(1));
        n.start_execution(MemoryMb::new(1));
    }

    #[test]
    #[should_panic(expected = "insufficient memory")]
    fn over_allocating_memory_panics() {
        let mut n = node();
        n.start_execution(MemoryMb::new(1001));
    }

    fn instance(reserved: u64, since_s: u64, expiry_s: u64) -> WarmInstance {
        WarmInstance {
            id: WarmId::new(1, 0),
            seq: 1,
            function: FunctionId::new(0),
            node: NodeId::new(0),
            arch: Arch::X86,
            compressed: false,
            memory: MemoryMb::new(100),
            since: SimTime::ZERO + SimDuration::from_secs(since_s),
            expiry: SimTime::ZERO + SimDuration::from_secs(expiry_s),
            reserved: Cost::from_picodollars(reserved),
            compressed_ready_at: SimTime::ZERO,
            decompress_penalty: SimDuration::ZERO,
        }
    }

    #[test]
    fn refund_is_pro_rata() {
        let inst = instance(1000, 0, 100);
        let half = SimTime::ZERO + SimDuration::from_secs(50);
        assert_eq!(inst.refundable_at(half), Cost::from_picodollars(500));
        assert_eq!(inst.refundable_at(inst.expiry), Cost::ZERO);
        assert_eq!(inst.refundable_at(inst.since), Cost::from_picodollars(1000));
    }

    #[test]
    fn decompression_charged_only_after_ready() {
        let mut inst = instance(0, 0, 100);
        inst.compressed = true;
        inst.compressed_ready_at = SimTime::ZERO + SimDuration::from_secs(2);
        assert!(!inst.pays_decompression(SimTime::ZERO + SimDuration::from_secs(1)));
        assert!(inst.pays_decompression(SimTime::ZERO + SimDuration::from_secs(2)));
    }
}
