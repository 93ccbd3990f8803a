//! Identifier newtypes.

use std::fmt;

/// Identifies a unique serverless function within a trace.
///
/// Function ids are dense (`0..n`) so they can index `Vec`-backed per-function
/// state tables.
///
/// # Example
///
/// ```
/// use cc_types::FunctionId;
///
/// let f = FunctionId::new(7);
/// assert_eq!(f.index(), 7);
/// assert_eq!(f.to_string(), "fn#7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FunctionId(u32);

impl FunctionId {
    /// Creates a function id from its dense index.
    pub const fn new(index: u32) -> Self {
        FunctionId(index)
    }

    /// Returns the dense index as a `usize` suitable for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for FunctionId {
    fn from(v: u32) -> Self {
        FunctionId(v)
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Identifies a worker node in the simulated cluster.
///
/// Node ids are dense across the whole cluster regardless of architecture.
///
/// # Example
///
/// ```
/// use cc_types::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index as a `usize` suitable for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Identifies a warm instance in the simulator's slab-allocated pool.
///
/// A `WarmId` is a generational handle: `slot` names a position in the
/// pool's dense storage and `generation` counts how many times that slot
/// has been reused. A lookup with a stale handle (the slot was freed, and
/// possibly reoccupied, since the handle was issued) fails the generation
/// check and returns nothing, so queued events that outlive their instance
/// — an expiry racing a reuse, a policy's eviction command racing an
/// expiry — are rejected in O(1) without any tombstone bookkeeping.
///
/// The derived `Ord` (slot, then generation) is arbitrary but stable; the
/// simulator orders instances by their admission sequence number, not by
/// id.
///
/// # Example
///
/// ```
/// use cc_types::WarmId;
///
/// let id = WarmId::new(3, 1);
/// assert_eq!(id.slot(), 3);
/// assert_eq!(id.generation(), 1);
/// assert_eq!(id.to_string(), "warm#3.1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WarmId {
    slot: u32,
    generation: u32,
}

impl WarmId {
    /// A handle that matches no slot; useful as a pre-insertion
    /// placeholder.
    pub const INVALID: WarmId = WarmId {
        slot: u32::MAX,
        generation: u32::MAX,
    };

    /// Creates a handle from a slot index and a generation counter.
    pub const fn new(slot: u32, generation: u32) -> Self {
        WarmId { slot, generation }
    }

    /// The slot index, as a `usize` suitable for dense-table lookups.
    pub const fn slot(self) -> usize {
        self.slot as usize
    }

    /// The generation the slot had when this handle was issued.
    pub const fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Display for WarmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warm#{}.{}", self.slot, self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_id_roundtrip() {
        let f = FunctionId::new(42);
        assert_eq!(f.index(), 42);
        assert_eq!(f.as_u32(), 42);
        assert_eq!(FunctionId::from(42u32), f);
    }

    #[test]
    fn ids_order_by_index() {
        assert!(FunctionId::new(1) < FunctionId::new(2));
        assert!(NodeId::new(0) < NodeId::new(5));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(NodeId::new(9).to_string(), "node#9");
        assert_eq!(FunctionId::default().to_string(), "fn#0");
    }
}
