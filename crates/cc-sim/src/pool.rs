//! The warm pool: a generational slab arena plus the ordered indexes the
//! engine's hot path queries.
//!
//! The pool replaces the original `HashMap<WarmId, WarmInstance>` /
//! `HashMap<FunctionId, Vec<WarmId>>` pair with:
//!
//! - a **slab arena**: instances live in a dense `Vec` of slots recycled
//!   through a free list. Handles are generational ([`WarmId`]), so a
//!   queued expiry event whose instance was reused or evicted — and whose
//!   slot may already hold a different instance — fails the generation
//!   check instead of aliasing. Lookup is an array index, not a hash.
//! - a **per-function candidate index**: a sorted `Vec` of keys
//!   `(start-penalty class, expiry, seq)` — exactly the order the engine
//!   previously produced by sorting a freshly collected vector on every
//!   arrival. Most functions hold zero or one warm instance, so a binary
//!   search over a short sorted vector beats a tree, and the vector's one
//!   small buffer is kept across the function's admissions.
//! - a **per-node residency list** in admission (`seq`) order: an
//!   intrusive doubly-linked list threaded through the slab slots, so
//!   eviction only examines the target node's residents instead of
//!   scanning the whole cluster's pool. The pool admits in `seq` order,
//!   so appending at the tail keeps the list in admission order, and
//!   unlinking a removed instance is O(1).
//!
//! The candidate key of a compressed instance changes once, when
//! background compression finishes (`compressed_ready_at`): before that a
//! reuse finds the uncompressed copy (penalty zero), after it a reuse pays
//! decompression. Rather than rewriting keys eagerly on a timer, the pool
//! parks each pending re-key in a time-ordered `transitions` set and
//! migrates the due ones at query time ([`WarmPool::migrate_due`]) — each
//! instance migrates at most once, so the cost is amortized O(log n) per
//! admission.

use std::collections::BTreeSet;

#[cfg(any(debug_assertions, test))]
use cc_types::MemoryMb;
use cc_types::{FunctionId, NodeId, SimDuration, SimTime, WarmId};

use crate::node::WarmInstance;

/// Candidate-index key: start-penalty class first (free reuses before
/// decompressing ones), then expiry (spend the instance closest to
/// expiring, saving the freshest), then admission order as the unique
/// deterministic tie-break.
type CandidateKey = (SimDuration, SimTime, u64, WarmId);

const NO_SLOT: u32 = u32::MAX;

/// Hot per-slot fields, split struct-of-arrays style from the full
/// [`WarmInstance`]: everything the per-arrival paths (candidate-key
/// computation on removal, transition migration, expiry drain, residency
/// unlinking) need, in one 32-byte record so those reads touch a dense
/// array instead of dragging whole instances through the cache.
#[derive(Debug, Clone, Copy)]
struct SlotHot {
    /// Keep-alive expiry of the occupying instance.
    expiry: SimTime,
    /// Admission number of the occupying instance.
    seq: u64,
    /// The penalty class the instance's candidate key currently carries:
    /// zero until the compression re-key transition migrates it, the
    /// decompression penalty after. Maintained by insert/migrate so
    /// removal reads the current key in O(1) instead of inferring it from
    /// the transition set.
    key_penalty: SimDuration,
    /// The previous resident of the same node in admission order, or
    /// `NO_SLOT` at the head of the node's residency list.
    prev: u32,
    /// The next resident of the same node in admission order, or
    /// `NO_SLOT` at the tail.
    next: u32,
}

impl SlotHot {
    const VACANT: SlotHot = SlotHot {
        expiry: SimTime::ZERO,
        seq: 0,
        key_penalty: SimDuration::ZERO,
        prev: NO_SLOT,
        next: NO_SLOT,
    };
}

/// One node's residency list: the first and last slot in admission order
/// (`NO_SLOT` when the node holds no warm instance).
#[derive(Debug, Clone, Copy)]
struct Residents {
    head: u32,
    tail: u32,
}

impl Residents {
    const EMPTY: Residents = Residents {
        head: NO_SLOT,
        tail: NO_SLOT,
    };
}

/// Cold per-slot payload: the full instance, or the free-list link.
#[derive(Debug)]
enum SlotCold {
    Occupied(WarmInstance),
    Vacant { next_free: u32 },
}

/// Per-function index entry.
#[derive(Debug, Default)]
struct FunctionEntry {
    /// Live instances in admission order (what policies observe through
    /// `ClusterView::warm_instances_of`).
    order: Vec<WarmId>,
    /// Live instances in reuse-preference order: sorted ascending, keys
    /// unique (the `seq` component is).
    candidates: Vec<CandidateKey>,
}

/// The warm-instance arena and its indexes. See the module docs.
///
/// The arena is laid out struct-of-arrays: `generations`, `hot`, and
/// `cold` are parallel vectors indexed by slot. The generational
/// [`WarmId`] contract is unchanged — a handle is live iff its generation
/// matches `generations[slot]` — and candidate ordering is bit-identical
/// to the former array-of-structs layout (the ordered indexes are the
/// same; only the backing storage moved).
#[derive(Debug)]
pub(crate) struct WarmPool {
    /// Per slot: bumped every time the slot is freed; a handle is live iff
    /// its generation matches.
    generations: Vec<u32>,
    /// Per slot: the hot fields of the occupying instance (garbage while
    /// vacant).
    hot: Vec<SlotHot>,
    /// Per slot: the full instance, or the free-list link while vacant.
    cold: Vec<SlotCold>,
    free_head: u32,
    len: usize,
    compressed: usize,
    next_seq: u64,
    functions: Vec<FunctionEntry>,
    /// Per node: the residency list through `hot[..].prev/next`, in
    /// admission order.
    residents: Vec<Residents>,
    /// Compressed instances whose candidate key still carries a zero
    /// penalty but must be re-keyed at `(compressed_ready_at, seq, id)`.
    transitions: BTreeSet<(SimTime, u64, WarmId)>,
    /// Expiry calendar: every live instance keyed by
    /// `(expiry, seq, id)`. The engine serves keep-alive expirations
    /// straight from this index instead of pushing one heap event per
    /// admission, so a window boundary drains all due expiries in one
    /// ordered pass and reused/evicted instances never leave stale
    /// tombstone events behind.
    expiries: BTreeSet<(SimTime, u64, WarmId)>,
}

impl WarmPool {
    /// Creates an empty pool for a cluster of `nodes` nodes serving
    /// `functions` distinct functions.
    pub fn new(functions: usize, nodes: usize) -> WarmPool {
        WarmPool {
            generations: Vec::new(),
            hot: Vec::new(),
            cold: Vec::new(),
            free_head: NO_SLOT,
            len: 0,
            compressed: 0,
            next_seq: 0,
            functions: (0..functions).map(|_| FunctionEntry::default()).collect(),
            residents: vec![Residents::EMPTY; nodes],
            transitions: BTreeSet::new(),
            expiries: BTreeSet::new(),
        }
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of live instances stored compressed.
    pub fn compressed_count(&self) -> usize {
        self.compressed
    }

    /// Whether `function` has at least one live instance.
    pub fn is_warm(&self, function: FunctionId) -> bool {
        !self.functions[function.index()].order.is_empty()
    }

    /// The live instance behind `id`, or `None` if the handle is stale
    /// (the instance was reused, evicted, or expired; the slot may by now
    /// hold a different instance of a newer generation).
    pub fn get(&self, id: WarmId) -> Option<&WarmInstance> {
        if *self.generations.get(id.slot())? != id.generation() {
            return None;
        }
        match &self.cold[id.slot()] {
            SlotCold::Occupied(inst) => Some(inst),
            SlotCold::Vacant { .. } => None,
        }
    }

    /// Admits `inst` into the pool, assigning its `id` (next free slot,
    /// current generation) and `seq` (next admission number); the caller's
    /// values for those two fields are ignored. Returns the assigned id.
    pub fn insert(&mut self, mut inst: WarmInstance) -> WarmId {
        self.next_seq += 1;
        inst.seq = self.next_seq;

        let slot_index = if self.free_head != NO_SLOT {
            let index = self.free_head;
            let SlotCold::Vacant { next_free } = self.cold[index as usize] else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next_free;
            index
        } else {
            assert!(
                self.cold.len() < NO_SLOT as usize,
                "warm pool slot space exhausted"
            );
            self.generations.push(0);
            self.hot.push(SlotHot::VACANT);
            self.cold.push(SlotCold::Vacant { next_free: NO_SLOT });
            (self.cold.len() - 1) as u32
        };
        let id = WarmId::new(slot_index, self.generations[slot_index as usize]);
        inst.id = id;

        let entry = &mut self.functions[inst.function.index()];
        entry.order.push(id);
        // A compressed instance enters the zero-penalty class (reuse finds
        // the uncompressed copy until compression completes) and is parked
        // for re-keying — unless compression is instantaneous, in which
        // case it pays decompression from the start.
        let key_penalty = inst.admission_key_penalty();
        insert_sorted(
            &mut entry.candidates,
            (key_penalty, inst.expiry, inst.seq, id),
        );
        if inst.compressed && inst.compressed_ready_at > inst.since {
            self.transitions
                .insert((inst.compressed_ready_at, inst.seq, id));
        }
        if inst.compressed {
            self.compressed += 1;
        }
        self.expiries.insert((inst.expiry, inst.seq, id));

        // Append at the tail of the node's residency list: `seq` only
        // grows, so the tail is admission order.
        let list = &mut self.residents[inst.node.index()];
        let prev = list.tail;
        if prev == NO_SLOT {
            list.head = slot_index;
        } else {
            self.hot[prev as usize].next = slot_index;
        }
        list.tail = slot_index;
        self.hot[slot_index as usize] = SlotHot {
            expiry: inst.expiry,
            seq: inst.seq,
            key_penalty,
            prev,
            next: NO_SLOT,
        };
        self.cold[slot_index as usize] = SlotCold::Occupied(inst);
        self.len += 1;
        id
    }

    /// Removes the live instance behind `id` from the arena and every
    /// index, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale — engine invariants guarantee removal
    /// targets are alive, so a stale handle here is a bug.
    pub fn remove(&mut self, id: WarmId) -> WarmInstance {
        assert_eq!(
            self.generations[id.slot()],
            id.generation(),
            "instance must exist to be removed"
        );
        // Every index removal keys off the hot array — the candidate key's
        // current penalty class (maintained by insert and `migrate_due`, so
        // no probing the transition set to infer it), the expiry, the
        // admission seq and the residency-list neighbours — one dense
        // 32-byte read instead of dragging the whole instance through the
        // cache first.
        let SlotHot {
            expiry,
            seq,
            key_penalty,
            prev,
            next,
        } = self.hot[id.slot()];
        let state = std::mem::replace(
            &mut self.cold[id.slot()],
            SlotCold::Vacant {
                next_free: self.free_head,
            },
        );
        let SlotCold::Occupied(inst) = state else {
            panic!("instance must exist to be removed");
        };
        debug_assert_eq!(
            (expiry, seq),
            (inst.expiry, inst.seq),
            "hot array out of sync"
        );
        self.generations[id.slot()] += 1;
        self.hot[id.slot()] = SlotHot::VACANT;
        self.free_head = id.slot() as u32;
        self.len -= 1;

        if inst.compressed {
            // Drop the parked re-key transition if it never fired; a
            // no-op for instances that already migrated (or entered the
            // penalty class at admission).
            let parked = self
                .transitions
                .remove(&(inst.compressed_ready_at, seq, id));
            debug_assert!(
                !parked || key_penalty.is_zero(),
                "hot penalty class out of sync with the transition set"
            );
        }
        let entry = &mut self.functions[inst.function.index()];
        let removed = remove_sorted(&mut entry.candidates, &(key_penalty, expiry, seq, id));
        debug_assert!(removed, "candidate index out of sync");
        let position = entry
            .order
            .iter()
            .position(|&i| i == id)
            .expect("order index out of sync");
        entry.order.remove(position);
        self.unlink_resident(inst.node, id.slot() as u32, prev, next);
        let removed = self.expiries.remove(&(expiry, seq, id));
        debug_assert!(removed, "expiry calendar out of sync");
        if inst.compressed {
            self.compressed -= 1;
        }
        inst
    }

    /// The earliest keep-alive expiration among live instances, as
    /// `(expiry, seq, id)`. `seq` is the admission number, so equal-time
    /// expirations come out in admission order — the same order the
    /// per-admission heap events used to impose.
    pub fn next_expiry(&self) -> Option<(SimTime, u64, WarmId)> {
        self.expiries.iter().next().copied()
    }

    /// Re-keys every compressed instance whose `compressed_ready_at` has
    /// passed by `now` from the zero-penalty class to its decompression
    /// penalty. Must be called before reading [`WarmPool::candidates_of`];
    /// each instance migrates at most once per lifetime.
    pub fn migrate_due(&mut self, now: SimTime) {
        while let Some(&(ready_at, seq, id)) = self.transitions.iter().next() {
            if ready_at > now {
                break;
            }
            self.transitions.remove(&(ready_at, seq, id));
            let inst = self.get(id).expect("parked transition for a dead instance");
            let (function, expiry, penalty) = (inst.function, inst.expiry, inst.decompress_penalty);
            self.hot[id.slot()].key_penalty = penalty;
            let entry = &mut self.functions[function.index()];
            let removed =
                remove_sorted(&mut entry.candidates, &(SimDuration::ZERO, expiry, seq, id));
            debug_assert!(removed, "candidate index out of sync during migration");
            insert_sorted(&mut entry.candidates, (penalty, expiry, seq, id));
        }
    }

    /// Unlinks the removed `slot`, whose list neighbours were `prev` and
    /// `next`, from `node`'s residency list.
    fn unlink_resident(&mut self, node: NodeId, slot: u32, prev: u32, next: u32) {
        let list = &mut self.residents[node.index()];
        if prev == NO_SLOT {
            debug_assert_eq!(list.head, slot, "residency list out of sync");
            list.head = next;
        } else {
            debug_assert_eq!(
                self.hot[prev as usize].next, slot,
                "residency list out of sync"
            );
            self.hot[prev as usize].next = next;
        }
        if next == NO_SLOT {
            debug_assert_eq!(list.tail, slot, "residency list out of sync");
            list.tail = prev;
        } else {
            debug_assert_eq!(
                self.hot[next as usize].prev, slot,
                "residency list out of sync"
            );
            self.hot[next as usize].prev = prev;
        }
    }

    /// Live instances of `function` in reuse-preference order: cheapest
    /// start-penalty class first, then closest expiry, then admission
    /// order. Only valid if [`WarmPool::migrate_due`] has been called with
    /// the current time.
    pub fn candidates_of(&self, function: FunctionId) -> impl Iterator<Item = WarmId> + '_ {
        self.functions[function.index()]
            .candidates
            .iter()
            .map(|&(_, _, _, id)| id)
    }

    /// Live instances of `function` in admission order.
    pub fn order_of(&self, function: FunctionId) -> &[WarmId] {
        &self.functions[function.index()].order
    }

    /// Live instances resident on `node`, in admission order.
    pub fn residents_of(&self, node: NodeId) -> impl Iterator<Item = WarmId> + '_ {
        let mut slot = self.residents[node.index()].head;
        std::iter::from_fn(move || {
            if slot == NO_SLOT {
                return None;
            }
            let id = WarmId::new(slot, self.generations[slot as usize]);
            slot = self.hot[slot as usize].next;
            Some(id)
        })
    }

    /// Sum of the footprints of `node`'s residents. O(residents); used
    /// only in debug assertions and tests to validate the node-state
    /// counter the engine uses instead.
    #[cfg(any(debug_assertions, test))]
    pub fn resident_memory(&self, node: NodeId) -> MemoryMb {
        self.residents_of(node)
            .map(|id| self.get(id).expect("resident index out of sync").memory)
            .sum()
    }

    /// Whether `node`'s residents joined the pool at non-decreasing
    /// instants (`since`) along admission order (`seq`). The engine admits
    /// at its current time, which never decreases, so this always holds;
    /// it is what lets LRU policies evict in admission order
    /// ([`crate::Scheduler::evicts_in_admission_order`]). O(residents);
    /// used only in debug assertions and tests.
    #[cfg(any(debug_assertions, test))]
    pub fn admitted_in_time_order(&self, node: NodeId) -> bool {
        let since: Vec<SimTime> = self
            .residents_of(node)
            .map(|id| self.get(id).expect("resident index out of sync").since)
            .collect();
        since.windows(2).all(|pair| pair[0] <= pair[1])
    }
}

/// Inserts `key` into the ascending, duplicate-free `keys`.
fn insert_sorted(keys: &mut Vec<CandidateKey>, key: CandidateKey) {
    let position = keys.partition_point(|probe| *probe < key);
    debug_assert!(keys.get(position) != Some(&key), "duplicate candidate key");
    keys.insert(position, key);
}

/// Removes `key` from the ascending `keys`; returns whether it was there.
fn remove_sorted(keys: &mut Vec<CandidateKey>, key: &CandidateKey) -> bool {
    match keys.binary_search(key) {
        Ok(position) => {
            keys.remove(position);
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{Arch, Cost};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn instance(function: u32, node: u32, expiry_s: u64) -> WarmInstance {
        WarmInstance {
            id: WarmId::INVALID,
            seq: 0,
            function: FunctionId::new(function),
            node: NodeId::new(node),
            arch: Arch::X86,
            compressed: false,
            memory: MemoryMb::new(100),
            since: SimTime::ZERO,
            expiry: SimTime::ZERO + SimDuration::from_secs(expiry_s),
            reserved: Cost::ZERO,
            compressed_ready_at: SimTime::ZERO,
            decompress_penalty: SimDuration::ZERO,
        }
    }

    fn compressed_instance(
        function: u32,
        node: u32,
        since_s: u64,
        ready_s: u64,
        expiry_s: u64,
        penalty_ms: u64,
    ) -> WarmInstance {
        WarmInstance {
            compressed: true,
            since: SimTime::ZERO + SimDuration::from_secs(since_s),
            compressed_ready_at: SimTime::ZERO + SimDuration::from_secs(ready_s),
            decompress_penalty: SimDuration::from_millis(penalty_ms),
            ..instance(function, node, expiry_s)
        }
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut pool = WarmPool::new(4, 2);
        let id = pool.insert(instance(1, 0, 60));
        assert_eq!(pool.len(), 1);
        assert!(pool.is_warm(FunctionId::new(1)));
        let inst = pool.get(id).unwrap();
        assert_eq!(inst.id, id);
        assert_eq!(inst.seq, 1);
        let removed = pool.remove(id);
        assert_eq!(removed.id, id);
        assert_eq!(pool.len(), 0);
        assert!(!pool.is_warm(FunctionId::new(1)));
        assert!(pool.get(id).is_none());
    }

    #[test]
    fn stale_handle_rejected_after_slot_reuse() {
        let mut pool = WarmPool::new(4, 2);
        let first = pool.insert(instance(0, 0, 60));
        pool.remove(first);
        let second = pool.insert(instance(1, 1, 90));
        // Slot recycled, generation advanced.
        assert_eq!(second.slot(), first.slot());
        assert_ne!(second.generation(), first.generation());
        assert!(pool.get(first).is_none(), "stale handle must not alias");
        assert_eq!(pool.get(second).unwrap().function, FunctionId::new(1));
    }

    #[test]
    fn seq_keeps_increasing_across_slot_reuse() {
        let mut pool = WarmPool::new(2, 1);
        let a = pool.insert(instance(0, 0, 10));
        pool.remove(a);
        let b = pool.insert(instance(0, 0, 20));
        assert_eq!(pool.get(b).unwrap().seq, 2);
    }

    #[test]
    fn candidates_order_by_penalty_then_expiry_then_seq() {
        let mut pool = WarmPool::new(2, 4);
        // Compressed & ready (pays penalty), uncompressed far expiry,
        // uncompressed near expiry, compressed not yet ready (free).
        let ready = pool.insert(compressed_instance(0, 0, 0, 5, 200, 30));
        let far = pool.insert(instance(0, 1, 300));
        let near = pool.insert(instance(0, 2, 100));
        let pending = pool.insert(compressed_instance(0, 3, 0, 1000, 250, 30));
        pool.migrate_due(at(10));
        let order: Vec<WarmId> = pool.candidates_of(FunctionId::new(0)).collect();
        // Zero-penalty class first by expiry (near, pending, far), then the
        // decompressing one.
        assert_eq!(order, vec![near, pending, far, ready]);
    }

    #[test]
    fn migration_moves_instance_to_penalty_class_exactly_at_ready_time() {
        let mut pool = WarmPool::new(1, 2);
        let compressed = pool.insert(compressed_instance(0, 0, 0, 50, 100, 30));
        let plain = pool.insert(instance(0, 1, 300));
        pool.migrate_due(at(49));
        let order: Vec<WarmId> = pool.candidates_of(FunctionId::new(0)).collect();
        assert_eq!(
            order,
            vec![compressed, plain],
            "free class wins before ready"
        );
        pool.migrate_due(at(50));
        let order: Vec<WarmId> = pool.candidates_of(FunctionId::new(0)).collect();
        assert_eq!(
            order,
            vec![plain, compressed],
            "penalty class loses after ready"
        );
    }

    #[test]
    fn removal_before_and_after_migration_keeps_indexes_consistent() {
        let mut pool = WarmPool::new(1, 1);
        let a = pool.insert(compressed_instance(0, 0, 0, 50, 100, 30));
        pool.remove(a); // still parked: transition entry must go too
        assert!(pool.transitions.is_empty());
        let b = pool.insert(compressed_instance(0, 0, 0, 60, 100, 30));
        pool.migrate_due(at(70)); // migrated: key now carries the penalty
        let removed = pool.remove(b);
        assert!(removed.compressed);
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.compressed_count(), 0);
        assert!(pool.candidates_of(FunctionId::new(0)).next().is_none());
    }

    #[test]
    fn expiry_calendar_orders_by_time_then_admission() {
        let mut pool = WarmPool::new(2, 2);
        let late = pool.insert(instance(0, 0, 90));
        let early_a = pool.insert(instance(1, 1, 30));
        let early_b = pool.insert(instance(0, 0, 30));
        // Earliest expiry first; equal-time entries in admission order.
        assert_eq!(pool.next_expiry(), Some((at(30), 2, early_a)));
        pool.remove(early_a);
        assert_eq!(pool.next_expiry(), Some((at(30), 3, early_b)));
        pool.remove(early_b);
        assert_eq!(pool.next_expiry(), Some((at(90), 1, late)));
        pool.remove(late);
        assert_eq!(pool.next_expiry(), None, "empty pool has no expiries");
    }

    #[test]
    fn residents_and_order_track_membership() {
        let mut pool = WarmPool::new(3, 2);
        let a = pool.insert(instance(0, 0, 60));
        let b = pool.insert(instance(1, 0, 30));
        let c = pool.insert(instance(0, 1, 90));
        assert_eq!(
            pool.residents_of(NodeId::new(0)).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert_eq!(pool.order_of(FunctionId::new(0)), &[a, c]);
        pool.remove(a);
        assert_eq!(
            pool.residents_of(NodeId::new(0)).collect::<Vec<_>>(),
            vec![b]
        );
        assert_eq!(pool.order_of(FunctionId::new(0)), &[c]);
        assert_eq!(pool.resident_memory(NodeId::new(1)), MemoryMb::new(100));
    }

    #[test]
    fn admission_time_order_is_checked_per_node() {
        let admitted_at = |node: u32, since_s: u64| WarmInstance {
            since: at(since_s),
            ..instance(0, node, 600)
        };
        let mut pool = WarmPool::new(1, 2);
        assert!(pool.admitted_in_time_order(NodeId::new(0)), "empty node");
        let first = pool.insert(admitted_at(0, 10));
        pool.insert(admitted_at(0, 10));
        pool.insert(admitted_at(0, 20));
        // An earlier instant on another node does not break node 0's order.
        pool.insert(admitted_at(1, 5));
        assert!(pool.admitted_in_time_order(NodeId::new(0)));
        assert!(pool.admitted_in_time_order(NodeId::new(1)));
        // A later admission stamped before node 0's newest resident does.
        let late = pool.insert(admitted_at(0, 15));
        assert!(!pool.admitted_in_time_order(NodeId::new(0)));
        pool.remove(late);
        pool.remove(first);
        assert!(pool.admitted_in_time_order(NodeId::new(0)));
    }

    proptest! {
        // The property the whole candidate index stands on: at any query
        // time, iterating `candidates_of` yields exactly the order the
        // pre-refactor engine computed by collecting every live instance
        // of the function and sorting by `(penalty at now, expiry,
        // admission id)`.
        #[test]
        fn candidate_index_matches_sort_based_selection(
            // (compressed, ready_offset_s, expiry_s, penalty_ms, node)
            specs in prop::collection::vec(
                (any::<bool>(), 0u64..120, 1u64..240, 1u64..80, 0u32..4),
                1..24,
            ),
            removals in prop::collection::vec(any::<u16>(), 0..8),
            // Monotonically applied query times: migration is incremental
            // (each instance re-keys at most once), so the index must match
            // the sort-based reference at EVERY step, not just the last.
            query_steps in prop::collection::vec(0u64..130, 1..4),
        ) {
            let mut pool = WarmPool::new(1, 4);
            let mut ids = Vec::new();
            for &(compressed, ready_s, expiry_s, penalty_ms, node) in &specs {
                let inst = if compressed {
                    compressed_instance(0, node, 0, ready_s, expiry_s, penalty_ms)
                } else {
                    instance(0, node, expiry_s)
                };
                ids.push(pool.insert(inst));
            }
            for &r in &removals {
                if ids.is_empty() { break; }
                let victim = ids.swap_remove(r as usize % ids.len());
                pool.remove(victim);
            }

            // Removals interleaved between migration steps exercise the
            // penalty-class read on both sides of each re-key.
            let mut now_s = 0u64;
            for (step, &advance) in query_steps.iter().enumerate() {
                now_s += advance;
                let now = at(now_s);
                pool.migrate_due(now);
                if step > 0 && !ids.is_empty() {
                    let victim = ids.swap_remove(step % ids.len());
                    pool.remove(victim);
                }
                let indexed: Vec<WarmId> =
                    pool.candidates_of(FunctionId::new(0)).collect();

                // Pre-refactor selection: collect live instances, compute
                // the penalty a reuse at `now` would pay, sort.
                let mut brute: Vec<(SimDuration, SimTime, u64, WarmId)> = ids
                    .iter()
                    .map(|&id| {
                        let inst = pool.get(id).expect("live");
                        let penalty = if inst.pays_decompression(now) {
                            inst.decompress_penalty
                        } else {
                            SimDuration::ZERO
                        };
                        (penalty, inst.expiry, inst.seq, id)
                    })
                    .collect();
                brute.sort();
                let brute: Vec<WarmId> = brute.into_iter().map(|(_, _, _, id)| id).collect();

                prop_assert_eq!(indexed, brute, "diverged at step {} (now={}s)", step, now_s);
            }
        }

        // The flat indexes (sorted candidate vectors, intrusive residency
        // lists) against the ordered sets they replaced: after every
        // admission, removal and migration step over several functions
        // and nodes, `candidates_of`, `residents_of` and `order_of` list
        // exactly what a `BTreeSet` model keyed the same way lists.
        #[test]
        fn flat_indexes_match_an_ordered_set_model(
            // ((op, function, node), (compressed, ready_s, expiry_s,
            // penalty_ms), pick): op 0–1 admits, 2 removes, 3 advances
            // the clock and migrates.
            ops in prop::collection::vec(
                (
                    (0u8..4, 0u32..5, 0u32..3),
                    (any::<bool>(), 0u64..120, 1u64..240, 1u64..80),
                    any::<u16>(),
                ),
                1..80,
            ),
        ) {
            const FUNCTIONS: u32 = 5;
            const NODES: u32 = 3;
            let mut pool = WarmPool::new(FUNCTIONS as usize, NODES as usize);
            let mut candidates = vec![BTreeSet::<CandidateKey>::new(); FUNCTIONS as usize];
            let mut order = vec![BTreeSet::<(u64, WarmId)>::new(); FUNCTIONS as usize];
            let mut residents = vec![BTreeSet::<(u64, WarmId)>::new(); NODES as usize];
            let mut transitions = BTreeSet::<(SimTime, u64, WarmId)>::new();
            let mut live: Vec<WarmId> = Vec::new();
            let mut now_s = 0u64;
            for &((op, function, node), (compressed, ready_s, expiry_s, penalty_ms), pick) in &ops {
                match op {
                    0 | 1 => {
                        let inst = if compressed {
                            compressed_instance(
                                function,
                                node,
                                now_s,
                                now_s + ready_s,
                                now_s + expiry_s,
                                penalty_ms,
                            )
                        } else {
                            WarmInstance {
                                since: at(now_s),
                                ..instance(function, node, now_s + expiry_s)
                            }
                        };
                        let id = pool.insert(inst);
                        let inst = pool.get(id).expect("just admitted");
                        let penalty = if compressed && ready_s == 0 {
                            inst.decompress_penalty
                        } else {
                            SimDuration::ZERO
                        };
                        if compressed && ready_s > 0 {
                            transitions.insert((inst.compressed_ready_at, inst.seq, id));
                        }
                        candidates[function as usize].insert((penalty, inst.expiry, inst.seq, id));
                        order[function as usize].insert((inst.seq, id));
                        residents[node as usize].insert((inst.seq, id));
                        live.push(id);
                    }
                    2 if !live.is_empty() => {
                        let id = live.swap_remove(pick as usize % live.len());
                        let inst = pool.remove(id);
                        let f = inst.function.index();
                        candidates[f].retain(|key| key.3 != id);
                        transitions.retain(|key| key.2 != id);
                        order[f].remove(&(inst.seq, id));
                        residents[inst.node.index()].remove(&(inst.seq, id));
                    }
                    _ => {
                        now_s += u64::from(pick % 60);
                        pool.migrate_due(at(now_s));
                        while let Some(&(ready, seq, id)) = transitions.first() {
                            if ready > at(now_s) {
                                break;
                            }
                            transitions.pop_first();
                            let inst = pool.get(id).expect("parked instance is live");
                            let f = inst.function.index();
                            prop_assert!(candidates[f].remove(&(SimDuration::ZERO, inst.expiry, seq, id)));
                            candidates[f].insert((inst.decompress_penalty, inst.expiry, seq, id));
                        }
                    }
                }
                prop_assert_eq!(pool.len(), live.len());
                for f in 0..FUNCTIONS {
                    let function = FunctionId::new(f);
                    let model: Vec<WarmId> = candidates[f as usize].iter().map(|key| key.3).collect();
                    prop_assert_eq!(pool.candidates_of(function).collect::<Vec<_>>(), model);
                    let model: Vec<WarmId> = order[f as usize].iter().map(|key| key.1).collect();
                    prop_assert_eq!(pool.order_of(function).to_vec(), model);
                }
                for n in 0..NODES {
                    let model: Vec<WarmId> = residents[n as usize].iter().map(|key| key.1).collect();
                    prop_assert_eq!(pool.residents_of(NodeId::new(n)).collect::<Vec<_>>(), model);
                }
            }
        }

        // Slab bookkeeping stays consistent under arbitrary interleavings
        // of admissions and removals.
        #[test]
        fn slab_len_and_counters_survive_churn(
            ops in prop::collection::vec((any::<bool>(), any::<u16>()), 1..60),
        ) {
            let mut pool = WarmPool::new(4, 2);
            let mut live: Vec<WarmId> = Vec::new();
            let mut compressed_live = 0usize;
            for (i, &(remove, r)) in ops.iter().enumerate() {
                if remove && !live.is_empty() {
                    let id = live.swap_remove(r as usize % live.len());
                    if pool.remove(id).compressed {
                        compressed_live -= 1;
                    }
                } else {
                    let compress = i % 3 == 0;
                    let inst = if compress {
                        compressed_instance((i % 4) as u32, (i % 2) as u32, 0, 30, 60, 20)
                    } else {
                        instance((i % 4) as u32, (i % 2) as u32, 60)
                    };
                    live.push(pool.insert(inst));
                    if compress {
                        compressed_live += 1;
                    }
                }
                prop_assert_eq!(pool.len(), live.len());
                prop_assert_eq!(pool.compressed_count(), compressed_live);
            }
            for &id in &live {
                prop_assert!(pool.get(id).is_some());
            }
        }
    }
}
