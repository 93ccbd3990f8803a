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
//! - two **intrusive doubly-linked lists** threaded through the slab
//!   slots, each slot on one list of each kind, each list a `(head, tail)`
//!   pair of slot numbers:
//!   - the **per-function candidate list** in reuse-preference order,
//!     `(start-penalty class, expiry, seq)` ascending — exactly the order
//!     the engine once produced by sorting a freshly collected vector on
//!     every arrival. Admission walks back from the tail to its place;
//!     keep-alive windows that do not shrink admit at the tail, so the
//!     walk is usually O(1). Removal unlinks in O(1). A function costs 8
//!     bytes and no heap buffer, warm or not.
//!   - the **per-node residency list** in admission (`seq`) order, so
//!     eviction only examines the target node's residents instead of
//!     scanning the whole cluster's pool. The pool admits in `seq` order,
//!     so appending at the tail keeps the list in admission order.
//! - two **lazy calendars** (binary min-heaps of `(instant, seq, id)`):
//!   the keep-alive expiry calendar and the compression re-key
//!   `transitions` below. Removing an instance leaves its entries in the
//!   heaps; see [`Calendar`].
//!
//! The candidate key of a compressed instance changes once, when
//! background compression finishes (`compressed_ready_at`): before that a
//! reuse finds the uncompressed copy (penalty zero), after it a reuse pays
//! decompression. Rather than rewriting keys eagerly on a timer, the pool
//! parks each pending re-key in the time-ordered `transitions` calendar and
//! migrates the due ones at query time ([`WarmPool::migrate_due`]): an
//! unlink and a sorted re-link, at most once per instance.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(any(debug_assertions, test))]
use cc_types::MemoryMb;
use cc_types::{FunctionId, NodeId, SimDuration, SimTime, WarmId};

use crate::node::WarmInstance;

/// Calendar entry: an instant, the instance's admission `seq` (unique, so
/// entries are totally ordered before the id is ever compared), and the
/// instance.
type CalendarEntry = (SimTime, u64, WarmId);

/// How many dead entries the pool's calendars tolerate beyond their live
/// count before they compact.
const CALENDAR_SLACK: usize = 1024;

const NO_SLOT: u32 = u32::MAX;

/// A slot's place on one intrusive list: the previous and next slot, or
/// `NO_SLOT` at the list's head or tail.
#[derive(Debug, Clone, Copy)]
struct Links {
    prev: u32,
    next: u32,
}

impl Links {
    const NONE: Links = Links {
        prev: NO_SLOT,
        next: NO_SLOT,
    };
}

/// Which of a slot's two lists: an index into its `links` entry.
type Chain = usize;
/// The node's residency list, in admission order.
const BY_NODE: Chain = 0;
/// The function's candidate list, in reuse-preference order.
const BY_FUNCTION: Chain = 1;

/// Hot per-slot fields, split struct-of-arrays style from the full
/// [`WarmInstance`]: the candidate key and calendar keys that the
/// per-arrival paths (candidate-list walks, transition migration, expiry
/// drain, removal) read, in one 24-byte record so those reads touch a
/// dense array instead of dragging whole instances through the cache.
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
}

impl SlotHot {
    const VACANT: SlotHot = SlotHot {
        expiry: SimTime::ZERO,
        seq: 0,
        key_penalty: SimDuration::ZERO,
    };

    /// The candidate-list key: start-penalty class first (free reuses
    /// before decompressing ones), then expiry (spend the instance closest
    /// to expiring, saving the freshest), then admission order as the
    /// unique deterministic tie-break.
    fn candidate_key(&self) -> (SimDuration, SimTime, u64) {
        (self.key_penalty, self.expiry, self.seq)
    }
}

/// One intrusive list through the slab: its first and last slot
/// (`NO_SLOT` when empty).
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NO_SLOT,
        tail: NO_SLOT,
    };

    /// Links `slot` into the list right after `after`, or at the head
    /// when `after` is `NO_SLOT`.
    fn link_after(&mut self, links: &mut [[Links; 2]], chain: Chain, after: u32, slot: u32) {
        let next = if after == NO_SLOT {
            std::mem::replace(&mut self.head, slot)
        } else {
            std::mem::replace(&mut links[after as usize][chain].next, slot)
        };
        if next == NO_SLOT {
            self.tail = slot;
        } else {
            links[next as usize][chain].prev = slot;
        }
        links[slot as usize][chain] = Links { prev: after, next };
    }

    /// Unlinks `slot` from the list; its own links are left stale.
    fn unlink(&mut self, links: &mut [[Links; 2]], chain: Chain, slot: u32) {
        let Links { prev, next } = links[slot as usize][chain];
        if prev == NO_SLOT {
            debug_assert_eq!(self.head, slot, "list head out of sync");
            self.head = next;
        } else {
            debug_assert_eq!(links[prev as usize][chain].next, slot, "list out of sync");
            links[prev as usize][chain].next = next;
        }
        if next == NO_SLOT {
            debug_assert_eq!(self.tail, slot, "list tail out of sync");
            self.tail = prev;
        } else {
            debug_assert_eq!(links[next as usize][chain].prev, slot, "list out of sync");
            links[next as usize][chain].prev = prev;
        }
    }

    /// Links `slot` into a candidate list at its key's place, walking
    /// back from the tail past every larger key. Keys are unique (`seq`
    /// is), so the place is exact.
    fn link_sorted(&mut self, hot: &[SlotHot], links: &mut [[Links; 2]], slot: u32) {
        let key = hot[slot as usize].candidate_key();
        let mut after = self.tail;
        while after != NO_SLOT && hot[after as usize].candidate_key() > key {
            after = links[after as usize][BY_FUNCTION].prev;
        }
        self.link_after(links, BY_FUNCTION, after, slot);
    }

    /// The list's slots, head to tail.
    fn slots<'p>(&self, links: &'p [[Links; 2]], chain: Chain) -> impl Iterator<Item = u32> + 'p {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            if slot == NO_SLOT {
                return None;
            }
            let current = slot;
            slot = links[current as usize][chain].next;
            Some(current)
        })
    }
}

/// Cold per-slot payload: the full instance, or the free-list link.
#[derive(Debug)]
enum SlotCold {
    Occupied(WarmInstance),
    Vacant { next_free: u32 },
}

/// A time-ordered calendar of live instances with lazy deletion: a binary
/// min-heap of [`CalendarEntry`]s. Removing an instance only lowers the
/// live count; its entry stays in the heap, dead. An entry is live iff its
/// handle's generation still matches its slot's (a removal bumps the
/// generation), so dead entries are recognised without a lookup table.
///
/// Two invariants hold between operations, so [`Calendar::first`] needs
/// no `&mut`:
///
/// - **the top entry is live**: every operation that can kill or take the
///   top ends in [`Calendar::settle`], which pops dead entries off it;
/// - **`len ≤ 2·live + slack`**: once dead entries outnumber live ones by
///   the slack, `settle` drops every dead entry in one O(len) pass. Each
///   dead entry is dropped once and was made by one removal, so compaction
///   is amortized O(1) per removal.
///
/// `seq` is unique, so entries pop in exactly the `(instant, seq)` order
/// of the ordered set this replaced.
#[derive(Debug)]
struct Calendar {
    heap: BinaryHeap<Reverse<CalendarEntry>>,
    /// Entries whose instance is still on the calendar.
    live: usize,
    /// Dead entries tolerated beyond `live` ([`CALENDAR_SLACK`] outside
    /// the pool's unit tests).
    slack: usize,
    /// Compaction passes so far.
    compactions: u64,
    /// Dead entries popped off the top so far.
    dead_pops: u64,
}

impl Calendar {
    fn new(slack: usize) -> Calendar {
        Calendar {
            heap: BinaryHeap::new(),
            live: 0,
            slack,
            compactions: 0,
            dead_pops: 0,
        }
    }

    /// The earliest live entry.
    fn first(&self) -> Option<CalendarEntry> {
        self.heap.peek().map(|&Reverse(entry)| entry)
    }

    /// Schedules a live entry.
    fn push(&mut self, entry: CalendarEntry) {
        self.heap.push(Reverse(entry));
        self.live += 1;
    }

    /// Takes off the calendar the live `entry`, whose instance the caller
    /// has just removed (its generation is already bumped). The heap is
    /// touched only if the entry is on top.
    fn remove(&mut self, entry: CalendarEntry, generations: &[u32]) {
        self.live -= 1;
        if self.first() == Some(entry) {
            self.heap.pop();
        }
        self.settle(generations);
    }

    /// Pops the earliest entry, which must exist; its instance stays in
    /// the pool.
    fn pop_first(&mut self, generations: &[u32]) {
        self.heap.pop();
        self.live -= 1;
        self.settle(generations);
    }

    /// Restores both invariants: pops dead entries off the top, then
    /// compacts if the dead ones exceed the live ones by the slack.
    fn settle(&mut self, generations: &[u32]) {
        let live = |&Reverse((_, _, id)): &Reverse<CalendarEntry>| {
            generations[id.slot()] == id.generation()
        };
        while self.heap.peek().is_some_and(|top| !live(top)) {
            self.heap.pop();
            self.dead_pops += 1;
        }
        if self.heap.len() > 2 * self.live + self.slack {
            self.heap.retain(live);
            self.compactions += 1;
        }
        debug_assert!(
            self.heap.len() >= self.live && self.heap.len() <= 2 * self.live + self.slack,
            "calendar length out of bounds"
        );
    }
}

/// The warm-instance arena and its indexes. See the module docs.
///
/// The arena is laid out struct-of-arrays: `generations`, `hot`, `links`
/// and `cold` are parallel vectors indexed by slot. The generational
/// [`WarmId`] contract is unchanged — a handle is live iff its generation
/// matches `generations[slot]`.
#[derive(Debug)]
pub(crate) struct WarmPool {
    /// Per slot: bumped every time the slot is freed; a handle is live iff
    /// its generation matches.
    generations: Vec<u32>,
    /// Per slot: the hot fields of the occupying instance (garbage while
    /// vacant).
    hot: Vec<SlotHot>,
    /// Per slot: the occupying instance's neighbours on its node's list
    /// (`[BY_NODE]`) and on its function's list (`[BY_FUNCTION]`); stale
    /// while vacant.
    links: Vec<[Links; 2]>,
    /// Per slot: the full instance, or the free-list link while vacant.
    cold: Vec<SlotCold>,
    free_head: u32,
    len: usize,
    compressed: usize,
    next_seq: u64,
    /// Per function: its candidate list through `links[..][BY_FUNCTION]`,
    /// ascending by [`SlotHot::candidate_key`].
    candidates: Vec<List>,
    /// Per node: its residency list through `links[..][BY_NODE]`, in
    /// admission order.
    residents: Vec<List>,
    /// Compressed instances whose candidate key still carries a zero
    /// penalty but must be re-keyed at `(compressed_ready_at, seq, id)`.
    transitions: Calendar,
    /// Expiry calendar: every live instance at `(expiry, seq, id)`. The
    /// engine serves keep-alive expirations straight from this calendar
    /// instead of pushing one heap event per admission, so a window
    /// boundary drains all due expiries in one ordered pass, and the
    /// calendar's top is always live, so no drain ever pops a stale entry.
    expiries: Calendar,
}

impl WarmPool {
    /// Creates an empty pool for a cluster of `nodes` nodes serving
    /// `functions` distinct functions.
    pub fn new(functions: usize, nodes: usize) -> WarmPool {
        WarmPool::with_calendar_slack(functions, nodes, CALENDAR_SLACK)
    }

    /// [`WarmPool::new`] with calendars that compact past `slack` dead
    /// entries; the unit tests use a small slack to make compaction
    /// frequent.
    fn with_calendar_slack(functions: usize, nodes: usize, slack: usize) -> WarmPool {
        WarmPool {
            generations: Vec::new(),
            hot: Vec::new(),
            links: Vec::new(),
            cold: Vec::new(),
            free_head: NO_SLOT,
            len: 0,
            compressed: 0,
            next_seq: 0,
            candidates: vec![List::EMPTY; functions],
            residents: vec![List::EMPTY; nodes],
            transitions: Calendar::new(slack),
            expiries: Calendar::new(slack),
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
        self.candidates[function.index()].head != NO_SLOT
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

        let slot = if self.free_head != NO_SLOT {
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
            self.links.push([Links::NONE; 2]);
            self.cold.push(SlotCold::Vacant { next_free: NO_SLOT });
            (self.cold.len() - 1) as u32
        };
        let id = WarmId::new(slot, self.generations[slot as usize]);
        inst.id = id;

        // A compressed instance enters the zero-penalty class (reuse finds
        // the uncompressed copy until compression completes) and is parked
        // for re-keying — unless compression is instantaneous, in which
        // case it pays decompression from the start.
        let key_penalty = inst.admission_key_penalty();
        self.hot[slot as usize] = SlotHot {
            expiry: inst.expiry,
            seq: inst.seq,
            key_penalty,
        };
        self.candidates[inst.function.index()].link_sorted(&self.hot, &mut self.links, slot);
        if key_penalty != inst.settled_key_penalty() {
            self.transitions
                .push((inst.compressed_ready_at, inst.seq, id));
        }
        if inst.compressed {
            self.compressed += 1;
        }
        self.expiries.push((inst.expiry, inst.seq, id));

        // Append at the tail of the node's residency list: `seq` only
        // grows, so the tail is admission order.
        let residents = &mut self.residents[inst.node.index()];
        residents.link_after(&mut self.links, BY_NODE, residents.tail, slot);
        self.cold[slot as usize] = SlotCold::Occupied(inst);
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
        let slot = id.slot() as u32;
        let state = std::mem::replace(
            &mut self.cold[id.slot()],
            SlotCold::Vacant {
                next_free: self.free_head,
            },
        );
        let SlotCold::Occupied(inst) = state else {
            panic!("instance must exist to be removed");
        };
        self.candidates[inst.function.index()].unlink(&mut self.links, BY_FUNCTION, slot);
        self.residents[inst.node.index()].unlink(&mut self.links, BY_NODE, slot);
        // The calendar keys come from the hot array: the current penalty
        // class (maintained by insert and `migrate_due`, so no probing the
        // transition set to infer it), the expiry and the admission seq.
        let SlotHot {
            expiry,
            seq,
            key_penalty,
        } = std::mem::replace(&mut self.hot[id.slot()], SlotHot::VACANT);
        debug_assert_eq!(
            (expiry, seq),
            (inst.expiry, inst.seq),
            "hot array out of sync"
        );
        self.generations[id.slot()] += 1;
        self.free_head = slot;
        self.len -= 1;

        if key_penalty != inst.settled_key_penalty() {
            // Still parked: its re-key transition never fired.
            self.transitions
                .remove((inst.compressed_ready_at, seq, id), &self.generations);
        }
        self.expiries.remove((expiry, seq, id), &self.generations);
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
        self.expiries.first()
    }

    /// Compaction passes of the expiry and transition calendars so far.
    pub fn calendar_compactions(&self) -> u64 {
        self.expiries.compactions + self.transitions.compactions
    }

    /// Dead calendar entries popped off the top so far.
    pub fn calendar_dead_pops(&self) -> u64 {
        self.expiries.dead_pops + self.transitions.dead_pops
    }

    /// Re-keys every compressed instance whose `compressed_ready_at` has
    /// passed by `now` from the zero-penalty class to its decompression
    /// penalty: an unlink from its candidate list and a sorted re-link.
    /// Must be called before reading [`WarmPool::candidates_of`]; each
    /// instance migrates at most once per lifetime.
    pub fn migrate_due(&mut self, now: SimTime) {
        while let Some((ready_at, _, id)) = self.transitions.first() {
            if ready_at > now {
                break;
            }
            self.transitions.pop_first(&self.generations);
            let inst = self.get(id).expect("parked transition for a dead instance");
            let (function, penalty) = (inst.function.index(), inst.decompress_penalty);
            let slot = id.slot() as u32;
            let list = &mut self.candidates[function];
            list.unlink(&mut self.links, BY_FUNCTION, slot);
            self.hot[id.slot()].key_penalty = penalty;
            list.link_sorted(&self.hot, &mut self.links, slot);
        }
    }

    /// Live instances of `function` in reuse-preference order: cheapest
    /// start-penalty class first, then closest expiry, then admission
    /// order. Only valid if [`WarmPool::migrate_due`] has been called with
    /// the current time.
    pub fn candidates_of(&self, function: FunctionId) -> impl Iterator<Item = WarmId> + '_ {
        self.candidates[function.index()]
            .slots(&self.links, BY_FUNCTION)
            .map(|slot| WarmId::new(slot, self.generations[slot as usize]))
    }

    /// Live instances resident on `node`, in admission order.
    pub fn residents_of(&self, node: NodeId) -> impl Iterator<Item = WarmId> + '_ {
        self.residents[node.index()]
            .slots(&self.links, BY_NODE)
            .map(|slot| WarmId::new(slot, self.generations[slot as usize]))
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

#[cfg(test)]
mod tests;
