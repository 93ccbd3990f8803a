//! Unit and property tests of the warm pool and its calendars.

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

/// A candidate list's model key: `(penalty class, expiry, seq, id)`.
type ModelKey = (SimDuration, SimTime, u64, WarmId);

/// Walks `list` both ways and checks that it is one well-formed list: no
/// longer than the pool (so a cycle fails instead of hanging), the
/// backward walk is the forward walk reversed, and the head and tail are
/// the forward walk's ends. Returns the live handles head to tail.
fn walk(pool: &WarmPool, list: List, chain: Chain) -> Result<Vec<WarmId>, String> {
    let forward: Vec<u32> = list
        .slots(&pool.links, chain)
        .take(pool.len() + 1)
        .collect();
    prop_assert!(forward.len() <= pool.len(), "the list runs past the pool");
    let mut backward = Vec::new();
    let mut slot = list.tail;
    while slot != NO_SLOT && backward.len() <= forward.len() {
        backward.push(slot);
        slot = pool.links[slot as usize][chain].prev;
    }
    backward.reverse();
    prop_assert_eq!(
        &backward,
        &forward,
        "backward walk is not the forward walk reversed"
    );
    prop_assert_eq!(
        list.head,
        forward.first().copied().unwrap_or(NO_SLOT),
        "head"
    );
    prop_assert_eq!(
        list.tail,
        forward.last().copied().unwrap_or(NO_SLOT),
        "tail"
    );
    Ok(forward
        .into_iter()
        .map(|slot| WarmId::new(slot, pool.generations[slot as usize]))
        .collect())
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
    assert_eq!(pool.transitions.live, 0);
    assert!(pool.transitions.first().is_none(), "the top entry is live");
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
fn residents_track_membership() {
    let mut pool = WarmPool::new(3, 2);
    let a = pool.insert(instance(0, 0, 60));
    let b = pool.insert(instance(1, 0, 30));
    let c = pool.insert(instance(0, 1, 90));
    assert_eq!(
        pool.residents_of(NodeId::new(0)).collect::<Vec<_>>(),
        vec![a, b]
    );
    pool.remove(a);
    assert_eq!(
        pool.residents_of(NodeId::new(0)).collect::<Vec<_>>(),
        vec![b]
    );
    assert_eq!(
        pool.residents_of(NodeId::new(1)).collect::<Vec<_>>(),
        vec![c]
    );
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

    // The intrusive candidate and residency lists against the ordered
    // sets they replaced: after every admission, removal and migration
    // step over several functions and nodes, each list walked forward
    // (`candidates_of`, `residents_of`) is exactly what a `BTreeSet`
    // model keyed the same way lists, walked backward it is the reverse,
    // its head and tail are the walk's ends, and `is_warm` holds exactly
    // when the function's list is non-empty.
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
        let mut candidates = vec![BTreeSet::<ModelKey>::new(); FUNCTIONS as usize];
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
                    residents[node as usize].insert((inst.seq, id));
                    live.push(id);
                }
                2 if !live.is_empty() => {
                    let id = live.swap_remove(pick as usize % live.len());
                    let inst = pool.remove(id);
                    let f = inst.function.index();
                    candidates[f].retain(|key| key.3 != id);
                    transitions.retain(|key| key.2 != id);
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
                prop_assert_eq!(walk(&pool, pool.candidates[f as usize], BY_FUNCTION)?, model.clone());
                prop_assert_eq!(pool.candidates_of(function).collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(pool.is_warm(function), !model.is_empty());
            }
            for n in 0..NODES {
                let model: Vec<WarmId> = residents[n as usize].iter().map(|key| key.1).collect();
                prop_assert_eq!(walk(&pool, pool.residents[n as usize], BY_NODE)?, model.clone());
                prop_assert_eq!(pool.residents_of(NodeId::new(n)).collect::<Vec<_>>(), model);
            }
        }
    }

    // The lazy calendars against the ordered sets they replaced: after
    // every random admission, removal, migration step and expiry drain,
    // each calendar's first entry is the model's first, both live counts
    // match the model, and no heap outgrows `2·live + slack`. Migrations
    // are stepped one due instant at a time, so the re-key order is
    // checked too. A slack of 0–3 makes compaction frequent.
    #[test]
    fn lazy_calendars_match_an_ordered_set_model(
        slack in 0usize..4,
        // ((op, function, node), (compressed, ready_s, expiry_s,
        // penalty_ms), pick): op 0–2 admits, 3–4 removes, 5 advances the
        // clock and migrates, 6 advances it and drains due expiries.
        ops in prop::collection::vec(
            (
                (0u8..7, 0u32..4, 0u32..3),
                (any::<bool>(), 0u64..120, 1u64..240, 1u64..80),
                any::<u16>(),
            ),
            1..120,
        ),
    ) {
        let mut pool = WarmPool::with_calendar_slack(4, 3, slack);
        let mut expiries = BTreeSet::<CalendarEntry>::new();
        let mut transitions = BTreeSet::<CalendarEntry>::new();
        let mut live: Vec<WarmId> = Vec::new();
        let mut now_s = 0u64;
        for &((op, function, node), (compressed, ready_s, expiry_s, penalty_ms), pick) in &ops {
            match op {
                0..=2 => {
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
                    expiries.insert((inst.expiry, inst.seq, id));
                    if compressed && ready_s > 0 {
                        transitions.insert((inst.compressed_ready_at, inst.seq, id));
                    }
                    live.push(id);
                }
                3 | 4 if !live.is_empty() => {
                    let id = live.swap_remove(pick as usize % live.len());
                    let inst = pool.remove(id);
                    prop_assert!(expiries.remove(&(inst.expiry, inst.seq, id)));
                    transitions.remove(&(inst.compressed_ready_at, inst.seq, id));
                }
                5 => {
                    now_s += u64::from(pick % 60);
                    while let Some(&(ready, _, _)) = transitions.first() {
                        if ready > at(now_s) {
                            break;
                        }
                        prop_assert_eq!(pool.transitions.first(), transitions.first().copied());
                        pool.migrate_due(ready);
                        while transitions.first().is_some_and(|entry| entry.0 <= ready) {
                            let (_, _, id) = transitions.pop_first().expect("due entry");
                            let inst = pool.get(id).expect("parked instance is live");
                            prop_assert_eq!(pool.hot[id.slot()].key_penalty, inst.decompress_penalty);
                        }
                    }
                    pool.migrate_due(at(now_s));
                }
                6 => {
                    now_s += u64::from(pick % 60);
                    while let Some(entry) = pool.next_expiry() {
                        if entry.0 > at(now_s) {
                            break;
                        }
                        prop_assert_eq!(Some(entry), expiries.pop_first());
                        let (_, seq, id) = entry;
                        let inst = pool.remove(id);
                        transitions.remove(&(inst.compressed_ready_at, seq, id));
                        live.retain(|&other| other != id);
                    }
                }
                _ => {}
            }
            prop_assert_eq!(pool.len(), live.len());
            for (calendar, model) in [(&pool.expiries, &expiries), (&pool.transitions, &transitions)] {
                prop_assert_eq!(calendar.first(), model.first().copied());
                prop_assert_eq!(calendar.live, model.len());
                prop_assert!(calendar.heap.len() <= 2 * model.len() + slack);
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
