//! The event schema: the one table that defines the JSONL format.
//!
//! Each line type lists its variants' tags and their fields in key order
//! (Rust field: codec type = JSON key). The `schema!` macro turns the
//! table into the types below, their encoders (`write_line`, behind
//! [`write_event_line`](crate::write_event_line)), their strict decoders
//! (behind [`decode_tagged`]), `tag()`, [`Event::at`] and
//! [`ReleaseReason::label`]. Adding a field is one edit here: declare it
//! in its variant, at its place in the key order, with its JSON key.

use cc_types::{Arch, Cost, FunctionId, MemoryMb, NodeId, SimDuration, SimTime, StartKind, WarmId};

use crate::wire::{line_open, schema, Cursor, DecodeError, DecodeErrorKind};

schema! {
    label Arch { X86 = "x86", Arm = "arm" }

    label StartKind {
        Cold = "cold",
        WarmUncompressed = "warm",
        WarmCompressed = "warm_compressed",
    }

    /// Why a warm instance left the pool.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    label enum ReleaseReason {
        /// Consumed by a warm start.
        Reused = "reused",
        /// Evicted under memory pressure or by a policy command.
        Evicted = "evicted",
        /// Its keep-alive window elapsed.
        Expired = "expired",
    }

    /// One round of the per-interval optimizer (SRE or the full-space
    /// descent ablation), as reported by the policy through
    /// `Scheduler::drain_optimizer_rounds`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    record struct OptimizerRound {
        /// Round ordinal within the interval (0-based).
        round: u32 = "round",
        /// Sub-problems sampled this round (1 for full-space descent).
        subproblems: u32 = "subproblems",
        /// Choice dimensions optimized this round (3 × sampled functions).
        dimensions: u32 = "dims",
        /// Objective value of the spliced working solution after the round.
        objective: f64 = "objective",
        /// Coordinates whose value changed versus the round's start.
        accepted_moves: u64 = "accepted",
        /// Objective evaluations consumed by the round's sub-problem searches.
        evaluations: u64 = "evals",
    }

    /// The engine's state at one interval tick. The engine keeps one per
    /// tick in `SimReport::intervals` and emits the same value as
    /// [`Event::IntervalSampled`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    record struct IntervalSample {
        /// Tick ordinal (0 at simulated time zero).
        index: u64 = "index",
        /// Keep-alive dollars spent since the previous tick (net of refunds).
        spend_delta_dollars: f64 = "spend_delta",
        /// Live warm instances at the tick.
        warm_pool: u64 = "warm_pool",
        /// Live compressed instances at the tick.
        compressed: u64 = "compressed",
        /// Fraction of execution cores busy at the tick.
        utilization: f64 = "utilization",
        /// Compressed admissions since the previous tick.
        compression_events_delta: u64 = "compress_delta",
        /// Invocations waiting for capacity at the tick.
        pending: u64 = "pending",
    }

    /// A typed simulator event.
    ///
    /// Every variant carries its simulated timestamp `at`. Events are
    /// emitted in engine processing order, which is non-decreasing in `at`
    /// with one exception: [`Event::CompressionFinished`] is emitted at
    /// admission time (the moment its completion instant becomes known)
    /// but timestamped with that future instant — consumers that need
    /// strict ordering should sort by `at`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    line enum Event with fn at() -> SimTime {
        /// A trace invocation arrived.
        Arrival = "arrival" {
            /// Arrival time.
            at: SimTime = "at",
            /// The invoked function.
            function: FunctionId = "fn",
        },
        /// An arrival could not be placed immediately and joined the queue
        /// (emitted once per invocation, not per retry).
        Queued = "queued" {
            /// When the invocation joined the queue.
            at: SimTime = "at",
            /// The invoked function.
            function: FunctionId = "fn",
            /// Queue depth after joining.
            depth: u64 = "depth",
        },
        /// An execution started (the simulator knows all timing components
        /// up front, so the whole span is described here).
        ExecutionStarted = "exec_start" {
            /// Start time (arrival + wait).
            at: SimTime = "at",
            /// The function.
            function: FunctionId = "fn",
            /// Hosting node.
            node: NodeId = "node",
            /// Node architecture.
            arch: Arch = "arch",
            /// Cold, warm-compressed (pays decompression), or warm.
            kind: StartKind = "kind",
            /// Queueing wait already paid.
            wait: SimDuration = "wait_us",
            /// Cold-start or decompression penalty.
            start_penalty: SimDuration = "penalty_us",
            /// Execution time.
            execution: SimDuration = "exec_us",
        },
        /// A finished (or pre-warmed) instance entered the warm pool.
        InstanceAdmitted = "warm_admit" {
            /// Admission time.
            at: SimTime = "at",
            /// Pool handle.
            id: WarmId = "id",
            /// The function.
            function: FunctionId = "fn",
            /// Hosting node.
            node: NodeId = "node",
            /// Node architecture.
            arch: Arch = "arch",
            /// Stored compressed.
            compressed: bool = "compressed",
            /// Footprint charged to the node.
            memory: MemoryMb = "mem_mb",
            /// Keep-alive expiry instant.
            expiry: SimTime = "expiry",
            /// Budget reserved for the window.
            reserved: Cost = "reserved_pd",
        },
        /// A warm instance left the pool (reuse, eviction, or expiry).
        InstanceReleased = "warm_release" {
            /// Release time.
            at: SimTime = "at",
            /// Pool handle.
            id: WarmId = "id",
            /// The function.
            function: FunctionId = "fn",
            /// Hosting node.
            node: NodeId = "node",
            /// Footprint released.
            memory: MemoryMb = "mem_mb",
            /// Was stored compressed.
            compressed: bool = "compressed",
            /// When the instance was admitted (span start for exporters).
            since: SimTime = "since",
            /// Why it left.
            reason: ReleaseReason = "reason",
        },
        /// Background compression of a freshly admitted instance began.
        CompressionStarted = "compress_start" {
            /// Admission time.
            at: SimTime = "at",
            /// Pool handle.
            id: WarmId = "id",
            /// The function.
            function: FunctionId = "fn",
            /// Hosting node.
            node: NodeId = "node",
            /// When compression completes (reuses before this pay nothing).
            ready_at: SimTime = "ready_at",
        },
        /// Background compression completed. Emitted at admission (see the
        /// enum docs); `at` is the completion instant.
        CompressionFinished = "compress_finish" {
            /// Completion instant.
            at: SimTime = "at",
            /// Pool handle.
            id: WarmId = "id",
            /// The function.
            function: FunctionId = "fn",
            /// Hosting node.
            node: NodeId = "node",
        },
        /// The ledger granted (part of) a keep-alive reservation.
        BudgetDebit = "budget_debit" {
            /// Reservation time.
            at: SimTime = "at",
            /// What the keep-alive decision asked for.
            requested: Cost = "requested_pd",
            /// What the budget afforded (equal to `requested` when unlimited).
            granted: Cost = "granted_pd",
        },
        /// The ledger was refunded an unused reservation tail.
        BudgetCredit = "budget_credit" {
            /// Refund time.
            at: SimTime = "at",
            /// Amount returned to the balance.
            amount: Cost = "amount_pd",
        },
        /// A pre-warm command found no node with capacity and was dropped.
        PrewarmDropped = "prewarm_dropped" {
            /// Tick time.
            at: SimTime = "at",
            /// The function that was to be warmed.
            function: FunctionId = "fn",
            /// Requested architecture.
            arch: Arch = "arch",
        },
        /// One optimizer round finished inside the policy's interval callback.
        OptimizerRound = "opt_round" {
            /// Tick time.
            at: SimTime = "at",
            /// Round telemetry (flattened into the line).
            round: OptimizerRound,
        },
        /// Per-interval engine sample (the one kept in `SimReport::intervals`).
        IntervalSampled = "interval" {
            /// Tick time.
            at: SimTime = "at",
            /// The sampled values (flattened into the line).
            sample: IntervalSample,
        },
    }

    /// A marker line bracketing one shard's block in a sharded stream.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    line enum ShardMarker {
        /// Opens a shard's block.
        Begin = "shard_begin" {
            /// The shard whose block starts here.
            shard: u32 = "shard",
        },
        /// Closes a shard's block with the mux's per-shard accounting.
        End = "shard_end" {
            /// The shard whose block ends here.
            shard: u32 = "shard",
            /// Event lines the mux wrote for the shard.
            events: u64 = "events",
            /// Events the shard reported dropped (lossy channel backpressure).
            dropped: u64 = "dropped",
        },
    }
}

/// One decoded line of the schema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tagged {
    /// A simulator event.
    Event(Event),
    /// A shard marker.
    Marker(ShardMarker),
}

/// Decodes one line strictly against the schema: it decodes iff it is
/// byte-for-byte canonical (modulo number spellings that parse to the same
/// value), so re-encoding reproduces it. Never panics; malformed input
/// yields a typed [`DecodeError`] at the offending byte.
pub fn decode_tagged(line: &str) -> Result<Tagged, DecodeError> {
    let mut c = Cursor::new(line);
    c.lit(line_open!())?;
    let tag_at = c.pos();
    let tag = c.label()?;
    let tagged = if let Some(event) = Event::take_fields(tag, &mut c)? {
        Tagged::Event(event)
    } else if let Some(marker) = ShardMarker::take_fields(tag, &mut c)? {
        Tagged::Marker(marker)
    } else {
        return Err(DecodeError {
            at: tag_at,
            kind: DecodeErrorKind::UnknownTag(tag.to_string()),
        });
    };
    c.end()?;
    Ok(tagged)
}
