//! Single-pass invariant auditor for decoded event streams.
//!
//! The engine's emission order encodes conservation laws — every warm admit
//! is released at most once and never referenced afterwards, budget credits
//! can never exceed what was granted, per-interval samples must agree with
//! the state the preceding events imply. This module replays those laws
//! mechanically over a [`ShardStream`] and reports every violation with the
//! line number of the offending event.
//!
//! Completeness matters: most pairing and balance checks are only sound on
//! a lossless stream. A shard whose `shard_end` marker declares dropped
//! events — or a stream the caller marks as incomplete — is audited in
//! degraded mode: ordering and range checks
//! still run, pairing/balance/sample-consistency checks are suppressed, and
//! the report carries an explicit notice instead of false violations.

use cc_obs::{Event, ReleaseReason};
use cc_types::{FunctionId, FxHashMap, NodeId, SimTime, WarmId};

use crate::decode::{ReplayLog, ShardStream};

/// One invariant violation, located by file line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line number of the offending event.
    pub line: u64,
    /// Stable rule identifier (e.g. `release-live`, `sample-consistency`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The audit outcome for one shard.
#[derive(Debug, Clone)]
pub struct ShardAudit {
    /// The shard id.
    pub shard: u32,
    /// Events audited.
    pub events: u64,
    /// Whether the stream was treated as complete (lossless, unsampled).
    pub complete: bool,
    /// Explanatory notices (e.g. the sampled-stream degradation notice).
    pub notices: Vec<String>,
    /// Violations found, in stream order.
    pub violations: Vec<Violation>,
}

/// The audit outcome for a whole log.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-shard audits, in shard-id order.
    pub shards: Vec<ShardAudit>,
}

impl AuditReport {
    /// Total violations across all shards.
    pub fn total_violations(&self) -> usize {
        self.shards.iter().map(|s| s.violations.len()).sum()
    }

    /// True when no shard violated any invariant.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// A multi-line human-readable summary (per-shard status, notices, and
    /// every violation) suitable for CLI output or a CI artifact.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for shard in &self.shards {
            out.push_str(&format!(
                "shard {}: {} events, {} violations ({})\n",
                shard.shard,
                shard.events,
                shard.violations.len(),
                if shard.complete {
                    "complete stream, all checks"
                } else {
                    "incomplete stream, pairing checks suppressed"
                }
            ));
            for notice in &shard.notices {
                out.push_str(&format!("  notice: {notice}\n"));
            }
            for v in &shard.violations {
                out.push_str(&format!("  line {}: [{}] {}\n", v.line, v.rule, v.message));
            }
        }
        out.push_str(&format!(
            "audit: {} violations total\n",
            self.total_violations()
        ));
        out
    }
}

/// The ids a capture's scenario allows: node ids below `nodes` (the
/// cluster's size) and function ids below `functions` (the workload's).
/// The stream does not record its scenario, so the caller supplies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdBounds {
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Functions in the workload.
    pub functions: usize,
}

/// Audits every shard of a decoded log.
///
/// A shard is audited as complete unless its `shard_end` marker declares
/// dropped events or `assume_sampled` is set (the caller knows the stream
/// is incomplete although no marker says so). Every writer in this
/// workspace is lossless, so its callers pass `false`.
pub fn audit_log(log: &ReplayLog, assume_sampled: bool) -> AuditReport {
    audit_log_within(log, assume_sampled, None)
}

/// [`audit_log`], and with `bounds` every node or function id outside them
/// is an `id-range` violation, in complete and incomplete streams alike.
pub fn audit_log_within(
    log: &ReplayLog,
    assume_sampled: bool,
    bounds: Option<IdBounds>,
) -> AuditReport {
    AuditReport {
        shards: log
            .shards
            .iter()
            .map(|shard| {
                let dropped = shard.end.map_or(0, |e| e.dropped);
                audit_shard(shard, !assume_sampled && dropped == 0, bounds)
            })
            .collect(),
    }
}

#[derive(Debug, Clone, Copy)]
struct AdmitInfo {
    line: u64,
    function: FunctionId,
    node: NodeId,
    memory: u32,
    compressed: bool,
    admitted_at: SimTime,
    expiry: SimTime,
}

/// State for the one-pass audit of a single shard.
struct Auditor {
    complete: bool,
    bounds: Option<IdBounds>,
    violations: Vec<Violation>,

    // Ordering.
    prev_at: Option<SimTime>,
    last_arrival: FxHashMap<FunctionId, SimTime>,

    // Warm-pool lifecycle.
    live: FxHashMap<WarmId, AdmitInfo>,
    compressed_live: u64,
    pending_compression: FxHashMap<WarmId, (u64, SimTime)>,

    // Reuse adjacency: a Reused release must be immediately followed by a
    // warm start on the same function/node at the same instant, and every
    // warm start must be so preceded.
    pending_reuse: Option<(u64, FunctionId, NodeId, SimTime)>,

    // Arrival/start and queue/start pairing (multisets keyed by
    // (function, timestamp) — arrivals repeat at equal instants).
    arrivals_open: FxHashMap<(u32, u64), u64>,
    queued_open: FxHashMap<(u32, u64), u64>,
    queued_total: u64,
    drained_total: u64,

    // Budget conservation, in exact picodollars. `spent_pd` mirrors the
    // ledger's `spent()` (granted minus refunded), which is what the
    // engine's per-interval spend delta is computed from.
    spent_pd: u64,
    last_spent_pd: u64,

    // Interval samples.
    next_sample_index: u64,
    inferred_interval: Option<u64>,
    compressed_admits_since_tick: u64,
}

impl Auditor {
    fn new(complete: bool, bounds: Option<IdBounds>) -> Auditor {
        Auditor {
            complete,
            bounds,
            violations: Vec::new(),
            prev_at: None,
            last_arrival: FxHashMap::default(),
            live: FxHashMap::default(),
            compressed_live: 0,
            pending_compression: FxHashMap::default(),
            pending_reuse: None,
            arrivals_open: FxHashMap::default(),
            queued_open: FxHashMap::default(),
            queued_total: 0,
            drained_total: 0,
            spent_pd: 0,
            last_spent_pd: 0,
            next_sample_index: 0,
            inferred_interval: None,
            compressed_admits_since_tick: 0,
        }
    }

    fn violate(&mut self, line: u64, rule: &'static str, message: String) {
        self.violations.push(Violation {
            line,
            rule,
            message,
        });
    }

    fn check_order(&mut self, line: u64, event: &Event) {
        // CompressionFinished is emitted at admission but timestamped with
        // its (future) completion instant — the documented exception.
        if matches!(event, Event::CompressionFinished { .. }) {
            return;
        }
        let at = event.at();
        if let Some(prev) = self.prev_at {
            if at < prev {
                self.violate(
                    line,
                    "monotone-time",
                    format!(
                        "{} at {}us precedes the previous event at {}us",
                        event.tag(),
                        at.as_micros(),
                        prev.as_micros()
                    ),
                );
            }
        }
        self.prev_at = Some(at);
    }

    fn check_reuse_adjacency(&mut self, line: u64, event: &Event) {
        let pending = self.pending_reuse.take();
        if let Some((release_line, function, node, at)) = pending {
            let matches = matches!(
                *event,
                Event::ExecutionStarted {
                    at: start_at,
                    function: start_fn,
                    node: start_node,
                    kind,
                    ..
                } if kind.is_warm() && start_at == at && start_fn == function && start_node == node
            );
            if !matches {
                self.violate(
                    release_line,
                    "reuse-adjacency",
                    format!(
                        "reused release of fn {} on node {} at {}us is not followed by its warm start",
                        function.index(),
                        node.index(),
                        at.as_micros()
                    ),
                );
            }
        } else if let Event::ExecutionStarted {
            at, function, kind, ..
        } = *event
        {
            // The converse law: the engine only warm-starts by consuming a
            // pool instance, releasing it (Reused) immediately beforehand.
            if kind.is_warm() {
                self.violate(
                    line,
                    "reuse-adjacency",
                    format!(
                        "warm start of fn {} at {}us is not preceded by its reused release",
                        function.index(),
                        at.as_micros()
                    ),
                );
            }
        }
    }

    fn check_ids(&mut self, line: u64, event: &Event) {
        let Some(bounds) = self.bounds else {
            return;
        };
        let (function, node) = match *event {
            Event::Arrival { function, .. }
            | Event::Queued { function, .. }
            | Event::PrewarmDropped { function, .. } => (Some(function), None),
            Event::ExecutionStarted { function, node, .. }
            | Event::InstanceAdmitted { function, node, .. }
            | Event::InstanceReleased { function, node, .. }
            | Event::CompressionStarted { function, node, .. }
            | Event::CompressionFinished { function, node, .. } => (Some(function), Some(node)),
            Event::BudgetDebit { .. }
            | Event::BudgetCredit { .. }
            | Event::OptimizerRound { .. }
            | Event::IntervalSampled { .. } => (None, None),
        };
        let IdBounds { nodes, functions } = bounds;
        let outside = [
            function.filter(|f| f.index() >= functions).map(|f| {
                format!(
                    "fn {}, outside the {functions}-function workload",
                    f.index()
                )
            }),
            node.filter(|n| n.index() >= nodes)
                .map(|n| format!("node {}, outside the {nodes}-node cluster", n.index())),
        ];
        for what in outside.into_iter().flatten() {
            self.violate(line, "id-range", format!("{} names {what}", event.tag()));
        }
    }

    fn observe(&mut self, line: u64, event: &Event) {
        self.check_order(line, event);
        self.check_ids(line, event);
        if self.complete {
            self.check_reuse_adjacency(line, event);
        }

        match *event {
            Event::Arrival { at, function } => {
                if let Some(&prev) = self.last_arrival.get(&function) {
                    if at < prev {
                        self.violate(
                            line,
                            "arrival-order",
                            format!(
                                "fn {} arrival at {}us precedes its previous arrival at {}us",
                                function.index(),
                                at.as_micros(),
                                prev.as_micros()
                            ),
                        );
                    }
                }
                self.last_arrival.insert(function, at);
                *self
                    .arrivals_open
                    .entry((function.as_u32(), at.as_micros()))
                    .or_insert(0) += 1;
            }
            Event::Queued { at, function, .. } => {
                self.queued_total += 1;
                *self
                    .queued_open
                    .entry((function.as_u32(), at.as_micros()))
                    .or_insert(0) += 1;
            }
            Event::ExecutionStarted {
                at, function, wait, ..
            } => {
                if self.complete {
                    let arrival_us = at.as_micros().saturating_sub(wait.as_micros());
                    let key = (function.as_u32(), arrival_us);
                    match self.arrivals_open.get_mut(&key) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            if *n == 0 {
                                self.arrivals_open.remove(&key);
                            }
                        }
                        _ => self.violate(
                            line,
                            "arrival-pairing",
                            format!(
                                "start of fn {} at {}us (wait {}us) matches no outstanding arrival",
                                function.index(),
                                at.as_micros(),
                                wait.as_micros()
                            ),
                        ),
                    }
                    if wait.as_micros() > 0 {
                        self.drained_total += 1;
                        match self.queued_open.get_mut(&key) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                if *n == 0 {
                                    self.queued_open.remove(&key);
                                }
                            }
                            _ => self.violate(
                                line,
                                "queue-pairing",
                                format!(
                                    "waited start of fn {} at {}us matches no queued invocation",
                                    function.index(),
                                    at.as_micros()
                                ),
                            ),
                        }
                    }
                }
            }
            Event::InstanceAdmitted {
                at,
                id,
                function,
                node,
                compressed,
                memory,
                expiry,
                ..
            } => {
                let info = AdmitInfo {
                    line,
                    function,
                    node,
                    memory: memory.as_mb(),
                    compressed,
                    admitted_at: at,
                    expiry,
                };
                if self.live.insert(id, info).is_some() {
                    self.violate(
                        line,
                        "admit-unique",
                        format!("{id} admitted while already live"),
                    );
                } else if compressed {
                    self.compressed_live += 1;
                    self.compressed_admits_since_tick += 1;
                }
            }
            Event::InstanceReleased {
                at,
                id,
                function,
                node,
                memory,
                compressed,
                since,
                reason,
            } => {
                if !self.complete {
                    // Without the admit we cannot pair; keep liveness
                    // best-effort so compressed counts stay sane.
                    if let Some(info) = self.live.remove(&id) {
                        if info.compressed {
                            self.compressed_live -= 1;
                        }
                        self.pending_compression.remove(&id);
                    }
                    return;
                }
                let Some(info) = self.live.remove(&id) else {
                    self.violate(
                        line,
                        "release-live",
                        format!("{id} released ({}) while not live", reason.label()),
                    );
                    return;
                };
                if info.compressed {
                    self.compressed_live -= 1;
                }
                if info.function != function
                    || info.node != node
                    || info.memory != memory.as_mb()
                    || info.compressed != compressed
                    || info.admitted_at != since
                {
                    self.violate(
                        line,
                        "release-consistent",
                        format!(
                            "{id} release fields disagree with its admission on line {}",
                            info.line
                        ),
                    );
                }
                if at > info.expiry {
                    self.violate(
                        line,
                        "release-expiry",
                        format!(
                            "{id} released at {}us, after its keep-alive expiry {}us",
                            at.as_micros(),
                            info.expiry.as_micros()
                        ),
                    );
                }
                if reason == ReleaseReason::Expired && at != info.expiry {
                    self.violate(
                        line,
                        "release-expiry",
                        format!(
                            "{id} expired at {}us but its window ended at {}us",
                            at.as_micros(),
                            info.expiry.as_micros()
                        ),
                    );
                }
                // A release before the compression completion instant is
                // legal (early reuse/eviction); the finish event was
                // emitted at admission either way, so the pair stays
                // balanced and nothing needs checking here.
                self.pending_compression.remove(&id);
                if reason == ReleaseReason::Reused {
                    self.pending_reuse = Some((line, function, node, at));
                }
            }
            Event::CompressionStarted {
                at, id, ready_at, ..
            } => {
                if !self.complete {
                    return;
                }
                match self.live.get(&id) {
                    None => self.violate(
                        line,
                        "compress-pairing",
                        format!("compression started for {id}, which is not live"),
                    ),
                    Some(info) if !info.compressed => self.violate(
                        line,
                        "compress-pairing",
                        format!("compression started for {id}, admitted uncompressed"),
                    ),
                    Some(info) if info.admitted_at != at => self.violate(
                        line,
                        "compress-pairing",
                        format!(
                            "compression of {id} started at {}us, not at its admission instant",
                            at.as_micros()
                        ),
                    ),
                    Some(_) => {
                        if self
                            .pending_compression
                            .insert(id, (line, ready_at))
                            .is_some()
                        {
                            self.violate(
                                line,
                                "compress-pairing",
                                format!("{id} has two compression starts"),
                            );
                        }
                    }
                }
            }
            Event::CompressionFinished { at, id, .. } => {
                if !self.complete {
                    return;
                }
                match self.pending_compression.remove(&id) {
                    None => self.violate(
                        line,
                        "compress-pairing",
                        format!("compression finished for {id} without a start"),
                    ),
                    Some((_, ready_at)) if ready_at != at => self.violate(
                        line,
                        "compress-pairing",
                        format!(
                            "compression of {id} finished at {}us, start promised {}us",
                            at.as_micros(),
                            ready_at.as_micros()
                        ),
                    ),
                    Some(_) => {}
                }
            }
            Event::BudgetDebit {
                requested, granted, ..
            } => {
                if granted > requested {
                    self.violate(
                        line,
                        "budget-debit",
                        format!(
                            "granted {}pd exceeds requested {}pd",
                            granted.as_picodollars(),
                            requested.as_picodollars()
                        ),
                    );
                } else {
                    self.spent_pd = self.spent_pd.saturating_add(granted.as_picodollars());
                }
            }
            Event::BudgetCredit { amount, .. } => {
                if !self.complete {
                    return;
                }
                let pd = amount.as_picodollars();
                if pd > self.spent_pd {
                    self.violate(
                        line,
                        "budget-balance",
                        format!(
                            "credit of {pd}pd exceeds the {}pd outstanding spend",
                            self.spent_pd
                        ),
                    );
                    self.spent_pd = 0;
                } else {
                    self.spent_pd -= pd;
                }
            }
            Event::PrewarmDropped { .. } | Event::OptimizerRound { .. } => {}
            Event::IntervalSampled { at, sample } => {
                if !(0.0..=1.0).contains(&sample.utilization) {
                    self.violate(
                        line,
                        "sample-range",
                        format!("utilization {} outside [0, 1]", sample.utilization),
                    );
                }
                if !self.complete {
                    // Sampling can drop arbitrary ticks; only ordering is
                    // checkable.
                    if sample.index < self.next_sample_index {
                        self.violate(
                            line,
                            "sample-index",
                            format!(
                                "sample index {} not increasing (next expected >= {})",
                                sample.index, self.next_sample_index
                            ),
                        );
                    }
                    self.next_sample_index = sample.index + 1;
                    return;
                }
                if sample.index != self.next_sample_index {
                    self.violate(
                        line,
                        "sample-index",
                        format!(
                            "sample index {} (expected {})",
                            sample.index, self.next_sample_index
                        ),
                    );
                }
                self.next_sample_index = sample.index + 1;
                // Ticks land at index·interval; infer the interval from the
                // first non-zero tick and hold every later one to it.
                if sample.index > 0 {
                    match self.inferred_interval {
                        None => {
                            if at.as_micros() % sample.index == 0 {
                                self.inferred_interval = Some(at.as_micros() / sample.index);
                            } else {
                                self.violate(
                                    line,
                                    "sample-spacing",
                                    format!(
                                        "tick {} at {}us implies a non-integral interval",
                                        sample.index,
                                        at.as_micros()
                                    ),
                                );
                            }
                        }
                        Some(interval) => {
                            if at.as_micros() != sample.index * interval {
                                self.violate(
                                    line,
                                    "sample-spacing",
                                    format!(
                                        "tick {} at {}us, expected {}us on the {}us interval",
                                        sample.index,
                                        at.as_micros(),
                                        sample.index * interval,
                                        interval
                                    ),
                                );
                            }
                        }
                    }
                } else if at != SimTime::ZERO {
                    self.violate(
                        line,
                        "sample-spacing",
                        format!("tick 0 at {}us, expected 0us", at.as_micros()),
                    );
                }
                if sample.warm_pool != self.live.len() as u64 {
                    self.violate(
                        line,
                        "sample-consistency",
                        format!(
                            "sample reports {} warm instances, stream implies {}",
                            sample.warm_pool,
                            self.live.len()
                        ),
                    );
                }
                if sample.compressed != self.compressed_live {
                    self.violate(
                        line,
                        "sample-consistency",
                        format!(
                            "sample reports {} compressed instances, stream implies {}",
                            sample.compressed, self.compressed_live
                        ),
                    );
                }
                if sample.pending != self.queued_total - self.drained_total {
                    self.violate(
                        line,
                        "sample-consistency",
                        format!(
                            "sample reports {} pending invocations, stream implies {}",
                            sample.pending,
                            self.queued_total - self.drained_total
                        ),
                    );
                }
                if sample.compression_events_delta != self.compressed_admits_since_tick {
                    self.violate(
                        line,
                        "sample-consistency",
                        format!(
                            "sample reports {} compression events this interval, stream implies {}",
                            sample.compression_events_delta, self.compressed_admits_since_tick
                        ),
                    );
                }
                self.compressed_admits_since_tick = 0;
                // The engine computes the delta in f64 dollars from the
                // ledger's picodollar totals; replicate that arithmetic
                // exactly and compare bit patterns.
                let expected = self.spent_pd as f64 / 1e12 - self.last_spent_pd as f64 / 1e12;
                if sample.spend_delta_dollars.to_bits() != expected.to_bits() {
                    self.violate(
                        line,
                        "sample-consistency",
                        format!(
                            "sample spend delta {} disagrees with the ledger-implied {expected}",
                            sample.spend_delta_dollars
                        ),
                    );
                }
                self.last_spent_pd = self.spent_pd;
            }
        }
    }

    fn finish(mut self, end_line: u64) -> (Vec<Violation>, Vec<String>) {
        let mut notices = Vec::new();
        if self.complete {
            if let Some((release_line, function, node, at)) = self.pending_reuse.take() {
                self.violate(
                    release_line,
                    "reuse-adjacency",
                    format!(
                        "stream ends after a reused release of fn {} on node {} at {}us",
                        function.index(),
                        node.index(),
                        at.as_micros()
                    ),
                );
            }
            let unstarted: u64 = self.arrivals_open.values().sum();
            if unstarted > 0 {
                self.violate(
                    end_line,
                    "arrival-pairing",
                    format!("{unstarted} arrivals never started by end of stream"),
                );
            }
            let undrained: u64 = self.queued_open.values().sum();
            if undrained > 0 {
                self.violate(
                    end_line,
                    "queue-pairing",
                    format!("{undrained} queued invocations never drained by end of stream"),
                );
            }
            let unfinished = self.pending_compression.len();
            if unfinished > 0 {
                self.violate(
                    end_line,
                    "compress-pairing",
                    format!("{unfinished} compression starts never finished by end of stream"),
                );
            }
            // Instances still live at end of stream are fine: the
            // simulation horizon simply ended before their keep-alive did.
        } else {
            notices.push(
                "sampled stream: pairing, balance, and sample-consistency checks suppressed \
                 (only ordering and range invariants were audited)"
                    .to_string(),
            );
        }
        (self.violations, notices)
    }
}

/// Audits one shard's event stream.
///
/// `complete` asserts the stream is lossless and unsampled; pass `false`
/// for sampled or lossy captures to audit in degraded mode (see the module
/// docs).
fn audit_shard(shard: &ShardStream, complete: bool, bounds: Option<IdBounds>) -> ShardAudit {
    let mut auditor = Auditor::new(complete, bounds);
    for (line, event) in &shard.events {
        auditor.observe(*line, event);
    }
    let end_line = shard.events.last().map_or(0, |(line, _)| *line) + 1;
    let (violations, notices) = auditor.finish(end_line);
    ShardAudit {
        shard: shard.shard,
        events: shard.events.len() as u64,
        complete,
        notices,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_obs::IntervalSample;
    use cc_types::{Arch, Cost, MemoryMb, SimDuration, StartKind};

    fn stream(events: Vec<Event>) -> ShardStream {
        ShardStream {
            shard: 0,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, e)| (i as u64 + 1, e))
                .collect(),
            end: None,
        }
    }

    fn admit(at: u64, id: WarmId, compressed: bool, expiry: u64) -> Event {
        Event::InstanceAdmitted {
            at: SimTime::from_micros(at),
            id,
            function: FunctionId::new(1),
            node: NodeId::new(0),
            arch: Arch::X86,
            compressed,
            memory: MemoryMb::new(128),
            expiry: SimTime::from_micros(expiry),
            reserved: Cost::from_picodollars(10),
        }
    }

    fn release(at: u64, id: WarmId, since: u64, reason: ReleaseReason) -> Event {
        Event::InstanceReleased {
            at: SimTime::from_micros(at),
            id,
            function: FunctionId::new(1),
            node: NodeId::new(0),
            memory: MemoryMb::new(128),
            compressed: false,
            since: SimTime::from_micros(since),
            reason,
        }
    }

    #[test]
    fn clean_lifecycle_passes() {
        let id = WarmId::new(0, 0);
        let audit = audit_shard(
            &stream(vec![
                admit(10, id, false, 1000),
                release(1000, id, 10, ReleaseReason::Expired),
            ]),
            true,
            None,
        );
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
    }

    #[test]
    fn double_admit_and_dead_release_are_violations() {
        let id = WarmId::new(0, 0);
        let audit = audit_shard(
            &stream(vec![
                admit(10, id, false, 1000),
                admit(20, id, false, 1000),
                release(30, id, 10, ReleaseReason::Evicted),
                release(40, id, 10, ReleaseReason::Evicted),
            ]),
            true,
            None,
        );
        let rules: Vec<_> = audit.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"admit-unique"), "{rules:?}");
        assert!(rules.contains(&"release-live"), "{rules:?}");
    }

    #[test]
    fn release_after_expiry_is_a_violation() {
        let id = WarmId::new(0, 0);
        let audit = audit_shard(
            &stream(vec![
                admit(10, id, false, 1000),
                release(2000, id, 10, ReleaseReason::Evicted),
            ]),
            true,
            None,
        );
        assert_eq!(audit.violations.len(), 1);
        assert_eq!(audit.violations[0].rule, "release-expiry");
        assert_eq!(audit.violations[0].line, 2);
    }

    #[test]
    fn overdrawn_credit_is_a_violation() {
        let audit = audit_shard(
            &stream(vec![
                Event::BudgetDebit {
                    at: SimTime::from_micros(1),
                    requested: Cost::from_picodollars(100),
                    granted: Cost::from_picodollars(50),
                },
                Event::BudgetCredit {
                    at: SimTime::from_micros(2),
                    amount: Cost::from_picodollars(60),
                },
            ]),
            true,
            None,
        );
        assert_eq!(audit.violations.len(), 1);
        assert_eq!(audit.violations[0].rule, "budget-balance");
    }

    #[test]
    fn time_regression_is_a_violation() {
        let audit = audit_shard(
            &stream(vec![
                Event::Arrival {
                    at: SimTime::from_micros(100),
                    function: FunctionId::new(0),
                },
                Event::Arrival {
                    at: SimTime::from_micros(50),
                    function: FunctionId::new(0),
                },
            ]),
            true,
            None,
        );
        let rules: Vec<_> = audit.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"monotone-time"), "{rules:?}");
        assert!(rules.contains(&"arrival-order"), "{rules:?}");
        // The unmatched arrivals also surface at end of stream.
        assert!(rules.contains(&"arrival-pairing"), "{rules:?}");
    }

    #[test]
    fn sample_consistency_checks_pool_and_spend() {
        let id = WarmId::new(0, 0);
        let audit = audit_shard(
            &stream(vec![
                Event::IntervalSampled {
                    at: SimTime::ZERO,
                    sample: IntervalSample {
                        index: 0,
                        spend_delta_dollars: 0.0,
                        warm_pool: 0,
                        compressed: 0,
                        utilization: 0.0,
                        compression_events_delta: 0,
                        pending: 0,
                    },
                },
                admit(10, id, true, 120_000_000),
                Event::IntervalSampled {
                    at: SimTime::from_micros(60_000_000),
                    sample: IntervalSample {
                        index: 1,
                        spend_delta_dollars: 0.0,
                        warm_pool: 5, // stream implies 1
                        compressed: 1,
                        utilization: 0.5,
                        compression_events_delta: 1,
                        pending: 0,
                    },
                },
            ]),
            true,
            None,
        );
        assert_eq!(audit.violations.len(), 1, "{:?}", audit.violations);
        assert_eq!(audit.violations[0].rule, "sample-consistency");
    }

    #[test]
    fn incomplete_streams_suppress_pairing_with_a_notice() {
        let id = WarmId::new(0, 0);
        // A lossy stream that kept the release but dropped the admit.
        let shard = ShardStream {
            end: Some(crate::decode::ShardEndInfo {
                events: 1,
                dropped: 7,
            }),
            ..stream(vec![release(30, id, 10, ReleaseReason::Evicted)])
        };
        let audit = audit_shard(&shard, false, None);
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        assert!(!audit.complete);
        assert!(
            audit.notices.iter().any(|n| n.contains("sampled stream")),
            "{:?}",
            audit.notices
        );
    }

    #[test]
    fn reuse_must_be_followed_by_warm_start() {
        let id = WarmId::new(0, 0);
        let audit = audit_shard(
            &stream(vec![
                admit(10, id, false, 1000),
                release(500, id, 10, ReleaseReason::Reused),
                Event::Arrival {
                    at: SimTime::from_micros(500),
                    function: FunctionId::new(1),
                },
            ]),
            true,
            None,
        );
        let rules: Vec<_> = audit.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"reuse-adjacency"), "{rules:?}");
    }

    #[test]
    fn clean_reuse_sequence_passes_pairing() {
        let id = WarmId::new(0, 0);
        let audit = audit_shard(
            &stream(vec![
                Event::Arrival {
                    at: SimTime::from_micros(500),
                    function: FunctionId::new(1),
                },
                admit(500, id, false, 1000),
                release(500, id, 500, ReleaseReason::Reused),
                Event::ExecutionStarted {
                    at: SimTime::from_micros(500),
                    function: FunctionId::new(1),
                    node: NodeId::new(0),
                    arch: Arch::X86,
                    kind: StartKind::WarmUncompressed,
                    wait: SimDuration::ZERO,
                    start_penalty: SimDuration::ZERO,
                    execution: SimDuration::from_micros(100),
                },
            ]),
            true,
            None,
        );
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
    }

    #[test]
    fn ids_outside_the_scenario_are_range_violations() {
        let id = WarmId::new(0, 0);
        let log = ReplayLog {
            shards: vec![stream(vec![
                Event::PrewarmDropped {
                    at: SimTime::ZERO,
                    function: FunctionId::new(9),
                    arch: Arch::Arm,
                },
                admit(10, id, false, 50),
                release(20, id, 10, ReleaseReason::Evicted),
            ])],
            tagged: false,
            snapshots: Vec::new(),
            lines: 3,
        };
        // Unbounded, the stream is clean: the ids pair up.
        assert!(audit_log(&log, false).is_clean());
        let fits = IdBounds {
            nodes: 1,
            functions: 10,
        };
        assert!(audit_log_within(&log, false, Some(fits)).is_clean());
        // fn 9 is outside a 5-function workload (the dropped pre-warm),
        // and node 0 outside an empty cluster (the admit and the release).
        let tight = IdBounds {
            nodes: 0,
            functions: 5,
        };
        let audit = audit_log_within(&log, false, Some(tight));
        let rules: Vec<(u64, &str)> = audit.shards[0]
            .violations
            .iter()
            .map(|v| (v.line, v.rule))
            .collect();
        assert_eq!(
            rules,
            [(1, "id-range"), (2, "id-range"), (3, "id-range")],
            "{}",
            audit.summary()
        );
        // The check holds in degraded mode too.
        let degraded = audit_log_within(&log, true, Some(tight));
        assert_eq!(degraded.total_violations(), 3);
    }
}
