//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cc_metrics::ServiceStats;
use cc_obs::{Event as ObsEvent, EventSink, IntervalSample, NullSink, ReleaseReason};
use cc_prof::{NullProfiler, PerfCounter, Phase, Profiler, Scope, WallProfiler};
use cc_trace::{Perturbation, Trace};
use cc_types::{
    Arch, Cost, FunctionId, Invocation, MemoryMb, NodeId, ServiceRecord, SimDuration, SimTime,
    StartKind, WarmId, KEEP_ALIVE_MAX,
};
use cc_workload::Workload;

use crate::node::{NodeState, WarmInstance};
use crate::pool::WarmPool;
#[cfg(debug_assertions)]
use crate::scheduler::lru_rank;
use crate::source::{ArrivalSource, Fetch, SliceSource};
use crate::view::ArchTotals;
use crate::{BudgetLedger, ClusterConfig, ClusterView, Command, Scheduler, SimReport};

/// Placement-order key for one node: least busy first, most free memory
/// next (`Reverse`), node id as the deterministic tie-break. Because every
/// node of a cluster has the same core count, fully-busy nodes sort after
/// every node with a free core, so a placement scan can stop at the first
/// key whose node has no free core.
type NodeOrderKey = (u32, Reverse<MemoryMb>, NodeId);

fn node_order_key(node: &NodeState) -> NodeOrderKey {
    (node.busy_cores, Reverse(node.free_memory()), node.id)
}

/// A configured simulation: the one builder every run goes through.
///
/// Arrivals come from a [`Trace`] ([`Simulation::new`], replayed by every
/// run) or from any [`ArrivalSource`] ([`Simulation::from_source`],
/// consumed by one run). The modifiers [`Simulation::with_perturbations`],
/// [`Simulation::without_records`] and [`Simulation::profiled`] are
/// orthogonal; the terminals are [`Simulation::run`],
/// [`Simulation::run_with_sink`] and [`Simulation::run_pipelined`].
///
/// The profiler is the type parameter `P`, not a runtime flag: the default
/// [`NullProfiler`] compiles every probe away, so a program that never
/// calls [`Simulation::profiled`] builds only the uninstrumented engine.
///
/// Running is deterministic: the same `(config, arrivals, workload,
/// policy)` always produces the same report, whatever the sink or the
/// profiler.
pub struct Simulation<'a, Src = SliceSource<'a>, P = NullProfiler> {
    pub(crate) config: ClusterConfig,
    arrivals: Arrivals<'a, Src>,
    workload: &'a Workload,
    perturbations: Vec<Perturbation>,
    pub(crate) collect_records: bool,
    /// [`Simulation::run`] compiled in this crate, set by
    /// [`Simulation::new`]; `None` runs the generic path. A generic method
    /// is compiled in the crate that calls it, where the engine's calls
    /// into this crate (warm pool, nodes, ledger) do not inline: the 10k
    /// stress replay ran 5-10% slower there.
    run_here: Option<RunFn<'a, Src, P>>,
    profiler: PhantomData<P>,
}

/// A plain replay ([`Simulation::run`]) of one simulation.
type RunFn<'a, Src, P> = fn(&Simulation<'a, Src, P>, &mut dyn Scheduler) -> SimReport;

/// Where each run of a [`Simulation`] takes its arrivals from.
enum Arrivals<'a, Src> {
    /// A materialized trace, opened afresh by every run. The opener is
    /// always [`SliceSource::from_trace`]; holding it as a function keeps
    /// the enum generic over `Src`.
    Trace(&'a Trace, fn(&'a Trace) -> Src),
    /// A source the first run takes.
    Once(Mutex<Option<Src>>),
}

impl<'a> Simulation<'a> {
    /// Creates a simulation over a materialized trace. It may run any
    /// number of times; each run replays the whole trace.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or the workload does not cover the
    /// trace's functions.
    pub fn new(config: ClusterConfig, trace: &'a Trace, workload: &'a Workload) -> Self {
        assert_eq!(
            workload.len(),
            trace.functions().len(),
            "workload must resolve every trace function"
        );
        let mut simulation = Simulation::build(
            config,
            Arrivals::Trace(trace, SliceSource::from_trace),
            workload,
        );
        simulation.run_here =
            Some(|simulation, policy| simulation.run_with_sink(policy, &mut NullSink));
        simulation
    }
}

impl<'a, Src: ArrivalSource> Simulation<'a, Src> {
    /// Creates a simulation over an arbitrary [`ArrivalSource`] — e.g. a
    /// constant-memory streaming trace or a live paced queue — without
    /// materializing the invocation stream. Behaviorally identical to
    /// [`Simulation::new`] fed the same invocations in the same order.
    ///
    /// The source is consumed by the first run: a second run panics.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn from_source(config: ClusterConfig, source: Src, workload: &'a Workload) -> Self {
        Simulation::build(config, Arrivals::Once(Mutex::new(Some(source))), workload)
    }
}

impl<'a, Src> Simulation<'a, Src> {
    fn build(config: ClusterConfig, arrivals: Arrivals<'a, Src>, workload: &'a Workload) -> Self {
        config.validate();
        Simulation {
            config,
            arrivals,
            workload,
            perturbations: Vec::new(),
            collect_records: true,
            run_here: None,
            profiler: PhantomData,
        }
    }
}

impl<'a, Src, P> Simulation<'a, Src, P> {
    /// Adds unannounced perturbations (input changes); burst perturbations
    /// should instead be applied to the trace via
    /// [`Perturbation::apply_to_trace`].
    pub fn with_perturbations(mut self, perturbations: Vec<Perturbation>) -> Self {
        self.perturbations = perturbations;
        self
    }

    /// Keeps no per-invocation [`ServiceRecord`]s: a multi-day
    /// million-function replay would otherwise hold every record in RAM.
    /// The report's `records` vector stays empty; its stats, interval
    /// samples and counters are unaffected, and what the run keeps then
    /// grows with its functions and intervals, not its invocations.
    /// [`SimReport::digest`] covers records, so compare digests only
    /// between runs with the same setting.
    pub fn without_records(mut self) -> Self {
        self.collect_records = false;
        self
    }

    /// Observes the engine's own wall-clock phases with [`WallProfiler`].
    /// Profiling never changes simulation behavior or its report.
    pub fn profiled(self) -> Simulation<'a, Src, WallProfiler> {
        Simulation {
            config: self.config,
            arrivals: self.arrivals,
            workload: self.workload,
            perturbations: self.perturbations,
            collect_records: self.collect_records,
            run_here: None,
            profiler: PhantomData,
        }
    }

    /// Opens the arrival stream for one run.
    ///
    /// # Panics
    ///
    /// Panics on the second run of a [`Simulation::from_source`].
    pub(crate) fn open_arrivals(&self) -> Src {
        match &self.arrivals {
            Arrivals::Trace(trace, open) => open(trace),
            Arrivals::Once(source) => source
                .lock()
                .expect("the lock is held only to take the source, which cannot panic")
                .take()
                .expect("a Simulation over an ArrivalSource runs once"),
        }
    }
}

impl<'a, Src: ArrivalSource, P: Profiler> Simulation<'a, Src, P> {
    /// Runs the policy over every arrival and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (an invocation can never be
    /// placed), which indicates an impossible configuration such as a
    /// function larger than any node.
    pub fn run(&self, policy: &mut dyn Scheduler) -> SimReport {
        match self.run_here {
            Some(run) => run(self, policy),
            None => self.run_with_sink(policy, &mut NullSink),
        }
    }

    /// Runs the policy with an [`EventSink`] observing the full typed event
    /// stream (arrivals, starts, warm-pool churn, budget flow, optimizer
    /// progress).
    ///
    /// The engine is monomorphized over `S` and every emission site is
    /// guarded by `S::ENABLED`, so `run` (which passes [`NullSink`])
    /// compiles to exactly the uninstrumented hot path. A sink never
    /// changes simulation behavior: the report is identical with or
    /// without one.
    ///
    /// # Panics
    ///
    /// As for [`Simulation::run`].
    pub fn run_with_sink<S: EventSink>(
        &self,
        policy: &mut dyn Scheduler,
        sink: &mut S,
    ) -> SimReport {
        self.run_engine(self.open_arrivals(), policy, sink)
    }

    /// Runs one engine over `source`.
    pub(crate) fn run_engine<A: ArrivalSource, S: EventSink>(
        &self,
        source: A,
        policy: &mut dyn Scheduler,
        sink: &mut S,
    ) -> SimReport {
        Engine::<_, _, P>::new(
            &self.config,
            source,
            self.workload,
            &self.perturbations,
            sink,
            self.collect_records,
        )
        .run(policy)
    }
}

/// The events that ride the engine's heap: the two classes scheduled out
/// of time order. Every event has a class, and at equal timestamps
/// lower classes run first, so capacity-freeing events run before
/// capacity-consuming ones:
///
/// | class | event | lane |
/// |---|---|---|
/// | 0 | interval tick | [`Engine::next_tick`] (one outstanding) |
/// | 1 | keep-alive expiry | the pool's calendar ([`WarmPool::next_expiry`]) |
/// | 2 | completion | heap |
/// | 3 | pre-warm ready | heap |
/// | 4 | arrival | [`Engine::upcoming`] (one pulled invocation) |
///
/// Ticks and arrivals each come in time order one at a time, so each needs
/// only a one-slot lane; the run loop merges the four lanes by
/// `(at, class)`, which is exactly the order one heap holding every event
/// would pop them in.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    /// An execution completes.
    Completion {
        function: FunctionId,
        node: NodeId,
        memory: MemoryMb,
    },
    /// A pre-warm finishes its cold start and joins the pool.
    PrewarmReady {
        function: FunctionId,
        node: NodeId,
        keep_alive: SimDuration,
        compress: bool,
    },
}

/// The event class of an interval tick: the lowest, so a tick sees the
/// cluster before anything else due at its instant.
const TICK_CLASS: u8 = 0;

/// The event class of a keep-alive expiry, which slots the pool's expiry
/// calendar between ticks and completions at equal timestamps.
const EXPIRY_CLASS: u8 = 1;

/// The event class of an arrival — the highest, so it doubles as the
/// ceiling for paced internal processing: when a live source concedes
/// time up to `t` (`Fetch::NotBefore`), internal events at exactly `t`
/// still order before any arrival that may land at `t`.
const ARRIVAL_CLASS: u8 = 4;

impl EventKind {
    fn class(&self) -> u8 {
        match self {
            EventKind::Completion { .. } => 2,
            EventKind::PrewarmReady { .. } => 3,
        }
    }
}

/// The earlier of two optional `(at, class)` keys (`None` is "no event").
fn earliest(a: Option<(SimTime, u8)>, b: Option<(SimTime, u8)>) -> Option<(SimTime, u8)> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.kind.class(), other.seq).cmp(&(self.at, self.kind.class(), self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The per-invocation callbacks (`on_arrival`, `place`, `on_record`,
/// `on_completion`) are timed on one call in this many, and each timed
/// call counts this many times: reading the clock around every call costs
/// more than many of the callbacks themselves.
const DECISION_SAMPLE_EVERY: u32 = 16;

/// Which calls of one per-invocation callback kind are timed. Each kind
/// keeps its own counter: every invocation makes one call of each kind, so
/// a stride shared by the four would keep landing on the same kind.
#[derive(Debug, Default)]
struct DecisionSampler {
    /// Calls since the last timed one, modulo [`DECISION_SAMPLE_EVERY`].
    calls: u32,
}

impl DecisionSampler {
    /// Returns the start instant if this call is timed: the first of every
    /// stride, so even a run with a single call gets a sample.
    fn start(&mut self) -> Option<Instant> {
        let timed = self.calls == 0;
        self.calls = (self.calls + 1) % DECISION_SAMPLE_EVERY;
        timed.then(Instant::now)
    }

    /// Charges a timed call to `total`, scaled by the stride.
    fn stop(started: Option<Instant>, total: &mut Duration) {
        if let Some(started) = started {
            *total += started.elapsed() * DECISION_SAMPLE_EVERY;
        }
    }
}

struct Engine<'a, Src: ArrivalSource, S: EventSink, P: Profiler> {
    /// Wall-clock profiler; every probe is guarded by `P::ENABLED`, so the
    /// [`NullProfiler`] instantiation contains no profiling code at all.
    _profiler: PhantomData<P>,
    config: &'a ClusterConfig,
    source: Src,
    /// The arrival lane: the next invocation, pulled from the source at
    /// the top of the main loop, and the instant it is processed at. The
    /// engine never needs more lookahead than this one slot.
    upcoming: Option<(SimTime, Invocation)>,
    /// The tick lane: the instant of the one outstanding interval tick.
    next_tick: Option<SimTime>,
    /// Whether the source reported [`Fetch::Exhausted`].
    exhausted: bool,
    /// The source's horizon as an instant, read when the run starts and
    /// again at every tick (a live source's horizon closes once, when its
    /// stream ends). An arrival later than it is past the horizon.
    horizon: SimTime,
    /// Arrival timestamp of the last invocation taken from the source:
    /// an earlier one is out of order.
    last_pulled: SimTime,
    /// Invocations pulled from the source so far.
    arrived: usize,
    /// Invocations the source delivered for functions outside the
    /// workload, skipped at the source boundary.
    rejected_arrivals: u64,
    /// Invocations the source delivered earlier than the one before,
    /// skipped at the source boundary.
    out_of_order_arrivals: u64,
    /// Invocations the source delivered later than its horizon, skipped
    /// at the source boundary.
    past_horizon_arrivals: u64,
    workload: &'a Workload,
    perturbations: &'a [Perturbation],
    /// Event sink; every `sink.record` call is guarded by `S::ENABLED`, so
    /// the [`NullSink`] instantiation contains no telemetry code at all.
    sink: &'a mut S,

    now: SimTime,
    nodes: Vec<NodeState>,
    pool: WarmPool,
    /// Per architecture: all nodes' [`NodeOrderKey`]s, sorted ascending,
    /// kept in sync with every node-state mutation through
    /// [`Engine::mutate_node`].
    node_order: [Vec<NodeOrderKey>; 2],
    /// Per node: its position in its architecture's `node_order`.
    node_position: Vec<u32>,
    /// Per architecture: the sums of its nodes' states, kept in sync with
    /// every node-state mutation through [`Engine::mutate_node`].
    totals: [ArchTotals; 2],
    ledger: BudgetLedger,
    /// Queued invocations as `(arrival index, invocation)`: the invocation
    /// rides along so retries never need to re-address the source.
    pending: VecDeque<(usize, Invocation)>,
    /// Bumped whenever placement capacity is freed or the evictable set
    /// grows (execution finish, instance removal, warm admission). Lets
    /// [`Engine::drain_pending`] skip re-running a placement attempt that
    /// already failed against identical capacity.
    capacity_epoch: u64,
    /// The head-of-line pending entry that last failed, and the capacity
    /// epoch it failed at.
    last_retry_failure: Option<(usize, u64)>,
    /// Completions and pre-warm readiness: the events scheduled out of
    /// time order.
    events: BinaryHeap<Event>,
    /// Heap pushes so far (each push takes the next seq).
    seq: u64,

    // Reusable scratch buffers: the hot path (try_start/make_room) borrows
    // these instead of allocating per arrival.
    scratch_candidates: Vec<WarmId>,
    scratch_nodes: Vec<NodeId>,
    scratch_ranked: Vec<(f64, u64, WarmId)>,

    stats: ServiceStats,
    /// Whether per-invocation records are retained (see
    /// [`Simulation::without_records`]).
    collect_records: bool,
    records: Vec<ServiceRecord>,
    intervals: Vec<IntervalSample>,
    last_spent: Cost,
    compression_events: u64,
    last_compression_events: u64,
    evictions: u64,
    dropped_prewarms: u64,
    /// Estimated wall time inside policy callbacks: `on_interval` and
    /// ranked evictions are timed on every call, the per-invocation
    /// callbacks through their samplers.
    decision_time: Duration,
    arrival_sampler: DecisionSampler,
    place_sampler: DecisionSampler,
    record_sampler: DecisionSampler,
    completion_sampler: DecisionSampler,
    completed: usize,
}

impl<'a, Src: ArrivalSource, S: EventSink, P: Profiler> Engine<'a, Src, S, P> {
    fn new(
        config: &'a ClusterConfig,
        source: Src,
        workload: &'a Workload,
        perturbations: &'a [Perturbation],
        sink: &'a mut S,
        collect_records: bool,
    ) -> Self {
        let mut nodes = Vec::with_capacity(config.total_nodes() as usize);
        for arch in Arch::ALL {
            for _ in 0..config.nodes_of(arch) {
                let id = NodeId::new(nodes.len() as u32);
                nodes.push(NodeState::new(
                    id,
                    arch,
                    config.cores_per_node,
                    config.memory_per_node,
                ));
            }
        }
        let ledger = match config.budget_per_interval {
            Some(rate) => BudgetLedger::budgeted(rate, config.interval),
            None => BudgetLedger::unlimited(config.interval),
        };
        let mut node_order: [Vec<NodeOrderKey>; 2] = [Vec::new(), Vec::new()];
        for node in &nodes {
            node_order[node.arch.index()].push(node_order_key(node));
        }
        let mut node_position = vec![0; nodes.len()];
        for order in &mut node_order {
            order.sort_unstable();
            for (position, &(_, _, id)) in order.iter().enumerate() {
                node_position[id.index()] = position as u32;
            }
        }
        let totals = Arch::ALL.map(|arch| ArchTotals::scan(&nodes, arch));
        let pool = WarmPool::new(workload.len(), nodes.len());
        let len_hint = if collect_records {
            source.len_hint()
        } else {
            0
        };
        Engine {
            _profiler: PhantomData,
            config,
            horizon: SimTime::ZERO + source.horizon(),
            source,
            upcoming: None,
            next_tick: None,
            exhausted: false,
            last_pulled: SimTime::ZERO,
            arrived: 0,
            rejected_arrivals: 0,
            out_of_order_arrivals: 0,
            past_horizon_arrivals: 0,
            workload,
            perturbations,
            sink,
            now: SimTime::ZERO,
            nodes,
            pool,
            node_order,
            node_position,
            totals,
            ledger,
            pending: VecDeque::new(),
            capacity_epoch: 0,
            last_retry_failure: None,
            events: BinaryHeap::new(),
            seq: 0,
            scratch_candidates: Vec::new(),
            scratch_nodes: Vec::new(),
            scratch_ranked: Vec::new(),
            stats: ServiceStats::new(config.interval),
            collect_records,
            records: Vec::with_capacity(len_hint),
            intervals: Vec::new(),
            last_spent: Cost::ZERO,
            compression_events: 0,
            last_compression_events: 0,
            evictions: 0,
            dropped_prewarms: 0,
            decision_time: Duration::ZERO,
            arrival_sampler: DecisionSampler::default(),
            place_sampler: DecisionSampler::default(),
            record_sampler: DecisionSampler::default(),
            completion_sampler: DecisionSampler::default(),
            completed: 0,
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.events.push(Event {
            at,
            seq: self.seq,
            kind,
        });
    }

    /// Refunds `amount` to the ledger, emitting a budget-credit event for
    /// non-zero refunds. The emitted amount is what the ledger actually
    /// credited back (the ledger clamps refunds to its outstanding
    /// reservations; engine refunds are always pro-rata tails of real
    /// reservations, so the clamp never bites here).
    fn credit(&mut self, amount: Cost) {
        let refunded = self.ledger.refund(amount);
        debug_assert_eq!(refunded, amount, "engine refund exceeded outstanding");
        if S::ENABLED && !refunded.is_zero() {
            self.sink.record(&ObsEvent::BudgetCredit {
                at: self.now,
                amount: refunded,
            });
        }
    }

    fn view(&self) -> ClusterView<'_> {
        ClusterView {
            now: self.now,
            config: self.config,
            nodes: &self.nodes,
            ledger: &self.ledger,
            workload: self.workload,
            pending: self.pending.len(),
            pool: &self.pool,
            totals: &self.totals,
        }
    }

    /// Mutates one node's state while keeping the per-arch totals and
    /// placement index in sync: the node's contribution to its arch's
    /// totals is taken out before the change and added back after, and its
    /// key is rewritten in place and bubbled to its new position. A
    /// mutation moves one core or one instance's memory, so the key
    /// usually moves past zero to two neighbours.
    fn mutate_node<R>(&mut self, node: NodeId, f: impl FnOnce(&mut NodeState) -> R) -> R {
        let state = &mut self.nodes[node.index()];
        let totals = &mut self.totals[state.arch.index()];
        totals.sub(state);
        let result = f(state);
        totals.add(state);
        let key = node_order_key(state);
        let order = &mut self.node_order[state.arch.index()];
        let mut position = self.node_position[node.index()] as usize;
        debug_assert_eq!(
            order[position].2, node,
            "placement index out of sync with node state"
        );
        while position > 0 && order[position - 1] > key {
            order[position] = order[position - 1];
            self.node_position[order[position].2.index()] = position as u32;
            position -= 1;
        }
        while position + 1 < order.len() && order[position + 1] < key {
            order[position] = order[position + 1];
            self.node_position[order[position].2.index()] = position as u32;
            position += 1;
        }
        order[position] = key;
        self.node_position[node.index()] = position as u32;
        debug_assert!(
            (position == 0 || order[position - 1] < key)
                && order.get(position + 1).is_none_or(|next| key < *next),
            "placement key out of order after a move"
        );
        result
    }

    /// The instant of the engine's next internal event (tick lane, heap
    /// head or expiry-calendar head), used as the deadline for a live
    /// source pull.
    fn next_internal_at(&self) -> Option<SimTime> {
        let tick = self.next_tick.map(|at| (at, TICK_CLASS));
        let heap = self.events.peek().map(|e| (e.at, e.kind.class()));
        let expiry = self.pool.next_expiry().map(|(at, _, _)| (at, EXPIRY_CLASS));
        earliest(earliest(tick, heap), expiry).map(|(at, _)| at)
    }

    /// The `(at, class)` key of the next tick, heap or arrival event: every
    /// lane but the expiry calendar, which drains up to this key.
    fn next_event(&self) -> Option<(SimTime, u8)> {
        let tick = self.next_tick.map(|at| (at, TICK_CLASS));
        let heap = self.events.peek().map(|e| (e.at, e.kind.class()));
        let arrival = self.upcoming.map(|(at, _)| (at, ARRIVAL_CLASS));
        earliest(earliest(tick, heap), arrival)
    }

    /// Fills the arrival lane unless it is full or the source is
    /// exhausted. For batch sources the fetch is always ready, so this is
    /// the one-slot lookahead; a live source may instead answer
    /// `NotBefore`, whose limit is returned (process internal events up
    /// to it and ask again).
    ///
    /// An invocation of a function outside the workload, one earlier than
    /// the invocation before it, or one later than the source's horizon is
    /// skipped and counted here, in every build: the source is outside
    /// input.
    fn pull_arrival(&mut self) -> Option<SimTime> {
        while self.upcoming.is_none() && !self.exhausted {
            match self.source.fetch(self.next_internal_at()) {
                Fetch::Ready(inv) if inv.function.index() >= self.workload.len() => {
                    self.rejected_arrivals += 1;
                }
                Fetch::Ready(inv) if inv.arrival < self.last_pulled => {
                    self.out_of_order_arrivals += 1;
                }
                Fetch::Ready(inv) if inv.arrival > self.horizon => {
                    self.past_horizon_arrivals += 1;
                }
                Fetch::Ready(inv) => {
                    self.last_pulled = inv.arrival;
                    // A live source can deliver an arrival late (burst
                    // catch-up); process it at once without letting time
                    // run backwards.
                    self.upcoming = Some((inv.arrival.max(self.now), inv));
                }
                Fetch::NotBefore(limit) => return Some(limit),
                Fetch::Exhausted => self.exhausted = true,
            }
        }
        None
    }

    fn run(&mut self, policy: &mut dyn Scheduler) -> SimReport {
        // Root span: everything below (arrivals, completions, ticks,
        // expiry drains) nests under it, so a profile's self-time sum
        // covers the whole run by construction.
        let _run_span = P::scope(Phase::EngineRun);
        if S::ENABLED {
            // Introspection recording must not change policy decisions
            // (golden-tested), only make round telemetry available.
            policy.enable_introspection(true);
        }
        self.next_tick = Some(SimTime::ZERO);

        loop {
            let paced_limit = self.pull_arrival();
            // The four lanes merge by `(at, class)`: drain every expiry
            // strictly ordered before the next tick, heap or arrival
            // event in one pass, then run that event.
            //
            // `NotBefore(limit)` only licenses internal processing up to
            // `limit` — an arrival may land anywhere after it, so both the
            // expiry drain and the next event are capped there and the
            // loop re-fetches before touching anything later. Events
            // exactly AT the limit are safe: arrivals carry the highest
            // class, so every internal event at `limit` orders before an
            // arrival that shows up at the same instant.
            let next = self.next_event();
            let expiry_barrier = match paced_limit {
                Some(limit) => earliest(next, Some((limit, ARRIVAL_CLASS))),
                None => next,
            };
            self.drain_due_expiries(expiry_barrier);
            let runnable = next.filter(|&(at, _)| paced_limit.is_none_or(|limit| at <= limit));
            let Some((at, class)) = runnable else {
                if next.is_none() && self.exhausted {
                    break;
                }
                // Either a live source with nothing scheduled (block in
                // the next fetch — deadline-free fetch never returns
                // `NotBefore`), or everything left lies beyond the paced
                // limit: ask the source again with a fresh deadline.
                continue;
            };
            debug_assert!(at >= self.now, "time must not run backwards");
            self.now = at;
            match class {
                TICK_CLASS => {
                    self.next_tick = None;
                    self.handle_tick(policy);
                }
                ARRIVAL_CLASS => self.handle_arrival(policy),
                _ => match self.events.pop().expect("heap event").kind {
                    EventKind::Completion {
                        function,
                        node,
                        memory,
                    } => self.handle_completion(function, node, memory, policy),
                    EventKind::PrewarmReady {
                        function,
                        node,
                        keep_alive,
                        compress,
                    } => self.handle_prewarm_ready(function, node, keep_alive, compress, policy),
                },
            }
        }

        assert!(
            self.pending.is_empty(),
            "simulation deadlocked with {} invocations unplaceable",
            self.pending.len()
        );
        assert_eq!(
            self.completed, self.arrived,
            "every invocation must complete exactly once"
        );
        if P::ENABLED {
            P::add(
                PerfCounter::CalendarCompactions,
                self.pool.calendar_compactions(),
            );
            P::add(
                PerfCounter::CalendarDeadPops,
                self.pool.calendar_dead_pops(),
            );
            P::add(PerfCounter::EventHeapPushes, self.seq);
        }

        SimReport {
            policy: policy.name().to_owned(),
            stats: std::mem::replace(&mut self.stats, ServiceStats::new(self.config.interval)),
            records: std::mem::take(&mut self.records),
            keep_alive_spend: self.ledger.spent(),
            intervals: std::mem::take(&mut self.intervals),
            compression_events: self.compression_events,
            evictions: self.evictions,
            dropped_prewarms: self.dropped_prewarms,
            rejected_arrivals: self.rejected_arrivals,
            out_of_order_arrivals: self.out_of_order_arrivals,
            past_horizon_arrivals: self.past_horizon_arrivals,
            decision_time: self.decision_time,
        }
    }

    fn handle_arrival(&mut self, policy: &mut dyn Scheduler) {
        let _span = P::scope(Phase::Arrival);
        let (_, inv) = self
            .upcoming
            .take()
            .expect("arrival lane without a pulled invocation");
        // Equality in batch mode; a live source delivering late (burst
        // catch-up) processes the arrival at delivery time while `wait`
        // still measures from the recorded arrival instant.
        debug_assert!(inv.arrival <= self.now, "arrival event out of step");
        let index = self.arrived;
        self.arrived += 1;
        let function = inv.function;
        if S::ENABLED {
            self.sink.record(&ObsEvent::Arrival {
                at: self.now,
                function,
            });
        }
        {
            let _decision = P::scope(Phase::PolicyDecision);
            let started = self.arrival_sampler.start();
            policy.on_arrival(function, self.now);
            DecisionSampler::stop(started, &mut self.decision_time);
        }

        if self.pending.is_empty() && self.try_start(inv, policy) {
            return;
        }
        self.pending.push_back((index, inv));
        if S::ENABLED {
            self.sink.record(&ObsEvent::Queued {
                at: self.now,
                function,
                depth: self.pending.len() as u64,
            });
        }
    }

    /// Attempts to start `inv` right now. Returns false if no capacity
    /// exists anywhere.
    fn try_start(&mut self, inv: Invocation, policy: &mut dyn Scheduler) -> bool {
        let memory = self.workload.spec(inv.function).memory;
        self.try_reuse(inv.function, inv.arrival, memory, policy)
            || self.try_cold(inv.function, inv.arrival, memory, policy)
    }

    /// Tries to reuse a warm instance: cheapest start penalty first, then
    /// the instance closest to expiry (save the freshest ones). The pool's
    /// candidate index holds the instances in exactly this order; snapshot
    /// the ids into a scratch buffer because an eviction inside
    /// `make_room` mutates the index mid-walk.
    fn try_reuse(
        &mut self,
        function: FunctionId,
        arrival: SimTime,
        memory: MemoryMb,
        policy: &mut dyn Scheduler,
    ) -> bool {
        self.pool.migrate_due(self.now);
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend(self.pool.candidates_of(function));
        if P::ENABLED {
            P::add(PerfCounter::CandidateProbes, candidates.len() as u64);
        }

        let mut started = false;
        for &id in &candidates {
            let inst = self
                .pool
                .get(id)
                .expect("candidate index must only hold live instances");
            let node = inst.node;
            let extra = memory.saturating_sub(inst.memory);
            let kind = if inst.pays_decompression(self.now) {
                StartKind::WarmCompressed
            } else {
                StartKind::WarmUncompressed
            };
            let refund = inst.refundable_at(self.now);
            if self.nodes[node.index()].free_cores() == 0 {
                continue;
            }
            if self.nodes[node.index()].free_memory() < extra
                && !self.make_room(node, extra, Some(id), policy)
            {
                continue;
            }
            // Reuse this instance. A failed make_room evicts nothing, so
            // every snapshot id after a failure is still live; a successful
            // one leads straight here.
            self.credit(refund);
            self.remove_instance(id, ReleaseReason::Reused);
            self.start_execution(function, arrival, node, kind, policy);
            started = true;
            break;
        }
        candidates.clear();
        self.scratch_candidates = candidates;
        started
    }

    /// Cold start: the policy chooses the architecture; spill over to the
    /// other one if the preferred side is saturated. Nodes are taken in
    /// placement order (least busy, then most free memory) straight from
    /// the incrementally maintained per-arch index.
    fn try_cold(
        &mut self,
        function: FunctionId,
        arrival: SimTime,
        memory: MemoryMb,
        policy: &mut dyn Scheduler,
    ) -> bool {
        let preferred = {
            let _decision = P::scope(Phase::PolicyDecision);
            let started = self.place_sampler.start();
            let preferred = policy.place(function, &self.view());
            DecisionSampler::stop(started, &mut self.decision_time);
            preferred
        };

        for arch in [preferred, preferred.other()] {
            let Some(&(_, _, first)) = self.node_order[arch.index()].first() else {
                continue;
            };
            if self.nodes[first.index()].free_cores() == 0 {
                // Uniform core counts: the best-ordered node being full
                // means every node of this arch is full.
                continue;
            }
            // Fast path: the best-ordered node fits without eviction.
            if self.nodes[first.index()].free_memory() >= memory {
                self.start_execution(function, arrival, first, StartKind::Cold, policy);
                return true;
            }
            // Slow path: walk nodes in placement order, evicting to make
            // room. Snapshot the ids (evictions re-key the order index).
            let mut node_ids = std::mem::take(&mut self.scratch_nodes);
            node_ids.clear();
            node_ids.extend(
                self.node_order[arch.index()]
                    .iter()
                    .take_while(|&&(busy, _, _)| busy < self.config.cores_per_node)
                    .map(|&(_, _, id)| id),
            );
            if P::ENABLED {
                P::add(PerfCounter::NodeScanProbes, node_ids.len() as u64);
            }
            let mut placed = false;
            for &node_id in &node_ids {
                let free = self.nodes[node_id.index()].free_memory();
                if free < memory {
                    let deficit = memory - free;
                    if !self.make_room(node_id, deficit, None, policy) {
                        continue;
                    }
                }
                self.start_execution(function, arrival, node_id, StartKind::Cold, policy);
                placed = true;
                break;
            }
            node_ids.clear();
            self.scratch_nodes = node_ids;
            if placed {
                return true;
            }
        }
        false
    }

    /// Frees at least `deficit` of memory on `node` by evicting warm
    /// instances other than `exclude`, in policy order. Returns false
    /// (evicting nothing) if even evicting everything would not suffice.
    ///
    /// Only `node`'s own residents are examined — the node-state
    /// `warm_memory` counter answers the "would evicting everything
    /// suffice?" question in O(1), and the pool's residency index supplies
    /// the victims without a cluster-wide scan. The residency index is in
    /// admission order, which for a policy that keeps the default LRU rank
    /// ([`Scheduler::evicts_in_admission_order`]) is already the eviction
    /// order: its victims come off the front of the index with no rank
    /// calls and no sort. Every other policy ranks all residents, in
    /// admission order because stateful policies (e.g. FaasCache's
    /// greedy-dual clock) observe the ranking call order, and loses the
    /// lowest `(rank, seq)` first.
    fn make_room(
        &mut self,
        node: NodeId,
        deficit: MemoryMb,
        exclude: Option<WarmId>,
        policy: &mut dyn Scheduler,
    ) -> bool {
        let excluded_memory = match exclude {
            Some(id) => {
                let inst = self.pool.get(id).expect("excluded instance must be live");
                debug_assert_eq!(inst.node, node, "exclusion only applies to residents");
                inst.memory
            }
            None => MemoryMb::ZERO,
        };
        let evictable = self.nodes[node.index()]
            .warm_memory
            .saturating_sub(excluded_memory);
        #[cfg(debug_assertions)]
        assert_eq!(
            self.nodes[node.index()].warm_memory,
            self.pool.resident_memory(node),
            "warm-memory counter out of sync with residency index"
        );
        if evictable < deficit {
            return false;
        }
        let _span = P::scope(Phase::PoolEvict);
        let mut freed = MemoryMb::ZERO;
        if policy.evicts_in_admission_order() {
            #[cfg(debug_assertions)]
            let mut lru_victims = self.lru_victims(node, deficit, exclude).into_iter();
            while freed < deficit {
                let victim = self
                    .pool
                    .residents_of(node)
                    .find(|&id| Some(id) != exclude)
                    .expect("evictable memory covers the deficit");
                #[cfg(debug_assertions)]
                assert_eq!(
                    Some(victim),
                    lru_victims.next(),
                    "admission-order victim differs from the LRU rank order"
                );
                freed += self.evict(victim);
            }
            return true;
        }
        let mut ranked = std::mem::take(&mut self.scratch_ranked);
        ranked.clear();
        {
            let _decision = P::scope(Phase::PolicyDecision);
            let view = self.view();
            let started = Instant::now();
            for id in self.pool.residents_of(node) {
                if Some(id) == exclude {
                    continue;
                }
                let inst = self
                    .pool
                    .get(id)
                    .expect("residency index must only hold live instances");
                ranked.push((policy.eviction_rank(inst, &view), inst.seq, id));
            }
            self.decision_time += started.elapsed();
        }
        if P::ENABLED {
            P::add(PerfCounter::EvictionsRanked, ranked.len() as u64);
        }
        ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, _, id) in &ranked {
            if freed >= deficit {
                break;
            }
            freed += self.evict(id);
        }
        ranked.clear();
        self.scratch_ranked = ranked;
        true
    }

    /// Evicts the live instance `id`, refunding the unused tail of its
    /// keep-alive reservation. Returns the memory it occupied.
    fn evict(&mut self, id: WarmId) -> MemoryMb {
        let inst = self.pool.get(id).expect("eviction victim must be live");
        let (memory, refund) = (inst.memory, inst.refundable_at(self.now));
        self.credit(refund);
        self.remove_instance(id, ReleaseReason::Evicted);
        self.evictions += 1;
        memory
    }

    /// The victims the ranked path would take under the default LRU rank,
    /// in eviction order: the debug cross-check of the admission-order
    /// path. The rank is computed here rather than asked of the policy, so
    /// debug builds make the same policy calls as release builds.
    #[cfg(debug_assertions)]
    fn lru_victims(&self, node: NodeId, deficit: MemoryMb, exclude: Option<WarmId>) -> Vec<WarmId> {
        assert!(
            self.pool.admitted_in_time_order(node),
            "admission order and admission time disagree on node {node:?}"
        );
        let mut ranked: Vec<&WarmInstance> = self
            .pool
            .residents_of(node)
            .filter(|&id| Some(id) != exclude)
            .map(|id| self.pool.get(id).expect("resident must be live"))
            .collect();
        ranked.sort_unstable_by(|a, b| lru_rank(a).total_cmp(&lru_rank(b)).then(a.seq.cmp(&b.seq)));
        let mut freed = MemoryMb::ZERO;
        ranked
            .iter()
            .take_while(|inst| {
                let needed = freed < deficit;
                freed += inst.memory;
                needed
            })
            .map(|inst| inst.id)
            .collect()
    }

    /// Starts an execution of `function` on `node` and emits its service
    /// record immediately (all components are known up front).
    fn start_execution(
        &mut self,
        function: FunctionId,
        arrival: SimTime,
        node: NodeId,
        kind: StartKind,
        policy: &mut dyn Scheduler,
    ) {
        let spec = self.workload.spec(function);
        let arch = self.nodes[node.index()].arch;
        let factor: f64 = self
            .perturbations
            .iter()
            .map(|p| p.exec_factor_at(arrival))
            .product();
        let execution = spec.exec_time(arch).scale(factor);
        let start_penalty = match kind {
            StartKind::Cold => spec
                .cold_start(arch)
                .scale(self.config.runtime.cold_start_scale()),
            StartKind::WarmCompressed => spec.decompress_time(arch),
            StartKind::WarmUncompressed => SimDuration::ZERO,
        };
        let record = ServiceRecord {
            function,
            arrival,
            wait: self.now.saturating_since(arrival),
            start_penalty,
            execution,
            kind,
            arch,
        };
        self.stats.observe(&record);
        if S::ENABLED {
            self.sink.record(&ObsEvent::ExecutionStarted {
                at: self.now,
                function,
                node,
                arch,
                kind,
                wait: record.wait,
                start_penalty,
                execution,
            });
        }
        {
            let _decision = P::scope(Phase::PolicyDecision);
            let started = self.record_sampler.start();
            policy.on_record(&record);
            DecisionSampler::stop(started, &mut self.decision_time);
        }
        if self.collect_records {
            self.records.push(record);
        }

        let memory = spec.memory;
        self.mutate_node(node, |n| n.start_execution(memory));
        let finish = self.now + start_penalty + execution;
        self.push(
            finish,
            EventKind::Completion {
                function,
                node,
                memory,
            },
        );
    }

    fn handle_completion(
        &mut self,
        function: FunctionId,
        node: NodeId,
        memory: MemoryMb,
        policy: &mut dyn Scheduler,
    ) {
        let _span = P::scope(Phase::Completion);
        self.mutate_node(node, |n| n.finish_execution(memory));
        self.capacity_epoch += 1;
        self.completed += 1;

        let arch = self.nodes[node.index()].arch;
        let decision = {
            let _decision = P::scope(Phase::PolicyDecision);
            let started = self.completion_sampler.start();
            let view = self.view();
            let d = policy.on_completion(function, arch, &view);
            DecisionSampler::stop(started, &mut self.decision_time);
            d
        };
        self.admit_warm(
            function,
            node,
            decision.keep_alive,
            decision.compress,
            policy,
        );
        self.drain_pending(policy);
    }

    /// Admits a freshly-finished (or pre-warmed) instance into the warm
    /// pool, enforcing the warm-memory cap and the budget.
    fn admit_warm(
        &mut self,
        function: FunctionId,
        node: NodeId,
        keep_alive: SimDuration,
        compress: bool,
        policy: &mut dyn Scheduler,
    ) {
        let keep_alive = keep_alive.min(KEEP_ALIVE_MAX);
        if keep_alive.is_zero() {
            return;
        }
        let _span = P::scope(Phase::PoolAdmit);
        let spec = self.workload.spec(function);
        let footprint = if compress {
            spec.compressed_memory
        } else {
            spec.memory
        };
        // Enforce the warm-pool cap on this node.
        let cap = self.config.warm_memory_cap();
        if footprint > cap {
            return;
        }
        let warm_used = self.nodes[node.index()].warm_memory;
        if warm_used + footprint > cap {
            let deficit = warm_used + footprint - cap;
            if !self.make_room(node, deficit, None, policy) {
                return;
            }
        }
        if self.nodes[node.index()].free_memory() < footprint {
            let deficit = footprint - self.nodes[node.index()].free_memory();
            if !self.make_room(node, deficit, None, policy) {
                return;
            }
        }

        // Reserve the keep-alive cost; truncate the window to what the
        // budget affords.
        let arch = self.nodes[node.index()].arch;
        let rate = self.config.rate(arch);
        let projected = rate.keep_alive_cost(footprint, keep_alive);
        let granted = self.ledger.reserve(self.now, projected);
        if S::ENABLED {
            self.sink.record(&ObsEvent::BudgetDebit {
                at: self.now,
                requested: projected,
                granted,
            });
        }
        let (keep_alive, reserved) = if granted < projected {
            let ratio = granted.as_picodollars() as f64 / projected.as_picodollars().max(1) as f64;
            let truncated = keep_alive.scale(ratio);
            let actual = rate.keep_alive_cost(footprint, truncated);
            self.credit(granted.saturating_sub(actual));
            (truncated, actual)
        } else {
            (keep_alive, granted)
        };
        // Windows under a second are not worth the bookkeeping.
        if keep_alive < SimDuration::from_secs(1) {
            self.credit(reserved);
            return;
        }

        let expiry = self.now + keep_alive;
        self.mutate_node(node, |n| n.add_warm(footprint));
        let id = self.pool.insert(WarmInstance {
            id: WarmId::INVALID, // assigned by the pool
            seq: 0,              // assigned by the pool
            function,
            node,
            arch,
            compressed: compress,
            memory: footprint,
            since: self.now,
            expiry,
            reserved,
            compressed_ready_at: if compress {
                self.now + spec.compress
            } else {
                self.now
            },
            decompress_penalty: if compress {
                spec.decompress_time(arch)
            } else {
                SimDuration::ZERO
            },
        });
        if P::ENABLED {
            P::add(PerfCounter::PoolInsert, 1);
        }
        if compress {
            self.compression_events += 1;
        }
        if S::ENABLED {
            self.sink.record(&ObsEvent::InstanceAdmitted {
                at: self.now,
                id,
                function,
                node,
                arch,
                compressed: compress,
                memory: footprint,
                expiry,
                reserved,
            });
            if compress {
                // The pool re-keys compressed instances lazily, so both
                // compression endpoints are emitted here; `ready_at` is the
                // completion instant (see the Event docs).
                let ready_at = self.now + spec.compress;
                self.sink.record(&ObsEvent::CompressionStarted {
                    at: self.now,
                    id,
                    function,
                    node,
                    ready_at,
                });
                self.sink.record(&ObsEvent::CompressionFinished {
                    at: ready_at,
                    id,
                    function,
                    node,
                });
            }
        }
        // A new warm instance enlarges the evictable set, which can turn a
        // previously impossible cold placement possible. Its expiration is
        // tracked by the pool's expiry calendar, not a heap event.
        self.capacity_epoch += 1;
    }

    fn remove_instance(&mut self, id: WarmId, reason: ReleaseReason) {
        if P::ENABLED {
            P::add(PerfCounter::PoolRemove, 1);
        }
        let inst = self.pool.remove(id);
        if S::ENABLED {
            self.sink.record(&ObsEvent::InstanceReleased {
                at: self.now,
                id,
                function: inst.function,
                node: inst.node,
                memory: inst.memory,
                compressed: inst.compressed,
                since: inst.since,
                reason,
            });
        }
        self.mutate_node(inst.node, |n| n.remove_warm(inst.memory));
        self.capacity_epoch += 1;
    }

    /// Drains every due keep-alive expiration that sorts strictly before
    /// `limit` (the next tick, heap or arrival event's `(at, class)` key,
    /// capped at a paced limit; `None` means every other lane is empty and
    /// the calendar drains completely).
    ///
    /// The calendar orders entries by `(expiry, admission seq)`, which is
    /// exactly how the retired per-admission `Expiry` heap events sorted:
    /// at equal timestamps the expiry class (1) runs after ticks (0) and
    /// before completions (2), and two expirations at the same instant
    /// fire in admission order — engine event seqs were assigned in
    /// admission order too. Unlike the heap events, the calendar's first
    /// entry is always live (the pool pops dead ones as soon as they reach
    /// the top), so a boundary drains its whole batch in one pass with no
    /// stale generation-check pops in between.
    fn drain_due_expiries(&mut self, limit: Option<(SimTime, u8)>) {
        // Lazy span: the common case drains nothing, and opening a span
        // per main-loop iteration would swamp the phase table.
        let mut span: Option<Scope<P>> = None;
        while let Some((at, _seq, id)) = self.pool.next_expiry() {
            if let Some(next) = limit {
                if (at, EXPIRY_CLASS) >= next {
                    break;
                }
            }
            if P::ENABLED && span.is_none() {
                span = Some(P::scope(Phase::ExpiryDrain));
            }
            debug_assert!(at >= self.now, "time must not run backwards");
            self.now = at;
            self.remove_instance(id, ReleaseReason::Expired);
            if P::ENABLED {
                P::add(PerfCounter::ExpiryDrained, 1);
            }
        }
    }

    fn handle_prewarm_ready(
        &mut self,
        function: FunctionId,
        node: NodeId,
        keep_alive: SimDuration,
        compress: bool,
        policy: &mut dyn Scheduler,
    ) {
        let memory = self.workload.spec(function).memory;
        self.mutate_node(node, |n| n.finish_execution(memory));
        self.capacity_epoch += 1;
        self.admit_warm(function, node, keep_alive, compress, policy);
        self.drain_pending(policy);
    }

    fn handle_tick(&mut self, policy: &mut dyn Scheduler) {
        // Re-read the horizon every tick: live sources report an open
        // horizon until they close (end of stream or drain), at which
        // point ticks already scheduled beyond it must be dropped — batch
        // never schedules one past its (constant) horizon, so for batch
        // sources neither the re-read nor the guard changes anything.
        self.horizon = SimTime::ZERO + self.source.horizon();
        if self.now > self.horizon {
            return;
        }
        let _span = P::scope(Phase::Tick);
        self.ledger.accrue(self.now);

        // Sample per-interval metrics.
        let spent = self.ledger.spent();
        let sample = IntervalSample {
            index: self.intervals.len() as u64,
            spend_delta_dollars: spent.as_dollars() - self.last_spent.as_dollars(),
            warm_pool: self.pool.len() as u64,
            compressed: self.pool.compressed_count() as u64,
            utilization: self.view().busy_core_fraction(),
            compression_events_delta: self.compression_events - self.last_compression_events,
            pending: self.pending.len() as u64,
        };
        self.last_spent = spent;
        self.last_compression_events = self.compression_events;
        self.intervals.push(sample);
        if S::ENABLED {
            self.sink.record(&ObsEvent::IntervalSampled {
                at: self.now,
                sample,
            });
        }

        let commands = {
            let _decision = P::scope(Phase::PolicyDecision);
            let view = self.view();
            let started = Instant::now();
            let commands = policy.on_interval(&view);
            self.decision_time += started.elapsed();
            commands
        };
        if S::ENABLED {
            for round in policy.drain_optimizer_rounds() {
                self.sink.record(&ObsEvent::OptimizerRound {
                    at: self.now,
                    round,
                });
            }
        }
        for command in commands {
            self.execute_command(command, policy);
        }

        let next = self.now + self.config.interval;
        if next <= self.horizon {
            self.next_tick = Some(next);
        }
    }

    fn execute_command(&mut self, command: Command, policy: &mut dyn Scheduler) {
        match command {
            Command::Prewarm {
                function,
                arch,
                keep_alive,
                compress,
            } => {
                if self.pool.is_warm(function) {
                    return; // already warm
                }
                let spec = self.workload.spec(function);
                let memory = spec.memory;
                // No node can host the pre-warm unless the arch as a whole
                // has a free core and the memory: the totals answer that
                // without the node scan.
                let totals = &self.totals[arch.index()];
                let candidate = if totals.free_cores() == 0 || totals.free_memory < memory {
                    None
                } else {
                    self.nodes
                        .iter()
                        .filter(|n| {
                            n.arch == arch && n.free_cores() > 0 && n.free_memory() >= memory
                        })
                        .min_by_key(|n| (n.busy_cores, n.id))
                        .map(|n| n.id)
                };
                let Some(node) = candidate else {
                    self.dropped_prewarms += 1;
                    if S::ENABLED {
                        self.sink.record(&ObsEvent::PrewarmDropped {
                            at: self.now,
                            function,
                            arch,
                        });
                    }
                    return;
                };
                self.mutate_node(node, |n| n.start_execution(memory));
                let cold = spec
                    .cold_start(arch)
                    .scale(self.config.runtime.cold_start_scale());
                self.push(
                    self.now + cold,
                    EventKind::PrewarmReady {
                        function,
                        node,
                        keep_alive,
                        compress,
                    },
                );
            }
            Command::Evict { id } => {
                if self.pool.get(id).is_some() {
                    self.evict(id);
                }
                let _ = policy;
            }
        }
    }

    fn drain_pending(&mut self, policy: &mut dyn Scheduler) {
        // Lazy span: most completions find nothing queued.
        let _span = if P::ENABLED && !self.pending.is_empty() {
            Some(P::scope(Phase::PendingDrain))
        } else {
            None
        };
        while let Some(&(index, inv)) = self.pending.front() {
            // The placement attempt is a pure function of cluster capacity
            // (for a fixed head-of-line invocation): if this exact entry
            // already failed at the current capacity epoch, retrying would
            // burn the same candidate/placement walk to the same answer.
            if self.last_retry_failure == Some((index, self.capacity_epoch)) {
                break;
            }
            if self.try_start(inv, policy) {
                self.pending.pop_front();
                self.last_retry_failure = None;
            } else {
                self.last_retry_failure = Some((index, self.capacity_epoch));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedKeepAlive;
    use cc_compress::CompressionModel;
    use cc_trace::SyntheticTrace;
    use cc_workload::Catalog;
    use proptest::prelude::*;

    fn setup(functions: usize, minutes: u64, seed: u64) -> (Trace, Workload) {
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
    fn every_invocation_completes() {
        let (trace, workload) = setup(30, 120, 1);
        let mut policy = FixedKeepAlive::ten_minutes();
        let report =
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
        assert_eq!(
            report.stats.invocations() as usize,
            trace.invocations().len()
        );
    }

    #[test]
    fn interval_series_cover_the_horizon_inclusively() {
        // Ticks are scheduled while `next <= ZERO + horizon`, so a run over
        // H = k·interval samples k + 1 intervals (indices 0..=k) — the
        // final tick fires at the horizon itself. Downstream bucketing
        // (`TimeSeries`) stamps a horizon-aligned record into bucket k,
        // the same index, so the report's interval count and a series
        // built from its events can never disagree by a phantom bucket.
        let minutes = 45u64;
        let (trace, workload) = setup(15, minutes, 9);
        let config = ClusterConfig::small(2, 2);
        let intervals = trace.duration().as_micros() / config.interval.as_micros() + 1;
        let mut policy = FixedKeepAlive::ten_minutes();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        assert_eq!(report.intervals.len() as u64, intervals);
        for (k, sample) in report.intervals.iter().enumerate() {
            assert_eq!(sample.index, k as u64);
        }
    }

    #[test]
    fn determinism() {
        let (trace, workload) = setup(20, 60, 2);
        let run = || {
            let mut policy = FixedKeepAlive::ten_minutes();
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy)
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.keep_alive_spend, b.keep_alive_spend);
    }

    #[test]
    fn keep_alive_produces_warm_starts() {
        let (trace, workload) = setup(10, 120, 3);
        let mut with_ka = FixedKeepAlive::new(SimDuration::from_mins(30), false);
        let mut without_ka = FixedKeepAlive::new(SimDuration::ZERO, false);
        let config = ClusterConfig::small(2, 2);
        let warm = Simulation::new(config.clone(), &trace, &workload).run(&mut with_ka);
        let cold = Simulation::new(config, &trace, &workload).run(&mut without_ka);
        assert!(
            warm.warm_fraction() > 0.3,
            "warm fraction {}",
            warm.warm_fraction()
        );
        assert_eq!(cold.warm_fraction(), 0.0);
        assert!(warm.mean_service_time_secs() < cold.mean_service_time_secs());
        assert_eq!(cold.keep_alive_spend, Cost::ZERO);
        assert!(warm.keep_alive_spend > Cost::ZERO);
    }

    #[test]
    fn compression_shrinks_warm_memory_per_instance() {
        let (trace, workload) = setup(10, 60, 4);
        let config = ClusterConfig::small(2, 2);
        let mut raw = FixedKeepAlive::new(SimDuration::from_mins(10), false);
        let mut compressed = FixedKeepAlive::new(SimDuration::from_mins(10), true);
        let r1 = Simulation::new(config.clone(), &trace, &workload).run(&mut raw);
        let r2 = Simulation::new(config, &trace, &workload).run(&mut compressed);
        assert_eq!(r1.compression_events, 0);
        assert!(r2.compression_events > 0);
        // Same keep-alive windows but smaller footprints ⇒ cheaper.
        assert!(r2.keep_alive_spend < r1.keep_alive_spend);
    }

    #[test]
    fn budget_caps_spend() {
        let (trace, workload) = setup(20, 60, 5);
        let budget = Cost::from_dollars(1e-6);
        let config = ClusterConfig::small(2, 2).with_budget(budget);
        let mut policy = FixedKeepAlive::new(SimDuration::from_mins(60), false);
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        // Total spend cannot exceed accrued credit through the last ledger
        // touch (completions drain past the final arrival).
        let last_touch = report
            .records
            .iter()
            .map(|r| r.completion().as_micros())
            .max()
            .unwrap_or(0)
            .max(trace.duration().as_micros());
        let intervals = last_touch / SimDuration::from_mins(1).as_micros() + 1;
        assert!(report.keep_alive_spend <= budget * intervals);
    }

    #[test]
    fn zero_budget_means_no_warm_starts() {
        let (trace, workload) = setup(15, 60, 6);
        let config = ClusterConfig::small(2, 2).with_budget(Cost::ZERO);
        let mut policy = FixedKeepAlive::ten_minutes();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        assert_eq!(report.warm_fraction(), 0.0);
        assert_eq!(report.keep_alive_spend, Cost::ZERO);
    }

    #[test]
    fn service_time_includes_execution_at_least() {
        let (trace, workload) = setup(15, 60, 7);
        let mut policy = FixedKeepAlive::ten_minutes();
        let report =
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy);
        for rec in &report.records {
            let spec = workload.spec(rec.function);
            assert!(rec.execution >= spec.exec_time(rec.arch).scale(0.99));
            assert!(rec.service_time() >= rec.execution);
        }
    }

    #[test]
    fn tiny_cluster_queues_but_finishes() {
        // One single-core node forces queueing.
        let (trace, workload) = setup(20, 30, 8);
        let mut config = ClusterConfig::small(1, 0);
        config.cores_per_node = 1;
        let mut policy = FixedKeepAlive::ten_minutes();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
        let waited = report.records.iter().filter(|r| !r.wait.is_zero()).count();
        assert!(waited > 0, "expected queueing on a 1-core cluster");
    }

    #[test]
    fn input_change_perturbation_scales_execution() {
        let (trace, workload) = setup(10, 60, 9);
        let config = ClusterConfig::small(2, 2);
        let mut p1 = FixedKeepAlive::ten_minutes();
        let mut p2 = FixedKeepAlive::ten_minutes();
        let base = Simulation::new(config.clone(), &trace, &workload).run(&mut p1);
        let shifted = Simulation::new(config, &trace, &workload)
            .with_perturbations(vec![Perturbation::InputChange {
                at: SimTime::ZERO,
                factor: 2.0,
            }])
            .run(&mut p2);
        let base_exec: f64 = base.records.iter().map(|r| r.execution.as_secs_f64()).sum();
        let shifted_exec: f64 = shifted
            .records
            .iter()
            .map(|r| r.execution.as_secs_f64())
            .sum();
        assert!(
            (shifted_exec / base_exec - 2.0).abs() < 0.2,
            "execution should roughly double, ratio {}",
            shifted_exec / base_exec
        );
    }

    #[test]
    fn warm_memory_cap_limits_pool() {
        let (trace, workload) = setup(40, 60, 10);
        let capped = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.1);
        let uncapped = ClusterConfig::small(2, 2);
        let mut p1 = FixedKeepAlive::ten_minutes();
        let mut p2 = FixedKeepAlive::ten_minutes();
        let r_capped = Simulation::new(capped.clone(), &trace, &workload).run(&mut p1);
        let r_uncapped = Simulation::new(uncapped, &trace, &workload).run(&mut p2);
        assert!(r_capped.warm_fraction() <= r_uncapped.warm_fraction() + 1e-9);
        // The cap itself is respected at every sampled tick: warm memory
        // cannot exceed cap × nodes.
        let cap_total = capped.warm_memory_cap().as_mb() as f64 * 4.0;
        let max_warm_mem: f64 = r_capped
            .intervals
            .iter()
            .map(|s| s.warm_pool as f64)
            .fold(0.0, f64::max);
        // Series counts instances, so translate via the smallest footprint.
        assert!(max_warm_mem * 64.0 <= cap_total * 10.0, "sanity bound");
    }

    proptest! {
        // The flat per-arch placement order and the per-arch totals
        // against a from-scratch sort and sum: after any sequence of
        // node-state mutations routed through `mutate_node`, each arch's
        // array is every node of that arch's `node_order_key` in ascending
        // order, every node's position index points at its own key, and
        // each arch's totals equal a scan of its nodes.
        #[test]
        fn placement_order_matches_a_full_sort(
            // (op, node, memory in 512 MB units): op 0 starts an
            // execution, 1 finishes one, 2 admits a warm instance, 3
            // removes one. Few sizes, so keys tie on the load fields and
            // the node id decides.
            ops in prop::collection::vec((0u8..4, 0usize..7, 1u32..4), 1..200),
        ) {
            let (trace, workload) = setup(5, 10, 1);
            let config = ClusterConfig::small(3, 4);
            let mut sink = NullSink;
            let mut engine: Engine<'_, SliceSource<'_>, NullSink, NullProfiler> = Engine::new(
                &config,
                SliceSource::new(trace.invocations(), trace.duration()),
                &workload,
                &[],
                &mut sink,
                false,
            );
            let mut running: Vec<Vec<MemoryMb>> = vec![Vec::new(); 7];
            let mut warm: Vec<Vec<MemoryMb>> = vec![Vec::new(); 7];
            for &(op, index, units) in &ops {
                let node = NodeId::new(index as u32);
                let memory = MemoryMb::new(512 * units);
                let state = &engine.nodes[index];
                match op {
                    0 if state.free_cores() > 0 && state.free_memory() >= memory => {
                        engine.mutate_node(node, |n| n.start_execution(memory));
                        running[index].push(memory);
                    }
                    1 => {
                        if let Some(memory) = running[index].pop() {
                            engine.mutate_node(node, |n| n.finish_execution(memory));
                        }
                    }
                    2 if state.free_memory() >= memory => {
                        engine.mutate_node(node, |n| n.add_warm(memory));
                        warm[index].push(memory);
                    }
                    3 => {
                        if let Some(memory) = warm[index].pop() {
                            engine.mutate_node(node, |n| n.remove_warm(memory));
                        }
                    }
                    _ => {}
                }
                for arch in Arch::ALL {
                    let mut sorted: Vec<NodeOrderKey> = engine
                        .nodes
                        .iter()
                        .filter(|n| n.arch == arch)
                        .map(node_order_key)
                        .collect();
                    sorted.sort_unstable();
                    prop_assert_eq!(&engine.node_order[arch.index()], &sorted);
                    for (position, &(_, _, id)) in sorted.iter().enumerate() {
                        prop_assert_eq!(engine.node_position[id.index()] as usize, position);
                    }
                    prop_assert_eq!(
                        engine.totals[arch.index()],
                        ArchTotals::scan(&engine.nodes, arch)
                    );
                }
            }
        }
    }
}
