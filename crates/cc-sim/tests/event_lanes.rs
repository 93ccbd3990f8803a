//! The engine's event lanes: ticks and arrivals never touch the event
//! heap, the lanes merge in class order at equal instants, a live source
//! is never asked to wait past the tick lane, and the arrival lane skips
//! invocations of functions outside the workload, invocations out of time
//! order, and invocations past the source's horizon.

use std::cell::RefCell;
use std::rc::Rc;

use cc_compress::CompressionModel;
use cc_prof::PerfCounter;
use cc_sim::{
    ArrivalSource, BufferSink, ClusterConfig, ClusterView, Command, Event, Fetch, FixedKeepAlive,
    KeepDecision, ReleaseReason, Scheduler, Simulation, SliceSource,
};
use cc_trace::{SyntheticTrace, Trace, TraceFunction};
use cc_types::{Arch, FunctionId, Invocation, MemoryMb, SimDuration, SimTime};
use cc_workload::{Catalog, Workload};

fn scenario() -> (Trace, Workload) {
    let trace = SyntheticTrace::builder()
        .functions(30)
        .duration(SimDuration::from_mins(60))
        .seed(21)
        .build();
    let workload = Workload::from_trace(
        &trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    (trace, workload)
}

/// Fixed keep-alive that also pre-warms function 0 at every tick where it
/// has no warm instance, counting the commands it issues.
struct PrewarmFirst {
    inner: FixedKeepAlive,
    issued: u64,
}

impl Scheduler for PrewarmFirst {
    fn name(&self) -> &str {
        "prewarm-first"
    }
    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        self.inner.place(function, view)
    }
    fn on_completion(&mut self, f: FunctionId, arch: Arch, view: &ClusterView<'_>) -> KeepDecision {
        self.inner.on_completion(f, arch, view)
    }
    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        let function = FunctionId::new(0);
        if view.is_warm(function) {
            return Vec::new();
        }
        self.issued += 1;
        vec![Command::Prewarm {
            function,
            arch: Arch::Arm,
            keep_alive: SimDuration::from_mins(2),
            compress: false,
        }]
    }
}

/// Runs `policy` under the wall profiler and returns the report with the
/// run's event-heap pushes.
fn heap_pushes(
    config: ClusterConfig,
    trace: &Trace,
    workload: &Workload,
    policy: &mut dyn Scheduler,
) -> (cc_sim::SimReport, u64) {
    cc_prof::reset();
    let report = Simulation::new(config, trace, workload)
        .profiled()
        .run(policy);
    let pushes = cc_prof::take_profile("event lanes", 0).counter(PerfCounter::EventHeapPushes);
    (report, pushes)
}

/// A batch run pushes one heap event per execution (its completion) and
/// one per started pre-warm (its readiness), and nothing for its arrivals
/// or ticks — on a roomy cluster and on a single contended node.
#[test]
fn the_heap_holds_only_completions_and_started_prewarms() {
    let (trace, workload) = scenario();
    let invocations = trace.invocations().len() as u64;
    for config in [
        ClusterConfig::small(2, 2),
        ClusterConfig::small(1, 1).with_warm_memory_fraction(0.1),
    ] {
        let mut fixed = FixedKeepAlive::ten_minutes();
        let (report, pushes) = heap_pushes(config.clone(), &trace, &workload, &mut fixed);
        assert_eq!(report.stats.invocations(), invocations);
        assert_eq!(pushes, invocations, "fixed keep-alive pre-warms nothing");

        let mut prewarming = PrewarmFirst {
            inner: FixedKeepAlive::ten_minutes(),
            issued: 0,
        };
        let (report, pushes) = heap_pushes(config, &trace, &workload, &mut prewarming);
        let started = prewarming.issued - report.dropped_prewarms;
        assert!(started > 0, "the scenario must start pre-warms");
        assert_eq!(pushes, invocations + started);
    }
}

/// An invocation of a function the workload does not know is skipped and
/// counted at the source boundary, in every build; the rest of the run is
/// the run without it.
#[test]
fn foreign_function_ids_are_skipped_and_counted() {
    let (trace, workload) = scenario();
    let config = ClusterConfig::small(2, 2);
    let mut invocations = trace.invocations().to_vec();
    let middle = invocations.len() / 2;
    let foreign = Invocation::new(
        FunctionId::new(workload.len() as u32 + 3),
        invocations[middle].arrival,
    );
    invocations.insert(middle, foreign);

    let mut policy = FixedKeepAlive::ten_minutes();
    let report = Simulation::from_source(
        config.clone(),
        SliceSource::new(&invocations, trace.duration()),
        &workload,
    )
    .run(&mut policy);
    assert_eq!(report.rejected_arrivals, 1);
    assert_eq!(report.records.len(), trace.invocations().len());

    let mut policy = FixedKeepAlive::ten_minutes();
    let clean = Simulation::new(config, &trace, &workload).run(&mut policy);
    assert_eq!(clean.rejected_arrivals, 0);
    assert_eq!(report.digest(), clean.digest());
}

/// An invocation earlier than the one the source delivered before it is
/// skipped and counted at the source boundary, in every build; the rest
/// of the run is the run without it.
#[test]
fn out_of_order_arrivals_are_skipped_and_counted() {
    let (trace, workload) = scenario();
    let config = ClusterConfig::small(2, 2);
    let mut invocations = trace.invocations().to_vec();
    let middle = invocations.len() / 2;
    let early = invocations[0];
    assert!(early.arrival < invocations[middle - 1].arrival);
    invocations.insert(middle, early);

    let mut policy = FixedKeepAlive::ten_minutes();
    let report = Simulation::from_source(
        config.clone(),
        SliceSource::new(&invocations, trace.duration()),
        &workload,
    )
    .run(&mut policy);
    assert_eq!(report.out_of_order_arrivals, 1);
    assert_eq!(report.rejected_arrivals, 0);
    assert_eq!(report.records.len(), trace.invocations().len());

    let mut policy = FixedKeepAlive::ten_minutes();
    let clean = Simulation::new(config, &trace, &workload).run(&mut policy);
    assert_eq!(clean.out_of_order_arrivals, 0);
    assert_eq!(report.digest(), clean.digest());
}

/// An invocation later than the source's own horizon is skipped and
/// counted at the source boundary, in every build; the rest of the run is
/// the run without it.
#[test]
fn past_horizon_arrivals_are_skipped_and_counted() {
    let (trace, workload) = scenario();
    let config = ClusterConfig::small(2, 2);
    let mut invocations = trace.invocations().to_vec();
    let last = *invocations.last().expect("the scenario has arrivals");
    assert_eq!(last.arrival, SimTime::ZERO + trace.duration());
    invocations.push(Invocation::new(
        last.function,
        last.arrival + SimDuration::from_secs(1),
    ));

    let mut policy = FixedKeepAlive::ten_minutes();
    let report = Simulation::from_source(
        config.clone(),
        SliceSource::new(&invocations, trace.duration()),
        &workload,
    )
    .run(&mut policy);
    assert_eq!(report.past_horizon_arrivals, 1);
    assert_eq!(report.out_of_order_arrivals, 0);
    assert_eq!(report.rejected_arrivals, 0);
    assert_eq!(report.records.len(), trace.invocations().len());

    let mut policy = FixedKeepAlive::ten_minutes();
    let clean = Simulation::new(config, &trace, &workload).run(&mut policy);
    assert_eq!(clean.past_horizon_arrivals, 0);
    assert_eq!(report.digest(), clean.digest());
}

/// A live source on a virtual clock: an arrival is ready once the
/// engine's deadline reaches it, and every deadline the engine offers is
/// recorded.
struct DeadlineProbe {
    invocations: Vec<Invocation>,
    next: usize,
    horizon: SimDuration,
    deadlines: Rc<RefCell<Vec<Option<SimTime>>>>,
}

impl ArrivalSource for DeadlineProbe {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let inv = self.invocations.get(self.next).copied();
        self.next += usize::from(inv.is_some());
        inv
    }

    fn horizon(&self) -> SimDuration {
        self.horizon
    }

    fn fetch(&mut self, deadline: Option<SimTime>) -> Fetch {
        self.deadlines.borrow_mut().push(deadline);
        match (self.invocations.get(self.next), deadline) {
            (None, _) => Fetch::Exhausted,
            (Some(inv), Some(deadline)) if inv.arrival > deadline => Fetch::NotBefore(deadline),
            (Some(_), _) => Fetch::Ready(self.next_invocation().expect("an invocation is due")),
        }
    }
}

/// The tick lane bounds a live source's wait: across a ten-interval gap
/// between two arrivals, the engine offers every tick instant as a
/// deadline, so a paced source never blocks past a due tick.
#[test]
fn a_live_source_is_asked_up_to_every_tick() {
    let (_, workload) = scenario();
    let config = ClusterConfig::small(1, 1);
    let interval = config.interval;
    let gap = interval * 10;
    let function = FunctionId::new(0);
    let deadlines = Rc::new(RefCell::new(Vec::new()));
    let probe = DeadlineProbe {
        invocations: vec![
            Invocation::new(function, SimTime::ZERO),
            Invocation::new(function, SimTime::ZERO + gap),
        ],
        next: 0,
        horizon: gap,
        deadlines: Rc::clone(&deadlines),
    };
    let mut policy = FixedKeepAlive::new(gap * 2, false);
    let report = Simulation::from_source(config.clone(), probe, &workload).run(&mut policy);
    assert_eq!(report.records.len(), 2);
    let deadlines = deadlines.borrow();
    for k in 1..10 {
        let tick = SimTime::ZERO + interval * k;
        assert!(
            deadlines.contains(&Some(tick)),
            "tick {k} was never offered as a deadline: {deadlines:?}"
        );
    }
}

/// Three functions: function 0's completion and keep-alive expiry are to
/// land exactly on ticks, and functions 1 and 2 arrive exactly on them.
fn tie_trace(first_arrival: SimTime) -> Trace {
    let functions = (0..3)
        .map(|i| {
            TraceFunction::new(
                FunctionId::new(i),
                SimDuration::from_secs(2),
                MemoryMb::new(256),
            )
        })
        .collect();
    let invocations = vec![
        Invocation::new(FunctionId::new(0), first_arrival),
        Invocation::new(
            FunctionId::new(1),
            SimTime::ZERO + SimDuration::from_mins(2),
        ),
        Invocation::new(
            FunctionId::new(2),
            SimTime::ZERO + SimDuration::from_mins(12),
        ),
    ];
    Trace::new(functions, invocations).expect("valid trace")
}

/// At one instant the lanes run in class order: the tick, then an
/// expiry, then a completion, then an arrival. Function 0 completes
/// exactly on the 2-minute tick (with function 1 arriving then too), and
/// its 10-minute keep-alive expires exactly on the 12-minute tick (with
/// function 2 arriving then).
#[test]
fn lanes_tie_in_class_order() {
    let config = ClusterConfig::small(1, 1);
    let probe = tie_trace(SimTime::ZERO);
    let workload = Workload::from_trace(
        &probe,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    let mut policy = FixedKeepAlive::ten_minutes();
    let first = Simulation::new(config.clone(), &probe, &workload).run(&mut policy);
    let service = first.records[0].start_penalty + first.records[0].execution;
    let two = SimTime::ZERO + SimDuration::from_mins(2);
    let twelve = SimTime::ZERO + SimDuration::from_mins(12);

    let trace = tie_trace(two - service);
    let mut sink = BufferSink::new();
    let mut policy = FixedKeepAlive::ten_minutes();
    Simulation::new(config, &trace, &workload).run_with_sink(&mut policy, &mut sink);
    let position = |wanted: &dyn Fn(&Event) -> bool| {
        sink.events
            .iter()
            .position(wanted)
            .expect("the event was emitted")
    };
    let tick =
        |at: SimTime| position(&|e| matches!(e, Event::IntervalSampled { .. }) && e.at() == at);
    let arrival = |f: u32| {
        position(
            &|e| matches!(*e, Event::Arrival { function, .. } if function == FunctionId::new(f)),
        )
    };
    let completion = position(&|e| {
        matches!(*e, Event::InstanceAdmitted { at, function, .. }
            if at == two && function == FunctionId::new(0))
    });
    let expiry = position(&|e| {
        matches!(*e, Event::InstanceReleased { at, function, reason: ReleaseReason::Expired, .. }
            if at == twelve && function == FunctionId::new(0))
    });
    assert!(tick(two) < completion, "the tick runs before a completion");
    assert!(
        completion < arrival(1),
        "a completion runs before an arrival"
    );
    assert!(tick(twelve) < expiry, "the tick runs before an expiry");
    assert!(expiry < arrival(2), "an expiry runs before an arrival");
}
