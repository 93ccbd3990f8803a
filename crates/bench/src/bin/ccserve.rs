//! `ccserve`: run the CodeCrunch control plane as an always-on service.
//!
//! Where `ccstat` replays a trace batch-style (as fast as the CPU goes),
//! `ccserve` runs the same decision core in **service mode**: arrivals are
//! released on a clock, the SRE optimizer ticks on interval boundaries as
//! they pass, one telemetry table row prints as each interval closes, and
//! Ctrl-C performs a graceful drain — in-flight arrivals finish, the
//! partial final interval is flushed, and the full report prints.
//!
//! ```text
//! # One simulated hour at 60x wall speed, live table:
//! cargo run --release -p bench --bin ccserve -- --policy codecrunch --minutes 60
//!
//! # Same service loop at millions-of-x on the virtual clock:
//! cargo run --release -p bench --bin ccserve -- --virtual --minutes 600
//!
//! # Streaming generator (O(#functions) memory), doubled arrival rate,
//! # stop after 48 simulated hours, export the event stream:
//! cargo run --release -p bench --bin ccserve -- --virtual --scenario stream \
//!     --functions 5000 --minutes 4320 --rate-scale 2.0 --duration 2880 \
//!     --jsonl served.jsonl
//! ```
//!
//! The clock is wall time scaled by `--speed` (default 60: one simulated
//! minute per wall second) or, with `--virtual`, a deterministic
//! `VirtualClock` the ingestion path advances itself — the run then
//! produces bit-identical digests to the batch engine (the contract
//! `tests/serve_parity.rs` pins). `--duration MINS` cuts the timeline at
//! that simulated instant via the same graceful-drain path SIGINT uses.

use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::{check_scale, cli_scale, scale_flag};
use cc_compress::CompressionModel;
use cc_experiments::policy;
use cc_serve::{Clock, RealClock, ServeHandle, ServeOptions, Server, VirtualClock};
use cc_sim::{
    ClusterView, Command, Event, EventSink, JsonlSink, KeepDecision, OptimizerRound, Scheduler,
    SharedTelemetry, Telemetry, WarmInstance,
};
use cc_trace::StreamingTrace;
use cc_types::{Arch, FunctionId, ServiceRecord, SimDuration, SimTime};
use cc_workload::{Catalog, Workload};

const USAGE: &str = "usage: ccserve [--policy NAME] [--scenario synthetic|stream] \
                     [--functions N] [--minutes N] [--seed N] [--rate-scale F] \
                     [--x86 N] [--arm N] [--warm-fraction F] \
                     [--speed F | --virtual] [--duration MINS] [--queue N] \
                     [--jsonl PATH] [--no-table]";

/// Parses `value` as the finite, positive number `flag` takes.
fn positive(flag: &str, value: &str) -> f64 {
    value
        .parse()
        .ok()
        .filter(|x: &f64| x.is_finite() && *x > 0.0)
        .unwrap_or_else(|| usage_error(&format!("{flag} takes a finite positive number")))
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Set from the signal handler; the watcher thread turns it into a drain.
/// (Only the atomic store happens in signal context — draining takes
/// locks, which are not async-signal-safe.)
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

fn install_sigint_handler() {
    const SIGINT: i32 = 2;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `on_sigint` is async-signal-safe (a single atomic store) and
    // stays valid for the program's lifetime.
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Live telemetry (shared, so the final report survives the run) plus the
/// optional JSONL exporter, printing one table row per closed interval.
struct CcserveSink {
    telemetry: SharedTelemetry,
    live: bool,
    jsonl: Option<JsonlSink<BufWriter<File>>>,
}

impl EventSink for CcserveSink {
    fn record(&mut self, event: &Event) {
        self.telemetry.record(event);
        if let Some(sink) = &mut self.jsonl {
            sink.record(event);
        }
        if self.live {
            if let Event::IntervalSampled { .. } = event {
                if let Some(row) = self.telemetry.latest_row() {
                    println!("{row}");
                }
            }
        }
    }
}

/// Wraps the served policy on a real clock and records each arrival's
/// lag: how far the clock had passed the arrival's recorded instant when
/// its `on_arrival` ran, in wall milliseconds. Every other callback is
/// forwarded unchanged.
struct LagProbe<'a> {
    inner: &'a mut dyn Scheduler,
    clock: Arc<dyn Clock>,
    speed: f64,
    lags_ms: Vec<f64>,
}

/// `(p50, p99, max)` of `lags` by nearest rank, sorting them in place;
/// `None` when there are none.
fn percentiles(lags: &mut [f64]) -> Option<(f64, f64, f64)> {
    if lags.is_empty() {
        return None;
    }
    lags.sort_by(f64::total_cmp);
    let rank = |q: f64| lags[((q * lags.len() as f64).ceil() as usize).max(1) - 1];
    Some((rank(0.5), rank(0.99), rank(1.0)))
}

impl Scheduler for LagProbe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        let behind = self.clock.now().as_micros().saturating_sub(now.as_micros());
        self.lags_ms.push(behind as f64 / self.speed / 1e3);
        self.inner.on_arrival(function, now);
    }

    fn on_record(&mut self, record: &ServiceRecord) {
        self.inner.on_record(record);
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        self.inner.place(function, view)
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        self.inner.on_completion(function, arch, view)
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        self.inner.on_interval(view)
    }

    fn eviction_rank(&mut self, instance: &WarmInstance, view: &ClusterView<'_>) -> f64 {
        self.inner.eviction_rank(instance, view)
    }

    fn evicts_in_admission_order(&self) -> bool {
        self.inner.evicts_in_admission_order()
    }

    fn enable_introspection(&mut self, enabled: bool) {
        self.inner.enable_introspection(enabled);
    }

    fn drain_optimizer_rounds(&mut self) -> Vec<OptimizerRound> {
        self.inner.drain_optimizer_rounds()
    }
}

fn main() {
    let mut policy_name = String::from("codecrunch");
    let mut scenario = String::from("synthetic");
    let mut scale = cli_scale();
    let mut rate_scale: f64 = 1.0;
    let mut speed: f64 = 60.0;
    let mut virtual_clock = false;
    let mut duration: Option<SimDuration> = None;
    let mut queue_capacity: usize = 1024;
    let mut jsonl_path: Option<String> = None;
    let mut live = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} takes a value")))
        };
        match arg.as_str() {
            "--policy" => policy_name = next("--policy"),
            "--scenario" => scenario = next("--scenario"),
            "--rate-scale" => rate_scale = positive("--rate-scale", &next("--rate-scale")),
            "--speed" => speed = positive("--speed", &next("--speed")),
            "--virtual" => virtual_clock = true,
            "--duration" => {
                let mins: u64 = next("--duration")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--duration takes minutes"));
                duration = Some(SimDuration::checked_from_mins(mins).unwrap_or_else(|| {
                    usage_error(&format!("--duration {mins} overflows the simulated clock"))
                }));
            }
            "--queue" => {
                queue_capacity = next("--queue")
                    .parse()
                    .ok()
                    .filter(|&capacity: &usize| capacity > 0)
                    .unwrap_or_else(|| usage_error("--queue takes a positive integer"));
            }
            "--jsonl" => jsonl_path = Some(next("--jsonl")),
            "--no-table" => live = false,
            other => {
                if !scale_flag(&mut scale, other, &mut args).unwrap_or_else(|e| usage_error(&e)) {
                    usage_error(&format!("unknown flag {other}"));
                }
            }
        }
    }
    check_scale(&scale).unwrap_or_else(|e| usage_error(&e));

    let config = scale.cluster();
    // The streaming generator is rebuilt for the serve call below; the
    // builder is deterministic, so it is the same stream.
    let stream = || {
        StreamingTrace::builder()
            .functions(scale.functions)
            .duration(SimDuration::from_mins(scale.minutes))
            .seed(scale.seed)
            .rate_scale(rate_scale)
            .build()
    };
    // Materialized trace (None for the streaming scenario).
    let (trace, workload) = match scenario.as_str() {
        "synthetic" => {
            if rate_scale != 1.0 {
                usage_error("--rate-scale applies to --scenario stream only");
            }
            let trace = scale.trace();
            let workload = scale.workload(&trace);
            (Some(trace), workload)
        }
        "stream" => {
            let workload = Workload::from_functions(
                stream().functions(),
                &Catalog::paper_catalog(),
                &CompressionModel::paper_default(),
            );
            (None, workload)
        }
        other => usage_error(&format!("unknown scenario {other} (synthetic|stream)")),
    };
    let mut policy = policy(&policy_name, trace.as_ref()).unwrap_or_else(|e| usage_error(&e));

    let clock: Arc<dyn Clock> = if virtual_clock {
        Arc::new(VirtualClock::new())
    } else {
        Arc::new(RealClock::with_speed(speed))
    };
    let server = Server::new(
        Arc::clone(&clock),
        ServeOptions {
            queue_capacity,
            collect_records: true,
        },
    );
    let handle = server.handle();

    // `--duration` is a pre-declared timeline cut: the drain machinery
    // refuses every arrival at or after the instant, so the service winds
    // down exactly there regardless of clock mode.
    if let Some(duration) = duration {
        handle.drain_at(SimTime::ZERO + duration);
    }

    install_sigint_handler();
    let done = Arc::new(AtomicBool::new(false));
    let watcher = spawn_sigint_watcher(handle.clone(), Arc::clone(&done));

    let telemetry = SharedTelemetry::new(config.interval);
    let mut sink = CcserveSink {
        telemetry: telemetry.clone(),
        live,
        jsonl: jsonl_path.as_deref().map(|path| {
            JsonlSink::new(BufWriter::new(
                File::create(path).unwrap_or_else(|e| usage_error(&format!("{path}: {e}"))),
            ))
        }),
    };

    println!(
        "ccserve: policy {policy_name}, scenario {scenario}, {} functions, \
         {} simulated minutes, clock {}",
        scale.functions,
        scale.minutes,
        if virtual_clock {
            "virtual".to_string()
        } else {
            format!("real at {speed}x")
        }
    );
    if live {
        println!("{}", Telemetry::interval_header());
    }

    // Lag is only meaningful against a real clock: a virtual clock is
    // advanced by the arrivals themselves, so every lag would be zero.
    let mut probe = None;
    let served: &mut dyn Scheduler = if virtual_clock {
        policy.as_mut()
    } else {
        probe.insert(LagProbe {
            inner: policy.as_mut(),
            clock: Arc::clone(&clock),
            speed,
            lags_ms: Vec::new(),
        })
    };

    let wall_start = Instant::now();
    let outcome = match scenario.as_str() {
        "synthetic" => {
            let trace = trace.as_ref().expect("synthetic scenario has a trace");
            server.serve(
                &config,
                cc_sim::SliceSource::from_trace(trace),
                &workload,
                served,
                &mut sink,
            )
        }
        _ => server.serve(&config, stream(), &workload, served, &mut sink),
    };
    let wall = wall_start.elapsed();
    done.store(true, Ordering::SeqCst);
    watcher.join().expect("watcher thread");

    if let Some(jsonl) = sink.jsonl {
        jsonl
            .finish()
            .unwrap_or_else(|e| usage_error(&format!("writing jsonl: {e}")))
            .into_inner()
            .unwrap_or_else(|e| usage_error(&format!("flushing jsonl: {e}")));
    }

    println!("\n{}", telemetry.report());
    let stats = &outcome.queue;
    println!(
        "ingestion: {} pushed, {} delivered, {} dropped at drain, {} out of order, \
         {} unknown function, peak depth {}",
        stats.pushed,
        stats.delivered,
        stats.dropped_at_drain,
        stats.out_of_order,
        stats.unknown_function,
        stats.peak_depth
    );
    if let Some(probe) = probe.as_mut() {
        if let Some((p50, p99, max)) = percentiles(&mut probe.lags_ms) {
            println!(
                "arrival lag (real clock): p50 {p50:.3} ms, p99 {p99:.3} ms, max {max:.3} ms \
                 over {} arrivals",
                probe.lags_ms.len()
            );
        }
    }
    let served_secs = outcome.horizon.as_secs_f64();
    println!(
        "served {:.1} simulated minutes in {:.2}s wall ({:.0}x), report digest {:016x}, \
         telemetry digest {:016x}",
        served_secs / 60.0,
        wall.as_secs_f64(),
        served_secs / wall.as_secs_f64().max(1e-9),
        outcome.report.digest(),
        telemetry.digest(),
    );
}

/// Polls the SIGINT flag off signal context and turns the first Ctrl-C
/// into a graceful drain. A second Ctrl-C exits immediately.
fn spawn_sigint_watcher(handle: ServeHandle, done: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut drained = false;
        while !done.load(Ordering::SeqCst) {
            if SIGINT_SEEN.swap(false, Ordering::SeqCst) {
                if drained {
                    eprintln!("ccserve: second interrupt, exiting immediately");
                    std::process::exit(130);
                }
                drained = true;
                let eff = handle.drain_now();
                eprintln!(
                    "ccserve: interrupt — draining at t={:.1}min (in-flight work finishes; \
                     Ctrl-C again to abort)",
                    eff.as_micros() as f64 / 60e6
                );
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::percentiles;

    #[test]
    fn percentiles_take_the_nearest_rank() {
        assert_eq!(percentiles(&mut []), None);
        assert_eq!(percentiles(&mut [2.5]), Some((2.5, 2.5, 2.5)));
        let mut lags: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentiles(&mut lags), Some((100.0, 198.0, 200.0)));
    }
}
