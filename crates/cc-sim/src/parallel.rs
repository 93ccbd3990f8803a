//! The intra-run parallel engine: one simulation, many cores, identical
//! bytes.
//!
//! The discrete-event engine has zero-latency global coupling — every
//! arrival can consult (and mutate) any node in the cluster — so the
//! decision loop itself cannot be partitioned across threads without
//! changing results. What *can* leave the decision thread is everything
//! around it, and in instrumented runs that is the bulk of the wall
//! clock:
//!
//! * **Arrival generation** — a feeder thread pulls the
//!   [`ArrivalSource`] (a synthetic generator, a parsed trace, a
//!   streaming million-function workload) ahead of the engine and ships
//!   invocation chunks over a bounded channel, so trace generation
//!   overlaps simulation and the full invocation stream never
//!   materializes in memory.
//! * **Event encoding** — the engine records into a
//!   [`BatchSink`](cc_obs::BatchSink), which flushes window-aligned,
//!   index-tagged event batches. A pool of encoder workers races to
//!   format batches into JSONL bytes; [`cc_shard::mux_chunks`] writes the
//!   finished chunks strictly in batch-index order.
//! * **Telemetry folding** — a dedicated thread folds batches (which a
//!   single-producer channel delivers already in index order) into a
//!   [`Telemetry`] aggregate.
//!
//! Determinism is by construction, not by tuning: the decision core runs
//! the exact serial event loop, batch indices are assigned in emission
//! order, the chunk mux writes in index order, and the telemetry thread
//! consumes in index order. Therefore the [`SimReport`] (and its digest),
//! the JSONL bytes, and the telemetry digest are identical to a serial
//! run at *every* worker count and *every* window length — the window
//! only sets flush cadence. The parity tests pin exactly this.

use std::io::{self, Write};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cc_obs::{write_event_line, BatchSink, EventBatch, EventSink, Telemetry};
use cc_prof::{PerfCounter, Phase, Profiler};
use cc_shard::mux_chunks;
use cc_types::{Invocation, SimDuration};
use cc_workload::Workload;

use crate::config::ClusterConfig;
use crate::engine::Simulation;
use crate::report::SimReport;
use crate::scheduler::Scheduler;
use crate::source::ArrivalSource;

/// Size cap per batch: a batch also flushes when it holds this many
/// events, bounding memory for hot windows.
const BATCH_EVENTS: usize = 4096;

/// Bounded-channel depth (in batches / chunks) between pipeline stages;
/// backpressure caps how far any stage runs ahead.
const QUEUE_DEPTH: usize = 8;

/// Invocations per feeder chunk.
const ARRIVAL_CHUNK: usize = 4096;

/// Tuning for [`Simulation::run_pipelined`]. None of these affect results
/// — only throughput, latency, and memory.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// JSONL encoder worker threads (ignored when no JSONL output is
    /// requested). Clamped to at least 1.
    pub workers: usize,
    /// Simulated-time window bounding batch flush cadence. Each crossing
    /// of a window boundary flushes the buffered events.
    pub window: SimDuration,
    /// Keep per-invocation [`ServiceRecord`]s (needed for the report
    /// digest; disable for constant-memory runs, whose report and
    /// telemetry then grow with the run's intervals only). Records are
    /// kept only if the simulation keeps them too (see
    /// [`Simulation::without_records`]).
    ///
    /// [`ServiceRecord`]: cc_types::ServiceRecord
    pub collect_records: bool,
}

impl Default for ParallelOptions {
    fn default() -> ParallelOptions {
        ParallelOptions {
            workers: 2,
            window: SimDuration::from_mins(1),
            collect_records: true,
        }
    }
}

impl ParallelOptions {
    /// Returns a copy with a different encoder worker count.
    pub fn with_workers(mut self, workers: usize) -> ParallelOptions {
        self.workers = workers;
        self
    }

    /// Returns a copy with a different flush window.
    pub fn with_window(mut self, window: SimDuration) -> ParallelOptions {
        self.window = window;
        self
    }

    /// Returns a copy that skips per-invocation record collection.
    pub fn without_records(mut self) -> ParallelOptions {
        self.collect_records = false;
        self
    }
}

/// Everything a parallel run produces.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// The decision core's report — identical to a serial run's.
    pub report: SimReport,
    /// Telemetry folded from the event stream in emission order —
    /// digest-identical to a serial [`Telemetry`] sink.
    pub telemetry: Telemetry,
    /// Batches the sink flushed.
    pub batches: u64,
    /// Events that flowed through the pipeline.
    pub events: u64,
    /// JSONL chunks written (0 when no JSONL output was requested;
    /// otherwise equals `batches` unless an encoder died).
    pub chunks_written: u64,
}

/// Bytes reserved per event when an encoder sizes a batch's output buffer.
/// Lines average about 104 bytes on the streaming scenario (arrivals are
/// short, starts and warm-pool admissions long); the margin lets a typical
/// batch encode without reallocating.
const ENCODED_EVENT_BYTES: usize = 112;

/// Bounded-channel send with its blocking time accumulated onto
/// [`PerfCounter::ChannelSendBlockNs`] when `P` is enabled (backpressure
/// attribution); a plain send otherwise.
fn timed_send<T, P: Profiler>(
    tx: &std::sync::mpsc::SyncSender<T>,
    value: T,
) -> Result<(), std::sync::mpsc::SendError<T>> {
    if P::ENABLED {
        let started = Instant::now();
        let result = tx.send(value);
        P::add(
            PerfCounter::ChannelSendBlockNs,
            started.elapsed().as_nanos() as u64,
        );
        result
    } else {
        tx.send(value)
    }
}

/// [`ArrivalSource`] fed by a prefetch thread over a bounded channel.
struct ChunkedSource {
    rx: Receiver<Vec<Invocation>>,
    current: std::vec::IntoIter<Invocation>,
    horizon: SimDuration,
    len_hint: usize,
}

impl ArrivalSource for ChunkedSource {
    fn next_invocation(&mut self) -> Option<Invocation> {
        loop {
            if let Some(inv) = self.current.next() {
                return Some(inv);
            }
            match self.rx.recv() {
                Ok(chunk) => self.current = chunk.into_iter(),
                Err(_) => return None,
            }
        }
    }

    fn horizon(&self) -> SimDuration {
        self.horizon
    }

    fn len_hint(&self) -> usize {
        self.len_hint
    }
}

/// [`Simulation::run_pipelined`] over a borrowed config: a one-call
/// forwarder, kept because the perfbench benchmark calls it. New code
/// builds a [`Simulation`].
pub fn run_parallel<Src, W>(
    config: &ClusterConfig,
    source: Src,
    workload: &Workload,
    policy: &mut dyn Scheduler,
    jsonl: Option<W>,
    options: &ParallelOptions,
) -> io::Result<(ParallelOutcome, Option<W>)>
where
    Src: ArrivalSource + Send,
    W: Write + Send,
{
    Simulation::from_source(config.clone(), source, workload).run_pipelined(policy, jsonl, options)
}

impl<Src: ArrivalSource + Send, P: Profiler> Simulation<'_, Src, P> {
    /// Runs one simulation with the instrumentation pipeline spread across
    /// threads: feeder + decision core + `workers` JSONL encoders +
    /// ordered writer + telemetry folder. Under [`Simulation::profiled`]
    /// the profiler observes every pipeline thread: the decision core's
    /// engine phases plus feeder, encoder, telemetry-folder, and mux spans
    /// (with channel send/recv blocking-time counters).
    ///
    /// When `jsonl` is `Some`, the returned writer carries the encoded
    /// event stream — byte-identical to a serial
    /// [`JsonlSink`](cc_obs::JsonlSink) run. When `None`, no encoder
    /// threads are spawned and only telemetry is folded.
    ///
    /// Results are independent of `options.workers` and `options.window`;
    /// see the module docs for why.
    ///
    /// # Panics
    ///
    /// As for [`Simulation::run`].
    pub fn run_pipelined<W: Write + Send>(
        mut self,
        policy: &mut dyn Scheduler,
        jsonl: Option<W>,
        options: &ParallelOptions,
    ) -> io::Result<(ParallelOutcome, Option<W>)> {
        self.collect_records &= options.collect_records;
        let source = self.open_arrivals();
        let workers = options.workers.max(1);
        let interval = self.config.interval;
        let window = if options.window > SimDuration::ZERO {
            options.window
        } else {
            interval
        };
        let horizon = source.horizon();
        let len_hint = source.len_hint();

        std::thread::scope(|scope| {
            // Stage 1: the feeder pre-generates arrivals ahead of the engine.
            let (chunk_tx, chunk_rx) = sync_channel::<Vec<Invocation>>(QUEUE_DEPTH);
            let mut source = source;
            scope.spawn(move || {
                if P::ENABLED {
                    P::thread_label("feeder");
                }
                {
                    // One span for the whole feed: blocked-send time (engine
                    // backpressure) is deliberately inside it.
                    let _span = P::scope(Phase::Feeder);
                    let mut chunk = Vec::with_capacity(ARRIVAL_CHUNK);
                    while let Some(inv) = source.next_invocation() {
                        chunk.push(inv);
                        if chunk.len() >= ARRIVAL_CHUNK {
                            let full =
                                std::mem::replace(&mut chunk, Vec::with_capacity(ARRIVAL_CHUNK));
                            if timed_send::<_, P>(&chunk_tx, full).is_err() {
                                // Engine hung up (panic unwind) — stop feeding.
                                break;
                            }
                        }
                    }
                    if !chunk.is_empty() {
                        let _ = timed_send::<_, P>(&chunk_tx, chunk);
                    }
                }
                if P::ENABLED {
                    // A scope join can resume the parent before this thread's
                    // TLS destructors merge; flush explicitly.
                    cc_prof::flush_thread();
                }
            });
            let chunked = ChunkedSource {
                rx: chunk_rx,
                current: Vec::new().into_iter(),
                horizon,
                len_hint,
            };

            // Stage 3a: the telemetry folder. Its single-producer channel
            // delivers batches in index order, so folding order equals the
            // serial emission order (P² quantiles are order-sensitive).
            let (tel_tx, tel_rx) = sync_channel::<EventBatch>(QUEUE_DEPTH);
            let telemetry_handle = scope.spawn(move || {
                if P::ENABLED {
                    P::thread_label("telemetry");
                }
                let result = {
                    // One span per run: time blocked waiting on batches is
                    // part of this thread's story, not noise.
                    let _span = P::scope(Phase::TelemetryFold);
                    let mut telemetry = Telemetry::new(interval);
                    let mut events = 0u64;
                    for batch in tel_rx {
                        for event in batch.events.iter() {
                            telemetry.record(event);
                        }
                        events += batch.events.len() as u64;
                    }
                    (telemetry, events)
                };
                if P::ENABLED {
                    cc_prof::flush_thread();
                }
                result
            });

            // Stage 3b: encoder pool + ordered writer, only when JSONL output
            // is wanted.
            let mut subscribers = vec![tel_tx];
            let writer_handle = jsonl.map(|out| {
                let (enc_tx, enc_rx) = sync_channel::<EventBatch>(QUEUE_DEPTH);
                subscribers.push(enc_tx);
                // Workers take turns receiving (the mutex is held only while
                // waiting for one batch); encoding runs outside the lock, so
                // with ragged batch sizes the pool load-balances itself.
                let shared = Arc::new(Mutex::new(enc_rx));
                let (bytes_tx, bytes_rx) = sync_channel::<(u64, Vec<u8>)>(QUEUE_DEPTH * workers);
                for _ in 0..workers {
                    let shared = Arc::clone(&shared);
                    let bytes_tx = bytes_tx.clone();
                    scope.spawn(move || {
                        if P::ENABLED {
                            P::thread_label("encoder");
                        }
                        loop {
                            let recv_started = P::ENABLED.then(Instant::now);
                            let received = {
                                let rx = shared.lock().expect("encoder receiver poisoned");
                                rx.recv()
                            };
                            if let Some(started) = recv_started {
                                P::add(
                                    PerfCounter::ChannelRecvBlockNs,
                                    started.elapsed().as_nanos() as u64,
                                );
                            }
                            let Ok(batch) = received else {
                                break;
                            };
                            let _span = P::scope(Phase::Encode);
                            let mut buf =
                                Vec::with_capacity(batch.events.len() * ENCODED_EVENT_BYTES);
                            for event in batch.events.iter() {
                                write_event_line(&mut buf, event);
                            }
                            if timed_send::<_, P>(&bytes_tx, (batch.index, buf)).is_err() {
                                break;
                            }
                        }
                        if P::ENABLED {
                            cc_prof::flush_thread();
                        }
                    });
                }
                drop(bytes_tx);
                scope.spawn(move || {
                    if P::ENABLED {
                        P::thread_label("mux");
                    }
                    let result = {
                        let _span = P::scope(Phase::MuxWrite);
                        mux_chunks(bytes_rx, out)
                    };
                    if P::ENABLED {
                        if let Ok((_, written)) = &result {
                            P::add(PerfCounter::ChunksWritten, *written);
                        }
                        cc_prof::flush_thread();
                    }
                    result
                })
            });

            // Stage 2: the decision core — the exact serial loop, on this
            // thread, recording into the batching sink.
            let mut sink = BatchSink::new(window, BATCH_EVENTS, subscribers);
            if P::ENABLED {
                P::thread_label("decision");
            }
            let report = self.run_engine(chunked, policy, &mut sink);
            let (batches, _failures) = sink.finish();

            // Hang-ups cascade: `sink` dropped its senders, so the telemetry
            // folder and encoders drain and exit, then the writer's channel
            // closes and the mux returns.
            let (telemetry, events) = telemetry_handle.join().expect("telemetry thread panicked");
            let (out, chunks_written) = match writer_handle {
                Some(handle) => {
                    let (out, written) = handle.join().expect("writer thread panicked")?;
                    (Some(out), written)
                }
                None => (None, 0),
            };

            Ok((
                ParallelOutcome {
                    report,
                    telemetry,
                    batches,
                    events,
                    chunks_written,
                },
                out,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedKeepAlive;
    use crate::{JsonlSink, Tee};
    use cc_compress::CompressionModel;
    use cc_trace::SyntheticTrace;
    use cc_workload::Catalog;

    fn scenario() -> (cc_trace::Trace, Workload, ClusterConfig) {
        let trace = SyntheticTrace::builder()
            .functions(40)
            .duration(SimDuration::from_mins(45))
            .seed(77)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.4);
        (trace, workload, config)
    }

    #[test]
    fn parallel_matches_serial_report_jsonl_and_telemetry() {
        let (trace, workload, config) = scenario();

        // Serial reference: report + JSONL bytes + telemetry digest.
        let mut policy = FixedKeepAlive::ten_minutes();
        let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
        let serial =
            Simulation::new(config.clone(), &trace, &workload).run_with_sink(&mut policy, &mut tee);
        let serial_bytes = tee.0.finish().expect("flush");
        let serial_tel = tee.1.digest();

        for workers in [1usize, 2, 3, 4, 8] {
            let mut policy = FixedKeepAlive::ten_minutes();
            let options = ParallelOptions::default()
                .with_workers(workers)
                .with_window(SimDuration::from_secs(30));
            let (outcome, bytes) = Simulation::new(config.clone(), &trace, &workload)
                .run_pipelined(&mut policy, Some(Vec::new()), &options)
                .expect("pipeline io");
            assert_eq!(
                outcome.report.digest(),
                serial.digest(),
                "report digest diverged at {workers} workers"
            );
            assert_eq!(
                outcome.telemetry.digest(),
                serial_tel,
                "telemetry digest diverged at {workers} workers"
            );
            assert_eq!(
                bytes.expect("jsonl requested"),
                serial_bytes,
                "JSONL bytes diverged at {workers} workers"
            );
            assert_eq!(outcome.batches, outcome.chunks_written);
        }
    }

    #[test]
    fn window_length_does_not_change_results() {
        let (trace, workload, config) = scenario();
        let mut reference = None;
        for window_secs in [1u64, 7, 60, 600] {
            let mut policy = FixedKeepAlive::ten_minutes();
            let options =
                ParallelOptions::default().with_window(SimDuration::from_secs(window_secs));
            let (outcome, bytes) = Simulation::new(config.clone(), &trace, &workload)
                .run_pipelined(&mut policy, Some(Vec::new()), &options)
                .expect("pipeline io");
            let key = (
                outcome.report.digest(),
                outcome.telemetry.digest(),
                bytes.expect("jsonl requested"),
            );
            match &reference {
                None => reference = Some(key),
                Some(expected) => assert_eq!(*expected, key, "window {window_secs}s diverged"),
            }
        }
    }

    #[test]
    fn streaming_source_parity_serial_vs_parallel() {
        // A constant-memory StreamingTrace through the full pipeline must
        // match a serial run over an identically-seeded stream.
        let build = || {
            cc_trace::StreamingTrace::builder()
                .functions(60)
                .duration(SimDuration::from_mins(120))
                .seed(2024)
                .mean_gap_median(SimDuration::from_mins(8))
                .build()
        };
        let stream = build();
        let workload = Workload::from_functions(
            stream.functions(),
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.4);

        let mut policy = FixedKeepAlive::ten_minutes();
        let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
        let serial = Simulation::from_source(config.clone(), stream, &workload)
            .run_with_sink(&mut policy, &mut tee);
        let serial_bytes = tee.0.finish().expect("flush");
        let serial_tel = tee.1.digest();
        assert!(serial.stats.invocations() > 0);

        for workers in [1usize, 3] {
            let mut policy = FixedKeepAlive::ten_minutes();
            let options = ParallelOptions::default().with_workers(workers);
            let (outcome, bytes) = Simulation::from_source(config.clone(), build(), &workload)
                .run_pipelined(&mut policy, Some(Vec::new()), &options)
                .expect("pipeline io");
            assert_eq!(outcome.report.digest(), serial.digest());
            assert_eq!(outcome.telemetry.digest(), serial_tel);
            assert_eq!(bytes.expect("jsonl requested"), serial_bytes);
        }
    }

    #[test]
    fn telemetry_only_pipeline_skips_encoders() {
        let (trace, workload, config) = scenario();
        let mut policy = FixedKeepAlive::ten_minutes();
        let (outcome, bytes) = Simulation::new(config.clone(), &trace, &workload)
            .run_pipelined::<Vec<u8>>(&mut policy, None, &ParallelOptions::default())
            .expect("pipeline io");
        assert!(bytes.is_none());
        assert_eq!(outcome.chunks_written, 0);
        assert!(outcome.events > 0);
    }
}
