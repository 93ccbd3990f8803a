//! The worker pool: shard dispatch, panic isolation, sink lifecycle.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Mutex;
use std::thread;

use cc_obs::{EventSink, JsonlSink, NullSink, ShardMarker};

use crate::mux::mux_chunks;

/// Per-shard sink counters collected after the job finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkStats {
    /// Events the shard's sink wrote.
    pub sent: u64,
}

/// Builds one sink per shard and tears it down when the shard finishes.
///
/// The factory is shared by all workers (`Sync`); `finish` runs even when
/// the job panicked, so a shard's block is always closed and handed on,
/// carrying the events it recorded before the panic.
pub trait SinkFactory: Sync {
    /// The sink type handed to each job.
    type Sink: EventSink + Send;

    /// Creates the sink for shard `shard`.
    fn make(&self, shard: u32) -> Self::Sink;

    /// Consumes the shard's sink after the job returns (or panics) and
    /// reports its counters.
    fn finish(&self, shard: u32, sink: Self::Sink) -> SinkStats;
}

/// The zero-cost factory: every shard traces into [`NullSink`], so the
/// engine's emission sites compile away exactly as in a serial run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSinkFactory;

impl SinkFactory for NullSinkFactory {
    type Sink = NullSink;

    fn make(&self, _shard: u32) -> NullSink {
        NullSink
    }

    fn finish(&self, _shard: u32, _sink: NullSink) -> SinkStats {
        SinkStats::default()
    }
}

/// Encodes each shard into its own in-memory JSONL block and sends the
/// finished block, indexed by shard id, to the [`mux_chunks`] writer.
struct JsonlBlockFactory {
    tx: SyncSender<(u64, Vec<u8>)>,
    /// Bracket each block with [`ShardMarker`] lines.
    tagged: bool,
}

impl SinkFactory for JsonlBlockFactory {
    type Sink = JsonlSink<Vec<u8>>;

    fn make(&self, shard: u32) -> Self::Sink {
        let mut block = Vec::new();
        if self.tagged {
            ShardMarker::Begin { shard }.write_line(&mut block);
        }
        JsonlSink::new(block)
    }

    fn finish(&self, shard: u32, sink: Self::Sink) -> SinkStats {
        let events = sink.events_written();
        let mut block = sink.finish().expect("writing to memory cannot fail");
        if self.tagged {
            ShardMarker::End {
                shard,
                events,
                dropped: 0,
            }
            .write_line(&mut block);
        }
        // A send only fails once the writer has gone (an IO error), which
        // `run_sharded_jsonl` reports.
        let _ = self.tx.send((u64::from(shard), block));
        SinkStats { sent: events }
    }
}

/// The outcome of one shard.
#[derive(Debug)]
pub struct ShardResult<T> {
    /// The shard id (the job's index in the submitted list).
    pub shard: u32,
    /// The job's return value, or the captured panic message.
    pub outcome: Result<T, String>,
    /// Sink counters for the shard.
    pub sink: SinkStats,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `jobs` across `workers` threads, returning one [`ShardResult`] per
/// job, **ordered by shard id** (job index), never by completion order.
///
/// Workers pull shards from a shared atomic counter, so load balances
/// dynamically; each shard runs under `catch_unwind`, and its sink is
/// finished (closing a JSONL block with its end-of-shard marker) whether
/// the job returned or panicked. `workers` is clamped to `1..=jobs.len()`.
pub fn run_sharded<T, J, F>(jobs: Vec<J>, workers: usize, factory: &F) -> Vec<ShardResult<T>>
where
    T: Send,
    J: FnOnce(&mut F::Sink) -> T + Send,
    F: SinkFactory,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<ShardResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.clamp(1, n);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Jobs are opaque closures, so the profiler cannot flow in
                // as a type parameter; the dynamic probe costs one relaxed
                // atomic load per shard when profiling is off.
                cc_prof::dyn_thread_label("shard_worker");
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let _span = cc_prof::DynScope::new(cc_prof::Phase::ShardWorker);
                    let job = slots[index]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("shard dispatched twice");
                    let shard = index as u32;
                    let mut sink = factory.make(shard);
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| job(&mut sink))).map_err(panic_message);
                    let sink = factory.finish(shard, sink);
                    *results[index].lock().unwrap() = Some(ShardResult {
                        shard,
                        outcome,
                        sink,
                    });
                }
                // `thread::scope` can resume the parent before this
                // thread's TLS destructors run; merge eagerly so a profile
                // taken right after run_sharded() sees every worker.
                if cc_prof::wall_enabled() {
                    cc_prof::flush_thread();
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every shard produces a result")
        })
        .collect()
}

/// What the writer saw, returned by [`run_sharded_jsonl`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MuxReport {
    /// Event lines written across all shards (markers excluded).
    pub events_written: u64,
}

/// Runs `jobs` across `workers` threads while [`mux_chunks`] writes their
/// event streams to `out` as one shard-ordered JSONL stream.
///
/// Each shard encodes its events on its own worker into a
/// [`JsonlSink<Vec<u8>>`](JsonlSink); when the shard finishes (or panics),
/// its whole block goes to the writer thread, which writes blocks in
/// shard-id order whatever order they complete in. The output is
/// therefore a deterministic function of the per-shard event streams.
///
/// With more than one job each block is bracketed by marker lines —
/// [`ShardMarker::Begin`] and [`ShardMarker::End`] with the block's event
/// count and no dropped events — so the merged file is self-describing. With one job no markers are written and the
/// bytes are identical to a serial [`JsonlSink`] consuming the same event
/// stream.
///
/// Returns the shard results (ordered by shard id), the writer, and the
/// writer's accounting.
pub fn run_sharded_jsonl<T, J, W>(
    jobs: Vec<J>,
    workers: usize,
    out: W,
) -> io::Result<(Vec<ShardResult<T>>, W, MuxReport)>
where
    T: Send,
    J: FnOnce(&mut JsonlSink<Vec<u8>>) -> T + Send,
    W: Write + Send,
{
    // Room for one finished block per worker, so a worker never waits on
    // the writer unless every other worker's block is also queued.
    let (tx, rx) = sync_channel(workers.max(1));
    let factory = JsonlBlockFactory {
        tx,
        tagged: jobs.len() > 1,
    };

    let mut written = None;
    let results = thread::scope(|scope| {
        let writer = scope.spawn(move || mux_chunks(rx, out));
        let results = run_sharded(jobs, workers, &factory);
        // Drop the factory's sender so the writer sees end-of-stream.
        drop(factory);
        written = Some(writer.join().expect("writer thread panicked"));
        results
    });
    let (out, _) = written.expect("writer joined before scope exit")?;
    let report = MuxReport {
        events_written: results.iter().map(|r| r.sink.sent).sum(),
    };
    Ok((results, out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_obs::Event;
    use cc_types::{FunctionId, SimTime};

    fn arrival(us: u64) -> Event {
        Event::Arrival {
            at: SimTime::from_micros(us),
            function: FunctionId::new(9),
        }
    }

    #[test]
    fn results_come_back_in_shard_order() {
        // Shards finish in reverse submission order (earlier shards sleep
        // longer); the result vector must still be shard-ordered.
        let jobs: Vec<_> = (0..8u64)
            .map(|i| {
                move |_sink: &mut NullSink| {
                    std::thread::sleep(std::time::Duration::from_millis(8 - i));
                    i * 10
                }
            })
            .collect();
        let results = run_sharded(jobs, 4, &NullSinkFactory);
        let values: Vec<u64> = results
            .iter()
            .map(|r| *r.outcome.as_ref().unwrap())
            .collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        let shards: Vec<u32> = results.iter().map(|r| r.shard).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn a_panicking_shard_does_not_poison_the_sweep() {
        type BoxedJob = Box<dyn FnOnce(&mut NullSink) -> u32 + Send>;
        let jobs: Vec<BoxedJob> = vec![
            Box::new(|_| 1),
            Box::new(|_| panic!("policy diverged on shard 1")),
            Box::new(|_| 3),
        ];
        let results = run_sharded(jobs, 2, &NullSinkFactory);
        assert_eq!(results[0].outcome.as_ref().unwrap(), &1);
        assert_eq!(results[2].outcome.as_ref().unwrap(), &3);
        let err = results[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("policy diverged"), "got {err:?}");
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let jobs: Vec<fn(&mut NullSink) -> ()> = Vec::new();
        assert!(run_sharded(jobs, 4, &NullSinkFactory).is_empty());
    }

    #[test]
    fn jsonl_shards_report_their_own_event_counts() {
        let jobs: Vec<_> = (0..3u64)
            .map(|shard| {
                move |sink: &mut JsonlSink<Vec<u8>>| {
                    for i in 0..=shard * 4 {
                        sink.record(&arrival(i));
                    }
                }
            })
            .collect();
        let (results, bytes, report) = run_sharded_jsonl(jobs, 3, Vec::new()).unwrap();
        let sent: Vec<u64> = results.iter().map(|r| r.sink.sent).collect();
        assert_eq!(sent, vec![1, 5, 9]);
        assert_eq!(report.events_written, 15);
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text.lines().filter(|l| l.contains("\"arrival\"")).count(),
            15
        );
        for (shard, events) in sent.iter().enumerate() {
            let end = format!(
                "{{\"t\":\"shard_end\",\"shard\":{shard},\"events\":{events},\"dropped\":0}}"
            );
            assert!(text.contains(&end), "missing {end}");
        }
    }
}
