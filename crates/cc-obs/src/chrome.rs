//! Chrome `trace_event` exporter (loadable in Perfetto / `chrome://tracing`).
//!
//! Renders the run as two processes:
//!
//! * **pid 1 "execution"** — one thread per node; each execution is a
//!   complete (`ph:"X"`) slice from start to completion, named by function
//!   and start kind.
//! * **pid 2 "warm pool"** — one thread per node; each warm instance's
//!   residency is a slice from admission to release, named by function
//!   (with a `z:` prefix when stored compressed).
//!
//! Per-interval counter (`ph:"C"`) tracks chart the global pool size,
//! pending queue, utilization, and budget spend. Timestamps are
//! microseconds, which is exactly [`cc_types::SimTime`]'s unit.

use std::collections::HashSet;
use std::io::{self, Write};

use cc_types::NodeId;

use crate::event::EventSink;
use crate::schema::Event;
use crate::wire::json_f64;

const EXEC_PID: u32 = 1;
const POOL_PID: u32 = 2;
const COUNTER_PID: u32 = 3;

/// Streams Chrome `trace_event` JSON to any [`Write`].
///
/// Call [`ChromeTraceSink::finish`] to close the JSON array (Perfetto also
/// accepts a truncated file, so an abandoned sink still yields a loadable
/// trace). IO errors are latched like [`JsonlSink`](crate::JsonlSink)'s.
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write> {
    out: W,
    any: bool,
    named_procs: HashSet<u32>,
    named_threads: HashSet<(u32, u32)>,
    error: Option<io::Error>,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps a writer (buffer it for file targets).
    pub fn new(out: W) -> ChromeTraceSink<W> {
        ChromeTraceSink {
            out,
            any: false,
            named_procs: HashSet::new(),
            named_threads: HashSet::new(),
            error: None,
        }
    }

    fn emit(&mut self, record: &str) {
        if self.error.is_some() {
            return;
        }
        let lead: &[u8] = if self.any { b",\n" } else { b"[\n" };
        let result = self
            .out
            .write_all(lead)
            .and_then(|()| self.out.write_all(record.as_bytes()));
        match result {
            Ok(()) => self.any = true,
            Err(e) => self.error = Some(e),
        }
    }

    fn name_process(&mut self, pid: u32, process: &str) {
        if !self.named_procs.insert(pid) {
            return;
        }
        self.emit(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{process}\"}}}}"
        ));
    }

    fn node_thread(&mut self, pid: u32, process: &str, node: NodeId) -> u32 {
        self.name_process(pid, process);
        let tid = node.index() as u32 + 1;
        if self.named_threads.insert((pid, tid)) {
            self.emit(&format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"node {}\"}}}}",
                node.index()
            ));
        }
        tid
    }

    fn counter(&mut self, ts_us: u64, name: &str, args: &str) {
        self.name_process(COUNTER_PID, "cluster");
        self.emit(&format!(
            "{{\"ph\":\"C\",\"pid\":{COUNTER_PID},\"ts\":{ts_us},\
             \"name\":\"{name}\",\"args\":{{{args}}}}}"
        ));
    }

    /// Closes the JSON array, flushes, and returns the writer (or the first
    /// latched IO error).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.any {
            self.out.write_all(b"\n]\n")?;
        } else {
            self.out.write_all(b"[]\n")?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> EventSink for ChromeTraceSink<W> {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::ExecutionStarted {
                at,
                function,
                node,
                arch,
                kind,
                wait,
                start_penalty,
                execution,
            } => {
                let tid = self.node_thread(EXEC_PID, "execution", node);
                let dur = (start_penalty + execution).as_micros();
                self.emit(&format!(
                    "{{\"ph\":\"X\",\"pid\":{EXEC_PID},\"tid\":{tid},\"ts\":{},\
                     \"dur\":{dur},\"name\":\"f{} {kind}\",\"cat\":\"exec\",\
                     \"args\":{{\"arch\":\"{arch}\",\"wait_us\":{},\"penalty_us\":{}}}}}",
                    at.as_micros(),
                    function.index(),
                    wait.as_micros(),
                    start_penalty.as_micros(),
                ));
            }
            Event::InstanceReleased {
                at,
                function,
                node,
                memory,
                compressed,
                since,
                reason,
                ..
            } => {
                let tid = self.node_thread(POOL_PID, "warm pool", node);
                let prefix = if compressed { "z:" } else { "" };
                self.emit(&format!(
                    "{{\"ph\":\"X\",\"pid\":{POOL_PID},\"tid\":{tid},\"ts\":{},\
                     \"dur\":{},\"name\":\"{prefix}f{}\",\"cat\":\"warm\",\
                     \"args\":{{\"mem_mb\":{},\"reason\":\"{}\"}}}}",
                    since.as_micros(),
                    at.saturating_since(since).as_micros(),
                    function.index(),
                    memory.as_mb(),
                    reason.label(),
                ));
            }
            Event::IntervalSampled { at, sample } => {
                let ts = at.as_micros();
                self.counter(
                    ts,
                    "warm pool",
                    &format!(
                        "\"instances\":{},\"compressed\":{}",
                        sample.warm_pool, sample.compressed
                    ),
                );
                self.counter(ts, "pending", &format!("\"queued\":{}", sample.pending));
                self.counter(
                    ts,
                    "utilization",
                    &format!("\"busy_fraction\":{}", json_f64(sample.utilization)),
                );
                self.counter(
                    ts,
                    "budget",
                    &format!(
                        "\"spend_delta_dollars\":{}",
                        json_f64(sample.spend_delta_dollars)
                    ),
                );
            }
            Event::OptimizerRound { at, ref round } => {
                self.counter(
                    at.as_micros(),
                    "optimizer objective",
                    &format!("\"objective\":{}", json_f64(round.objective)),
                );
            }
            // Point events would only add noise to the track view; the JSONL
            // exporter carries the full stream.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ReleaseReason;
    use cc_types::{Arch, FunctionId, MemoryMb, SimDuration, SimTime, StartKind, WarmId};

    #[test]
    fn empty_trace_is_valid_json() {
        let sink = ChromeTraceSink::new(Vec::new());
        let bytes = sink.finish().unwrap();
        assert_eq!(bytes, b"[]\n");
    }

    #[test]
    fn slices_and_metadata_form_an_array() {
        let mut sink = ChromeTraceSink::new(Vec::new());
        sink.record(&Event::ExecutionStarted {
            at: SimTime::from_micros(10),
            function: FunctionId::new(3),
            node: cc_types::NodeId::new(0),
            arch: Arch::X86,
            kind: StartKind::Cold,
            wait: SimDuration::ZERO,
            start_penalty: SimDuration::from_millis(200),
            execution: SimDuration::from_secs(1),
        });
        sink.record(&Event::InstanceReleased {
            at: SimTime::from_micros(5_000_000),
            id: WarmId::new(0, 0),
            function: FunctionId::new(3),
            node: cc_types::NodeId::new(0),
            memory: MemoryMb::new(128),
            compressed: true,
            since: SimTime::from_micros(1_200_010),
            reason: ReleaseReason::Expired,
        });
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.starts_with("[\n"), "{text}");
        assert!(text.ends_with("\n]\n"), "{text}");
        // Execution slice with the combined penalty+execution duration.
        assert!(text.contains("\"dur\":1200000"), "{text}");
        // Warm residency slice named with the compressed prefix.
        assert!(text.contains("\"name\":\"z:f3\""), "{text}");
        // Thread metadata emitted once per node per process.
        assert_eq!(text.matches("thread_name").count(), 2, "{text}");
        assert_eq!(text.matches("process_name").count(), 2, "{text}");
    }

    #[test]
    fn interval_samples_become_counters() {
        let mut sink = ChromeTraceSink::new(Vec::new());
        sink.record(&Event::IntervalSampled {
            at: SimTime::from_micros(60_000_000),
            sample: crate::IntervalSample {
                index: 1,
                spend_delta_dollars: 0.125,
                warm_pool: 9,
                compressed: 4,
                utilization: 0.5,
                compression_events_delta: 2,
                pending: 1,
            },
        });
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.contains("\"ph\":\"C\""), "{text}");
        assert!(text.contains("\"instances\":9"), "{text}");
        assert!(text.contains("\"spend_delta_dollars\":0.125"), "{text}");
    }
}
