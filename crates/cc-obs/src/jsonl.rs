//! JSONL exporter: one compact JSON object per event, one per line.
//!
//! The format is hand-written (the workspace's vendored `serde_json` has no
//! derive), with a stable key order per event type, so the byte stream is a
//! deterministic function of the event stream — the golden-determinism test
//! digests it directly.

use std::io::{self, Write};

use cc_types::{Arch, StartKind};

use crate::event::{Event, EventSink};

fn arch_label(arch: Arch) -> &'static str {
    match arch {
        Arch::X86 => "x86",
        Arch::Arm => "arm",
    }
}

fn kind_label(kind: StartKind) -> &'static str {
    match kind {
        StartKind::Cold => "cold",
        StartKind::WarmUncompressed => "warm",
        StartKind::WarmCompressed => "warm_compressed",
    }
}

/// Formats an `f64` as a JSON value (`null` for non-finite inputs, which
/// JSON cannot represent).
pub(crate) fn json_f64(value: f64) -> String {
    if value.is_finite() {
        let mut s = format!("{value}");
        // `Display` omits the fraction for integral floats; keep the token
        // unambiguously a number either way (it already is) but normalize
        // negative zero for digest stability across platforms.
        if s == "-0" {
            s = "0".to_string();
        }
        s
    } else {
        "null".to_string()
    }
}

/// Formats one event as its canonical JSONL line (no trailing newline).
///
/// This is the single source of truth for the JSONL encoding: [`JsonlSink`]
/// writes exactly these bytes, and the intra-run pipeline's encoder workers
/// use it to format window batches, so a pipelined stream is byte-identical
/// to what a serial [`JsonlSink`] would have produced.
pub fn event_line(event: &Event) -> String {
    let tag = event.tag();
    match *event {
        Event::Arrival { at, function } => format!(
            "{{\"t\":\"{tag}\",\"at\":{},\"fn\":{}}}",
            at.as_micros(),
            function.index()
        ),
        Event::Queued {
            at,
            function,
            depth,
        } => format!(
            "{{\"t\":\"{tag}\",\"at\":{},\"fn\":{},\"depth\":{depth}}}",
            at.as_micros(),
            function.index()
        ),
        Event::ExecutionStarted {
            at,
            function,
            node,
            arch,
            kind,
            wait,
            start_penalty,
            execution,
        } => format!(
            concat!(
                "{{\"t\":\"{}\",\"at\":{},\"fn\":{},\"node\":{},\"arch\":\"{}\",",
                "\"kind\":\"{}\",\"wait_us\":{},\"penalty_us\":{},\"exec_us\":{}}}"
            ),
            tag,
            at.as_micros(),
            function.index(),
            node.index(),
            arch_label(arch),
            kind_label(kind),
            wait.as_micros(),
            start_penalty.as_micros(),
            execution.as_micros()
        ),
        Event::InstanceAdmitted {
            at,
            id,
            function,
            node,
            arch,
            compressed,
            memory,
            expiry,
            reserved,
        } => format!(
            concat!(
                "{{\"t\":\"{}\",\"at\":{},\"id\":[{},{}],\"fn\":{},\"node\":{},",
                "\"arch\":\"{}\",\"compressed\":{},\"mem_mb\":{},\"expiry\":{},",
                "\"reserved_pd\":{}}}"
            ),
            tag,
            at.as_micros(),
            id.slot(),
            id.generation(),
            function.index(),
            node.index(),
            arch_label(arch),
            compressed,
            memory.as_mb(),
            expiry.as_micros(),
            reserved.as_picodollars()
        ),
        Event::InstanceReleased {
            at,
            id,
            function,
            node,
            memory,
            compressed,
            since,
            reason,
        } => format!(
            concat!(
                "{{\"t\":\"{}\",\"at\":{},\"id\":[{},{}],\"fn\":{},\"node\":{},",
                "\"mem_mb\":{},\"compressed\":{},\"since\":{},\"reason\":\"{}\"}}"
            ),
            tag,
            at.as_micros(),
            id.slot(),
            id.generation(),
            function.index(),
            node.index(),
            memory.as_mb(),
            compressed,
            since.as_micros(),
            reason.label()
        ),
        Event::CompressionStarted {
            at,
            id,
            function,
            node,
            ready_at,
        } => format!(
            concat!(
                "{{\"t\":\"{}\",\"at\":{},\"id\":[{},{}],\"fn\":{},\"node\":{},",
                "\"ready_at\":{}}}"
            ),
            tag,
            at.as_micros(),
            id.slot(),
            id.generation(),
            function.index(),
            node.index(),
            ready_at.as_micros()
        ),
        Event::CompressionFinished {
            at,
            id,
            function,
            node,
        } => format!(
            "{{\"t\":\"{tag}\",\"at\":{},\"id\":[{},{}],\"fn\":{},\"node\":{}}}",
            at.as_micros(),
            id.slot(),
            id.generation(),
            function.index(),
            node.index()
        ),
        Event::BudgetDebit {
            at,
            requested,
            granted,
        } => format!(
            "{{\"t\":\"{tag}\",\"at\":{},\"requested_pd\":{},\"granted_pd\":{}}}",
            at.as_micros(),
            requested.as_picodollars(),
            granted.as_picodollars()
        ),
        Event::BudgetCredit { at, amount } => format!(
            "{{\"t\":\"{tag}\",\"at\":{},\"amount_pd\":{}}}",
            at.as_micros(),
            amount.as_picodollars()
        ),
        Event::PrewarmDropped { at, function, arch } => format!(
            "{{\"t\":\"{tag}\",\"at\":{},\"fn\":{},\"arch\":\"{}\"}}",
            at.as_micros(),
            function.index(),
            arch_label(arch)
        ),
        Event::OptimizerRound { at, ref round } => format!(
            concat!(
                "{{\"t\":\"{}\",\"at\":{},\"round\":{},\"subproblems\":{},",
                "\"dims\":{},\"objective\":{},\"accepted\":{},\"evals\":{}}}"
            ),
            tag,
            at.as_micros(),
            round.round,
            round.subproblems,
            round.dimensions,
            json_f64(round.objective),
            round.accepted_moves,
            round.evaluations
        ),
        Event::IntervalSampled { at, sample } => format!(
            concat!(
                "{{\"t\":\"{}\",\"at\":{},\"index\":{},\"spend_delta\":{},",
                "\"warm_pool\":{},\"compressed\":{},\"utilization\":{},",
                "\"compress_delta\":{},\"pending\":{}}}"
            ),
            tag,
            at.as_micros(),
            sample.index,
            json_f64(sample.spend_delta_dollars),
            sample.warm_pool,
            sample.compressed,
            json_f64(sample.utilization),
            sample.compression_events_delta,
            sample.pending
        ),
    }
}

/// Streams events as JSON Lines to any [`Write`].
///
/// IO errors are latched: the first failure is stored, subsequent events are
/// dropped, and [`JsonlSink::finish`] surfaces the error. This keeps
/// [`EventSink::record`] infallible, which the engine requires.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    events: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Buffer it (`BufWriter`) for file targets — the sink
    /// issues one `write_all` per event.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            events: 0,
            error: None,
        }
    }

    /// Events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Appends one pre-formatted line (e.g. a
    /// [`Telemetry::snapshot_line`](crate::Telemetry::snapshot_line)) to the
    /// stream. The newline is added here.
    pub fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let result = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"));
        if let Err(e) = result {
            self.error = Some(e);
        }
    }

    /// Flushes and returns the writer, or the first latched IO error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.write_line(&event_line(event));
        if self.error.is_none() {
            self.events += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{FunctionId, SimTime};

    #[test]
    fn lines_are_compact_json_objects() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&Event::Arrival {
            at: SimTime::from_micros(1_000_000),
            function: FunctionId::new(42),
        });
        sink.write_line("{\"type\":\"snapshot\"}");
        assert_eq!(sink.events_written(), 1);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "{\"t\":\"arrival\",\"at\":1000000,\"fn\":42}\n{\"type\":\"snapshot\"}\n"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(-0.0), "0");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn io_errors_latch() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.record(&Event::Arrival {
            at: SimTime::ZERO,
            function: FunctionId::new(0),
        });
        sink.record(&Event::Arrival {
            at: SimTime::ZERO,
            function: FunctionId::new(1),
        });
        assert_eq!(sink.events_written(), 0);
        assert!(sink.finish().is_err());
    }
}
