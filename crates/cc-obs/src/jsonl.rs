//! JSONL exporter: one compact JSON object per event, one per line.
//!
//! The format is hand-written (the workspace's vendored `serde_json` has no
//! derive), with a stable key order per event type, so the byte stream is a
//! deterministic function of the event stream — the golden-determinism test
//! digests it directly. [`write_event_line`] appends each line straight into
//! a caller's byte buffer: keys, tags and labels are static byte strings and
//! integers are formatted by hand, so encoding allocates nothing per event.

use std::io::{self, Write};

use cc_types::{Arch, StartKind, WarmId};

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

/// Appends `value` in decimal.
fn push_u64(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends an `f64` as a JSON value: its `Display` form, with negative
/// zero normalized to `0` for digest stability across platforms and
/// `null` for non-finite inputs, which JSON cannot represent.
fn push_f64(out: &mut Vec<u8>, value: f64) {
    if !value.is_finite() {
        out.extend_from_slice(b"null");
    } else if value == 0.0 {
        out.push(b'0');
    } else {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{value}");
    }
}

/// Formats an `f64` as a JSON value (`null` for non-finite inputs).
pub(crate) fn json_f64(value: f64) -> String {
    let mut out = Vec::new();
    push_f64(&mut out, value);
    String::from_utf8(out).expect("a formatted f64 is ASCII")
}

/// Appends `,"key":value` for an integer field (`key` carries the comma
/// and quotes).
fn int_field(out: &mut Vec<u8>, key: &[u8], value: u64) {
    out.extend_from_slice(key);
    push_u64(out, value);
}

/// Appends `,"key":value` for a float field.
fn float_field(out: &mut Vec<u8>, key: &[u8], value: f64) {
    out.extend_from_slice(key);
    push_f64(out, value);
}

/// Appends `,"key":"label"` for a string field.
fn label_field(out: &mut Vec<u8>, key: &[u8], label: &str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend_from_slice(label.as_bytes());
    out.push(b'"');
}

/// Appends `,"key":true|false`.
fn bool_field(out: &mut Vec<u8>, key: &[u8], value: bool) {
    out.extend_from_slice(key);
    out.extend_from_slice(if value { b"true" } else { b"false" });
}

/// Appends `,"id":[slot,generation]`.
fn id_field(out: &mut Vec<u8>, id: WarmId) {
    int_field(out, b",\"id\":[", id.slot() as u64);
    int_field(out, b",", u64::from(id.generation()));
    out.push(b']');
}

/// Appends one event's canonical JSONL line, newline included.
///
/// This is the single source of truth for the JSONL encoding: [`JsonlSink`]
/// writes exactly these bytes, and the intra-run pipeline's encoder workers
/// append window batches with it, so a pipelined stream is byte-identical
/// to what a serial [`JsonlSink`] would have produced. Every event opens
/// with its type tag and timestamp; the remaining keys follow in a fixed
/// order per type. Nothing is allocated beyond `out`'s own growth.
pub fn write_event_line(out: &mut Vec<u8>, event: &Event) {
    out.extend_from_slice(b"{\"t\":\"");
    out.extend_from_slice(event.tag().as_bytes());
    int_field(out, b"\",\"at\":", event.at().as_micros());
    match *event {
        Event::Arrival { function, .. } => {
            int_field(out, b",\"fn\":", function.index() as u64);
        }
        Event::Queued {
            function, depth, ..
        } => {
            int_field(out, b",\"fn\":", function.index() as u64);
            int_field(out, b",\"depth\":", depth);
        }
        Event::ExecutionStarted {
            function,
            node,
            arch,
            kind,
            wait,
            start_penalty,
            execution,
            ..
        } => {
            int_field(out, b",\"fn\":", function.index() as u64);
            int_field(out, b",\"node\":", node.index() as u64);
            label_field(out, b",\"arch\":", arch_label(arch));
            label_field(out, b",\"kind\":", kind_label(kind));
            int_field(out, b",\"wait_us\":", wait.as_micros());
            int_field(out, b",\"penalty_us\":", start_penalty.as_micros());
            int_field(out, b",\"exec_us\":", execution.as_micros());
        }
        Event::InstanceAdmitted {
            id,
            function,
            node,
            arch,
            compressed,
            memory,
            expiry,
            reserved,
            ..
        } => {
            id_field(out, id);
            int_field(out, b",\"fn\":", function.index() as u64);
            int_field(out, b",\"node\":", node.index() as u64);
            label_field(out, b",\"arch\":", arch_label(arch));
            bool_field(out, b",\"compressed\":", compressed);
            int_field(out, b",\"mem_mb\":", u64::from(memory.as_mb()));
            int_field(out, b",\"expiry\":", expiry.as_micros());
            int_field(out, b",\"reserved_pd\":", reserved.as_picodollars());
        }
        Event::InstanceReleased {
            id,
            function,
            node,
            memory,
            compressed,
            since,
            reason,
            ..
        } => {
            id_field(out, id);
            int_field(out, b",\"fn\":", function.index() as u64);
            int_field(out, b",\"node\":", node.index() as u64);
            int_field(out, b",\"mem_mb\":", u64::from(memory.as_mb()));
            bool_field(out, b",\"compressed\":", compressed);
            int_field(out, b",\"since\":", since.as_micros());
            label_field(out, b",\"reason\":", reason.label());
        }
        Event::CompressionStarted {
            id,
            function,
            node,
            ready_at,
            ..
        } => {
            id_field(out, id);
            int_field(out, b",\"fn\":", function.index() as u64);
            int_field(out, b",\"node\":", node.index() as u64);
            int_field(out, b",\"ready_at\":", ready_at.as_micros());
        }
        Event::CompressionFinished {
            id, function, node, ..
        } => {
            id_field(out, id);
            int_field(out, b",\"fn\":", function.index() as u64);
            int_field(out, b",\"node\":", node.index() as u64);
        }
        Event::BudgetDebit {
            requested, granted, ..
        } => {
            int_field(out, b",\"requested_pd\":", requested.as_picodollars());
            int_field(out, b",\"granted_pd\":", granted.as_picodollars());
        }
        Event::BudgetCredit { amount, .. } => {
            int_field(out, b",\"amount_pd\":", amount.as_picodollars());
        }
        Event::PrewarmDropped { function, arch, .. } => {
            int_field(out, b",\"fn\":", function.index() as u64);
            label_field(out, b",\"arch\":", arch_label(arch));
        }
        Event::OptimizerRound { ref round, .. } => {
            int_field(out, b",\"round\":", u64::from(round.round));
            int_field(out, b",\"subproblems\":", u64::from(round.subproblems));
            int_field(out, b",\"dims\":", u64::from(round.dimensions));
            float_field(out, b",\"objective\":", round.objective);
            int_field(out, b",\"accepted\":", round.accepted_moves);
            int_field(out, b",\"evals\":", round.evaluations);
        }
        Event::IntervalSampled { sample, .. } => {
            int_field(out, b",\"index\":", sample.index);
            float_field(out, b",\"spend_delta\":", sample.spend_delta_dollars);
            int_field(out, b",\"warm_pool\":", sample.warm_pool);
            int_field(out, b",\"compressed\":", sample.compressed);
            float_field(out, b",\"utilization\":", sample.utilization);
            int_field(
                out,
                b",\"compress_delta\":",
                sample.compression_events_delta,
            );
            int_field(out, b",\"pending\":", sample.pending);
        }
    }
    out.extend_from_slice(b"}\n");
}

/// One event's canonical JSONL line without the trailing newline (see
/// [`write_event_line`]).
pub fn event_line(event: &Event) -> String {
    let mut out = Vec::with_capacity(128);
    write_event_line(&mut out, event);
    out.pop();
    String::from_utf8(out).expect("JSONL lines are ASCII")
}

/// Streams events as JSON Lines to any [`Write`].
///
/// IO errors are latched: the first failure is stored, subsequent events are
/// dropped, and [`JsonlSink::finish`] surfaces the error. This keeps
/// [`EventSink::record`] infallible, which the engine requires.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    /// The line being written, reused across events.
    line: Vec<u8>,
    events: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Buffer it (`BufWriter`) for file targets — the sink
    /// issues one `write_all` per event.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            line: Vec::new(),
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
        self.line.clear();
        self.line.extend_from_slice(line.as_bytes());
        self.line.push(b'\n');
        self.flush_line();
    }

    /// Writes the buffered line unless an error is already latched.
    /// Returns whether it was written.
    fn flush_line(&mut self) -> bool {
        if self.error.is_some() {
            return false;
        }
        match self.out.write_all(&self.line) {
            Ok(()) => true,
            Err(e) => {
                self.error = Some(e);
                false
            }
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
        self.line.clear();
        write_event_line(&mut self.line, event);
        if self.flush_line() {
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
