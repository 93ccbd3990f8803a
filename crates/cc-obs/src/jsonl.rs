//! JSONL exporter: one compact JSON object per event, one per line.
//!
//! The format is the table in `schema.rs`: a stable key order per event
//! type, so the byte stream is a deterministic function of the event
//! stream — the golden-determinism test digests it directly. The encoder
//! the table generates appends each line straight into a caller's byte
//! buffer from static keys and hand-formatted integers, so encoding
//! allocates nothing per event.

use std::io::{self, Write};

use crate::event::EventSink;
use crate::schema::Event;

/// Appends one event's canonical JSONL line, newline included.
///
/// This is the single source of truth for the JSONL encoding: [`JsonlSink`]
/// writes exactly these bytes, and the intra-run pipeline's encoder workers
/// append window batches with it, so a pipelined stream is byte-identical
/// to what a serial [`JsonlSink`] would have produced. Every event opens
/// with its type tag and timestamp; the remaining keys follow in the
/// schema's order for its type. Nothing is allocated beyond `out`'s own
/// growth.
pub fn write_event_line(out: &mut Vec<u8>, event: &Event) {
    event.write_line(out);
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
