//! Self-profile JSON: a stable-key-order writer, and the workspace's JSON
//! reader.
//!
//! The writer emits keys in one fixed order with one phase/counter object
//! per line, so profiles diff cleanly under `git diff` and line tools.
//! The reader, [`parse`], is a small recursive-descent parser (the
//! workspace's vendored serde_json stand-in serializes but does not
//! parse); it accepts any standard JSON document. [`from_json`] maps a
//! profile's known keys out of it, ignoring unknown ones so older readers
//! accept newer profiles, and other tools read their own documents with it.
//!
//! Wall-trace spans are deliberately *not* part of this document — they go
//! to the Perfetto export — so baseline profiles stay small enough to
//! commit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::phase::{PerfCounter, Phase};
use crate::profile::{AllocSummary, PhaseRow, SelfProfile, ThreadInfo};

/// Schema version stamped into every document.
pub const SCHEMA_VERSION: u64 = 1;

/// Serializes a profile to the stable-key-order JSON document.
pub fn to_json(profile: &SelfProfile) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"cc_prof\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"label\": {},", quote(&profile.label));
    let _ = writeln!(out, "  \"wall_ns\": {},", profile.wall_ns);
    out.push_str("  \"phases\": [");
    for (i, row) in profile.phases.iter().enumerate() {
        let sep = if i + 1 < profile.phases.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"phase\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
             \"max_ns\": {}, \"alloc_count\": {}, \"alloc_bytes\": {}}}{sep}",
            quote(row.phase.label()),
            row.count,
            row.total_ns,
            row.self_ns,
            row.max_ns,
            row.alloc_count,
            row.alloc_bytes,
        );
    }
    out.push_str(if profile.phases.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"counters\": [");
    for (i, &(counter, value)) in profile.counters.iter().enumerate() {
        let sep = if i + 1 < profile.counters.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"counter\": {}, \"value\": {value}}}{sep}",
            quote(counter.label()),
        );
    }
    out.push_str(if profile.counters.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = writeln!(
        out,
        "  \"alloc\": {{\"installed\": {}, \"total_count\": {}, \"total_bytes\": {}, \
         \"unattributed_count\": {}, \"unattributed_bytes\": {}, \"peak_live_bytes\": {}}},",
        profile.alloc.installed,
        profile.alloc.total_count,
        profile.alloc.total_bytes,
        profile.alloc.unattributed_count,
        profile.alloc.unattributed_bytes,
        profile.alloc.peak_live_bytes,
    );
    out.push_str("  \"threads\": [");
    for (i, thread) in profile.threads.iter().enumerate() {
        let sep = if i + 1 < profile.threads.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"tid\": {}, \"label\": {}}}{sep}",
            thread.tid,
            quote(&thread.label),
        );
    }
    out.push_str(if profile.threads.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = writeln!(
        out,
        "  \"trace_events_dropped\": {},",
        profile.trace_events_dropped
    );
    let _ = writeln!(out, "  \"unbalanced_exits\": {}", profile.unbalanced_exits);
    out.push_str("}\n");
    out
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value. Numbers are `f64`, as in JavaScript: an integer
/// above 2^53 loses precision, so documents carry such values as strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; a repeated key keeps its last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object (`None` for any other value).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// A non-negative number, truncated to an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's items.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed, nothing
/// else after it).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing content"));
    }
    Ok(root)
}

/// Parses a self-profile JSON document produced by [`to_json`].
pub fn from_json(text: &str) -> Result<SelfProfile, String> {
    let root = parse(text)?;
    let version = root
        .get("cc_prof")
        .and_then(Value::as_u64)
        .ok_or("missing cc_prof version key")?;
    if version > SCHEMA_VERSION {
        return Err(format!("unsupported cc_prof schema version {version}"));
    }
    let u64_field = |key: &str| root.get(key).and_then(Value::as_u64).unwrap_or(0);

    let mut phases = Vec::new();
    for item in root.get("phases").and_then(Value::as_arr).unwrap_or(&[]) {
        let label = item
            .get("phase")
            .and_then(Value::as_str)
            .ok_or("phase row missing label")?;
        // Unknown phases (from a newer writer) are skipped, not fatal.
        let Some(phase) = Phase::from_label(label) else {
            continue;
        };
        let field = |key: &str| item.get(key).and_then(Value::as_u64).unwrap_or(0);
        phases.push(PhaseRow {
            phase,
            count: field("count"),
            total_ns: field("total_ns"),
            self_ns: field("self_ns"),
            max_ns: field("max_ns"),
            alloc_count: field("alloc_count"),
            alloc_bytes: field("alloc_bytes"),
        });
    }
    let mut counters = Vec::new();
    for item in root.get("counters").and_then(Value::as_arr).unwrap_or(&[]) {
        let label = item
            .get("counter")
            .and_then(Value::as_str)
            .ok_or("counter row missing label")?;
        let Some(counter) = PerfCounter::from_label(label) else {
            continue;
        };
        counters.push((
            counter,
            item.get("value").and_then(Value::as_u64).unwrap_or(0),
        ));
    }
    let alloc = root.get("alloc").map_or_else(AllocSummary::default, |a| {
        let field = |key: &str| a.get(key).and_then(Value::as_u64).unwrap_or(0);
        AllocSummary {
            installed: a.get("installed").and_then(Value::as_bool).unwrap_or(false),
            total_count: field("total_count"),
            total_bytes: field("total_bytes"),
            unattributed_count: field("unattributed_count"),
            unattributed_bytes: field("unattributed_bytes"),
            peak_live_bytes: field("peak_live_bytes"),
        }
    });
    let mut threads = Vec::new();
    for item in root.get("threads").and_then(Value::as_arr).unwrap_or(&[]) {
        threads.push(ThreadInfo {
            tid: item.get("tid").and_then(Value::as_u64).unwrap_or(0) as u32,
            label: item
                .get("label")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        });
    }
    Ok(SelfProfile {
        label: root
            .get("label")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        wall_ns: u64_field("wall_ns"),
        phases,
        counters,
        alloc,
        threads,
        trace: Vec::new(),
        trace_events_dropped: u64_field("trace_events_dropped"),
        unbalanced_exits: u64_field("unbalanced_exits"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SelfProfile {
        SelfProfile {
            label: "ten-k \"stress\"".to_string(),
            wall_ns: 123_456_789,
            phases: vec![
                PhaseRow {
                    phase: Phase::EngineRun,
                    count: 1,
                    total_ns: 123_000_000,
                    self_ns: 23_000_000,
                    max_ns: 123_000_000,
                    alloc_count: 7,
                    alloc_bytes: 4096,
                },
                PhaseRow {
                    phase: Phase::Arrival,
                    count: 10_000,
                    total_ns: 60_000_000,
                    self_ns: 40_000_000,
                    max_ns: 90_000,
                    alloc_count: 0,
                    alloc_bytes: 0,
                },
            ],
            counters: vec![
                (PerfCounter::PoolInsert, 9000),
                (PerfCounter::CandidateProbes, 31_337),
            ],
            alloc: AllocSummary {
                installed: true,
                total_count: 1234,
                total_bytes: 1 << 20,
                unattributed_count: 3,
                unattributed_bytes: 96,
                peak_live_bytes: 2 << 20,
            },
            threads: vec![
                ThreadInfo {
                    tid: 1,
                    label: "main".to_string(),
                },
                ThreadInfo {
                    tid: 2,
                    label: "feeder".to_string(),
                },
            ],
            trace: Vec::new(),
            trace_events_dropped: 5,
            unbalanced_exits: 0,
        }
    }

    #[test]
    fn json_round_trips_and_is_byte_stable() {
        let profile = sample();
        let json = to_json(&profile);
        let parsed = from_json(&json).expect("parses");
        assert_eq!(parsed, profile);
        // Stable ordering: serializing the parse reproduces bytes exactly.
        assert_eq!(to_json(&parsed), json);
        // Canonical key order is fixed, not insertion-dependent.
        let label_at = json.find("\"label\"").unwrap();
        let wall_at = json.find("\"wall_ns\"").unwrap();
        let phases_at = json.find("\"phases\"").unwrap();
        assert!(label_at < wall_at && wall_at < phases_at);
    }

    #[test]
    fn empty_profile_round_trips() {
        let profile = SelfProfile::default();
        let parsed = from_json(&to_json(&profile)).expect("parses");
        assert_eq!(parsed, profile);
    }

    #[test]
    fn unknown_keys_and_labels_are_tolerated() {
        let json = r#"{
            "cc_prof": 1,
            "label": "fwd-compat",
            "wall_ns": 10,
            "future_key": {"nested": [1, 2, 3]},
            "phases": [
                {"phase": "arrival", "count": 1, "total_ns": 5, "self_ns": 5, "max_ns": 5,
                 "alloc_count": 0, "alloc_bytes": 0},
                {"phase": "not_a_phase_yet", "count": 9, "total_ns": 9, "self_ns": 9,
                 "max_ns": 9, "alloc_count": 0, "alloc_bytes": 0}
            ],
            "counters": [{"counter": "unknown_counter", "value": 1}]
        }"#;
        let parsed = from_json(json).expect("parses");
        assert_eq!(parsed.label, "fwd-compat");
        assert_eq!(parsed.phases.len(), 1, "unknown phase skipped");
        assert!(parsed.counters.is_empty(), "unknown counter skipped");
    }

    #[test]
    fn malformed_documents_error() {
        assert!(from_json("{").is_err());
        assert!(from_json("[]").is_err(), "missing version key");
        assert!(from_json("{\"cc_prof\": 99}").is_err(), "future schema");
        assert!(from_json("{\"cc_prof\": 1} trailing").is_err());
    }
}
