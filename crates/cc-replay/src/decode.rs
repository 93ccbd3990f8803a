//! The stream layer over cc-obs's strict line decoder.
//!
//! The JSONL format is one table in cc-obs (`schema.rs`), which generates
//! both the encoder and the strict line decoder,
//! [`decode_tagged`](cc_obs::decode_tagged): a line decodes iff it is
//! byte-for-byte in canonical form (modulo number spellings that parse to
//! the same value), so re-encoding a decoded event reproduces the original
//! line and any corruption (swapped keys, truncated tails, renamed fields)
//! surfaces as a typed [`DecodeError`] instead of a silently different
//! event. Decoding never panics.
//!
//! This module adds the two things the table does not describe:
//!
//! * [`decode_line`] — one line to one [`Line`]: a schema line (event or
//!   shard marker), or a telemetry snapshot.
//! * [`decode_stream`] — a whole file to a [`ReplayLog`], validating the
//!   shard-marker structure the mux writes (`shard_begin`/`shard_end`
//!   bracketing, strictly increasing shard ids, declared event counts).

use std::fmt;

pub use cc_obs::{DecodeError, DecodeErrorKind};
use cc_obs::{Event, ShardMarker, Tagged};

/// One decoded JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A simulator event.
    Event(Event),
    /// A `shard_begin`/`shard_end` marker (sharded streams only).
    Marker(ShardMarker),
    /// A `Telemetry::snapshot_line` appended after the event stream.
    Snapshot,
}

/// Decodes one JSONL line into a [`Line`], strictly against the canonical
/// encoding. Never panics; malformed input yields a typed [`DecodeError`].
pub fn decode_line(line: &str) -> Result<Line, DecodeError> {
    // Telemetry snapshots are the one non-event line family ccstat appends;
    // they are recognized (and re-derivable from the event stream) but not
    // decoded field-by-field.
    if line.starts_with("{\"type\":\"snapshot\"") {
        if !line.ends_with('}') {
            return Err(DecodeError {
                at: line.len(),
                kind: DecodeErrorKind::Truncated,
            });
        }
        return Ok(Line::Snapshot);
    }
    Ok(match cc_obs::decode_tagged(line)? {
        Tagged::Event(event) => Line::Event(event),
        Tagged::Marker(marker) => Line::Marker(marker),
    })
}

/// The mux's per-shard accounting from a `shard_end` marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEndInfo {
    /// Event lines the marker declared for the shard.
    pub events: u64,
    /// Events the shard dropped (lossy channel backpressure); a non-zero
    /// value marks the shard's stream as knowingly incomplete.
    pub dropped: u64,
}

/// One shard's slice of a decoded log.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStream {
    /// The shard id (0 for serial, untagged streams).
    pub shard: u32,
    /// The shard's events with their 1-based line numbers in the file.
    pub events: Vec<(u64, Event)>,
    /// The `shard_end` accounting; `None` in untagged streams.
    pub end: Option<ShardEndInfo>,
}

/// A fully decoded JSONL log.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayLog {
    /// Whether the stream carried shard markers (`--shards` with more than
    /// one job). Untagged streams decode as a single implicit shard 0.
    pub tagged: bool,
    /// Per-shard event streams, in shard-id order.
    pub shards: Vec<ShardStream>,
    /// Raw telemetry snapshot lines with their 1-based line numbers, in
    /// file order (ccstat appends one per shard after the event blocks).
    pub snapshots: Vec<(u64, String)>,
    /// Total lines read.
    pub lines: u64,
}

impl ReplayLog {
    /// Total decoded events across all shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events.len() as u64).sum()
    }
}

/// What went wrong assembling a stream of valid lines into a [`ReplayLog`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamErrorKind {
    /// A line failed to decode.
    Line(DecodeError),
    /// A `shard_begin` appeared where none was legal: inside an open
    /// shard block, in an untagged stream, or with a shard id out of
    /// sequence (blocks are strictly `0, 1, 2, …`).
    UnexpectedShardBegin {
        /// The marker's shard id.
        shard: u32,
    },
    /// A `shard_end` appeared with no matching open block — including the
    /// duplicated-marker case where a block is ended twice.
    UnexpectedShardEnd {
        /// The marker's shard id.
        shard: u32,
    },
    /// In a tagged stream, an event line appeared outside any
    /// `shard_begin`/`shard_end` block.
    EventOutsideShard,
    /// A `shard_end` declared a different event count than the block held.
    EventCountMismatch {
        /// The shard whose accounting disagrees.
        shard: u32,
        /// The count the marker declared.
        declared: u64,
        /// The events actually decoded in the block.
        counted: u64,
    },
    /// The stream ended inside an open shard block (the file was cut off
    /// before the mux's `shard_end`).
    UnterminatedShard {
        /// The shard left open.
        shard: u32,
    },
}

/// A typed, non-panicking stream decode failure, located by line.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamError {
    /// 1-based line number (one past the end for end-of-stream errors).
    pub line: u64,
    /// What went wrong.
    pub kind: StreamErrorKind,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            StreamErrorKind::Line(e) => write!(f, "{e}"),
            StreamErrorKind::UnexpectedShardBegin { shard } => {
                write!(f, "unexpected shard_begin for shard {shard}")
            }
            StreamErrorKind::UnexpectedShardEnd { shard } => {
                write!(f, "unexpected shard_end for shard {shard}")
            }
            StreamErrorKind::EventOutsideShard => {
                write!(f, "event outside any shard block in a tagged stream")
            }
            StreamErrorKind::EventCountMismatch {
                shard,
                declared,
                counted,
            } => write!(
                f,
                "shard {shard} declared {declared} events but the block held {counted}"
            ),
            StreamErrorKind::UnterminatedShard { shard } => {
                write!(f, "stream ended inside shard {shard}'s block")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Decodes a whole JSONL stream (the contents of a `--jsonl` export) into a
/// [`ReplayLog`], validating the shard-marker grammar.
///
/// Serial exports have no markers and decode as one implicit shard 0;
/// sharded exports must follow the mux's structure exactly: blocks
/// bracketed by `shard_begin`/`shard_end`, shard ids strictly increasing
/// from 0, declared event counts matching the block contents. Snapshot
/// lines are collected (not decoded) wherever they appear. Empty lines are
/// rejected as truncated; the trailing newline of the last line is
/// tolerated.
pub fn decode_stream(input: &str) -> Result<ReplayLog, StreamError> {
    let mut log = ReplayLog {
        tagged: false,
        shards: Vec::new(),
        snapshots: Vec::new(),
        lines: 0,
    };
    // Index into `log.shards` of the open block, if any.
    let mut open: Option<usize> = None;
    let mut saw_untagged_content = false;

    for (index, raw) in input.lines().enumerate() {
        let line_no = index as u64 + 1;
        log.lines = line_no;
        let fail = |kind| {
            Err(StreamError {
                line: line_no,
                kind,
            })
        };
        let line = match decode_line(raw) {
            Ok(line) => line,
            Err(e) => return fail(StreamErrorKind::Line(e)),
        };
        match line {
            Line::Snapshot => {
                log.snapshots.push((line_no, raw.to_string()));
                if !log.tagged {
                    saw_untagged_content = true;
                }
            }
            Line::Marker(ShardMarker::Begin { shard }) => {
                if saw_untagged_content || open.is_some() || shard != log.shards.len() as u32 {
                    return fail(StreamErrorKind::UnexpectedShardBegin { shard });
                }
                log.tagged = true;
                log.shards.push(ShardStream {
                    shard,
                    events: Vec::new(),
                    end: None,
                });
                open = Some(log.shards.len() - 1);
            }
            Line::Marker(ShardMarker::End {
                shard,
                events,
                dropped,
            }) => {
                let Some(current) = open else {
                    return fail(StreamErrorKind::UnexpectedShardEnd { shard });
                };
                if log.shards[current].shard != shard {
                    return fail(StreamErrorKind::UnexpectedShardEnd { shard });
                }
                let counted = log.shards[current].events.len() as u64;
                if counted != events {
                    return fail(StreamErrorKind::EventCountMismatch {
                        shard,
                        declared: events,
                        counted,
                    });
                }
                log.shards[current].end = Some(ShardEndInfo { events, dropped });
                open = None;
            }
            Line::Event(event) => {
                if log.tagged {
                    let Some(current) = open else {
                        return fail(StreamErrorKind::EventOutsideShard);
                    };
                    log.shards[current].events.push((line_no, event));
                } else {
                    if log.shards.is_empty() {
                        log.shards.push(ShardStream {
                            shard: 0,
                            events: Vec::new(),
                            end: None,
                        });
                    }
                    saw_untagged_content = true;
                    log.shards[0].events.push((line_no, event));
                }
            }
        }
    }

    if let Some(current) = open {
        return Err(StreamError {
            line: log.lines + 1,
            kind: StreamErrorKind::UnterminatedShard {
                shard: log.shards[current].shard,
            },
        });
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_obs::{event_line, IntervalSample, OptimizerRound, ReleaseReason};
    use cc_types::{
        Arch, Cost, FunctionId, MemoryMb, NodeId, SimDuration, SimTime, StartKind, WarmId,
    };

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Arrival {
                at: SimTime::from_micros(0),
                function: FunctionId::new(7),
            },
            Event::Queued {
                at: SimTime::from_micros(5),
                function: FunctionId::new(7),
                depth: 3,
            },
            Event::ExecutionStarted {
                at: SimTime::from_micros(10),
                function: FunctionId::new(7),
                node: NodeId::new(2),
                arch: Arch::Arm,
                kind: StartKind::WarmCompressed,
                wait: SimDuration::from_micros(10),
                start_penalty: SimDuration::from_micros(250),
                execution: SimDuration::from_micros(9000),
            },
            Event::InstanceAdmitted {
                at: SimTime::from_micros(20),
                id: WarmId::new(3, 1),
                function: FunctionId::new(7),
                node: NodeId::new(2),
                arch: Arch::X86,
                compressed: true,
                memory: MemoryMb::new(512),
                expiry: SimTime::from_micros(600_000_020),
                reserved: Cost::from_picodollars(987654321),
            },
            Event::InstanceReleased {
                at: SimTime::from_micros(30),
                id: WarmId::new(3, 1),
                function: FunctionId::new(7),
                node: NodeId::new(2),
                memory: MemoryMb::new(512),
                compressed: false,
                since: SimTime::from_micros(20),
                reason: ReleaseReason::Evicted,
            },
            Event::CompressionStarted {
                at: SimTime::from_micros(20),
                id: WarmId::new(3, 1),
                function: FunctionId::new(7),
                node: NodeId::new(2),
                ready_at: SimTime::from_micros(1020),
            },
            Event::CompressionFinished {
                at: SimTime::from_micros(1020),
                id: WarmId::new(3, 1),
                function: FunctionId::new(7),
                node: NodeId::new(2),
            },
            Event::BudgetDebit {
                at: SimTime::from_micros(40),
                requested: Cost::from_picodollars(u64::MAX),
                granted: Cost::from_picodollars(12),
            },
            Event::BudgetCredit {
                at: SimTime::from_micros(50),
                amount: Cost::from_picodollars(1),
            },
            Event::PrewarmDropped {
                at: SimTime::from_micros(60),
                function: FunctionId::new(u32::MAX),
                arch: Arch::X86,
            },
            Event::OptimizerRound {
                at: SimTime::from_micros(70),
                round: OptimizerRound {
                    round: 4,
                    subproblems: 8,
                    dimensions: 24,
                    objective: -12.625,
                    accepted_moves: 11,
                    evaluations: 4096,
                },
            },
            Event::IntervalSampled {
                at: SimTime::from_micros(u64::MAX),
                sample: IntervalSample {
                    index: u64::MAX,
                    spend_delta_dollars: -0.0625,
                    warm_pool: 42,
                    compressed: 17,
                    utilization: 0.75,
                    compression_events_delta: 5,
                    pending: 2,
                },
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for event in sample_events() {
            let line = event_line(&event);
            let decoded = decode_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(decoded, Line::Event(event), "line {line}");
            let Line::Event(back) = decoded else {
                unreachable!()
            };
            assert_eq!(event_line(&back), line, "re-encoding diverged");
        }
    }

    #[test]
    fn non_finite_floats_round_trip_as_null() {
        let event = Event::OptimizerRound {
            at: SimTime::from_micros(1),
            round: OptimizerRound {
                round: 0,
                subproblems: 1,
                dimensions: 1,
                objective: f64::NAN,
                accepted_moves: 0,
                evaluations: 0,
            },
        };
        let line = event_line(&event);
        assert!(line.contains("\"objective\":null"), "{line}");
        let Line::Event(decoded) = decode_line(&line).unwrap() else {
            panic!("expected event");
        };
        let Event::OptimizerRound { round, .. } = decoded else {
            panic!("wrong variant");
        };
        assert!(round.objective.is_nan());
        assert_eq!(event_line(&decoded), line, "null must re-encode as null");
    }

    #[test]
    fn markers_and_snapshots_decode() {
        assert_eq!(
            decode_line("{\"t\":\"shard_begin\",\"shard\":3}").unwrap(),
            Line::Marker(ShardMarker::Begin { shard: 3 })
        );
        assert_eq!(
            decode_line("{\"t\":\"shard_end\",\"shard\":3,\"events\":10,\"dropped\":2}").unwrap(),
            Line::Marker(ShardMarker::End {
                shard: 3,
                events: 10,
                dropped: 2
            })
        );
        assert_eq!(
            decode_line("{\"type\":\"snapshot\",\"arrivals\":5}").unwrap(),
            Line::Snapshot
        );
    }

    #[test]
    fn every_prefix_of_every_line_is_a_typed_error() {
        let mut lines: Vec<String> = sample_events().iter().map(event_line).collect();
        lines.push("{\"t\":\"shard_begin\",\"shard\":0}".into());
        lines.push("{\"t\":\"shard_end\",\"shard\":0,\"events\":1,\"dropped\":0}".into());
        for line in &lines {
            for cut in 0..line.len() {
                let prefix = &line[..cut];
                let result = decode_line(prefix);
                assert!(
                    matches!(
                        result,
                        Err(DecodeError {
                            kind: DecodeErrorKind::Truncated,
                            ..
                        })
                    ),
                    "prefix {prefix:?} of {line:?} gave {result:?}"
                );
            }
        }
    }

    #[test]
    fn swapped_keys_are_rejected() {
        // Canonical: {"t":"arrival","at":N,"fn":N}
        let swapped = "{\"t\":\"arrival\",\"fn\":7,\"at\":0}";
        let err = decode_line(swapped).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::ExpectedToken(",\"at\":"));
    }

    /// Every decode error's kind and byte position, pinned: one
    /// `ExpectedToken` per key, one `BadNumber` per numeric codec, a
    /// `BadLabel` per label list, and the structural kinds.
    #[test]
    fn decode_errors_keep_their_kinds_and_positions() {
        use DecodeErrorKind::{
            BadNumber as Num, ExpectedToken as Tok, TrailingData, Truncated, UnknownTag,
        };
        let label = |field, found: &str| DecodeErrorKind::BadLabel {
            field,
            found: found.into(),
        };
        let cases: Vec<(&str, DecodeErrorKind, usize)> = vec![
            // Structure.
            ("", Truncated, 0),
            ("[\"t\":\"arrival\"}", Tok("{\"t\":"), 0),
            ("{\"t\":arrival}", Tok("\""), 5),
            ("{\"t\":\"arrival", Truncated, 6),
            ("{\"t\":\"warp_core\",\"at\":1}", UnknownTag("warp_core".into()), 5),
            ("{\"t\":\"arrival\",\"at\":1,\"fn\":2}garbage", TrailingData, 29),
            ("{\"t\":\"arrival\",\"at\":1,\"fn\":2,", Tok("}"), 28),
            ("{\"t\":\"arrival\",\"at\":1,\"fn\":2", Truncated, 28),
            ("{\"type\":\"snapshot\",\"arrivals\":1", Truncated, 31),
            // One wrong key each, in table order.
            ("{\"t\":\"arrival\",\"ta\":1,\"fn\":2}", Tok(",\"at\":"), 14),
            ("{\"t\":\"arrival\",\"at\":1,\"nf\":2}", Tok(",\"fn\":"), 21),
            ("{\"t\":\"queued\",\"at\":1,\"fn\":2,\"dept\":3}", Tok(",\"depth\":"), 27),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"nod\":3}",
                Tok(",\"node\":"),
                31,
            ),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":3,\"ach\":\"x86\"}",
                Tok(",\"arch\":"),
                40,
            ),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":3,\"arch\":\"x86\",\"knd\":1}",
                Tok(",\"kind\":"),
                53,
            ),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":3,\"arch\":\"x86\",\
                 \"kind\":\"cold\",\"wait\":4}",
                Tok(",\"wait_us\":"),
                67,
            ),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":3,\"arch\":\"x86\",\
                 \"kind\":\"cold\",\"wait_us\":4,\"penalty\":5}",
                Tok(",\"penalty_us\":"),
                79,
            ),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":3,\"arch\":\"x86\",\
                 \"kind\":\"cold\",\"wait_us\":4,\"penalty_us\":5,\"exec\":6}",
                Tok(",\"exec_us\":"),
                94,
            ),
            ("{\"t\":\"warm_admit\",\"at\":1,\"id\":2}", Tok(",\"id\":["), 24),
            ("{\"t\":\"warm_admit\",\"at\":1,\"id\":[2;3]}", Tok(","), 32),
            ("{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,3}", Tok("]"), 34),
            (
                "{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"arch\":\"arm\",\"zipped\":true}",
                Tok(",\"compressed\":"),
                64,
            ),
            (
                "{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"arch\":\"arm\",\"compressed\":true,\"mem\":6}",
                Tok(",\"mem_mb\":"),
                82,
            ),
            (
                "{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"arch\":\"arm\",\"compressed\":true,\"mem_mb\":6,\"expires\":7}",
                Tok(",\"expiry\":"),
                93,
            ),
            (
                "{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"arch\":\"arm\",\"compressed\":true,\"mem_mb\":6,\"expiry\":7,\"reserved\":8}",
                Tok(",\"reserved_pd\":"),
                104,
            ),
            (
                "{\"t\":\"warm_release\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"mem_mb\":6,\"compressed\":false,\"since\":7,\"why\":\"expired\"}",
                Tok(",\"reason\":"),
                93,
            ),
            (
                "{\"t\":\"warm_release\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"mem_mb\":6,\"compressed\":false,\"snce\":7}",
                Tok(",\"since\":"),
                83,
            ),
            (
                "{\"t\":\"compress_start\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\"ready\":6}",
                Tok(",\"ready_at\":"),
                55,
            ),
            (
                "{\"t\":\"budget_debit\",\"at\":1,\"requested\":2}",
                Tok(",\"requested_pd\":"),
                26,
            ),
            (
                "{\"t\":\"budget_debit\",\"at\":1,\"requested_pd\":2,\"granted\":3}",
                Tok(",\"granted_pd\":"),
                43,
            ),
            (
                "{\"t\":\"budget_credit\",\"at\":1,\"amount\":2}",
                Tok(",\"amount_pd\":"),
                27,
            ),
            ("{\"t\":\"opt_round\",\"at\":1,\"rnd\":2}", Tok(",\"round\":"), 23),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subs\":3}",
                Tok(",\"subproblems\":"),
                33,
            ),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dim\":4}",
                Tok(",\"dims\":"),
                49,
            ),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dims\":4,\"obj\":1}",
                Tok(",\"objective\":"),
                58,
            ),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dims\":4,\
                 \"objective\":-1.5,\"acc\":5}",
                Tok(",\"accepted\":"),
                75,
            ),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dims\":4,\
                 \"objective\":-1.5,\"accepted\":5,\"evaluations\":6}",
                Tok(",\"evals\":"),
                88,
            ),
            ("{\"t\":\"interval\",\"at\":1,\"idx\":2}", Tok(",\"index\":"), 22),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend\":0.5}",
                Tok(",\"spend_delta\":"),
                32,
            ),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend_delta\":0.5,\"warm\":3}",
                Tok(",\"warm_pool\":"),
                50,
            ),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend_delta\":0.5,\"warm_pool\":3,\
                 \"utilization\":0.25}",
                Tok(",\"compressed\":"),
                64,
            ),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend_delta\":0.5,\"warm_pool\":3,\
                 \"compressed\":4,\"util\":0.25}",
                Tok(",\"utilization\":"),
                79,
            ),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend_delta\":0.5,\"warm_pool\":3,\
                 \"compressed\":4,\"utilization\":0.25,\"pending\":6}",
                Tok(",\"compress_delta\":"),
                98,
            ),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend_delta\":0.5,\"warm_pool\":3,\
                 \"compressed\":4,\"utilization\":0.25,\"compress_delta\":5,\"queue\":6}",
                Tok(",\"pending\":"),
                117,
            ),
            ("{\"t\":\"shard_begin\",\"id\":0}", Tok(",\"shard\":"), 18),
            (
                "{\"t\":\"shard_end\",\"shard\":0,\"count\":1}",
                Tok(",\"events\":"),
                26,
            ),
            (
                "{\"t\":\"shard_end\",\"shard\":0,\"events\":1,\"lost\":0}",
                Tok(",\"dropped\":"),
                37,
            ),
            // One malformed number per numeric codec; an out-of-range u32
            // reports at the number's first byte, like every other.
            ("{\"t\":\"arrival\",\"at\":-1,\"fn\":2}", Num("at"), 20),
            ("{\"t\":\"arrival\",\"at\":1,\"fn\":99999999999}", Num("fn"), 27),
            ("{\"t\":\"queued\",\"at\":1,\"fn\":2,\"depth\":x}", Num("depth"), 36),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":4294967296}",
                Num("node"),
                39,
            ),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":3,\"arch\":\"x86\",\
                 \"kind\":\"cold\",\"wait_us\":18446744073709551616}",
                Num("wait_us"),
                78,
            ),
            ("{\"t\":\"warm_admit\",\"at\":1,\"id\":[x,3]}", Num("id.slot"), 31),
            (
                "{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,4294967296]}",
                Num("id.generation"),
                33,
            ),
            (
                "{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"arch\":\"arm\",\"compressed\":yes}",
                Num("compressed"),
                78,
            ),
            (
                "{\"t\":\"warm_admit\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"arch\":\"arm\",\"compressed\":true,\"mem_mb\":4294967296}",
                Num("mem_mb"),
                92,
            ),
            (
                "{\"t\":\"budget_credit\",\"at\":1,\"amount_pd\":+2}",
                Num("amount_pd"),
                40,
            ),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dims\":4,\
                 \"objective\":x}",
                Num("objective"),
                71,
            ),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dims\":4,\
                 \"objective\":1e999}",
                Num("objective"),
                71,
            ),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend_delta\":-}",
                Num("spend_delta"),
                47,
            ),
            // A line cut inside a number is truncated, not malformed.
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dims\":4,\
                 \"objective\":-",
                Truncated,
                71,
            ),
            (
                "{\"t\":\"opt_round\",\"at\":1,\"round\":2,\"subproblems\":3,\"dims\":4,\
                 \"objective\":nu",
                Truncated,
                71,
            ),
            (
                "{\"t\":\"interval\",\"at\":1,\"index\":2,\"spend_delta\":-",
                Truncated,
                47,
            ),
            ("{\"t\":\"arrival\",\"at\":1,\"fn\":", Truncated, 27),
            // One unknown label per label list.
            (
                "{\"t\":\"prewarm_dropped\",\"at\":1,\"fn\":2,\"arch\":\"mips\"}",
                label("arch", "mips"),
                44,
            ),
            (
                "{\"t\":\"exec_start\",\"at\":1,\"fn\":2,\"node\":3,\"arch\":\"x86\",\"kind\":\"hot\"}",
                label("kind", "hot"),
                61,
            ),
            (
                "{\"t\":\"warm_release\",\"at\":1,\"id\":[2,3],\"fn\":4,\"node\":5,\
                 \"mem_mb\":6,\"compressed\":false,\"since\":7,\"reason\":\"lost\"}",
                label("reason", "lost"),
                103,
            ),
        ];
        let mut wrong = Vec::new();
        for (line, kind, at) in &cases {
            match decode_line(line) {
                Err(e) if e.kind == *kind && e.at == *at => {}
                other => wrong.push(format!("{line}\n  want {kind:?} at {at}, got {other:?}")),
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn untagged_stream_decodes_as_one_shard() {
        let events = sample_events();
        let mut input = String::new();
        for e in &events {
            input.push_str(&event_line(e));
            input.push('\n');
        }
        input.push_str("{\"type\":\"snapshot\",\"arrivals\":1}\n");
        let log = decode_stream(&input).unwrap();
        assert!(!log.tagged);
        assert_eq!(log.shards.len(), 1);
        assert_eq!(log.shards[0].shard, 0);
        assert_eq!(log.shards[0].end, None);
        assert_eq!(log.events(), events.len() as u64);
        assert_eq!(log.snapshots.len(), 1);
        // Line numbers are 1-based and sequential.
        assert_eq!(log.shards[0].events[0].0, 1);
    }

    #[test]
    fn tagged_stream_decodes_shard_blocks() {
        let input = concat!(
            "{\"t\":\"shard_begin\",\"shard\":0}\n",
            "{\"t\":\"arrival\",\"at\":1,\"fn\":0}\n",
            "{\"t\":\"shard_end\",\"shard\":0,\"events\":1,\"dropped\":0}\n",
            "{\"t\":\"shard_begin\",\"shard\":1}\n",
            "{\"t\":\"shard_end\",\"shard\":1,\"events\":0,\"dropped\":4}\n",
            "{\"type\":\"snapshot\"}\n",
        );
        let log = decode_stream(input).unwrap();
        assert!(log.tagged);
        assert_eq!(log.shards.len(), 2);
        assert_eq!(log.shards[0].events.len(), 1);
        assert_eq!(
            log.shards[1].end,
            Some(ShardEndInfo {
                events: 0,
                dropped: 4
            })
        );
        assert_eq!(log.snapshots, vec![(6, "{\"type\":\"snapshot\"}".into())]);
    }

    #[test]
    fn marker_grammar_violations_are_typed() {
        // Duplicated end marker.
        let dup_end = concat!(
            "{\"t\":\"shard_begin\",\"shard\":0}\n",
            "{\"t\":\"shard_end\",\"shard\":0,\"events\":0,\"dropped\":0}\n",
            "{\"t\":\"shard_end\",\"shard\":0,\"events\":0,\"dropped\":0}\n",
        );
        let err = decode_stream(dup_end).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, StreamErrorKind::UnexpectedShardEnd { shard: 0 });

        // Interleaved begin before the open block ends.
        let interleaved = concat!(
            "{\"t\":\"shard_begin\",\"shard\":0}\n",
            "{\"t\":\"shard_begin\",\"shard\":1}\n",
        );
        let err = decode_stream(interleaved).unwrap_err();
        assert_eq!(err.kind, StreamErrorKind::UnexpectedShardBegin { shard: 1 });

        // Out-of-sequence shard id.
        let skipped = "{\"t\":\"shard_begin\",\"shard\":1}\n";
        let err = decode_stream(skipped).unwrap_err();
        assert_eq!(err.kind, StreamErrorKind::UnexpectedShardBegin { shard: 1 });

        // Marker in an untagged stream.
        let late_marker = concat!(
            "{\"t\":\"arrival\",\"at\":1,\"fn\":0}\n",
            "{\"t\":\"shard_begin\",\"shard\":0}\n",
        );
        let err = decode_stream(late_marker).unwrap_err();
        assert_eq!(err.kind, StreamErrorKind::UnexpectedShardBegin { shard: 0 });

        // Event between blocks of a tagged stream.
        let stray = concat!(
            "{\"t\":\"shard_begin\",\"shard\":0}\n",
            "{\"t\":\"shard_end\",\"shard\":0,\"events\":0,\"dropped\":0}\n",
            "{\"t\":\"arrival\",\"at\":1,\"fn\":0}\n",
        );
        let err = decode_stream(stray).unwrap_err();
        assert_eq!(err.kind, StreamErrorKind::EventOutsideShard);

        // Declared count disagreeing with the block.
        let miscount = concat!(
            "{\"t\":\"shard_begin\",\"shard\":0}\n",
            "{\"t\":\"arrival\",\"at\":1,\"fn\":0}\n",
            "{\"t\":\"shard_end\",\"shard\":0,\"events\":5,\"dropped\":0}\n",
        );
        let err = decode_stream(miscount).unwrap_err();
        assert_eq!(
            err.kind,
            StreamErrorKind::EventCountMismatch {
                shard: 0,
                declared: 5,
                counted: 1
            }
        );

        // Stream cut off inside a block.
        let cut = "{\"t\":\"shard_begin\",\"shard\":0}\n";
        let err = decode_stream(cut).unwrap_err();
        assert_eq!(err.kind, StreamErrorKind::UnterminatedShard { shard: 0 });
    }
}
