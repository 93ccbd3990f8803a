//! Property tests: encode → decode is lossless for every event variant.
//!
//! The canonical encoder (`cc_obs::event_line`) and the strict decoder
//! (`cc_replay::decode_line`) are inverses on the full event space:
//! decoding an encoded event yields an equal event, and re-encoding the
//! decoded event reproduces the original line byte-for-byte. The
//! generators push boundary values (0, 1, `u64::MAX`, `f64::MAX`, negative
//! zero) through every field with non-trivial probability. Corrupted lines
//! — every prefix, every single-character edit — fail with a typed error
//! in bounds or decode to an event that round-trips.

use cc_obs::{
    event_line, Event, EventSink, IntervalSample, JsonlSink, OptimizerRound, ReleaseReason,
};
use cc_replay::{decode_line, decode_stream, DecodeError, DecodeErrorKind, Line};
use cc_types::{Arch, Cost, FunctionId, MemoryMb, NodeId, SimDuration, SimTime, StartKind, WarmId};
use proptest::prelude::*;

/// Warps a uniform draw so boundary values appear with probability ~1/2.
fn warp(v: u64) -> u64 {
    match v % 8 {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX - 1,
        _ => v,
    }
}

fn warp32(v: u64) -> u32 {
    match v % 8 {
        0 => 0,
        1 => 1,
        2 => u32::MAX,
        3 => u32::MAX - 1,
        _ => (v >> 32) as u32,
    }
}

/// Warps a finite draw toward floating-point edge cases. NaN and the
/// infinities are excluded here (they encode as `null` and decode as NaN,
/// which `Event`'s `PartialEq` cannot confirm); the dedicated unit tests
/// in the decoder cover that normalization.
fn warp_f(x: f64, sel: u64) -> f64 {
    match sel % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        4 => f64::MAX,
        5 => f64::MIN_POSITIVE,
        6 => 1e-300,
        _ => x,
    }
}

fn arch_of(v: u64) -> Arch {
    if v.is_multiple_of(2) {
        Arch::X86
    } else {
        Arch::Arm
    }
}

/// Builds one event of the variant selected by `sel` from raw draws.
#[allow(clippy::too_many_arguments)]
fn build_event(sel: u8, a: [u64; 6], b: [u64; 6], flag: bool, x: f64, y: f64) -> Event {
    let at = SimTime::from_micros(warp(a[0]));
    let function = FunctionId::new(warp32(a[1]));
    let node = NodeId::new(warp32(b[1]));
    let id = WarmId::new(warp32(a[2]), warp32(b[0]));
    let arch = arch_of(b[2]);
    match sel % 12 {
        0 => Event::Arrival { at, function },
        1 => Event::Queued {
            at,
            function,
            depth: warp(a[3]),
        },
        2 => Event::ExecutionStarted {
            at,
            function,
            node,
            arch,
            kind: match b[3] % 3 {
                0 => StartKind::Cold,
                1 => StartKind::WarmUncompressed,
                _ => StartKind::WarmCompressed,
            },
            wait: SimDuration::from_micros(warp(a[4])),
            start_penalty: SimDuration::from_micros(warp(a[5])),
            execution: SimDuration::from_micros(warp(b[4])),
        },
        3 => Event::InstanceAdmitted {
            at,
            id,
            function,
            node,
            arch,
            compressed: flag,
            memory: MemoryMb::new(warp32(b[5])),
            expiry: SimTime::from_micros(warp(a[3])),
            reserved: Cost::from_picodollars(warp(a[4])),
        },
        4 => Event::InstanceReleased {
            at,
            id,
            function,
            node,
            memory: MemoryMb::new(warp32(b[5])),
            compressed: flag,
            since: SimTime::from_micros(warp(a[3])),
            reason: match b[3] % 3 {
                0 => ReleaseReason::Reused,
                1 => ReleaseReason::Evicted,
                _ => ReleaseReason::Expired,
            },
        },
        5 => Event::CompressionStarted {
            at,
            id,
            function,
            node,
            ready_at: SimTime::from_micros(warp(a[3])),
        },
        6 => Event::CompressionFinished {
            at,
            id,
            function,
            node,
        },
        7 => Event::BudgetDebit {
            at,
            requested: Cost::from_picodollars(warp(a[3])),
            granted: Cost::from_picodollars(warp(a[4])),
        },
        8 => Event::BudgetCredit {
            at,
            amount: Cost::from_picodollars(warp(a[3])),
        },
        9 => Event::PrewarmDropped { at, function, arch },
        10 => Event::OptimizerRound {
            at,
            round: OptimizerRound {
                round: warp32(a[3]),
                subproblems: warp32(a[4]),
                dimensions: warp32(a[5]),
                objective: warp_f(x, b[3]),
                accepted_moves: warp(b[4]),
                evaluations: warp(b[5]),
            },
        },
        _ => Event::IntervalSampled {
            at,
            sample: IntervalSample {
                index: warp(a[3]),
                spend_delta_dollars: warp_f(x, b[3]),
                warm_pool: warp(a[4]),
                compressed: warp(a[5]),
                utilization: warp_f(y, b[4]),
                compression_events_delta: warp(b[5]),
                pending: warp(b[0]),
            },
        },
    }
}

fn six() -> impl Strategy<Value = [u64; 6]> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f])
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        (0u8..12u8, any::<bool>(), any::<f64>(), any::<f64>()),
        six(),
        six(),
    )
        .prop_map(|((sel, flag, x, y), a, b)| build_event(sel, a, b, flag, x, y))
}

/// The character a single-character edit writes: any ASCII byte, or one
/// of a few multi-byte characters.
fn edit_char(sel: u64) -> char {
    const WIDE: [char; 4] = ['\u{e9}', '\u{20ac}', '\u{1f600}', '\u{feff}'];
    match sel % 144 {
        n @ 0..=127 => char::from(n as u8),
        n => WIDE[n as usize % WIDE.len()],
    }
}

/// Every single-character replace, insert and delete edit of `line`
/// (canonical lines are ASCII, so each character is one byte).
fn single_edits(line: &str, sel: u64) -> Vec<String> {
    let mut edits = Vec::with_capacity(3 * line.len() + 1);
    for i in 0..=line.len() {
        let c = edit_char(
            sel.wrapping_add(i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                >> 7,
        );
        edits.push(format!("{}{c}{}", &line[..i], &line[i..]));
        if i < line.len() {
            edits.push(format!("{}{c}{}", &line[..i], &line[i + 1..]));
            edits.push(format!("{}{}", &line[..i], &line[i + 1..]));
        }
    }
    edits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_edits_never_panic_or_mis_decode(event in event_strategy(), sel in any::<u64>()) {
        // A corrupted line either fails in bounds or decodes to an event
        // the canonical encoder round-trips.
        for edited in single_edits(&event_line(&event), sel) {
            match decode_line(&edited) {
                Err(e) => prop_assert!(e.at <= edited.len(), "{edited:?}: {e:?} out of bounds"),
                Ok(Line::Event(decoded)) => {
                    let again = event_line(&decoded);
                    prop_assert_eq!(decode_line(&again), Ok(Line::Event(decoded)));
                }
                Ok(_) => {}
            }
        }
    }

    #[test]
    fn encode_decode_is_lossless(event in event_strategy()) {
        let line = event_line(&event);
        match decode_line(&line) {
            Ok(Line::Event(decoded)) => {
                prop_assert_eq!(decoded, event);
                // Canonical encoding: re-encoding reproduces the bytes.
                prop_assert_eq!(event_line(&decoded), line);
            }
            other => return Err(format!("{line:?} decoded to {other:?}")),
        }
    }

    #[test]
    fn every_line_prefix_is_a_typed_error(event in event_strategy()) {
        // Truncation anywhere must produce a `Truncated` error, never a
        // panic, another kind, or a bogus success.
        let line = event_line(&event);
        for end in 0..line.len() {
            if !line.is_char_boundary(end) {
                continue;
            }
            let result = decode_line(&line[..end]);
            prop_assert!(
                matches!(result, Err(DecodeError { kind: DecodeErrorKind::Truncated, .. })),
                "prefix {:?} gave {:?}",
                &line[..end],
                result
            );
        }
    }

    #[test]
    fn event_sequences_roundtrip_through_a_jsonl_stream(
        events in prop::collection::vec(event_strategy(), 0..40)
    ) {
        let mut sink = JsonlSink::new(Vec::new());
        for event in &events {
            sink.record(event);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let log = match decode_stream(&text) {
            Ok(log) => log,
            Err(e) => return Err(format!("stream failed to decode: {e}")),
        };
        prop_assert!(!log.tagged);
        if events.is_empty() {
            // An empty file decodes to an empty log, not an empty shard.
            prop_assert!(log.shards.is_empty());
            return Ok(());
        }
        prop_assert_eq!(log.shards.len(), 1);
        prop_assert_eq!(log.shards[0].events.len(), events.len());
        for (i, ((line_no, decoded), original)) in
            log.shards[0].events.iter().zip(&events).enumerate()
        {
            prop_assert_eq!(*line_no, i as u64 + 1);
            prop_assert_eq!(decoded, original);
        }
        // Re-encoding the decoded stream reproduces the file bytes.
        let mut re = String::new();
        for (_, decoded) in &log.shards[0].events {
            re.push_str(&event_line(decoded));
            re.push('\n');
        }
        prop_assert_eq!(re, text);
    }
}
