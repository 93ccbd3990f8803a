//! Byte-identity oracle for the allocation-free JSONL writer.
//!
//! `write_event_line` formats integers by hand and appends static keys,
//! so nothing in the type system ties its bytes to the `format!`-based
//! encoder every recorded golden digest and capture was produced with.
//! This test keeps that encoder as an oracle (`oracle_line`, copied from
//! the writer's predecessor) and requires identical bytes for every event
//! variant, over boundary integers (0, `u32::MAX`, `u64::MAX`) and
//! boundary floats (NaN, ±inf, −0.0, 0.1, 1e300, subnormals).

use cc_obs::{event_line, write_event_line, Event, IntervalSample, OptimizerRound, ReleaseReason};
use cc_types::{Arch, Cost, FunctionId, MemoryMb, NodeId, SimDuration, SimTime, StartKind, WarmId};
use proptest::prelude::*;

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

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        let mut s = format!("{value}");
        if s == "-0" {
            s = "0".to_string();
        }
        s
    } else {
        "null".to_string()
    }
}

/// The `format!` encoder the writer replaced, kept verbatim as the oracle.
fn oracle_line(event: &Event) -> String {
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

/// The boundary integers every field is pushed through.
const EDGE_U64: [u64; 7] = [0, 1, 9, 10, u32::MAX as u64, u64::MAX - 1, u64::MAX];

/// The boundary floats every float field is pushed through: NaN, both
/// infinities, both zeros, short and long decimal expansions, the extreme
/// magnitudes and two subnormals.
const EDGE_F64: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    0.1,
    -2.5,
    1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    -1.234_5e-310,
];

/// The same draw truncated to a `u32` field, saturating so `u64::MAX`
/// lands on `u32::MAX`.
fn narrow(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Builds the event of variant `variant % 12` from integer draws `n`,
/// float draws `x` and a flag, so every field of every variant takes a
/// draw.
fn build(variant: usize, n: [u64; 8], x: [f64; 2], flag: bool) -> Event {
    let at = SimTime::from_micros(n[0]);
    let function = FunctionId::new(narrow(n[1]));
    let node = NodeId::new(narrow(n[2]));
    let id = WarmId::new(narrow(n[3]), narrow(n[4]));
    let arch = if flag { Arch::Arm } else { Arch::X86 };
    match variant % 12 {
        0 => Event::Arrival { at, function },
        1 => Event::Queued {
            at,
            function,
            depth: n[5],
        },
        2 => Event::ExecutionStarted {
            at,
            function,
            node,
            arch,
            kind: [
                StartKind::Cold,
                StartKind::WarmUncompressed,
                StartKind::WarmCompressed,
            ][(n[7] % 3) as usize],
            wait: SimDuration::from_micros(n[5]),
            start_penalty: SimDuration::from_micros(n[6]),
            execution: SimDuration::from_micros(n[7]),
        },
        3 => Event::InstanceAdmitted {
            at,
            id,
            function,
            node,
            arch,
            compressed: flag,
            memory: MemoryMb::new(narrow(n[5])),
            expiry: SimTime::from_micros(n[6]),
            reserved: Cost::from_picodollars(n[7]),
        },
        4 => Event::InstanceReleased {
            at,
            id,
            function,
            node,
            memory: MemoryMb::new(narrow(n[5])),
            compressed: !flag,
            since: SimTime::from_micros(n[6]),
            reason: [
                ReleaseReason::Reused,
                ReleaseReason::Evicted,
                ReleaseReason::Expired,
            ][(n[7] % 3) as usize],
        },
        5 => Event::CompressionStarted {
            at,
            id,
            function,
            node,
            ready_at: SimTime::from_micros(n[5]),
        },
        6 => Event::CompressionFinished {
            at,
            id,
            function,
            node,
        },
        7 => Event::BudgetDebit {
            at,
            requested: Cost::from_picodollars(n[5]),
            granted: Cost::from_picodollars(n[6]),
        },
        8 => Event::BudgetCredit {
            at,
            amount: Cost::from_picodollars(n[5]),
        },
        9 => Event::PrewarmDropped { at, function, arch },
        10 => Event::OptimizerRound {
            at,
            round: OptimizerRound {
                round: narrow(n[5]),
                subproblems: narrow(n[6]),
                dimensions: narrow(n[7]),
                objective: x[0],
                accepted_moves: n[1],
                evaluations: n[2],
            },
        },
        _ => Event::IntervalSampled {
            at,
            sample: IntervalSample {
                index: n[1],
                spend_delta_dollars: x[0],
                warm_pool: n[2],
                compressed: n[3],
                utilization: x[1],
                compression_events_delta: n[5],
                pending: n[6],
            },
        },
    }
}

/// Asserts the writer's bytes equal the oracle's line plus a newline,
/// appended after whatever the buffer already held, and that
/// `event_line` is the same line.
fn assert_identical(event: &Event, prefix: &[u8]) {
    let expected = oracle_line(event);
    let mut out = prefix.to_vec();
    write_event_line(&mut out, event);
    assert_eq!(
        &out[..prefix.len()],
        prefix,
        "the writer touched earlier bytes"
    );
    assert_eq!(
        std::str::from_utf8(&out[prefix.len()..]).expect("ASCII line"),
        format!("{expected}\n"),
        "writer diverged from the format! encoder on {event:?}"
    );
    assert_eq!(event_line(event), expected);
}

#[test]
fn every_variant_matches_the_oracle_at_every_boundary() {
    for variant in 0..12 {
        for (i, &edge) in EDGE_U64.iter().enumerate() {
            for (j, &float) in EDGE_F64.iter().enumerate() {
                // Every integer field at the boundary value, and the
                // second float walking the list against the first.
                let second = EDGE_F64[(i + j + 1) % EDGE_F64.len()];
                let event = build(variant, [edge; 8], [float, second], j % 2 == 0);
                assert_identical(&event, b"");
            }
        }
    }
}

/// An integer that is a boundary value half the time, otherwise a draw of
/// random magnitude (so short and long decimal forms both appear).
fn edge_u64() -> impl Strategy<Value = u64> {
    (0usize..14, any::<u64>(), 0u32..64)
        .prop_map(|(pick, v, shift)| EDGE_U64.get(pick).copied().unwrap_or(v >> shift))
}

/// A float that is a boundary value half the time, otherwise a finite
/// draw or an arbitrary bit pattern (NaN payloads, subnormals, extremes).
fn edge_f64() -> impl Strategy<Value = f64> {
    (0usize..24, any::<f64>(), any::<u64>()).prop_map(|(pick, finite, bits)| {
        match EDGE_F64.get(pick) {
            Some(&edge) => edge,
            None if pick % 2 == 0 => finite,
            None => f64::from_bits(bits),
        }
    })
}

fn eight() -> impl Strategy<Value = [u64; 8]> {
    (
        (edge_u64(), edge_u64(), edge_u64(), edge_u64()),
        (edge_u64(), edge_u64(), edge_u64(), edge_u64()),
    )
        .prop_map(|((a, b, c, d), (e, f, g, h))| [a, b, c, d, e, f, g, h])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn random_events_match_the_oracle(
        variant in 0usize..12,
        n in eight(),
        x in (edge_f64(), edge_f64()),
        flag in any::<bool>(),
        prefix in prop::collection::vec(b'a'..=b'z', 0..8),
    ) {
        assert_identical(&build(variant, n, [x.0, x.1], flag), &prefix);
    }
}
