//! The four CSV readers refuse mutated input with a typed error.
//!
//! Each case takes a small valid file for one reader and applies a few
//! random edits: a byte replaced, inserted or deleted, or a whole field
//! swapped for a hostile token (`NaN`, `inf`, negatives, values past the
//! column's integer range). Every reader must return without panicking,
//! and every refusal must be a `Malformed` error on a line of the file
//! or, for the trace readers, a `Trace` error. The edits only ever add a
//! digit or a bounded token to a count, so no case allocates more than a
//! few thousand arrivals.

use std::collections::HashMap;

use proptest::prelude::*;

use cc_trace::azure::{
    read_azure_app_memory, read_azure_durations, read_azure_invocations, read_combined_csv,
    CsvError,
};
use cc_types::{MemoryMb, SimDuration};

const COMBINED: &str = "0,1500,256,2,0,1\n1,40,128,0,3,0\n";
const INVOCATIONS: &str = "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n\
                           o1,a1,f1,http,2,0,1\n\
                           o1,a2,f2,timer,0,1,0\n";
const DURATIONS: &str = "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n\
                         o1,a1,f1,2500.0,10,100,9000\n\
                         o1,a2,f2,150.5,3,150,151\n";
const MEMORY: &str = "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n\
                      o1,a1,120,312.7\n\
                      o1,a2,5,0.2\n";

/// Bytes a single-byte edit writes.
const BYTES: &[u8] = b",\n-.e90 \rN";

/// Tokens a field edit writes. None is a count the readers accept above a
/// few thousand.
const TOKENS: &[&str] = &[
    "",
    "NaN",
    "inf",
    "-inf",
    "-1",
    "-0",
    "1e308",
    "0.5",
    "x",
    "4294967295",
    "4294967296",
    "60000001",
    "18446744073709551615",
    "18446744073709551616",
];

/// One edit: a kind, a position and a pick from [`BYTES`] or [`TOKENS`].
type Edit = (u8, usize, usize);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..4, any::<usize>(), any::<usize>()), 1..4)
}

/// Applies `edits` to the ASCII text `valid`.
fn mutate(valid: &str, edits: &[Edit]) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    for &(kind, pos, pick) in edits {
        let len = bytes.len();
        let at = pos % (len + 1);
        match kind {
            0 if at < len => bytes[at] = BYTES[pick % BYTES.len()],
            1 => bytes.insert(at, BYTES[pick % BYTES.len()]),
            2 if at < len => {
                bytes.remove(at);
            }
            _ => {
                // Swap the field around `at` for a token.
                let at = at.min(len.saturating_sub(1));
                let is_sep = |b: &u8| *b == b',' || *b == b'\n';
                let start = bytes[..at].iter().rposition(is_sep).map_or(0, |i| i + 1);
                let end = bytes[at..].iter().position(is_sep).map_or(len, |i| at + i);
                let token = TOKENS[pick % TOKENS.len()].bytes();
                bytes.splice(start..end.max(start), token);
            }
        }
    }
    String::from_utf8(bytes).expect("edits write ASCII")
}

/// Checks one reader's result on `text`. Returns whether it refused.
fn refused<T>(text: &str, result: Result<T, CsvError>, trace: bool) -> Result<bool, String> {
    let Err(error) = result else {
        return Ok(false);
    };
    let message = error.to_string();
    match error {
        CsvError::Malformed { line, reason } => {
            let lines = text.split('\n').count();
            prop_assert!(
                (1..=lines).contains(&line),
                "line {} outside 1..={}: {}",
                line,
                lines,
                message
            );
            prop_assert!(!reason.is_empty());
        }
        CsvError::Trace(_) => prop_assert!(trace, "a companion file gave {}", message),
        CsvError::Io(_) => prop_assert!(false, "ASCII input gave an i/o error: {}", message),
    }
    Ok(true)
}

/// Runs every reader on a mutation of its own valid file. Returns which
/// of the four refused.
fn check(edits: &[Edit]) -> Result<[bool; 4], String> {
    let combined = mutate(COMBINED, edits);
    let invocations = mutate(INVOCATIONS, edits);
    let durations = mutate(DURATIONS, edits);
    let memory = mutate(MEMORY, edits);
    let known_durations = HashMap::from([("f1".to_owned(), SimDuration::from_secs(3))]);
    let known_memory = HashMap::from([("f2".to_owned(), MemoryMb::new(512))]);
    let read_memory = read_azure_app_memory(memory.as_bytes());
    if let Ok(map) = &read_memory {
        prop_assert!(map.values().all(|m| m.as_mb() >= 1), "{:?}", map);
    }
    Ok([
        refused(&combined, read_combined_csv(combined.as_bytes()), true)?,
        refused(
            &invocations,
            read_azure_invocations(
                invocations.as_bytes(),
                &known_durations,
                &known_memory,
                SimDuration::from_secs(1),
                MemoryMb::new(128),
            ),
            true,
        )?,
        refused(
            &durations,
            read_azure_durations(durations.as_bytes()),
            false,
        )?,
        refused(&memory, read_memory, false)?,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_files_are_read_or_refused_with_a_typed_error(edits in edits()) {
        check(&edits)?;
    }
}

/// The valid files read cleanly, and the edits make every reader both
/// accept and refuse some files, so the property above is not vacuous.
#[test]
fn the_edits_reach_acceptance_and_refusal_in_every_reader() {
    assert_eq!(check(&[]), Ok([false; 4]), "the unedited files must read");
    let strategy = edits();
    let mut rng = TestRng::for_test("the_edits_reach_acceptance_and_refusal_in_every_reader");
    let (mut accepted, mut refusals) = ([0; 4], [0; 4]);
    for _ in 0..256 {
        let outcome = check(&strategy.sample(&mut rng)).unwrap_or_else(|e| panic!("{e}"));
        for (reader, refused) in outcome.into_iter().enumerate() {
            if refused {
                refusals[reader] += 1;
            } else {
                accepted[reader] += 1;
            }
        }
    }
    println!("accepted {accepted:?}, refused {refusals:?}");
    assert!(accepted.iter().chain(&refusals).all(|&n| n > 0));
}
