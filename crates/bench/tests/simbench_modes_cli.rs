//! The simbench modes CI runs, on the small scenario: digest parity of the
//! sharded (`--shards N`) and pipelined (`--workers N`) drivers against a
//! one-worker file, the in-memory stream audit, and the hindsight gap
//! check in every mode. `--digests-match` must fail when it has nothing
//! to compare, and `--gap` must add no replays to a `--profile` profile.

mod common;

use common::{scratch_dir, simbench};

const SMALL: &str = "--scenario small --runs 1";
const TWO: &str = "--policies fixed_keepalive,codecrunch";

/// Runs simbench in `dir`, asserts it exited 0, and returns the lines of
/// its output that start with `prefix`.
fn lines_of(dir: &std::path::PathBuf, args: &str, prefix: &str) -> Vec<String> {
    let (code, text) = simbench(dir, args);
    assert_eq!(code, 0, "{args}: {text}");
    let lines = text.lines().filter(|l| l.starts_with(prefix));
    lines.map(str::to_string).collect()
}

/// Asserts `lines` has `count` lines, each ending in `suffix`.
fn assert_all(lines: &[String], count: usize, suffix: &str) {
    assert_eq!(lines.len(), count, "{lines:#?}");
    assert!(lines.iter().all(|l| l.ends_with(suffix)), "{lines:#?}");
}

#[test]
fn two_workers_or_shards_match_the_digests_of_one() {
    let dir = scratch_dir("modes-parity");
    // (reference mode, compared mode, digests compared: the report's,
    // plus the telemetry's under --workers)
    let cases = [
        ("--shards 1", "--shards 2", 2),
        ("--workers 1", "--workers 2", 4),
        ("--workers 1", "--workers 2 --sink jsonl --audit", 4),
    ];
    for (reference, mode, compared) in cases {
        lines_of(
            &dir,
            &format!("{SMALL} {TWO} {reference} --out one.json"),
            "",
        );
        let args = format!("{SMALL} {TWO} {mode} --digests-match one.json");
        assert_all(&lines_of(&dir, &args, "digests:"), compared, " ok");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jsonl_audit_checks_every_replay() {
    let dir = scratch_dir("modes-audit");
    // The warm-up and the measured replay of each of the two policies.
    let audits = lines_of(
        &dir,
        &format!("{SMALL} {TWO} --sink jsonl --audit"),
        "audit:",
    );
    assert_all(&audits, 4, " 0 violations");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gap_rows_hold_and_agree_in_every_mode() {
    let dir = scratch_dir("modes-gap");
    let gap = "--policies fixed_keepalive,oracle --gap --gap-ceiling oracle=1000";
    let serial = lines_of(&dir, &format!("{SMALL} {gap}"), "gap:");
    assert_all(&serial, 2, " ok");
    for mode in ["--shards 2", "--workers 2"] {
        let rows = lines_of(&dir, &format!("{SMALL} {gap} {mode}"), "gap:");
        assert_eq!(rows, serial, "{mode} prices differently from a serial run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn digests_match_fails_unless_every_policy_is_recorded() {
    let dir = scratch_dir("modes-missing");
    lines_of(
        &dir,
        &format!("{SMALL} --policies codecrunch --out cc.json"),
        "",
    );
    for policies in ["fixed_keepalive", "fixed_keepalive,codecrunch"] {
        let args = format!("{SMALL} --policies {policies} --digests-match cc.json");
        let (code, text) = simbench(&dir, &args);
        assert_eq!(code, 1, "{args}: {text}");
        let named = text
            .lines()
            .any(|l| l.contains("fixed_keepalive has no recorded"));
        assert!(named, "{args}: the missing policy is not named in:\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gap_adds_no_spans_to_the_profile() {
    let dir = scratch_dir("modes-gap-profile");
    let sre_rounds = |extra: &str| {
        let args = format!("{SMALL} --policies codecrunch --profile-out p.json {extra}");
        lines_of(&dir, &args, "");
        let json = std::fs::read_to_string(dir.join("p.json")).expect("profile written");
        let profile = cc_prof::from_json(&json).expect("profile parses");
        let row = profile.row(cc_prof::Phase::SreRound);
        row.expect("codecrunch runs sre_round").count
    };
    assert_eq!(sre_rounds("--gap"), sre_rounds(""));
    let _ = std::fs::remove_dir_all(&dir);
}
