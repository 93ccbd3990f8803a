//! Exit-code contract of the scenario flags `ccstat` and `ccserve` share,
//! and of `ccserve`'s own flags: a value out of range is a usage error
//! (exit 2) that names the flag — not a panic in the cluster builder, the
//! clock or the queue, not a budget silently clamped to zero, and not an
//! empty scenario that replays nothing and exits 0.

use std::process::Command;

/// Runs `bin` with the whitespace-separated `args`: (exit code, output).
fn run(bin: &str, args: &str) -> (i32, String) {
    let output = Command::new(bin)
        .args(args.split_whitespace())
        .output()
        .expect("spawn binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (output.status.code().expect("exit code"), text)
}

#[test]
fn bad_scenario_values_are_usage_errors_naming_the_flag() {
    let ccstat = env!("CARGO_BIN_EXE_ccstat");
    let ccserve = env!("CARGO_BIN_EXE_ccserve");
    for (bin, args, flag) in [
        (ccstat, "--warm-fraction 1.5", "--warm-fraction"),
        (ccstat, "--warm-fraction NaN", "--warm-fraction"),
        (ccstat, "--x86 0 --arm 0", "--x86"),
        (ccstat, "--budget -1", "--budget"),
        (ccstat, "--budget inf", "--budget"),
        (
            ccstat,
            "replay capture.jsonl --gap --warm-fraction 0",
            "--warm-fraction",
        ),
        (ccstat, "--functions 0", "--functions"),
        (ccstat, "--minutes 0", "--minutes"),
        (
            ccstat,
            "replay capture.jsonl --gap --functions 0",
            "--functions",
        ),
        (ccserve, "--virtual --warm-fraction 0", "--warm-fraction"),
        (ccserve, "--virtual --x86 0 --arm 0", "--x86"),
        (ccserve, "--virtual --functions 0", "--functions"),
        (ccserve, "--virtual --minutes 0", "--minutes"),
        (
            ccserve,
            "--virtual --minutes 18446744073709551615",
            "--minutes",
        ),
        (ccstat, "--minutes 18446744073709551615", "--minutes"),
        (
            ccserve,
            "--virtual --duration 18446744073709551615",
            "--duration",
        ),
        (
            ccserve,
            "--virtual --scenario stream --rate-scale -1",
            "--rate-scale",
        ),
        (
            ccserve,
            "--virtual --scenario stream --rate-scale NaN",
            "--rate-scale",
        ),
        (ccserve, "--speed 0", "--speed"),
        (ccserve, "--speed -2", "--speed"),
        (ccserve, "--speed inf", "--speed"),
        (ccserve, "--virtual --queue 0", "--queue"),
    ] {
        let (code, text) = run(bin, args);
        assert_eq!(code, 2, "{args} must exit 2:\n{text}");
        assert!(text.contains(flag), "{args} must name {flag}:\n{text}");
        assert!(!text.contains("panicked"), "{args} panicked:\n{text}");
    }
}

#[test]
fn a_zero_budget_is_accepted() {
    let args = "--functions 5 --minutes 2 --budget 0 --no-table";
    let (code, text) = run(env!("CARGO_BIN_EXE_ccstat"), args);
    assert_eq!(
        code, 0,
        "--budget 0 denies every keep-alive but is valid:\n{text}"
    );
}

/// `ccstat replay --audit` given the capture's scenario flags holds every
/// node id to the cluster and every function id to the workload: a
/// capture whose node 1 was rewritten to node 70000 still pairs up, so
/// only the range check can catch it.
#[test]
fn replay_audit_holds_ids_to_the_scenario() {
    let ccstat = env!("CARGO_BIN_EXE_ccstat");
    let scenario = "--functions 30 --minutes 10 --x86 2 --arm 2";
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let capture = dir.join(format!("id-range-{}.jsonl", std::process::id()));
    let capture = capture.to_str().expect("utf-8 path");
    let (code, text) = run(
        ccstat,
        &format!("--policy fixed_keepalive {scenario} --no-table --jsonl {capture}"),
    );
    assert_eq!(code, 0, "capture failed:\n{text}");
    let replay = |extra: &str| {
        run(
            ccstat,
            &format!("replay {capture} --audit --no-table {extra}"),
        )
    };

    let (code, text) = replay(scenario);
    assert_eq!(code, 0, "the untouched capture audits clean:\n{text}");

    let original = std::fs::read_to_string(capture).expect("read capture");
    let forged = original.replace("\"node\":1,", "\"node\":70000,");
    assert_ne!(forged, original, "the capture uses node 1");
    std::fs::write(capture, forged).expect("write forged capture");
    let (code, text) = replay(scenario);
    assert_eq!(
        code, 1,
        "a node outside the cluster must fail the audit:\n{text}"
    );
    assert!(text.contains("[id-range]"), "{text}");
    assert!(
        text.contains("node 70000, outside the 4-node cluster"),
        "{text}"
    );
    // Without scenario flags the ranges are unknown, and the forged ids
    // pair up consistently.
    let (code, text) = replay("");
    assert_eq!(code, 0, "no scenario, no range check:\n{text}");

    let forged = original.replace("\"fn\":3,", "\"fn\":4000000000,");
    assert_ne!(forged, original, "the capture uses fn 3");
    std::fs::write(capture, forged).expect("write forged capture");
    let (_, text) = replay(scenario);
    assert!(
        text.contains("fn 4000000000, outside the 30-function workload"),
        "{text}"
    );
    std::fs::remove_file(capture).expect("remove capture");
}
