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
