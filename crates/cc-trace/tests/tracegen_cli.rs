//! `tracegen` refuses a trace longer than the simulated clock can count,
//! naming the flag, instead of overflowing the duration.

use std::process::Command;

#[test]
fn an_overflowing_minute_count_is_refused_naming_the_flag() {
    let output = Command::new(env!("CARGO_BIN_EXE_tracegen"))
        .args(["--minutes", "18446744073709551615"])
        .output()
        .expect("spawn tracegen");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--minutes"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
