//! Shared driver for the simbench command-line tests.

use std::path::PathBuf;
use std::process::Command;

/// Runs simbench in `dir` with the whitespace-separated `args`:
/// (exit code, output).
pub fn simbench(dir: &PathBuf, args: &str) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("spawn simbench");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (output.status.code().expect("exit code"), text)
}

/// A fresh, empty working directory for one test.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simbench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
