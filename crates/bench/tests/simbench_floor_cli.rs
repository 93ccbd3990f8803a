//! Exit-code contract of `simbench --floor POLICY=INV_PER_S`: a policy
//! measured below its floor exits 1 and names the policy; a floor that
//! names an unknown or unselected policy, or a malformed rate, is a usage
//! error (exit 2). simbench writes no file unless `--out` asks for one.

mod common;

use common::{scratch_dir, simbench};

const SMALL: &str = "--scenario small --runs 1 --policies fixed_keepalive,codecrunch";

#[test]
fn a_policy_below_its_floor_exits_1_and_is_named() {
    let dir = scratch_dir("floor-below");
    let (code, text) = simbench(
        &dir,
        &format!("{SMALL} --floor fixed_keepalive=1 --floor codecrunch=1e15"),
    );
    assert_eq!(code, 1, "{text}");
    let verdict = text
        .lines()
        .find(|line| line.starts_with("floor check failed"))
        .unwrap_or_else(|| panic!("no failure line in:\n{text}"));
    assert!(verdict.contains("codecrunch"), "{verdict}");
    assert!(!verdict.contains("fixed_keepalive"), "{verdict}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn floors_that_hold_exit_0_and_write_no_file() {
    let dir = scratch_dir("floor-holds");
    let (code, text) = simbench(
        &dir,
        &format!("{SMALL} --floor fixed_keepalive=1 --floor codecrunch=1"),
    );
    assert_eq!(code, 0, "{text}");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(
        written.is_empty(),
        "simbench wrote {written:?} without --out"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_floors_are_usage_errors() {
    let dir = scratch_dir("floor-usage");
    for floor in [
        "nosuch=1000",
        "codecrunch",
        "codecrunch=",
        "codecrunch=fast",
        "codecrunch=-5",
        "codecrunch=0",
        "codecrunch=inf",
        "codecrunch=NaN",
        "sitw=1000",
    ] {
        let (code, text) = simbench(&dir, &format!("{SMALL} --floor {floor}"));
        assert_eq!(code, 2, "--floor {floor}: {text}");
        assert!(text.contains("--floor"), "--floor {floor}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
