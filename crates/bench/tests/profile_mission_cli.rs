//! Exit-code contract of the `profile_mission` binary for numeric flags:
//! a value that is not finite, or out of range, is a usage error (exit 2)
//! and never starts a mission.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_profile_mission"))
        .args(args)
        .output()
        .expect("profile_mission runs")
        .status
        .code()
}

#[test]
fn out_of_range_numbers_are_usage_errors() {
    for args in [
        ["--seconds", "nan"],
        ["--seconds", "-3"],
        ["--seconds", "0"],
        ["--snapshot-at", "inf"],
        ["--deadline-budget", "-1"],
    ] {
        assert_eq!(
            exit_code(&args),
            Some(2),
            "profile_mission {}",
            args.join(" ")
        );
    }
}
