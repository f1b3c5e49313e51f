//! Exit-code contract of the `chaos_mission` binary for `--seconds`: a
//! flight window that is not finite or not positive would fly nothing (or
//! schedule no reachable fault), so it is a usage error (exit 2) and no
//! trial starts.

use std::process::Command;

#[test]
fn seconds_that_fly_nothing_are_usage_errors() {
    for seconds in ["nan", "-3", "0", "inf"] {
        let code = Command::new(env!("CARGO_BIN_EXE_chaos_mission"))
            .args(["--trials", "1", "--seconds", seconds])
            .output()
            .expect("chaos_mission runs")
            .status
            .code();
        assert_eq!(code, Some(2), "chaos_mission --seconds {seconds}");
    }
}
