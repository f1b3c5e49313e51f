//! Forced-failure postmortems (DESIGN.md §4f acceptance).
//!
//! The flight recorder must turn an injected failure into a postmortem
//! JSON that *names the cause*: a mission flown with an impossible control
//! deadline dumps a `deadline-miss` postmortem whose attribution blames
//! compute. (A mission whose remote link dies dumps one
//! `transport-fault` postmortem: see `failure_injection.rs`.)

use rose::mission::{run_mission, MissionConfig};
use rose_socsim::SharedTimingCache;
use rose_trace::flight::POSTMORTEM_SCHEMA;
use rose_trace::json;

#[test]
fn deadline_miss_postmortem_blames_compute() {
    let config = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        // One SoC cycle of budget: every control-loop response misses, so
        // the very first completed command trips the recorder.
        deadline_budget_s: 1e-9,
        timing_cache: Some(SharedTimingCache::in_memory()),
        ..MissionConfig::default()
    };
    let report = run_mission(&config);
    let misses = report.app.deadline_misses;
    assert!(misses > 0, "the 1ns budget must be unmeetable");
    assert!(
        !report.postmortems.is_empty(),
        "deadline misses must auto-dump a postmortem"
    );

    let parsed = json::parse(&report.postmortems[0]).expect("postmortem is valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some(POSTMORTEM_SCHEMA)
    );
    assert_eq!(
        parsed.get("reason").and_then(|v| v.as_str()),
        Some("deadline-miss")
    );
    // The control loop is compute-bound (DNN kernels on the modeled SoC),
    // and the mission was traced — attribution must finger compute, not
    // the bridge or an rx stall.
    let dominant = parsed
        .get("attribution")
        .and_then(|a| a.get("dominant"))
        .and_then(|v| v.as_str());
    assert_eq!(
        dominant,
        Some("compute"),
        "postmortem: {}",
        report.postmortems[0]
    );
    // The dump names the mission's timing cache: the first trigger comes
    // after the control loop's kernels expanded cold into it.
    let cache = parsed.get("timing_cache").expect("timing-cache counters");
    let count = |key| cache.get(key).and_then(|v| v.as_f64()).expect(key);
    assert!(count("misses") > 0.0 && count("entries") == count("misses"));
    // The cache has no file, so the dump gives no size.
    assert!(cache.get("file_bytes").is_none());
    // The ring carries context, not just the trigger sample.
    let ring = parsed.get("ring").and_then(|r| r.as_array()).expect("ring");
    assert!(!ring.is_empty());
}

#[test]
fn telemetry_does_not_perturb_the_digest() {
    use rose::audit::MissionDigest;

    // Full observability armed: tracing, histograms, deadline accounting,
    // flight recorder. The digest must not notice, and a second run must
    // reproduce the first bit-for-bit.
    let instrumented = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        deadline_budget_s: 0.05,
        ..MissionConfig::default()
    };
    let bare = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        ..MissionConfig::default()
    };
    let first = MissionDigest::of(&run_mission(&instrumented));
    let second = MissionDigest::of(&run_mission(&instrumented));
    assert_eq!(first, second, "runs diverged under telemetry");
    // The deadline budget only adds host-side accounting — the flown
    // trajectory and SoC state are untouched.
    let unbudgeted = MissionDigest::of(&run_mission(&bare));
    assert_eq!(first.trajectory, unbudgeted.trajectory);
    assert_eq!(first.soc, unbudgeted.soc);
}
