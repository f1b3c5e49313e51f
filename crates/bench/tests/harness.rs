//! Smoke tests for the experiment harness: the runners behind the figure
//! binaries produce structurally valid results.

use rose_bench::{mission_table, smoke_mission, table2, table3, trajectories_csv, LabeledRun};

#[test]
fn table2_lists_three_configs() {
    let t = table2();
    let rendered = t.render();
    for name in ["BOOM", "Rocket", "Gemmini", "None"] {
        assert!(rendered.contains(name), "missing {name} in:\n{rendered}");
    }
}

#[test]
fn table3_rows_are_ordered_and_positive() {
    let rows = table3();
    assert_eq!(rows.len(), 5);
    for w in rows.windows(2) {
        assert!(w[0].boom_ms < w[1].boom_ms, "BOOM latency not monotone");
        assert!(w[0].accuracy < w[1].accuracy);
    }
    for r in &rows {
        assert!(
            r.rocket_ms > r.boom_ms,
            "{}: Rocket must be slower",
            r.model
        );
    }
}

#[test]
fn smoke_mission_flies() {
    let report = smoke_mission();
    assert!(report.sim_time_s >= 2.0);
    assert!(report.inference_count >= 1);
    assert!(!report.trajectory.is_empty());
}

#[test]
fn mission_table_and_csv_agree() {
    let report = smoke_mission();
    let frames = report.trajectory.len();
    let runs = vec![LabeledRun {
        label: "smoke".into(),
        report,
    }];
    let table = mission_table(&runs).render();
    assert!(table.contains("smoke"));
    let csv = trajectories_csv(&runs);
    assert_eq!(csv.len(), frames);
    assert_eq!(csv.header(), &["run", "t", "x", "y"]);
}

#[test]
fn fig15_quick_point_has_positive_throughput() {
    // One very short TCP-deployment measurement (0.2 sim-seconds).
    let points = rose_bench::fig15(0.2);
    assert_eq!(points.len(), 6);
    for p in &points {
        assert!(p.sim_mhz > 0.0, "zero throughput at {}", p.frames_per_sync);
        assert_eq!(p.cycles_per_sync, p.frames_per_sync * 10_000_000);
    }
}
