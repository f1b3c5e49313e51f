//! The report of each table and figure: its text table, its comparison
//! with the paper, and its CSVs under `results/`. The figure binaries and
//! `run_all` call the same function, so a figure reads the same whichever
//! regenerates it.

use crate::experiments::{
    fig10, fig11, fig12, fig13, fig14, fig15, fig16, mission_table, table2, table3,
    trajectories_csv, LabeledRun,
};
use crate::report::{write_csv, TextTable};
use rose_sim_core::csv::CsvLog;

/// Writes `log` as `results/<name>` and says so (a read-only checkout
/// skips the file; the table is already printed).
fn save(name: &str, log: &CsvLog) {
    if let Some(p) = write_csv(name, log) {
        println!("wrote {}", p.display());
    }
}

/// Table 2: the evaluated hardware configurations.
pub fn report_table2() {
    table2().print("Table 2: hardware configurations");
}

/// Table 3: latency and accuracy of the DNN controllers.
pub fn report_table3() {
    let rows = table3();
    let paper_a = [77.0, 83.0, 85.0, 130.0, 225.0];
    let paper_b = [101.0, 108.0, 125.0, 185.0, 300.0];
    let mut t = TextTable::new(&[
        "model",
        "BOOM+Gemmini (ms)",
        "paper",
        "Rocket+Gemmini (ms)",
        "paper",
        "val. accuracy",
    ]);
    let mut csv = CsvLog::new(&["depth", "boom_ms", "rocket_ms", "accuracy"]);
    for (i, row) in rows.iter().enumerate() {
        t.row(vec![
            row.model.to_string(),
            format!("{:.0}", row.boom_ms),
            format!("{:.0}", paper_a[i]),
            format!("{:.0}", row.rocket_ms),
            format!("{:.0}", paper_b[i]),
            format!("{:.0}%", row.accuracy * 100.0),
        ]);
        csv.row(&[
            row.model.depth() as f64,
            row.boom_ms,
            row.rocket_ms,
            row.accuracy,
        ]);
    }
    t.print("Table 3: DNN controller latency and accuracy (paper values inline)");
    save("table3.csv", &csv);
}

/// Figure 10: trajectories per hardware config and initial angle.
pub fn report_fig10() {
    let runs = fig10();
    mission_table(&runs)
        .print("Figure 10: tunnel, ResNet14 @ 3 m/s, configs A/B/C x initial angles -20/0/+20");
    save("fig10_trajectories.csv", &trajectories_csv(&runs));
    // Paper: A and B complete for all angles; C (no accelerator) collides
    // before corrections arrive at angled starts.
    for run in &runs {
        if run.label.starts_with("C/") && !run.label.ends_with("+0") {
            println!(
                "  C angled start: collisions = {} (paper: crashes before first inference)",
                run.report.collisions
            );
        }
    }
}

/// Figure 11: DNN sweep in s-shape at 9 m/s.
pub fn report_fig11() {
    let runs: Vec<LabeledRun> = fig11()
        .into_iter()
        .map(|(m, report)| LabeledRun {
            label: m.to_string(),
            report,
        })
        .collect();
    mission_table(&runs).print("Figure 11: s-shape @ 9 m/s, config A, DNN architecture sweep");
    println!("paper mission times: ResNet6 16.1 s (collides), ResNet11 12.94 s, ResNet14 12.32 s, ResNet18 35.68 s, ResNet34 fails");
    save("fig11_trajectories.csv", &trajectories_csv(&runs));
}

/// Figure 12: velocity-target sweep, ResNet14 on BOOM+Gemmini.
pub fn report_fig12() {
    let runs: Vec<LabeledRun> = fig12()
        .into_iter()
        .map(|(v, report)| LabeledRun {
            label: format!("v={v}"),
            report,
        })
        .collect();
    mission_table(&runs).print("Figure 12: s-shape, ResNet14 on A, velocity sweep 6/9/12 m/s");
    println!("paper: 6 m/s safest trajectory; 9 m/s shortest mission (12.14 s); 12 m/s collides after deadline violations");
    save("fig12_trajectories.csv", &trajectories_csv(&runs));
}

/// Figure 13: static vs dynamic DNN selection.
pub fn report_fig13() {
    let runs = fig13();
    mission_table(&runs).print("Figure 13: application runtime and accelerator activity factor");
    let mut csv = CsvLog::new(&["run", "time_s", "activity", "inferences", "fast_fraction"]);
    for (i, run) in runs.iter().enumerate() {
        csv.row(&[
            i as f64,
            run.report.mission_time_s.unwrap_or(f64::NAN),
            run.report.activity_factor,
            run.report.inference_count as f64,
            run.report.fast_fraction,
        ]);
    }
    println!("paper: the dynamic runtime achieves a lower activity factor than static ResNet14 while also improving mission time, with ~15% fewer inferences");
    save("fig13.csv", &csv);
}

/// Figure 14: hardware x software co-design sweep.
pub fn report_fig14() {
    let runs = fig14();
    mission_table(&runs)
        .print("Figure 14: mission time / velocity / DNN activity, BOOM+Gemmini vs Rocket+Gemmini");
    let mut csv = CsvLog::new(&["run", "time_s", "avg_v", "activity", "collisions"]);
    for (i, run) in runs.iter().enumerate() {
        csv.row(&[
            i as f64,
            run.report.mission_time_s.unwrap_or(f64::NAN),
            run.report.avg_velocity,
            run.report.activity_factor,
            run.report.collisions as f64,
        ]);
    }
    println!("paper: with BOOM, ResNet14 is the optimal design point; with Rocket the SoC struggles (recovers from collisions), and low-latency DNNs gain value");
    save("fig14.csv", &csv);
}

/// Figure 15: co-simulation throughput vs sync granularity, 4 simulated
/// seconds per flight, each point the median of five flights.
pub fn report_fig15() {
    let points = fig15(4.0);
    let mut t = TextTable::new(&[
        "frames/sync",
        "cycles/sync",
        "throughput (sim MHz)",
        "env wall (s)",
        "rtl wall (s)",
    ]);
    let mut csv = CsvLog::new(&[
        "frames_per_sync",
        "cycles_per_sync",
        "sim_mhz",
        "env_wall_s",
        "rtl_wall_s",
    ]);
    for p in &points {
        t.row(vec![
            p.frames_per_sync.to_string(),
            format!("{}M", p.cycles_per_sync / 1_000_000),
            format!("{:.1}", p.sim_mhz),
            format!("{:.3}", p.env_wall_s),
            format!("{:.3}", p.rtl_wall_s),
        ]);
        csv.row(&[
            p.frames_per_sync as f64,
            p.cycles_per_sync as f64,
            p.sim_mhz,
            p.env_wall_s,
            p.rtl_wall_s,
        ]);
    }
    t.print("Figure 15: simulation throughput vs synchronization granularity (TCP deployment)");
    println!("paper: throughput grows with granularity, bottlenecked at fine granularity by per-sync polling and at coarse granularity by the RTL simulator's native speed");
    save("fig15.csv", &csv);
}

/// Figure 16: effect of synchronization granularity on trajectories and
/// on image-request -> DNN-response latency.
pub fn report_fig16() {
    let runs = fig16();
    let mut t = TextTable::new(&[
        "cycles/sync",
        "latency (ms)",
        "mission time (s)",
        "collisions",
        "final |y| (m)",
    ]);
    let mut csv = CsvLog::new(&["cycles_per_sync", "latency_ms", "time_s", "collisions"]);
    let mut traj = CsvLog::new(&["cycles_per_sync", "t", "x", "y"]);
    for run in &runs {
        let r = &run.report;
        let final_y = r.trajectory.last().map_or(0.0, |p| p.position.y.abs());
        t.row(vec![
            format!("{}M", run.cycles_per_sync / 1_000_000),
            format!("{:.0}", r.mean_latency_ms),
            r.mission_time_s.map_or("-".into(), |x| format!("{x:.2}")),
            r.collisions.to_string(),
            format!("{final_y:.2}"),
        ]);
        csv.row(&[
            run.cycles_per_sync as f64,
            r.mean_latency_ms,
            r.mission_time_s.unwrap_or(f64::NAN),
            r.collisions as f64,
        ]);
        for p in &r.trajectory {
            traj.row(&[run.cycles_per_sync as f64, p.t, p.position.x, p.position.y]);
        }
    }
    t.print("Figure 16: sync granularity sweep (tunnel, +20deg, ResNet14 @ 3 m/s)");
    println!("paper: at 10M cycles the latency sits slightly above the 125 ms compute latency; by 400M cycles the observed ~400 ms is >3x the ideal, and trajectories diverge");
    save("fig16.csv", &csv);
    save("fig16_trajectories.csv", &traj);
}
