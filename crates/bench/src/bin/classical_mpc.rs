//! Extension experiment (paper §6, "Future Directions"): a classical
//! iterative-optimization workload — nonlinear-MPC-style corridor
//! tracking — whose solver iteration count, and therefore SoC compute
//! time, is data-dependent. RoSE captures the resulting coupling between
//! flight state and control latency end to end.

use rose::mission::MissionConfig;
use rose::mpc::{run_mpc_mission, MpcConfig};
use rose_bench::{write_csv, TextTable};
use rose_sim_core::csv::CsvLog;
use rose_socsim::SocConfig;

fn main() {
    let mut t = TextTable::new(&[
        "config",
        "initial yaw",
        "complete",
        "time (s)",
        "collisions",
        "mean iters",
        "max iters",
        "latency (ms)",
    ]);
    let mut csv = CsvLog::new(&["config_b", "yaw", "mean_iters", "latency_ms"]);
    for (i, soc) in [SocConfig::config_a(), SocConfig::config_b()]
        .iter()
        .enumerate()
    {
        for yaw in [0.0, 20.0] {
            let mission = MissionConfig {
                soc: soc.clone(),
                initial_yaw_deg: yaw,
                max_sim_seconds: 45.0,
                ..MissionConfig::default()
            };
            let (r, solver) = run_mpc_mission(&mission, MpcConfig::default());
            let max_iters = solver.iterations.iter().copied().max().unwrap_or(0);
            t.row(vec![
                soc.name.clone(),
                format!("{yaw:+.0}"),
                r.completed.to_string(),
                r.mission_time_s.map_or("-".into(), |x| format!("{x:.2}")),
                r.collisions.to_string(),
                format!("{:.1}", solver.mean_iterations()),
                max_iters.to_string(),
                format!("{:.1}", r.mean_latency_ms),
            ]);
            csv.row(&[i as f64, yaw, solver.mean_iterations(), r.mean_latency_ms]);
        }
    }
    t.print("Extension: classical MPC workload with data-dependent runtime (tunnel @ 3 m/s)");
    println!("angled starts force larger corrections -> more solver iterations -> longer");
    println!("SoC compute per control step; the effect compounds with the slower core.");
    if let Some(p) = write_csv("classical_mpc.csv", &csv) {
        println!("wrote {}", p.display());
    }
}
