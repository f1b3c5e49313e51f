//! Extension experiment: multi-tenant execution (§1's motivation, after
//! MoCA). A best-effort telemetry task time-shares the companion core
//! with the DNN control loop; RoSE shows both the control loop's latency
//! inflation and the telemetry throughput the otherwise-idle core
//! recovers.

use rose::mission::{run_mission, run_mission_multitenant, MissionConfig};
use rose_bench::{default_jobs, parallel_map, write_csv, TextTable};
use rose_sim_core::csv::CsvLog;
use rose_socsim::multitenant::TimeSharedConfig;
use rose_socsim::SocConfig;

fn main() {
    let mut t = TextTable::new(&[
        "config",
        "sharing",
        "time (s)",
        "collisions",
        "latency (ms)",
        "idle frac",
        "telemetry blocks",
    ]);
    let mut csv = CsvLog::new(&["config_b", "bg_ops", "latency_ms", "telemetry"]);
    // One scenario per (config, scheduling share): bg_ops = 0 is the
    // control loop alone. All six runs are independent, so they share the
    // sweep worker pool.
    let mut scenarios = Vec::new();
    for (ci, soc) in [SocConfig::config_a(), SocConfig::config_b()]
        .iter()
        .enumerate()
    {
        for bg_ops in [0u32, 1, 4] {
            scenarios.push((ci, soc.clone(), bg_ops));
        }
    }
    let results = parallel_map(scenarios, default_jobs(), |(ci, soc, bg_ops)| {
        let mission = MissionConfig {
            soc,
            max_sim_seconds: 45.0,
            ..MissionConfig::default()
        };
        let (r, telemetry) = if bg_ops == 0 {
            (run_mission(&mission), 0)
        } else {
            run_mission_multitenant(
                &mission,
                TimeSharedConfig {
                    background_ops_per_fg: bg_ops,
                    ..TimeSharedConfig::default()
                },
                64 * 1024,
            )
        };
        (ci, mission.soc.name.clone(), bg_ops, r, telemetry)
    });
    for (ci, name, bg_ops, r, telemetry) in results {
        let idle = r.soc_stats.idle_cycles as f64 / r.soc_stats.cycles as f64;
        t.row(vec![
            name,
            if bg_ops == 0 {
                "solo".into()
            } else {
                format!("+telemetry x{bg_ops}")
            },
            r.mission_time_s.map_or("-".into(), |x| format!("{x:.2}")),
            r.collisions.to_string(),
            format!("{:.0}", r.mean_latency_ms),
            format!("{idle:.2}"),
            telemetry.to_string(),
        ]);
        csv.row(&[
            ci as f64,
            bg_ops as f64,
            r.mean_latency_ms,
            telemetry as f64,
        ]);
    }
    t.print("Extension: multi-tenant core sharing (tunnel, ResNet14 @ 3 m/s)");
    println!("the telemetry tenant recovers the control loop's idle cycles (idle frac");
    println!("drops to ~0) at the cost of control-latency inflation that grows with its");
    println!("scheduling share — the contention trade-off RoSE makes visible pre-silicon.");
    if let Some(p) = write_csv("multi_tenant.csv", &csv) {
        println!("wrote {}", p.display());
    }
}
