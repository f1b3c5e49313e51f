//! Quickstart: run one full-stack co-simulated mission and print the report.
//!
//! A UAV with a BOOM+Gemmini companion SoC (Table 2 config A) flies the
//! 50 m tunnel using a ResNet14 controller at 3 m/s, with the SoC simulated
//! cycle-by-cycle in lockstep with the environment.
//!
//! Run with: `cargo run --release --example quickstart`

use rose::mission::{run_mission, MissionConfig};

fn main() {
    let config = MissionConfig::default();
    println!(
        "mission: {} on {} | {} @ {} m/s",
        match config.controller {
            rose::app::ControllerChoice::Static(m) => m.to_string(),
            _ => "dynamic".to_string(),
        },
        config.soc,
        config.world,
        config.velocity
    );

    let report = run_mission(&config);

    println!("completed:        {}", report.completed);
    if let Some(t) = report.mission_time_s {
        println!("mission time:     {t:.2} s");
        println!("avg velocity:     {:.2} m/s", report.avg_velocity);
    }
    println!("collisions:       {}", report.collisions);
    println!("inferences:       {}", report.inference_count);
    println!(
        "mean latency:     {:.0} ms (image request -> command)",
        report.mean_latency_ms
    );
    println!("activity factor:  {:.3}", report.activity_factor);
    println!(
        "simulated:        {:.1} s of flight, {:.2}e9 SoC cycles",
        report.sim_time_s,
        report.soc_stats.cycles as f64 / 1e9
    );

    let csv = report.trajectory_csv();
    if csv.write_to("quickstart_trajectory.csv").is_ok() {
        println!(
            "trajectory:       quickstart_trajectory.csv ({} rows)",
            csv.len()
        );
    }
}
