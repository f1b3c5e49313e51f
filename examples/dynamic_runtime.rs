//! The Section 5.3 experiment: static DNN selection vs the dynamic
//! runtime that switches networks based on the collision deadline
//! (Equations 3-5).
//!
//! Run with: `cargo run --release --example dynamic_runtime`

use rose::app::ControllerChoice;
use rose::mission::{run_mission, MissionConfig};
use rose_dnn::DnnModel;
use rose_envsim::WorldKind;

fn main() {
    println!("s-shape @ 9 m/s on BOOM+Gemmini:\n");
    println!(
        "{:<16} {:>8} {:>11} {:>10} {:>12} {:>10}",
        "controller", "time(s)", "collisions", "activity", "inferences", "fast-frac"
    );
    for (name, controller) in [
        (
            "static ResNet14",
            ControllerChoice::Static(DnnModel::ResNet14),
        ),
        (
            "static ResNet6",
            ControllerChoice::Static(DnnModel::ResNet6),
        ),
        ("dynamic 14<->6", ControllerChoice::dynamic_default()),
    ] {
        let config = MissionConfig {
            world: WorldKind::SShape,
            velocity: 9.0,
            controller,
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        };
        let r = run_mission(&config);
        println!(
            "{:<16} {:>8.2} {:>11} {:>10.3} {:>12} {:>10.2}",
            name,
            r.mission_time_s.unwrap_or(f64::NAN),
            r.collisions,
            r.activity_factor,
            r.inference_count,
            r.fast_fraction
        );
    }
    println!("\nThe dynamic runtime reduces the accelerator activity factor while");
    println!("matching or improving mission time (Figure 13).");
}
