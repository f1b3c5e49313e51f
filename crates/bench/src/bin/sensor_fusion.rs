//! Extension experiment (paper §6): sensor-fusion controller with
//! separate per-sensor backbones executed at data-dependent rates. The
//! image branch only fires on aggressive maneuvers or stale features, so
//! the SoC sees an irregular, bimodal load.

use rose::fusion::{run_fusion_mission, FusionConfig};
use rose::mission::MissionConfig;
use rose_bench::{write_csv, TextTable};
use rose_envsim::WorldKind;
use rose_sim_core::csv::CsvLog;

fn main() {
    let mut t = TextTable::new(&[
        "world",
        "velocity",
        "complete",
        "time (s)",
        "collisions",
        "image-branch rate",
        "steps",
    ]);
    let mut csv = CsvLog::new(&["world", "velocity", "image_rate", "steps"]);
    for (wi, (world, velocity)) in [
        (WorldKind::Tunnel, 3.0),
        (WorldKind::SShape, 6.0),
        (WorldKind::Slalom, 4.0),
    ]
    .into_iter()
    .enumerate()
    {
        let mission = MissionConfig {
            world,
            velocity,
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        };
        let r = run_fusion_mission(&mission, FusionConfig::default());
        t.row(vec![
            world.to_string(),
            format!("{velocity}"),
            r.completed.to_string(),
            r.mission_time_s.map_or("-".into(), |x| format!("{x:.2}")),
            r.collisions.to_string(),
            format!("{:.2}", r.metrics.image_branch_rate()),
            r.metrics.steps().to_string(),
        ]);
        csv.row(&[
            wi as f64,
            velocity,
            r.metrics.image_branch_rate(),
            r.metrics.steps() as f64,
        ]);
    }
    t.print("Extension: sensor fusion with data-dependent branch execution");
    println!("straight corridors mostly run the cheap IMU branch; curvy/obstacle worlds");
    println!("demand fresh vision more often — the irregular execution pattern of paper §6.");
    if let Some(p) = write_csv("sensor_fusion.csv", &csv) {
        println!("wrote {}", p.display());
    }
}
