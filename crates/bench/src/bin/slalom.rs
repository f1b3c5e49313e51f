//! Extension experiment: the `slalom` obstacle environment, stressing the
//! depth sensor and the dynamic runtime's deadline switching.

use rose::app::ControllerChoice;
use rose::mission::{run_mission, MissionConfig};
use rose_bench::{mission_table, trajectories_csv, write_csv, LabeledRun};
use rose_dnn::DnnModel;
use rose_envsim::WorldKind;

fn main() {
    let mut runs = Vec::new();
    for (label, controller) in [
        (
            "static-ResNet14",
            ControllerChoice::Static(DnnModel::ResNet14),
        ),
        (
            "static-ResNet6",
            ControllerChoice::Static(DnnModel::ResNet6),
        ),
        ("dynamic", ControllerChoice::dynamic_default()),
    ] {
        for velocity in [3.0, 5.0] {
            let mission = MissionConfig {
                world: WorldKind::Slalom,
                velocity,
                controller,
                max_sim_seconds: 60.0,
                ..MissionConfig::default()
            };
            runs.push(LabeledRun {
                label: format!("{label}/v{velocity}"),
                report: run_mission(&mission),
            });
        }
    }
    mission_table(&runs).print("Extension: slalom environment (pillar obstacles)");
    if let Some(p) = write_csv("slalom_trajectories.csv", &trajectories_csv(&runs)) {
        println!("wrote {}", p.display());
    }
}
