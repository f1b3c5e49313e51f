//! Pre-silicon accelerator design-space exploration (the class of study
//! RoSE enables beyond the paper's figures, per Section 2.2: "access to a
//! wider range of microarchitectural parameters across accelerator design
//! and SoC integration").
//!
//! Sweeps the systolic mesh dimension and scratchpad capacity of the
//! Gemmini-class accelerator and reports both the isolated inference
//! latency AND the closed-loop mission outcome — demonstrating that
//! isolated speedups saturate in the end-to-end system (the paper's
//! motivating argument in Section 1).

use rose::app::ControllerChoice;
use rose::mission::{run_mission, MissionConfig};
use rose_bench::{default_jobs, parallel_map, with_timing_cache, write_csv, TextTable};
use rose_dnn::lower::time_inference;
use rose_dnn::DnnModel;
use rose_envsim::WorldKind;
use rose_sim_core::csv::CsvLog;
use rose_socsim::SocConfig;

fn main() {
    let model = DnnModel::ResNet14;
    let mut t = TextTable::new(&[
        "mesh",
        "scratchpad",
        "inference (ms)",
        "mission time (s)",
        "collisions",
        "activity",
    ]);
    let mut csv = CsvLog::new(&["mesh", "spad_kib", "inference_ms", "time_s", "collisions"]);

    let mut design_points = Vec::new();
    for mesh in [2usize, 4, 8, 16] {
        for spad_kib in [128usize, 256, 512] {
            design_points.push((mesh, spad_kib));
        }
    }
    let results = parallel_map(design_points, default_jobs(), |(mesh, spad_kib)| {
        let soc = SocConfig::config_a()
            .with_mesh(mesh)
            .with_scratchpad(spad_kib * 1024);
        let inference_ms = time_inference(&soc, model) as f64 / 1e6;
        // The cache fingerprint leaves the Gemmini parameters out, so the
        // design points share CPU-kernel entries wherever their memory
        // pre-states agree; repeated sweeps of the same grid start fully
        // warm.
        let mission = with_timing_cache(MissionConfig {
            soc,
            world: WorldKind::SShape,
            velocity: 9.0,
            controller: ControllerChoice::Static(model),
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        });
        (mesh, spad_kib, inference_ms, run_mission(&mission))
    });
    for (mesh, spad_kib, inference_ms, r) in results {
        t.row(vec![
            format!("{mesh}x{mesh}"),
            format!("{spad_kib} KiB"),
            format!("{inference_ms:.0}"),
            r.mission_time_s.map_or("-".into(), |x| format!("{x:.2}")),
            r.collisions.to_string(),
            format!("{:.3}", r.activity_factor),
        ]);
        csv.row(&[
            mesh as f64,
            spad_kib as f64,
            inference_ms,
            r.mission_time_s.unwrap_or(f64::NAN),
            r.collisions as f64,
        ]);
    }
    t.print("Accelerator DSE: mesh dimension x scratchpad (ResNet14, s-shape @ 9 m/s)");
    println!("isolated inference latency keeps improving with mesh size, but the");
    println!("closed-loop mission saturates once the control loop meets its deadline —");
    println!("the system-level effect RoSE exists to expose.");
    if let Some(p) = write_csv("dse_accel.csv", &csv) {
        println!("wrote {}", p.display());
    }
    rose_bench::report_timing_cache();
}
