//! Regenerates Figure 10: trajectories per hardware config and initial angle.
use rose_bench::{mission_table, trajectories_csv, write_csv};

fn main() {
    let runs = rose_bench::fig10();
    mission_table(&runs)
        .print("Figure 10: tunnel, ResNet14 @ 3 m/s, configs A/B/C x initial angles -20/0/+20");
    if let Some(p) = write_csv("fig10_trajectories.csv", &trajectories_csv(&runs)) {
        println!("wrote {}", p.display());
    }
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
    rose_bench::persist_timing_cache();
}
