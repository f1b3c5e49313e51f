//! The Figure 10 scenario with an ASCII trajectory view: three initial
//! angles in the tunnel, comparing an accelerated SoC (config A) against
//! the CPU-only SoC (config C).
//!
//! Run with: `cargo run --release --example tunnel_flight`

use rose::mission::{run_mission, MissionConfig, MissionReport};
use rose_socsim::SocConfig;

fn ascii_trajectory(report: &MissionReport) -> String {
    // 60 columns of x in [0, 50], rows of y in [-2, 2].
    let mut grid = vec![[b' '; 62]; 9];
    for row in &mut grid {
        row[0] = b'|';
        row[61] = b'|';
    }
    for p in &report.trajectory {
        let col = 1 + ((p.position.x / 50.0) * 59.0).clamp(0.0, 59.0) as usize;
        let row = ((p.position.y + 2.0) / 4.0 * 8.0).clamp(0.0, 8.0) as usize;
        grid[8 - row][col] = if p.in_collision { b'X' } else { b'*' };
    }
    grid.iter()
        .enumerate()
        .map(|(i, row)| {
            let label = match i {
                1 => "+1.6m ",
                4 => "  0m  ",
                7 => "-1.6m ",
                _ => "      ",
            };
            format!("{label}{}", String::from_utf8_lossy(row))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    for (name, soc) in [
        ("A (BOOM+Gemmini)", SocConfig::config_a()),
        ("C (BOOM only)", SocConfig::config_c()),
    ] {
        for yaw in [-20.0, 0.0, 20.0] {
            let config = MissionConfig {
                soc: soc.clone(),
                initial_yaw_deg: yaw,
                max_sim_seconds: 45.0,
                ..MissionConfig::default()
            };
            let report = run_mission(&config);
            println!(
                "\nconfig {name}, initial angle {yaw:+.0} deg -> completed={} collisions={} time={:.1?}",
                report.completed, report.collisions, report.mission_time_s
            );
            println!("{}", ascii_trajectory(&report));
        }
    }
}
