//! The paper's TCP deployment: the synchronizer drives the RTL simulation
//! through a TCP listener (Section 3.4.1), here with both endpoints on
//! localhost.
//!
//! Run with: `cargo run --release --example remote_cosim`

use rose::mission::{run_remote_mission, MissionConfig};
use rose_bridge::faults::FaultPlan;
use rose_bridge::transport::TcpTransport;
use std::net::TcpListener;

fn main() {
    let config = MissionConfig {
        max_sim_seconds: 5.0,
        ..MissionConfig::default()
    };

    // The synchronizer host connects to the "FireSim host", which serves
    // the simulated SoC over the accepted end of the connection.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = TcpTransport::connect(addr).expect("connect");
    let server = TcpTransport::accept(&listener).expect("accept");
    println!("co-simulating over TCP at {addr} ...");
    let report = run_remote_mission(&config, client, server, FaultPlan::default()).report;

    let stats = report.sync_stats;
    println!(
        "simulated {:.1} s of flight over {} syncs ({:.1} sim-MHz over TCP)",
        report.sim_time_s,
        stats.syncs,
        stats.throughput_hz(report.profile.total_wall()) / 1e6
    );
    let x = report.trajectory.last().map_or(0.0, |p| p.position.x);
    println!(
        "UAV at x = {x:.1} m after {} inferences; SoC executed {:.2}e9 cycles",
        report.inference_count,
        report.soc_stats.cycles as f64 / 1e9
    );
}
