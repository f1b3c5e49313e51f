//! Extension experiment: clock-frequency scaling — the post-silicon
//! parameter MAVBench-style HIL evaluation is limited to (§2.2), here as
//! the baseline against which microarchitectural exploration is compared.

use rose::mission::{run_mission, MissionConfig};
use rose_bench::{default_jobs, parallel_map, with_timing_cache, write_csv, TextTable};
use rose_dnn::lower::time_inference;
use rose_dnn::DnnModel;
use rose_sim_core::csv::CsvLog;
use rose_sim_core::cycles::ClockSpec;
use rose_socsim::SocConfig;

fn main() {
    let mut t = TextTable::new(&[
        "clock",
        "inference (ms)",
        "mission time (s)",
        "collisions",
        "energy (mJ)",
    ]);
    let mut csv = CsvLog::new(&["mhz", "inference_ms", "time_s", "energy_mj"]);
    let results = parallel_map(vec![500u64, 1000, 1500, 2000], default_jobs(), |mhz| {
        let mut soc = SocConfig::config_a();
        soc.clock = ClockSpec::from_mhz(mhz);
        soc.name = format!("A@{mhz}MHz");
        let inference_ms =
            time_inference(&soc, DnnModel::ResNet14) as f64 / soc.clock.hz() as f64 * 1e3;
        // The cache fingerprint deliberately excludes the clock (kernel
        // expansion is entirely cycle-domain), so all four sweep points
        // replay one shared set of entries.
        let mission = with_timing_cache(MissionConfig {
            soc,
            world: rose_envsim::WorldKind::SShape,
            velocity: 9.0,
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        });
        (mhz, inference_ms, run_mission(&mission))
    });
    for (mhz, inference_ms, r) in results {
        t.row(vec![
            format!("{mhz} MHz"),
            format!("{inference_ms:.0}"),
            r.mission_time_s.map_or("-".into(), |x| format!("{x:.2}")),
            r.collisions.to_string(),
            format!("{:.0}", r.energy.total_mj()),
        ]);
        csv.row(&[
            mhz as f64,
            inference_ms,
            r.mission_time_s.unwrap_or(f64::NAN),
            r.energy.total_mj(),
        ]);
    }
    t.print("Extension: clock-frequency sweep (ResNet14, s-shape @ 9 m/s)");
    println!("frequency scaling alone moves inference latency linearly, but the mission");
    println!("saturates once deadlines are met — microarchitecture (Table 2 / DSE) and");
    println!("algorithm choice (Fig. 11) matter more than the post-silicon knob.");
    if let Some(p) = write_csv("freq_sweep.csv", &csv) {
        println!("wrote {}", p.display());
    }
    rose_bench::persist_timing_cache();
}
