//! Runs every table/figure experiment in sequence (the artifact's
//! `run-all.sh`). Each mission sweep fans its independent scenarios out
//! over a worker pool; control the width with `--jobs N`.
fn main() {
    println!("sweep parallelism: {} jobs", rose_bench::default_jobs());
    for (name, f) in [
        ("table2", run_table2 as fn()),
        ("table3", run_table3),
        ("fig10", run_fig10),
        ("fig11", run_fig11),
        ("fig12", run_fig12),
        ("fig13", run_fig13),
        ("fig14", run_fig14),
        ("fig15", run_fig15),
        ("fig16", run_fig16),
    ] {
        println!("\n################ {name} ################");
        f();
    }
    rose_bench::persist_timing_cache();
}

fn run_table2() {
    rose_bench::table2().print("Table 2");
}
fn run_table3() {
    let rows = rose_bench::table3();
    for r in rows {
        println!(
            "{}: BOOM {:.0} ms, Rocket {:.0} ms, acc {:.0}%",
            r.model,
            r.boom_ms,
            r.rocket_ms,
            r.accuracy * 100.0
        );
    }
}
fn run_fig10() {
    rose_bench::mission_table(&rose_bench::fig10()).print("Figure 10");
}
fn run_fig11() {
    let runs: Vec<_> = rose_bench::fig11()
        .into_iter()
        .map(|(m, report)| rose_bench::LabeledRun {
            label: m.to_string(),
            report,
        })
        .collect();
    rose_bench::mission_table(&runs).print("Figure 11");
}
fn run_fig12() {
    let runs: Vec<_> = rose_bench::fig12()
        .into_iter()
        .map(|(v, report)| rose_bench::LabeledRun {
            label: format!("v={v}"),
            report,
        })
        .collect();
    rose_bench::mission_table(&runs).print("Figure 12");
}
fn run_fig13() {
    rose_bench::mission_table(&rose_bench::fig13()).print("Figure 13");
}
fn run_fig14() {
    rose_bench::mission_table(&rose_bench::fig14()).print("Figure 14");
}
fn run_fig15() {
    for p in rose_bench::fig15(2.0) {
        println!(
            "{} frames/sync ({}M cycles): {:.1} sim-MHz, env {:.2}s / rtl {:.2}s",
            p.frames_per_sync,
            p.cycles_per_sync / 1_000_000,
            p.sim_mhz,
            p.env_wall_s,
            p.rtl_wall_s,
        );
    }
}
fn run_fig16() {
    for run in rose_bench::fig16() {
        println!(
            "{}M cycles/sync: latency {:.0} ms, time {:?}, collisions {}",
            run.cycles_per_sync / 1_000_000,
            run.report.mean_latency_ms,
            run.report.mission_time_s,
            run.report.collisions
        );
    }
}
