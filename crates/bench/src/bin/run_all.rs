//! Runs every table/figure report in sequence (the artifact's
//! `run-all.sh`): each prints and writes exactly what its own binary
//! does. Each mission sweep fans its independent scenarios out over a
//! worker pool; control the width with `--jobs N`.
fn main() {
    println!("sweep parallelism: {} jobs", rose_bench::default_jobs());
    for (name, report) in [
        ("table2", rose_bench::report_table2 as fn()),
        ("table3", rose_bench::report_table3),
        ("fig10", rose_bench::report_fig10),
        ("fig11", rose_bench::report_fig11),
        ("fig12", rose_bench::report_fig12),
        ("fig13", rose_bench::report_fig13),
        ("fig14", rose_bench::report_fig14),
        ("fig15", rose_bench::report_fig15),
        ("fig16", rose_bench::report_fig16),
    ] {
        println!("\n################ {name} ################");
        report();
    }
    rose_bench::persist_timing_cache();
}
