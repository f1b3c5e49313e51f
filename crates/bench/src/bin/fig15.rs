//! Regenerates Figure 15: co-simulation throughput vs sync granularity.
fn main() {
    rose_bench::report_fig15();
    rose_bench::persist_timing_cache();
}
