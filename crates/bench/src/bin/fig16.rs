//! Regenerates Figure 16: effect of synchronization granularity on
//! trajectories and on image-request -> DNN-response latency.
fn main() {
    rose_bench::report_fig16();
    rose_bench::persist_timing_cache();
}
