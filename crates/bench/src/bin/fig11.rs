//! Regenerates Figure 11: DNN sweep in s-shape at 9 m/s.
fn main() {
    rose_bench::report_fig11();
    rose_bench::persist_timing_cache();
}
