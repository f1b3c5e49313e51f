//! Regenerates Figure 14: hardware x software co-design sweep.
fn main() {
    rose_bench::report_fig14();
    rose_bench::persist_timing_cache();
}
