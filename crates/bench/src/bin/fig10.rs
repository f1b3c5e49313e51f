//! Regenerates Figure 10: trajectories per hardware config and initial angle.
fn main() {
    rose_bench::report_fig10();
    rose_bench::report_timing_cache();
}
