//! Regenerates Figure 12: velocity-target sweep, ResNet14 on BOOM+Gemmini.
fn main() {
    rose_bench::report_fig12();
    rose_bench::report_timing_cache();
}
