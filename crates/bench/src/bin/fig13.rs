//! Regenerates Figure 13: static vs dynamic DNN selection.
fn main() {
    rose_bench::report_fig13();
    rose_bench::persist_timing_cache();
}
