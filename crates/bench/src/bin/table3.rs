//! Regenerates Table 3: latency and accuracy of the DNN controllers.
fn main() {
    rose_bench::report_table3();
}
