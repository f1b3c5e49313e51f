//! Regenerates Table 2: the evaluated hardware configurations.
fn main() {
    rose_bench::report_table2();
}
