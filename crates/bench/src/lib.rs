//! Shared harness for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §3 for the index); this library holds
//! the shared experiment runners so binaries and integration tests use
//! identical configurations, and each table's and figure's report
//! ([`figures`]) so a figure binary and `run_all` print and write the
//! same thing.
//!
//! Results print as aligned text tables and are also written as CSV into
//! `results/` (mirroring the artifact's CSV logs in
//! `deploy/hephaestus/logs/`).

pub mod experiments;
pub mod figures;
pub mod parallel;
pub mod report;
pub mod timing;

pub use experiments::*;
pub use figures::*;
pub use parallel::{default_jobs, parallel_map};
pub use report::{write_csv, TextTable};
pub use timing::{report_timing_cache, shared_timing_cache, with_timing_cache};
