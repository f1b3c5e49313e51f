//! Empty: kept only so the benchmark package's frozen `Cargo.lock` still resolves.
