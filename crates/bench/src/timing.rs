//! Process-wide timing-cache attachment for the bench binaries.
//!
//! Sweeps re-expand the same CPU kernels thousands of times; the timing
//! cache (DESIGN.md §4i) lets a process pay that cost once. Every mission
//! the process runs, including parallel sweep workers, shares one
//! in-memory cache: the first mission is cold, and the later ones replay.

use rose::mission::MissionConfig;
use rose_socsim::SharedTimingCache;
use std::sync::OnceLock;

static CACHE: OnceLock<SharedTimingCache> = OnceLock::new();

/// The process-wide shared timing cache, empty on first use.
pub fn shared_timing_cache() -> &'static SharedTimingCache {
    CACHE.get_or_init(SharedTimingCache::in_memory)
}

/// Attaches the process-wide timing cache to a mission configuration.
/// Digest-invisible by contract: sweeps produce bit-identical results
/// with or without it.
pub fn with_timing_cache(mut config: MissionConfig) -> MissionConfig {
    config.timing_cache = Some(shared_timing_cache().clone());
    config
}

/// Reports the process-wide cache's entries, hits and misses on stderr.
/// Binaries call this once before exiting.
pub fn report_timing_cache() {
    let cache = shared_timing_cache();
    let (hits, misses) = cache.counters();
    eprintln!(
        "timing cache: {} entries ({hits} hits / {misses} misses this run)",
        cache.len()
    );
}
