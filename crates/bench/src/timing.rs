//! Process-wide timing-cache attachment for the bench binaries.
//!
//! Sweeps re-expand the same CPU kernels thousands of times; the
//! persisted timing cache (DESIGN.md §4i) lets a machine pay that cost
//! once. The cache is selected by the `ROSE_TIMING_CACHE`
//! environment variable (unset → the default per-repo file, `0`/`off` →
//! disabled, anything else → that path) and shared by every mission the
//! process runs, including parallel sweep workers.

use rose::mission::MissionConfig;
use rose_socsim::SharedTimingCache;
use std::sync::OnceLock;

static CACHE: OnceLock<Option<SharedTimingCache>> = OnceLock::new();

/// The process-wide shared timing cache, or `None` when disabled via
/// `ROSE_TIMING_CACHE=0`. Loaded from disk once, on first use.
pub fn shared_timing_cache() -> Option<&'static SharedTimingCache> {
    CACHE.get_or_init(SharedTimingCache::from_env).as_ref()
}

/// Attaches the process-wide timing cache to a mission configuration.
/// Digest-invisible by contract: sweeps produce bit-identical results
/// with or without it.
pub fn with_timing_cache(mut config: MissionConfig) -> MissionConfig {
    config.timing_cache = shared_timing_cache().cloned();
    config
}

/// Merges the cache into its file (under a lock, atomically; no-op when
/// disabled, in-memory, or unchanged). Binaries call this once before
/// exiting so the next run starts warm. Persist failures only cost future
/// warmth, so they warn instead of aborting a finished experiment.
pub fn persist_timing_cache() {
    if let Some(cache) = shared_timing_cache() {
        if let Err(err) = cache.persist() {
            eprintln!("warning: failed to persist timing cache: {err}");
        } else if let Some(path) = cache.path() {
            let (hits, misses) = cache.counters();
            eprintln!(
                "timing cache: {} entries at {} ({hits} hits / {misses} misses this run)",
                cache.len(),
                path.display()
            );
        }
    }
}
