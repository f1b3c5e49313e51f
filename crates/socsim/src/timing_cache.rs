//! The persisted cross-run timing cache (DESIGN.md §4i).
//!
//! The in-memory cost caches in [`crate::soc::Soc`] already guarantee that
//! each distinct kernel shape is expanded at most once *per mission*. A
//! sweep (fig10–16, `dse_accel`, `freq_sweep`) still re-expands every CPU
//! kernel once per mission, and that expansion — milliseconds per kernel
//! — dominates the `rtl-grant` phase on short missions. This module widens
//! the CPU-kernel cache across *processes*: a versioned on-disk table,
//! keyed by a core-and-memory fingerprint of the [`SocConfig`] plus the
//! kernel descriptor, loaded at mission start and shared by every mission
//! of a sweep — so each expansion context is expanded exactly once per
//! machine, not once per mission or once per design point.
//!
//! Accelerator timing ([`crate::gemmini`]) is not persisted: it is a
//! closed form over at most four block classes, a fraction of a
//! microsecond per call, so a cold call already costs what a replay
//! would. The SoC's per-mission memo is all it needs.
//!
//! # The digest-invisibility contract
//!
//! Replaying an entry must be **bit-identical** to the cold expansion it
//! stands in for: the same counter deltas, the same memory-hierarchy
//! state, the same branch-RNG position, the same bus traffic. CPU-kernel
//! expansion is a pure function of (kernel, the memory state timing
//! reads, branch RNG, core kind, memory geometry); it increments the
//! [`crate::mem::MemCounters`] and never reads them. The key therefore
//! covers the kernel descriptor, the configuration fingerprint, and a
//! *context hash* of the cache tags, the bus's DMA utilization, the
//! prefetch streams and the RNG, taken by walking the live arrays
//! ([`MemSystem::state_words`]) with no serialization. When the live
//! hierarchy is still the post-state of the entry the SoC last expanded
//! or replayed, a comparison stands in for the walk: the lanes come from
//! that entry ([`KernelEntry::chained_context_hash`]), and the pair is
//! the walk's, bit for bit. Each entry holds
//! its post-expansion state decoded, as a [`MemSystem`] whose counters
//! hold the expansion's gains, and a replay
//! ([`MemSystem::replay_expansion`]) copies its contents over the live
//! ones and adds the gains, as [`crate::cpu::CpuModel::replay_expansion`]
//! does for the core's counters — only if its [`MemConfig`] equals the
//! live one. The entry also stores a second, independent 64-bit hash
//! of the same pre-state, and every hit is checked against it: a
//! mismatch is a miss, and the SoC expands cold.
//!
//! The post-state is stored whole, not as a diff over the sets the kernel
//! changed. Across the 23 kernels of a default mission, a cold expansion
//! changes on average 63% of the 1024 L2 sets (17 of the 23 change 467
//! or more), so a diff would save at most about a third of the copy.
//!
//! The fingerprint deliberately **excludes** [`SocConfig::name`] (a
//! label), the clock (cycle-domain expansion never sees wall time) and
//! the accelerator parameters (no CPU kernel reads them). An accelerator
//! op moves only counters and the DMA utilization, which it resets when
//! it finishes, so frequency and accelerator sweeps share every entry
//! across their points: the first point expands, the rest replay. It
//! **includes** [`MODEL_VERSION`]: bump that constant whenever any
//! timing-model change lands, and every stale entry self-invalidates.
//!
//! # The file
//!
//! One snap-codec stream: the `RTMC` section, [`MODEL_VERSION`] and the
//! entry count, then per entry its fingerprint, kernel, key, counter
//! deltas, post-RNG and check, followed by the post-state's [`MemConfig`]
//! and its [`MemSystem::save_state`] bytes, whose counters are deltas.
//! Loading decodes and validates every entry: the geometry first
//! ([`crate::mem::CacheConfig::sets`], and a bound on its size),
//! then the state ([`MemSystem::restore_state`] rejects a foreign set
//! count, an over-full set and a tag too wide for the geometry). A hit
//! therefore cannot fail to decode. A missing, truncated, corrupt, or
//! version-mismatched file, or one holding any entry that fails
//! validation, loads as an empty cache — the cache can only ever
//! accelerate a run, never change or fail it.
//!
//! [`SharedTimingCache::persist`] merges rather than overwrites. Under an
//! exclusive `<path>.lock` it re-reads the file, writes the union of the
//! file's entries and the handle's to a per-process temporary file, and
//! renames that over the cache, so concurrent sweep processes keep each
//! other's entries.

use crate::config::SocConfig;
use crate::kernel::Kernel;
use crate::mem::{MemConfig, MemSystem};
use rose_sim_core::fnv::Fnv64;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Timing-model generation. Any change to kernel expansion, the CPU or
/// accelerator timing models, or the memory hierarchy that can move a
/// single cycle MUST bump this: the fingerprint folds it in, so every
/// entry recorded by an older model self-invalidates. It also guards the
/// file layout and the context-hash key format.
pub const MODEL_VERSION: u32 = 4;

/// Section magic guarding the cache file ("RTMC").
const SNAP_SECTION: u32 = 0x5254_4d43;

/// Default on-disk location, relative to the working directory (kept out
/// of version control; see `.gitignore`).
pub const DEFAULT_PATH: &str = ".rose-timing-cache.snap";

/// Environment variable controlling bench-driver cache usage: unset uses
/// [`DEFAULT_PATH`], a path overrides it, and `0` / `off` disables the
/// cache entirely.
pub const ENV_VAR: &str = "ROSE_TIMING_CACHE";

/// How often, and how many times, [`SharedTimingCache::persist`] retries
/// a lock another writer holds: five seconds in all, where a merge takes
/// milliseconds.
const LOCK_POLL: Duration = Duration::from_millis(10);
const LOCK_ATTEMPTS: u32 = 500;

/// The most lines one cache level of a decoded entry may hold: 4 Mi, a
/// 256-MiB cache of 64-B lines. A geometry read from the file sizes the
/// allocation its entry makes, so the loader bounds it first.
const MAX_LOADED_LINES: usize = 1 << 22;

/// A recorded CPU-kernel expansion: the counter deltas and final state of
/// one cold [`crate::cpu::CpuModel::run_kernel`] call, and, once first
/// used, the context-hash lanes of that final state, so the lookup that
/// follows its expansion or replay can skip the walk.
#[derive(Debug)]
pub struct KernelEntry {
    /// Cycles the expansion added to [`crate::cpu::CpuStats::cycles`]
    /// (the raw scaled cost; the SoC clamps its *returned* cost to ≥ 1
    /// separately, exactly as on the cold path).
    pub cycles: u64,
    /// Instructions the expansion added.
    pub instrs: u64,
    /// Branch mispredictions the expansion observed.
    pub mispredicts: u64,
    /// The branch RNG state after the expansion.
    pub post_rng: u64,
    /// The pre-state's check hash (the second half of
    /// [`SharedTimingCache::mem_context_hash`]), compared on every hit.
    pub check: u64,
    /// The memory hierarchy after the expansion (caches, bus,
    /// prefetcher), decoded, with each of its
    /// [`crate::mem::MemCounters`] holding the expansion's gain
    /// ([`MemSystem::expansion_post`]). A replay copies its contents over
    /// the live ones and adds the gains
    /// ([`MemSystem::replay_expansion`]), and only when their
    /// [`MemConfig`]s are equal.
    pub post_mem: MemSystem,
    /// The context-hash lanes of `post_mem`, before the branch RNG is
    /// folded in: computed on first use, never persisted.
    post_lanes: OnceLock<(u64, u64)>,
}

impl KernelEntry {
    /// An entry recording one expansion (the fields' docs say what each
    /// holds).
    pub fn new(
        cycles: u64,
        instrs: u64,
        mispredicts: u64,
        post_rng: u64,
        check: u64,
        post_mem: MemSystem,
    ) -> KernelEntry {
        KernelEntry {
            cycles,
            instrs,
            mispredicts,
            post_rng,
            check,
            post_mem,
            post_lanes: OnceLock::new(),
        }
    }

    /// [`SharedTimingCache::mem_context_hash`] of `mem` and `branch_rng`,
    /// or `None` unless `mem`'s timing state is this entry's post-state
    /// ([`MemSystem::same_timing_state`]). Equal states feed the walk the
    /// same words, so the lanes come from the post-state, walked once per
    /// entry, and only the RNG is folded in: the `(key, check)` pair is
    /// the one the walk of `mem` gives.
    pub fn chained_context_hash(&self, mem: &MemSystem, branch_rng: u64) -> Option<(u64, u64)> {
        if !mem.same_timing_state(&self.post_mem) {
            return None;
        }
        let lanes = *self.post_lanes.get_or_init(|| walk_lanes(&self.post_mem));
        Some(lane(lanes, branch_rng))
    }
}

/// (config fingerprint, kernel, expansion-context key) → expansion.
type KernelMap = BTreeMap<(u64, Kernel, u64), Arc<KernelEntry>>;

#[derive(Debug, Default)]
struct Inner {
    kernels: KernelMap,
    /// Entries added since load (persist is a no-op while clean).
    dirty: bool,
    /// Host telemetry: disk-cache hits / misses this process.
    hits: u64,
    misses: u64,
}

/// Encodes a cache file (the layout in the module docs).
fn save_kernels(kernels: &KernelMap, w: &mut SnapWriter) {
    w.section(SNAP_SECTION);
    w.u32(MODEL_VERSION);
    w.seq(kernels, |w, ((fp, kernel, ctx), entry)| {
        w.u64(*fp);
        kernel.save_state(w);
        w.u64(*ctx);
        w.u64(entry.cycles);
        w.u64(entry.instrs);
        w.u64(entry.mispredicts);
        w.u64(entry.post_rng);
        w.u64(entry.check);
        entry.post_mem.config().save_state(w);
        entry.post_mem.save_state(w);
    });
}

/// Decodes and validates a cache file. A stale generation is not an
/// error, just an empty map.
fn restore_kernels(bytes: &[u8]) -> Result<KernelMap, SnapError> {
    let mut r = SnapReader::new(bytes);
    r.section(SNAP_SECTION)?;
    if r.u32()? != MODEL_VERSION {
        return Ok(KernelMap::new());
    }
    let kernels = r.seq(|r| {
        let fp = r.u64()?;
        let kernel = Kernel::restore_state(r)?;
        let ctx = r.u64()?;
        let (cycles, instrs, mispredicts, post_rng, check) =
            (r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let config = MemConfig::restore_state(r)?;
        check_loaded_geometry(&config)?;
        let mut post_mem = MemSystem::new(config);
        post_mem.restore_state(r)?;
        let entry = KernelEntry::new(cycles, instrs, mispredicts, post_rng, check, post_mem);
        Ok(((fp, kernel, ctx), Arc::new(entry)))
    })?;
    r.finish()?;
    Ok(kernels)
}

/// Rejects a decoded geometry `MemSystem::new` would assert on
/// ([`crate::mem::CacheConfig::sets`]), or whose line arrays exceed
/// [`MAX_LOADED_LINES`].
fn check_loaded_geometry(config: &MemConfig) -> Result<(), SnapError> {
    for level in [config.l1d, config.l2] {
        let bad = |context| SnapError::BadValue {
            context,
            value: u64::try_from(level.size_bytes).unwrap_or(u64::MAX),
        };
        if level.sets().map_err(bad)? * level.ways > MAX_LOADED_LINES {
            return Err(bad("cache too large for a timing-cache entry"));
        }
    }
    Ok(())
}

/// The entries of the file at `path`; empty if it is missing or invalid.
fn read_kernels(path: &Path) -> KernelMap {
    std::fs::read(path)
        .ok()
        .and_then(|bytes| restore_kernels(&bytes).ok())
        .unwrap_or_default()
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// An exclusive claim on a cache file: `<path>.lock`, created with
/// `create_new` and removed on drop.
struct FileLock(PathBuf);

impl FileLock {
    /// Claims `path`, retrying a held lock up to `attempts` times.
    fn acquire(path: &Path, attempts: u32) -> std::io::Result<FileLock> {
        let lock = sibling(path, ".lock");
        for _ in 0..attempts {
            match OpenOptions::new().write(true).create_new(true).open(&lock) {
                Ok(_) => return Ok(FileLock(lock)),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => std::thread::sleep(LOCK_POLL),
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::new(
            ErrorKind::TimedOut,
            format!(
                "{} is held by another writer (remove it if none is running)",
                lock.display()
            ),
        ))
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        // Best effort: a lock left behind makes later writers time out
        // with an error naming it, never corrupts the cache.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One step of the two lane chains behind the context hashes: an
/// FNV-1a-style multiply per 64-bit word for the key, and a second chain
/// with its own multiplier and fold, over the word with its halves
/// swapped, for the check.
#[inline(always)]
fn lane((key, check): (u64, u64), word: u64) -> (u64, u64) {
    const KEY_PRIME: u64 = 0x0000_0100_0000_01b3;
    const CHECK_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let key = (key ^ word).wrapping_mul(KEY_PRIME);
    let check = (check ^ word.rotate_left(32)).wrapping_mul(CHECK_MUL);
    (key ^ (key >> 32), check ^ (check >> 29))
}

/// The lane chains' seeds.
const LANE_SEED: (u64, u64) = (0xcbf2_9ce4_8422_2325, 0x6a09_e667_f3bc_c908);

/// The lanes over [`MemSystem::state_words`], before the branch RNG.
fn walk_lanes(mem: &MemSystem) -> (u64, u64) {
    let mut h = LANE_SEED;
    mem.state_words(|word| h = lane(h, word));
    h
}

/// A cloneable, thread-safe handle to one timing cache, shared by every
/// mission of a sweep (clones share storage). The missions of a
/// multi-threaded sweep hit it concurrently, hence the mutex; the lock is
/// only taken on *in-memory-cache misses*, which happen a handful of times
/// per mission.
#[derive(Debug, Clone)]
pub struct SharedTimingCache {
    path: Option<PathBuf>,
    inner: Arc<Mutex<Inner>>,
}

/// Handle identity (shared storage), not content equality — this is what
/// "the same cache" means for a `MissionConfig`-carried handle.
impl PartialEq for SharedTimingCache {
    fn eq(&self, other: &SharedTimingCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl SharedTimingCache {
    /// An empty cache with no backing file ([`persist`](Self::persist) is
    /// a no-op). Entries still accumulate and are shared across clones —
    /// the in-process sweep configuration, and what the cold-vs-warm
    /// equivalence tests use.
    pub fn in_memory() -> SharedTimingCache {
        SharedTimingCache {
            path: None,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// Loads the cache at `path`. A missing, truncated, corrupt, or
    /// version-mismatched file, or one holding an entry that fails
    /// validation, yields an empty cache bound to the same path — the
    /// cache never fails a run.
    pub fn load(path: impl Into<PathBuf>) -> SharedTimingCache {
        let path = path.into();
        let inner = Inner {
            kernels: read_kernels(&path),
            ..Inner::default()
        };
        SharedTimingCache {
            path: Some(path),
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// The bench drivers' policy knob: `ROSE_TIMING_CACHE` unset loads
    /// [`DEFAULT_PATH`]; set to a path, loads that path; set to `0` or
    /// `off`, returns `None` (cache disabled). The digest contract makes
    /// the choice observable only in wall time.
    pub fn from_env() -> Option<SharedTimingCache> {
        match std::env::var(ENV_VAR) {
            Err(_) => Some(SharedTimingCache::load(DEFAULT_PATH)),
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => None,
            Ok(v) if v.is_empty() => Some(SharedTimingCache::load(DEFAULT_PATH)),
            Ok(path) => Some(SharedTimingCache::load(path)),
        }
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The size of the backing file in bytes; `None` for an in-memory
    /// cache or a file not yet written.
    pub fn file_bytes(&self) -> Option<u64> {
        std::fs::metadata(self.path()?).ok().map(|m| m.len())
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock cannot leave the plain-data maps
        // in a torn state; recover the contents rather than poisoning
        // every subsequent mission.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Merges the cache into its backing file. Under an exclusive
    /// `<path>.lock` it re-reads the file, keeps every entry the file
    /// holds (this handle's wins where both hold a key), writes the union
    /// to a per-process temporary sibling and renames that over the file.
    /// No-op for in-memory caches or when nothing was added since load.
    ///
    /// # Errors
    ///
    /// A lock another writer holds for five seconds times out with
    /// [`ErrorKind::TimedOut`] and writes nothing; I/O errors from
    /// writing or renaming the temporary file propagate.
    pub fn persist(&self) -> std::io::Result<()> {
        self.persist_within(LOCK_ATTEMPTS)
    }

    fn persist_within(&self, lock_attempts: u32) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if !self.lock().dirty && path.exists() {
            return Ok(());
        }
        let _lock = FileLock::acquire(path, lock_attempts)?;
        let mut kernels = read_kernels(path);
        let bytes = {
            let inner = self.lock();
            kernels.extend(inner.kernels.iter().map(|(k, e)| (*k, Arc::clone(e))));
            let mut w = SnapWriter::new();
            save_kernels(&kernels, &mut w);
            w.into_bytes()
        };
        let tmp = sibling(path, &format!(".{}.tmp", std::process::id()));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        self.lock().dirty = false;
        Ok(())
    }

    /// The configuration fingerprint every key is scoped under: FNV-1a
    /// over [`MODEL_VERSION`], the core kind, and the memory
    /// geometry/latencies. The config *name*, the *clock* and the
    /// *accelerator* parameters are deliberately excluded — none enters
    /// cycle-domain CPU-kernel expansion, so renamed configs and the
    /// points of a frequency or accelerator sweep share entries. What an
    /// accelerator op leaves in the memory hierarchy is counters, which
    /// the context hash leaves out too.
    pub fn fingerprint(config: &SocConfig) -> u64 {
        let mut w = SnapWriter::new();
        w.u32(MODEL_VERSION);
        w.tag(&config.core);
        config.mem.save_state(&mut w);
        let mut h = Fnv64::new();
        h.write(&w.into_bytes());
        h.finish()
    }

    /// The CPU-kernel expansion context of a memory hierarchy and the
    /// branch-RNG position, as `(key, check)`: two independent 64-bit
    /// content hashes over [`MemSystem::state_words`] — what timing reads:
    /// the live cache arrays, read in place, the DMA utilization and the
    /// prefetch streams — and then the RNG. `key` indexes the entry;
    /// `check` is stored in it and compared on every hit, so a replay
    /// needs both to agree with the pre-state it was recorded from.
    /// Hierarchies whose `save_state` bytes differ at most in their
    /// [`crate::mem::MemCounters`] hash equal, and two expansions with
    /// equal kernel, fingerprint, and context take the same cycles and
    /// leave the same contents and counter gains.
    ///
    /// The state is ~10 000 words of cache tags, so each hash is an
    /// FNV-1a-style multiply per word (`Fnv64` folds byte-wise, which
    /// would dominate the whole replay). A multiply carries differences
    /// only toward higher bits, so each lane also folds the high half of
    /// the state down; without that fold, flipping bit 63 of any two
    /// words cancels out. The check chain uses its own seed, multiplier
    /// and fold, and sees each word with its halves swapped. Both chains
    /// run in the same loop, and the loop is bound by multiply latency,
    /// so the second chain is nearly free. The lane hashes are a key
    /// format private to the cache file; `MODEL_VERSION` guards them like
    /// every other layout choice.
    pub fn mem_context_hash(mem: &MemSystem, branch_rng: u64) -> (u64, u64) {
        lane(walk_lanes(mem), branch_rng)
    }

    /// [`SharedTimingCache::mem_context_hash`]'s lanes over a byte slice
    /// (8-byte little-endian words, then the tail bytes and the length)
    /// and the branch-RNG position.
    pub fn context_hash(mem_state: &[u8], branch_rng: u64) -> (u64, u64) {
        let mut h = LANE_SEED;
        let mut chunks = mem_state.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = lane(h, word);
        }
        for &byte in chunks.remainder() {
            h = lane(h, u64::from(byte));
        }
        // rose-lint: allow(CAST001, usize -> u64 widens on every supported target)
        h = lane(h, mem_state.len() as u64);
        lane(h, branch_rng)
    }

    /// Looks up a recorded CPU-kernel expansion under the context `key`,
    /// and returns it only if its stored check equals the live `check` and
    /// its post-state's configuration equals the live `mem`. Either
    /// mismatch counts as a miss: the caller expands cold and its insert
    /// replaces the entry.
    pub fn lookup_kernel(
        &self,
        fp: u64,
        kernel: &Kernel,
        key: u64,
        check: u64,
        mem: &MemConfig,
    ) -> Option<Arc<KernelEntry>> {
        let mut inner = self.lock();
        let hit = inner
            .kernels
            .get(&(fp, *kernel, key))
            .filter(|entry| entry.check == check && entry.post_mem.config() == mem)
            .cloned();
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Records a cold CPU-kernel expansion under the context `key`,
    /// replacing any entry already there, and returns the shared entry.
    pub fn insert_kernel(
        &self,
        fp: u64,
        kernel: Kernel,
        key: u64,
        entry: KernelEntry,
    ) -> Arc<KernelEntry> {
        let entry = Arc::new(entry);
        let mut inner = self.lock();
        inner.kernels.insert((fp, kernel, key), Arc::clone(&entry));
        inner.dirty = true;
        entry
    }

    /// Number of recorded kernel expansions.
    pub fn len(&self) -> usize {
        self.lock().kernels.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host telemetry: (disk hits, disk misses) observed this process.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreKind, SocConfig};
    use crate::mem::test_support::{config_from, set_counters, state_bytes, warmed};
    use crate::mem::CacheConfig;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "rose-timing-cache-{tag}-{}-{n}.snap",
            std::process::id()
        ))
    }

    /// An entry whose post-state is the small geometry warmed from `seed`.
    fn entry(cycles: u64, check: u64, seed: u64) -> KernelEntry {
        KernelEntry::new(cycles, 456, 7, 0xabcd, check, warmed(1, seed, 0))
    }

    fn sample_entries(cache: &SharedTimingCache, fp: u64) {
        for (bytes, ctx, cycles) in [(4096, 0xfeed, 123), (4096, 0xbeef, 124), (64, 0xfeed, 5)] {
            let kernel = Kernel::Memcpy { bytes };
            cache.insert_kernel(fp, kernel, ctx, entry(cycles, ctx ^ 1, ctx));
        }
    }

    fn file_bytes(cache: &SharedTimingCache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save_kernels(&cache.lock().kernels, &mut w);
        w.into_bytes()
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let cache = SharedTimingCache::load(&path);
        assert!(cache.is_empty());
        let fp = SharedTimingCache::fingerprint(&SocConfig::config_a());
        sample_entries(&cache, fp);
        cache.persist().unwrap();

        let reloaded = SharedTimingCache::load(&path);
        assert_eq!(reloaded.len(), 3);
        let mem = config_from(1);
        let lookup = |kernel: Kernel, key: u64, check: u64, mem: &MemConfig| {
            reloaded.lookup_kernel(fp, &kernel, key, check, mem)
        };
        let k = lookup(Kernel::Memcpy { bytes: 4096 }, 0xfeed, 0xfeec, &mem).unwrap();
        assert_eq!(k.cycles, 123);
        assert_eq!(state_bytes(&k.post_mem), state_bytes(&warmed(1, 0xfeed, 0)));
        let other_ctx = lookup(Kernel::Memcpy { bytes: 4096 }, 0xbeef, 0xbeee, &mem).unwrap();
        assert_eq!(other_ctx.cycles, 124);
        assert!(lookup(Kernel::Memcpy { bytes: 64 }, 0xfeed, 0xfeec, &mem).is_some());
        // Wrong fingerprint, key, check or memory configuration: a miss.
        let kernel = Kernel::Memcpy { bytes: 4096 };
        assert!(reloaded
            .lookup_kernel(fp ^ 1, &kernel, 0xfeed, 0xfeec, &mem)
            .is_none());
        assert!(lookup(Kernel::Memcpy { bytes: 64 }, 0xbeef, 0xbeee, &mem).is_none());
        assert!(lookup(Kernel::Memcpy { bytes: 4096 }, 0xfeed, 0xfeed, &mem).is_none());
        let live = MemConfig::default();
        assert!(lookup(Kernel::Memcpy { bytes: 4096 }, 0xfeed, 0xfeec, &live).is_none());
        assert_eq!(reloaded.counters(), (3, 4));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_writers_keep_each_others_entries() {
        // Two handles load one path, each records a distinct entry, and
        // both persist: the second merges the first's entry instead of
        // renaming over it.
        let path = temp_path("merge");
        let a = SharedTimingCache::load(&path);
        let b = SharedTimingCache::load(&path);
        a.insert_kernel(1, Kernel::Memcpy { bytes: 64 }, 0xa, entry(1, 0xa, 1));
        b.insert_kernel(1, Kernel::Memcpy { bytes: 128 }, 0xb, entry(2, 0xb, 2));
        a.persist().unwrap();
        b.persist().unwrap();
        let reloaded = SharedTimingCache::load(&path);
        assert_eq!(reloaded.len(), 2);
        let mem = config_from(1);
        assert!(reloaded
            .lookup_kernel(1, &Kernel::Memcpy { bytes: 64 }, 0xa, 0xa, &mem)
            .is_some());
        assert!(reloaded
            .lookup_kernel(1, &Kernel::Memcpy { bytes: 128 }, 0xb, 0xb, &mem)
            .is_some());
        // Both locks were released and no temporary file is left.
        assert!(!sibling(&path, ".lock").exists());
        assert!(!sibling(&path, &format!(".{}.tmp", std::process::id())).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn held_lock_times_out_and_writes_nothing() {
        let path = temp_path("locked");
        let lock = sibling(&path, ".lock");
        std::fs::write(&lock, b"").unwrap();
        let cache = SharedTimingCache::load(&path);
        sample_entries(&cache, 1);
        let err = cache.persist_within(2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(!path.exists());
        // The lock is not ours to remove; once its holder does, the
        // still-dirty cache persists.
        std::fs::remove_file(&lock).unwrap();
        cache.persist_within(2).unwrap();
        assert_eq!(SharedTimingCache::load(&path).len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_with_accelerator_tables_loads_empty() {
        // The earlier layout followed the kernel table with conv and
        // matmul tables. Even empty ones leave trailing bytes, so such a
        // file is rejected whole and the cache starts empty.
        let path = temp_path("accel-tables");
        let old = SharedTimingCache::in_memory();
        sample_entries(&old, 1);
        let mut w = SnapWriter::new();
        save_kernels(&old.lock().kernels, &mut w);
        w.usize(0);
        w.usize(0);
        std::fs::write(&path, w.into_bytes()).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A one-entry file whose post-state has geometry `config`, every set
    /// empty but L1 set 0, which holds one line of tag `tag`.
    fn one_line_file(config: &MemConfig, tag: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section(SNAP_SECTION);
        w.u32(MODEL_VERSION);
        w.usize(1);
        w.u64(1);
        Kernel::Memcpy { bytes: 64 }.save_state(&mut w);
        for field in [0xfeed, 5, 6, 0, 0xabcd, 0xfeec] {
            w.u64(field);
        }
        config.save_state(&mut w);
        for (level, cache) in [config.l1d, config.l2].into_iter().enumerate() {
            // A geometry the loader rejects still needs a set count.
            let sets = cache
                .sets()
                .ok()
                .filter(|&sets| sets <= MAX_LOADED_LINES)
                .unwrap_or(1);
            w.usize(sets);
            for set in 0..sets {
                if level == 0 && set == 0 {
                    w.usize(1);
                    w.u64(tag);
                    w.bool(true);
                } else {
                    w.usize(0);
                }
            }
            for _ in 0..3 {
                w.u64(0);
            }
        }
        w.f64(0.0);
        w.u64(0);
        for _ in 0..4 {
            w.u64(u64::MAX);
        }
        w.u64(0);
        w.into_bytes()
    }

    #[test]
    fn corrupt_or_missing_file_loads_empty() {
        let path = temp_path("corrupt");
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::write(&path, b"not a cache file").unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        // Truncated valid prefix.
        let good = SharedTimingCache::in_memory();
        sample_entries(&good, 1);
        let bytes = file_bytes(&good);
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());

        // Crafted entries. The control loads; a degenerate geometry and a
        // tag wider than the geometry's addresses load empty, with no
        // panic from `Cache::new` or the replay.
        let small = config_from(1);
        std::fs::write(&path, one_line_file(&small, 1)).unwrap();
        assert_eq!(SharedTimingCache::load(&path).len(), 1);
        let degenerate = [
            (0, 64, 4096),     // no ways
            (4, 48, 4096 * 3), // 48-B lines
            (3, 64, 4096),     // 21 sets
            (4, 1, 4),         // one set of byte lines: no tag bit left
            (4, 64, 64),       // smaller than one set
        ];
        for (ways, line_bytes, size_bytes) in degenerate {
            let mut config = small;
            config.l2 = CacheConfig {
                size_bytes,
                ways,
                line_bytes,
            };
            assert!(config.l2.sets().is_err());
            std::fs::write(&path, one_line_file(&config, 1)).unwrap();
            assert!(
                SharedTimingCache::load(&path).is_empty(),
                "l2 {ways} ways of {line_bytes} B, {size_bytes} B"
            );
        }
        // A sound geometry of 2^44 sets is refused before it is allocated.
        let mut huge = small;
        huge.l2 = CacheConfig {
            size_bytes: 1 << 50,
            ways: 1,
            line_bytes: 64,
        };
        std::fs::write(&path, one_line_file(&huge, 1)).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        // 8 sets of 32-B lines leave 56 tag bits.
        std::fs::write(&path, one_line_file(&small, u64::MAX >> 8)).unwrap();
        assert_eq!(SharedTimingCache::load(&path).len(), 1);
        std::fs::write(&path, one_line_file(&small, u64::MAX >> 7)).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_loads_empty() {
        let path = temp_path("version");
        // Re-encode with a bumped version tag.
        let mut w = SnapWriter::new();
        w.section(SNAP_SECTION);
        w.u32(MODEL_VERSION + 1);
        w.usize(0);
        std::fs::write(&path, w.into_bytes()).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_ignores_name_clock_and_accelerator() {
        let base = SocConfig::config_a();
        let fp = SharedTimingCache::fingerprint(&base);

        let mut renamed = base.clone();
        renamed.name = "renamed".to_string();
        assert_eq!(fp, SharedTimingCache::fingerprint(&renamed));

        // Frequency-sweep points share all entries (expansion is entirely
        // cycle-domain).
        let mut clocked = base.clone();
        clocked.clock = rose_sim_core::cycles::ClockSpec::from_mhz(123);
        assert_eq!(fp, SharedTimingCache::fingerprint(&clocked));

        // Accelerator design points share all entries too: no CPU kernel
        // reads the Gemmini parameters.
        assert_eq!(fp, SharedTimingCache::fingerprint(&base.with_mesh(8)));
        let spad = base.with_scratchpad(128 * 1024);
        assert_eq!(fp, SharedTimingCache::fingerprint(&spad));
        let mut no_accel = base.clone();
        no_accel.gemmini = None;
        assert_eq!(fp, SharedTimingCache::fingerprint(&no_accel));

        // The core and the memory hierarchy do enter expansion.
        let mut other_core = base.clone();
        other_core.core = CoreKind::Rocket;
        assert_ne!(fp, SharedTimingCache::fingerprint(&other_core));
        let mut other_mem = base.clone();
        other_mem.mem.l1_latency += 1;
        assert_ne!(fp, SharedTimingCache::fingerprint(&other_mem));
    }

    #[test]
    fn context_hash_separates_high_bit_flips_in_two_lanes() {
        // A plain xor-then-multiply lane hash maps these pairs to the same
        // value: bit 63 of a lane survives every later multiply unchanged,
        // so flipping it in two lanes cancels. Both the key and the check
        // must separate them.
        let base: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37)).collect();
        let (key, check) = SharedTimingCache::context_hash(&base, 9);
        for (a, b) in [(0, 1), (0, 7), (3, 5), (6, 7)] {
            let mut flipped = base.clone();
            flipped[8 * a + 7] ^= 0x80;
            flipped[8 * b + 7] ^= 0x80;
            let (k, c) = SharedTimingCache::context_hash(&flipped, 9);
            assert_ne!(k, key, "key: bit 63 flipped in lanes {a} and {b}");
            assert_ne!(c, check, "check: bit 63 flipped in lanes {a} and {b}");
        }
        let (k, c) = SharedTimingCache::context_hash(&base, 9 ^ (1 << 63));
        assert_ne!(k, key);
        assert_ne!(c, check);
    }

    proptest! {
        #[test]
        fn equal_state_bytes_hash_equal(
            sel in 0usize..4,
            seed in 0u64..u64::MAX,
            other_seed in 0u64..u64::MAX,
            util_pct in 0u64..90,
            flush in proptest::any::<bool>(),
            counters in proptest::collection::vec(0u64..u64::MAX, 8..9),
        ) {
            // `stale` held other lines before the state was restored into
            // it, so words from them sit beyond each set's fill; a flush
            // empties every set and leaves all of its words stale. Its
            // counters then take arbitrary values, which no access reads.
            let mut live = warmed(sel, seed, util_pct);
            if flush {
                live.invalidate();
            }
            let bytes = state_bytes(&live);
            let mut stale = warmed(sel, other_seed, 50);
            stale.access(0x3_0000, true);
            prop_assert!(stale.restore_state(&mut SnapReader::new(&bytes)).is_ok());
            prop_assert_eq!(state_bytes(&stale), bytes);
            set_counters(&mut stale, &counters);
            let hash = SharedTimingCache::mem_context_hash(&live, seed);
            prop_assert_eq!(SharedTimingCache::mem_context_hash(&stale, seed), hash);
            let (key, check) = SharedTimingCache::mem_context_hash(&live, seed ^ 1);
            prop_assert!(key != hash.0 && check != hash.1);
        }
    }

    #[test]
    fn clones_share_storage() {
        let a = SharedTimingCache::in_memory();
        let b = a.clone();
        sample_entries(&a, 7);
        assert_eq!(b.len(), 3);
        assert_eq!(a, b);
        assert_ne!(a, SharedTimingCache::in_memory());
        // In-memory caches persist as a no-op.
        a.persist().unwrap();
    }
}
