//! The persisted cross-run timing cache (DESIGN.md §4i).
//!
//! The in-memory cost caches in [`crate::soc::Soc`] already guarantee that
//! each distinct kernel shape is expanded at most once *per mission*. A
//! sweep (fig10–16, `dse_accel`, `freq_sweep`) still re-expands every CPU
//! kernel once per mission, and that expansion — milliseconds per kernel
//! — dominates the `rtl-grant` phase on short missions. This module widens
//! the CPU-kernel cache across *processes*: a versioned on-disk table,
//! keyed by a [`SocConfig`] fingerprint plus the kernel descriptor, loaded
//! at mission start and shared by every mission of a sweep — so a swept
//! configuration expands each kernel exactly once per machine, not once
//! per mission.
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
//! expansion is a pure function of (kernel, memory state, branch RNG,
//! core kind, memory geometry). The key therefore covers the kernel
//! descriptor, the configuration fingerprint, and a *context hash* over
//! the serialized memory state and RNG; the entry stores the full
//! post-expansion memory image so a replay restores exactly the state a
//! cold run would have left.
//!
//! The fingerprint deliberately **excludes** [`SocConfig::name`] (a
//! label) and the clock (cycle-domain expansion never sees wall time), so
//! a frequency sweep shares every entry across its points. It **includes**
//! [`MODEL_VERSION`]: bump that constant whenever any timing-model change
//! lands, and every stale entry self-invalidates.
//!
//! A missing, truncated, corrupt, or version-mismatched cache file loads
//! as an empty cache — the cache can only ever accelerate a run, never
//! change or fail it.

use crate::config::SocConfig;
use crate::kernel::Kernel;
use rose_sim_core::fnv::Fnv64;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Timing-model generation. Any change to kernel expansion, the CPU or
/// accelerator timing models, or the memory hierarchy that can move a
/// single cycle MUST bump this: the fingerprint folds it in, so every
/// entry recorded by an older model self-invalidates.
pub const MODEL_VERSION: u32 = 1;

/// Section magic guarding the cache file ("RTMC").
const SNAP_SECTION: u32 = 0x5254_4d43;

/// Default on-disk location, relative to the working directory (kept out
/// of version control; see `.gitignore`).
pub const DEFAULT_PATH: &str = ".rose-timing-cache.snap";

/// Environment variable controlling bench-driver cache usage: unset uses
/// [`DEFAULT_PATH`], a path overrides it, and `0` / `off` disables the
/// cache entirely.
pub const ENV_VAR: &str = "ROSE_TIMING_CACHE";

/// A recorded CPU-kernel expansion: the counter deltas and final state of
/// one cold [`crate::cpu::CpuModel::run_kernel`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The complete serialized [`crate::mem::MemSystem`] state after the
    /// expansion (caches, bus counters, prefetcher).
    pub post_mem: Vec<u8>,
}

#[derive(Debug, Default)]
struct Inner {
    /// (config fingerprint, kernel, expansion-context hash) → expansion.
    kernels: BTreeMap<(u64, Kernel, u64), KernelEntry>,
    /// Entries added since load (persist is a no-op while clean).
    // rose-lint: allow(SNAP002, host-side cache bookkeeping, deliberately outside mission snapshots; the timing cache is structural, never simulated state (DESIGN.md 4i))
    dirty: bool,
    /// Host telemetry: disk-cache hits / misses this process.
    // rose-lint: allow(SNAP002, host-side cache bookkeeping, deliberately outside mission snapshots; the timing cache is structural, never simulated state (DESIGN.md 4i))
    hits: u64,
    // rose-lint: allow(SNAP002, host-side cache bookkeeping, deliberately outside mission snapshots; the timing cache is structural, never simulated state (DESIGN.md 4i))
    misses: u64,
}

impl Inner {
    fn save_state(&self, w: &mut SnapWriter) {
        w.section(SNAP_SECTION);
        w.u32(MODEL_VERSION);
        w.usize(self.kernels.len());
        for ((fp, kernel, ctx), entry) in &self.kernels {
            w.u64(*fp);
            kernel.save_state(w);
            w.u64(*ctx);
            w.u64(entry.cycles);
            w.u64(entry.instrs);
            w.u64(entry.mispredicts);
            w.u64(entry.post_rng);
            w.bytes(&entry.post_mem);
        }
    }

    fn restore_state(bytes: &[u8]) -> Result<Inner, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.section(SNAP_SECTION)?;
        let version = r.u32()?;
        if version != MODEL_VERSION {
            // A stale generation is not an error, just an empty cache.
            return Ok(Inner::default());
        }
        let mut inner = Inner::default();
        let n_kernels = r.usize()?;
        for _ in 0..n_kernels {
            let fp = r.u64()?;
            let kernel = Kernel::restore_state(&mut r)?;
            let ctx = r.u64()?;
            let entry = KernelEntry {
                cycles: r.u64()?,
                instrs: r.u64()?,
                mispredicts: r.u64()?,
                post_rng: r.u64()?,
                post_mem: r.bytes()?,
            };
            inner.kernels.insert((fp, kernel, ctx), entry);
        }
        r.finish()?;
        Ok(inner)
    }
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
/// "the same cache" means for a [`MissionConfig`]-carried handle.
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
    /// version-mismatched file yields an empty cache bound to the same
    /// path — the cache never fails a run.
    pub fn load(path: impl Into<PathBuf>) -> SharedTimingCache {
        let path = path.into();
        let inner = std::fs::read(&path)
            .ok()
            .and_then(|bytes| Inner::restore_state(&bytes).ok())
            .unwrap_or_default();
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

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock cannot leave the plain-data maps
        // in a torn state; recover the contents rather than poisoning
        // every subsequent mission.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Writes the cache back to its backing file (atomic via a sibling
    /// temp file + rename). No-op for in-memory caches or when nothing
    /// was added since load.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the temp file.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let bytes = {
            let inner = self.lock();
            if !inner.dirty && path.exists() {
                return Ok(());
            }
            let mut w = SnapWriter::new();
            inner.save_state(&mut w);
            w.into_bytes()
        };
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        self.lock().dirty = false;
        Ok(())
    }

    /// The configuration fingerprint every key is scoped under: FNV-1a
    /// over [`MODEL_VERSION`], the core kind, the accelerator generator
    /// parameters, and the memory geometry/latencies. The config *name*
    /// and the *clock* are deliberately excluded — neither enters
    /// cycle-domain expansion, so renamed configs and frequency-sweep
    /// points share entries. The accelerator parameters enter no kernel
    /// expansion either, so an accelerator sweep re-expands kernels it
    /// could share; dropping them would re-key every stored entry.
    pub fn fingerprint(config: &SocConfig) -> u64 {
        let mut w = SnapWriter::new();
        w.u32(MODEL_VERSION);
        config.core.save_state(&mut w);
        match &config.gemmini {
            None => w.u8(0),
            Some(g) => {
                w.u8(1);
                g.save_state(&mut w);
            }
        }
        config.mem.save_state(&mut w);
        let mut h = Fnv64::new();
        h.write(&w.into_bytes());
        h.finish()
    }

    /// The CPU-kernel expansion context: a content hash of the serialized
    /// memory-system state and the branch-RNG position. Two expansions
    /// with equal kernel, fingerprint, and context are bit-identical.
    ///
    /// The state is ~100 KiB of cache tags, so this is an FNV-1a-style
    /// multiply over 8-byte lanes (`Fnv64` folds byte-wise internally,
    /// which would dominate the whole replay) — one multiply per word
    /// keeps the hit path an order of magnitude cheaper than the codec
    /// hash. A multiply carries differences only toward higher bits, so
    /// each lane also folds the high half of the state down; without that
    /// fold, flipping bit 63 of any two words cancels out. This is still
    /// only a 64-bit content hash with no stored pre-state to check a hit
    /// against. The lane hash is a pure key format private to the cache
    /// file; `MODEL_VERSION` guards it like every other layout choice.
    pub fn context_hash(mem_state: &[u8], branch_rng: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let lane = |h: u64, word: u64| {
            let h = (h ^ word).wrapping_mul(PRIME);
            h ^ (h >> 32)
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut chunks = mem_state.chunks_exact(8);
        for chunk in &mut chunks {
            // rose-lint: allow(PANIC002, chunks_exact(8) guarantees 8-byte slices, so the conversion is infallible)
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

    /// Looks up a recorded CPU-kernel expansion.
    pub fn lookup_kernel(&self, fp: u64, kernel: &Kernel, ctx: u64) -> Option<KernelEntry> {
        let mut inner = self.lock();
        let hit = inner.kernels.get(&(fp, *kernel, ctx)).cloned();
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Records a cold CPU-kernel expansion.
    pub fn insert_kernel(&self, fp: u64, kernel: Kernel, ctx: u64, entry: KernelEntry) {
        let mut inner = self.lock();
        inner.kernels.insert((fp, kernel, ctx), entry);
        inner.dirty = true;
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
    use crate::config::SocConfig;
    use crate::gemmini::GemminiConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "rose-timing-cache-{tag}-{}-{n}.snap",
            std::process::id()
        ))
    }

    fn sample_entries(cache: &SharedTimingCache, fp: u64) {
        for (bytes, ctx, cycles) in [(4096, 0xfeed, 123), (4096, 0xbeef, 124), (64, 0xfeed, 5)] {
            cache.insert_kernel(
                fp,
                Kernel::Memcpy { bytes },
                ctx,
                KernelEntry {
                    cycles,
                    instrs: 456,
                    mispredicts: 7,
                    post_rng: 0xabcd,
                    post_mem: vec![1, 2, 3, 4],
                },
            );
        }
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
        let k = reloaded
            .lookup_kernel(fp, &Kernel::Memcpy { bytes: 4096 }, 0xfeed)
            .unwrap();
        assert_eq!(k.cycles, 123);
        assert_eq!(k.post_mem, vec![1, 2, 3, 4]);
        let other_ctx = reloaded
            .lookup_kernel(fp, &Kernel::Memcpy { bytes: 4096 }, 0xbeef)
            .unwrap();
        assert_eq!(other_ctx.cycles, 124);
        assert!(reloaded
            .lookup_kernel(fp, &Kernel::Memcpy { bytes: 64 }, 0xfeed)
            .is_some());
        // Wrong fingerprint or context: a miss.
        assert!(reloaded
            .lookup_kernel(fp ^ 1, &Kernel::Memcpy { bytes: 4096 }, 0xfeed)
            .is_none());
        assert!(reloaded
            .lookup_kernel(fp, &Kernel::Memcpy { bytes: 64 }, 0xbeef)
            .is_none());
        assert_eq!(reloaded.counters(), (3, 2));
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
        old.lock().save_state(&mut w);
        w.usize(0);
        w.usize(0);
        std::fs::write(&path, w.into_bytes()).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_or_missing_file_loads_empty() {
        let path = temp_path("corrupt");
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::write(&path, b"not a cache file").unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        // Truncated valid prefix.
        let good = SharedTimingCache::load(temp_path("tr"));
        sample_entries(&good, 1);
        let mut w = SnapWriter::new();
        good.lock().save_state(&mut w);
        let bytes = w.into_bytes();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_loads_empty() {
        let path = temp_path("version");
        let cache = SharedTimingCache::load(&path);
        sample_entries(&cache, 42);
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
    fn fingerprint_ignores_name_and_clock_only() {
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

        let mut other_mesh = base.clone();
        other_mesh.gemmini = Some(GemminiConfig {
            mesh_rows: 8,
            mesh_cols: 8,
            ..GemminiConfig::default()
        });
        assert_ne!(fp, SharedTimingCache::fingerprint(&other_mesh));

        let mut other_mem = base.clone();
        other_mem.mem.l1_latency += 1;
        assert_ne!(fp, SharedTimingCache::fingerprint(&other_mem));

        let mut no_accel = base.clone();
        no_accel.gemmini = None;
        assert_ne!(fp, SharedTimingCache::fingerprint(&no_accel));
    }

    #[test]
    fn context_hash_separates_high_bit_flips_in_two_lanes() {
        // A plain xor-then-multiply lane hash maps these pairs to the same
        // key: bit 63 of a lane survives every later multiply unchanged,
        // so flipping it in two lanes cancels.
        let base: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37)).collect();
        let h = SharedTimingCache::context_hash(&base, 9);
        for (a, b) in [(0, 1), (0, 7), (3, 5), (6, 7)] {
            let mut flipped = base.clone();
            flipped[8 * a + 7] ^= 0x80;
            flipped[8 * b + 7] ^= 0x80;
            assert_ne!(
                SharedTimingCache::context_hash(&flipped, 9),
                h,
                "bit 63 flipped in lanes {a} and {b}"
            );
        }
        assert_ne!(SharedTimingCache::context_hash(&base, 9 ^ (1 << 63)), h);
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
