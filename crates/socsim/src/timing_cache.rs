//! The in-process timing memo (DESIGN.md §4i).
//!
//! The in-memory cost caches in [`crate::soc::Soc`] already guarantee that
//! each distinct kernel shape is expanded at most once *per mission*. A
//! sweep (fig10–16, `dse_accel`, `freq_sweep`) still re-expands every CPU
//! kernel once per mission, and that expansion — milliseconds per kernel
//! — dominates the `rtl-grant` phase on short missions. This module widens
//! the CPU-kernel cache across the *missions of a process*: a table keyed
//! by a core-and-memory fingerprint of the [`SocConfig`] plus the kernel
//! descriptor, shared by every mission that carries the handle — so each
//! expansion context is expanded once per process, not once per mission
//! or once per design point. A process's first mission is cold; its later
//! missions replay.
//!
//! Accelerator timing ([`crate::gemmini`]) is not memoised here: it is a
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
//! ([`MemSystem::cache_words`]) with no serialization. Each entry holds
//! its post-expansion state decoded, as a [`MemSystem`] whose counters
//! hold the expansion's gains, and is a hit only if its [`MemConfig`]
//! equals the live one. The entry also stores a second, independent
//! 64-bit hash of the same pre-state, and every hit is checked against
//! it: a mismatch is a miss, and the SoC expands cold.
//!
//! # Replay by reference
//!
//! A hit moves no cache contents. The SoC's `Hierarchy` adds the
//! entry's counter gains ([`MemSystem::add_expansion_gains`]), as
//! [`crate::cpu::CpuModel::replay_expansion`] does for the core's, and
//! records that its contents — both caches' line words and fills and the
//! prefetch streams — *are* the entry's post-state; the live arrays may
//! be stale from then on. The next lookup takes its pair from that
//! entry's cache lanes, walked once per entry and memoised, then folds in
//! the live DMA utilization, the post-state's streams and the branch RNG:
//! the words the walk would read, so the pair is the walk's, bit for bit,
//! with no comparison.
//!
//! That is sound because nothing changes the contents in between.
//! `Hierarchy::contents` is the route to them for whatever reads or
//! changes them, a cold expansion: it copies in what a replay left owed
//! and forgets the entry, so the next lookup walks. The accelerator's DMA
//! reads only the configuration and the bus; it gets `Hierarchy::dma`,
//! which never copies in, and `soc.rs`'s
//! `accelerator_ops_leave_the_contents_untouched` pins that the Gemmini
//! model neither reads nor writes the contents. A snapshot writes the
//! owed contents, and a restore forgets the entry. Debug builds check
//! every lookup by reference against a walk of the hierarchy with its
//! contents copied in.
//!
//! The post-state is stored whole, not as a diff over the sets the kernel
//! changed. Across the 23 kernels of a default mission, a cold expansion
//! changes on average 63% of the 1024 L2 sets (17 of the 23 change 467
//! or more), so a diff would save at most about a third of an entry.
//!
//! The fingerprint deliberately **excludes** [`SocConfig::name`] (a
//! label), the clock (cycle-domain expansion never sees wall time) and
//! the accelerator parameters (no CPU kernel reads them). An accelerator
//! op moves only counters and the DMA utilization, which it resets when
//! it finishes, so frequency and accelerator sweeps share every entry
//! across their points: the first point expands, the rest replay. It
//! **includes** [`MODEL_VERSION`]: bump that constant whenever any
//! timing-model change lands, and every stale entry self-invalidates.

use crate::config::SocConfig;
use crate::kernel::Kernel;
use crate::mem::{MemConfig, MemCounters, MemSystem};
use rose_sim_core::fnv::Fnv64;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Timing-model generation. Any change to kernel expansion, the CPU or
/// accelerator timing models, or the memory hierarchy that can move a
/// single cycle MUST bump this: the fingerprint folds it in, so every
/// entry recorded by an older model self-invalidates. It also guards the
/// context-hash key format and heads what [`SharedTimingCache::persist`]
/// writes.
pub const MODEL_VERSION: u32 = 4;

/// Section magic heading what [`SharedTimingCache::persist`] writes
/// ("RTMC").
const SNAP_SECTION: u32 = 0x5254_4d43;

/// A recorded CPU-kernel expansion: the counter deltas and final state of
/// one cold [`crate::cpu::CpuModel::run_kernel`] call, and, once first
/// used, the context-hash lanes of that final state's caches, so a
/// lookup that follows its replay skips the walk.
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
    /// ([`MemSystem::expansion_post`]). A hit, only when their
    /// [`MemConfig`]s are equal, adds the gains to the live counters and
    /// takes these contents by reference: the SoC's hierarchy owes them
    /// until something reads them, and then copies them in
    /// ([`MemSystem::copy_contents`]; module docs).
    pub post_mem: MemSystem,
    /// The context-hash lanes of `post_mem`'s caches: computed on first
    /// use, never persisted.
    cache_lanes: OnceLock<(u64, u64)>,
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
            cache_lanes: OnceLock::new(),
        }
    }

    /// The lanes over `post_mem`'s [`MemSystem::cache_words`], walked
    /// once per entry.
    fn cache_lanes(&self) -> (u64, u64) {
        *self.cache_lanes.get_or_init(|| cache_lanes(&self.post_mem))
    }
}

/// A SoC's memory hierarchy under replay by reference (module docs): the
/// live [`MemSystem`], and where its contents — both caches' line words
/// and fills, and the prefetch streams — are. Its counters and bus are
/// always the live ones.
#[derive(Debug)]
pub(crate) struct Hierarchy {
    live: MemSystem,
    contents: Contents,
}

/// Where a [`Hierarchy`]'s contents are.
#[derive(Debug)]
enum Contents {
    /// In the live arrays: a lookup walks them.
    Live,
    /// In the entry's post-state, by reference: the live arrays are stale
    /// until [`Hierarchy::contents`] copies them in.
    Owed(Arc<KernelEntry>),
}

impl Hierarchy {
    /// An empty (cold) hierarchy.
    pub(crate) fn new(config: MemConfig) -> Hierarchy {
        Hierarchy {
            live: MemSystem::new(config),
            contents: Contents::Live,
        }
    }

    /// Memory parameters.
    pub(crate) fn config(&self) -> &MemConfig {
        self.live.config()
    }

    /// The counters, which a replay moves at once.
    pub(crate) fn counters(&self) -> MemCounters {
        self.live.counters()
    }

    /// The route to the contents for whatever reads or changes them, a
    /// cold expansion: copies in what a replay left owed, and forgets
    /// where the contents came from, so the next lookup walks them.
    pub(crate) fn contents(&mut self) -> &mut MemSystem {
        if let Contents::Owed(entry) = std::mem::replace(&mut self.contents, Contents::Live) {
            self.live.copy_contents(&entry.post_mem);
        }
        &mut self.live
    }

    /// The hierarchy for the accelerator's DMA, which reads only the
    /// configuration and the bus and moves only the bus: the contents are
    /// not copied in, and may be stale here.
    pub(crate) fn dma(&mut self) -> &mut MemSystem {
        &mut self.live
    }

    /// Replays a hit: adds `entry`'s counter gains and takes its
    /// post-state as the contents, by reference.
    pub(crate) fn replay(&mut self, entry: Arc<KernelEntry>) {
        self.live.add_expansion_gains(&entry.post_mem);
        self.contents = Contents::Owed(entry);
    }

    /// [`SharedTimingCache::mem_context_hash`] of the hierarchy with its
    /// contents copied in and of `branch_rng`. Contents an entry owes take
    /// their cache lanes from the entry's memo, and the live DMA
    /// utilization, the entry's streams and the RNG are folded in: the
    /// pair the walk gives, with no walk and no compare. Debug builds
    /// check it against the walk.
    pub(crate) fn context_hash(&self, branch_rng: u64) -> (u64, u64) {
        let entry = match &self.contents {
            Contents::Live => return SharedTimingCache::mem_context_hash(&self.live, branch_rng),
            Contents::Owed(entry) => entry,
        };
        let util = self.live.bus().dma_utilization();
        let streams = entry.post_mem.prefetch_streams();
        let pair = finish_lanes(entry.cache_lanes(), util, streams, branch_rng);
        debug_assert_eq!(
            pair,
            SharedTimingCache::mem_context_hash(&self.copied_in(), branch_rng),
            "a lookup by reference must take the walk's pair"
        );
        pair
    }

    /// True when the next lookup hashes the contents by reference.
    #[cfg(test)]
    pub(crate) fn by_reference(&self) -> bool {
        !matches!(self.contents, Contents::Live)
    }

    /// The hierarchy with its contents copied in: the live one, or a copy
    /// of it holding the owed contents.
    fn copied_in(&self) -> Cow<'_, MemSystem> {
        match &self.contents {
            Contents::Owed(entry) => {
                let mut copy = self.live.clone();
                copy.copy_contents(&entry.post_mem);
                Cow::Owned(copy)
            }
            Contents::Live => Cow::Borrowed(&self.live),
        }
    }

    /// [`MemSystem::save_state`] of the hierarchy with its contents copied
    /// in: the owed contents, not the stale arrays.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        self.copied_in().save_state(w);
    }

    /// [`MemSystem::restore_state`], which replaces the contents: any
    /// entry they were owed by is forgotten.
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.contents = Contents::Live;
        self.live.restore_state(r)
    }
}

/// (config fingerprint, kernel, expansion-context key) → expansion.
type KernelMap = BTreeMap<(u64, Kernel, u64), Arc<KernelEntry>>;

#[derive(Debug, Default)]
struct Inner {
    kernels: KernelMap,
    /// Host telemetry: lookups that replayed / expanded cold.
    hits: u64,
    misses: u64,
}

/// Encodes the entries as one snap-codec stream: the `RTMC` section,
/// [`MODEL_VERSION`] and the entry count, then per entry its fingerprint,
/// kernel, key, counter deltas, post-RNG and check, followed by the
/// post-state's [`MemConfig`] and its [`MemSystem::save_state`] bytes,
/// whose counters are deltas.
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

/// The lanes over [`MemSystem::cache_words`].
fn cache_lanes(mem: &MemSystem) -> (u64, u64) {
    let mut h = LANE_SEED;
    mem.cache_words(|word| h = lane(h, word));
    h
}

/// The context pair from the cache lanes of a hierarchy: the lanes then
/// fold the bus's DMA-utilization bits, the prefetch streams and the
/// branch RNG.
fn finish_lanes(
    lanes: (u64, u64),
    dma_utilization: f64,
    streams: [u64; 4],
    rng: u64,
) -> (u64, u64) {
    let mut h = lane(lanes, dma_utilization.to_bits());
    for stream in streams {
        h = lane(h, stream);
    }
    lane(h, rng)
}

/// A cloneable, thread-safe handle to one timing cache, shared by every
/// mission of a process (clones share storage). The missions of a
/// multi-threaded sweep hit it concurrently, hence the mutex; the lock is
/// only taken on *in-memory-cache misses*, which happen a handful of times
/// per mission.
#[derive(Debug, Clone)]
pub struct SharedTimingCache {
    /// Where [`persist`](Self::persist) writes, for a handle made by
    /// [`load`](Self::load).
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
    /// An empty cache. Entries accumulate and are shared across clones;
    /// the bench binaries share one per process, and the cold-vs-warm
    /// equivalence tests use it.
    pub fn in_memory() -> SharedTimingCache {
        SharedTimingCache {
            path: None,
            inner: Arc::default(),
        }
    }

    /// An empty cache bound to `path`, which [`persist`](Self::persist)
    /// writes. Nothing is read from `path`.
    pub fn load(path: impl Into<PathBuf>) -> SharedTimingCache {
        SharedTimingCache {
            path: Some(path.into()),
            ..SharedTimingCache::in_memory()
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock cannot leave the plain-data maps
        // in a torn state; recover the contents rather than poisoning
        // every subsequent mission.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Writes the cache's entries to the path it was [`load`](Self::load)ed
    /// with, replacing that file; a no-op for an in-memory cache. Its one
    /// caller is the benchmark package, which reports the file's size as
    /// `cache.file_bytes`; ROADMAP item 12 deletes it with that metric.
    ///
    /// # Errors
    ///
    /// I/O errors from writing the file.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut w = SnapWriter::new();
        save_kernels(&self.lock().kernels, &mut w);
        std::fs::write(path, w.into_bytes())
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
    /// content hashes over what timing reads — the live cache arrays,
    /// read in place ([`MemSystem::cache_words`]), the DMA utilization and
    /// the prefetch streams — and then the RNG. `key` indexes the entry;
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
    /// so the second chain is nearly free. `MODEL_VERSION` guards the
    /// lane hashes like every other key-format choice.
    pub fn mem_context_hash(mem: &MemSystem, branch_rng: u64) -> (u64, u64) {
        let util = mem.bus().dma_utilization();
        finish_lanes(cache_lanes(mem), util, mem.prefetch_streams(), branch_rng)
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
    /// replacing any entry already there.
    pub fn insert_kernel(&self, fp: u64, kernel: Kernel, key: u64, entry: KernelEntry) {
        self.lock()
            .kernels
            .insert((fp, kernel, key), Arc::new(entry));
    }

    /// Number of recorded kernel expansions.
    pub fn len(&self) -> usize {
        self.lock().kernels.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host telemetry: (hits, misses) of every lookup on this cache.
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
    use proptest::prelude::*;

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

    #[test]
    fn lookups_need_every_part_of_the_key() {
        let cache = SharedTimingCache::in_memory();
        let fp = SharedTimingCache::fingerprint(&SocConfig::config_a());
        sample_entries(&cache, fp);
        assert_eq!(cache.len(), 3);
        let mem = config_from(1);
        let lookup = |kernel: Kernel, key: u64, check: u64, mem: &MemConfig| {
            cache.lookup_kernel(fp, &kernel, key, check, mem)
        };
        let k = lookup(Kernel::Memcpy { bytes: 4096 }, 0xfeed, 0xfeec, &mem).unwrap();
        assert_eq!(k.cycles, 123);
        assert_eq!(state_bytes(&k.post_mem), state_bytes(&warmed(1, 0xfeed, 0)));
        let other_ctx = lookup(Kernel::Memcpy { bytes: 4096 }, 0xbeef, 0xbeee, &mem).unwrap();
        assert_eq!(other_ctx.cycles, 124);
        assert!(lookup(Kernel::Memcpy { bytes: 64 }, 0xfeed, 0xfeec, &mem).is_some());
        // Wrong fingerprint, key, check or memory configuration: a miss.
        let kernel = Kernel::Memcpy { bytes: 4096 };
        assert!(cache
            .lookup_kernel(fp ^ 1, &kernel, 0xfeed, 0xfeec, &mem)
            .is_none());
        assert!(lookup(Kernel::Memcpy { bytes: 64 }, 0xbeef, 0xbeee, &mem).is_none());
        assert!(lookup(Kernel::Memcpy { bytes: 4096 }, 0xfeed, 0xfeed, &mem).is_none());
        let live = MemConfig::default();
        assert!(lookup(Kernel::Memcpy { bytes: 4096 }, 0xfeed, 0xfeec, &live).is_none());
        assert_eq!(cache.counters(), (3, 4));
    }

    #[test]
    fn load_binds_an_empty_cache_that_persist_writes() {
        let path = std::env::temp_dir().join(format!(
            "rose-timing-cache-persist-{}.snap",
            std::process::id()
        ));
        std::fs::write(&path, b"not read").unwrap();
        let cache = SharedTimingCache::load(&path);
        assert!(cache.is_empty(), "load reads nothing");
        sample_entries(&cache, 1);
        cache.persist().unwrap();
        let mut w = SnapWriter::new();
        save_kernels(&cache.lock().kernels, &mut w);
        assert_eq!(std::fs::read(&path).unwrap(), w.into_bytes());
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
        // Hits and misses are counted once, whichever clone looks up.
        let mem = config_from(1);
        assert!(b
            .lookup_kernel(7, &Kernel::Memcpy { bytes: 64 }, 0xfeed, 0xfeec, &mem)
            .is_some());
        assert_eq!(a.counters(), (1, 0));
        // Persisting a cache with no path is a no-op.
        a.persist().unwrap();
    }
}
