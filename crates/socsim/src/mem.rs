//! The memory system: set-associative caches, DRAM, and the shared bus.
//!
//! The hierarchy is the usual Chipyard/Rocket-chip shape: private L1 data
//! cache, shared L2, DRAM behind a 128-bit system bus. The accelerator's
//! DMA engine and the CPU's cache refills share the bus, so sustained DMA
//! traffic inflates CPU miss latency and vice versa — the system-level
//! resource contention the paper argues isolated accelerator benchmarks
//! miss (Section 1).

use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry, or why it cannot back a
    /// [`Cache`]: zero ways or line size, a capacity below one set, a set
    /// count or line size that is not a power of two, or one set of
    /// one-byte lines (its tag would span the whole 64-bit address,
    /// leaving no bit for the dirty flag).
    ///
    /// # Errors
    ///
    /// Returns the first rule the geometry breaks.
    pub fn sets(&self) -> Result<usize, &'static str> {
        if self.ways == 0 || self.line_bytes == 0 {
            return Err("degenerate cache geometry");
        }
        let sets = self
            .ways
            .checked_mul(self.line_bytes)
            .map_or(0, |set_bytes| self.size_bytes / set_bytes);
        if sets == 0 {
            return Err("cache smaller than one set");
        }
        if !sets.is_power_of_two() {
            return Err("set count must be a power of two");
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two");
        }
        if sets == 1 && self.line_bytes == 1 {
            return Err("a one-set cache needs lines wider than a byte");
        }
        Ok(sets)
    }

    /// Serializes the geometry.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let CacheConfig {
            size_bytes,
            ways,
            line_bytes,
        } = self;
        w.usize(*size_bytes);
        w.usize(*ways);
        w.usize(*line_bytes);
    }

    /// Restores a geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<CacheConfig, SnapError> {
        Ok(CacheConfig {
            size_bytes: r.usize()?,
            ways: r.usize()?,
            line_bytes: r.usize()?,
        })
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` line words, `(tag << 1) | dirty`. Set `s` holds its
    /// `fill[s]` resident lines at `lines[s * ways..]`, most- to
    /// least-recently used.
    lines: Vec<u64>,
    /// Resident lines per set.
    fill: Vec<usize>,
    stats: CacheStats,
    set_mask: u64,
    /// Address bits below the tag: line offset plus set index.
    tag_shift: u32,
    line_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::sets`] rejects the geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = match config.sets() {
            Ok(sets) => sets,
            Err(why) => panic!("{why}"),
        };
        let line_shift = config.line_bytes.trailing_zeros();
        let tag_shift = line_shift + sets.trailing_zeros();
        Cache {
            config,
            lines: vec![0; sets * config.ways],
            fill: vec![0; sets],
            stats: CacheStats::default(),
            set_mask: (sets - 1) as u64,
            tag_shift,
            line_shift,
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Performs one access; returns `true` on a hit. On a miss the line is
    /// installed, possibly writing back a dirty victim.
    ///
    /// A hit on the set's most-recently-used line, the common case of a
    /// streaming kernel, is handled here, inline at every call site;
    /// every other outcome takes `access_lru`, out of line.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        let key = (addr >> self.tag_shift) << 1;
        let mru = set * self.config.ways;
        if self.lines[mru] & !1 == key && self.fill[set] > 0 {
            if write {
                self.lines[mru] |= 1;
            }
            self.stats.hits += 1;
            return true;
        }
        self.access_lru(set, key | u64::from(write))
    }

    /// The out-of-line rest of [`Cache::access`], for a set whose MRU line
    /// does not hold `word`'s tag: looks the tag up among the older lines
    /// and moves its line to the front on a hit, or installs `word` as the
    /// MRU line on a miss, evicting (and writing back, if dirty) the LRU
    /// line of a full set. The lines shift back one way in the same loop
    /// that searches them: a set holds a handful of ways, too few for a
    /// `memmove` call to pay.
    #[inline(never)]
    fn access_lru(&mut self, set: usize, word: u64) -> bool {
        let ways = self.config.ways;
        let lines = &mut self.lines[set * ways..(set + 1) * ways];
        let fill = &mut self.fill[set];
        let key = word & !1;
        // One pass from the MRU way down: each line moves back one way
        // until the tag turns up, and then it moves to the front.
        let mut carried = lines[0];
        for i in 1..*fill {
            let line = lines[i];
            lines[i] = carried;
            if line & !1 == key {
                lines[0] = line | (word & 1);
                self.stats.hits += 1;
                return true;
            }
            carried = line;
        }
        // A miss: every resident line moved back one way, and `carried`
        // is the LRU line, kept in a free way or evicted.
        if *fill < ways {
            lines[*fill] = carried;
            *fill += 1;
        } else if carried & 1 == 1 {
            self.stats.writebacks += 1;
        }
        lines[0] = word;
        self.stats.misses += 1;
        false
    }

    /// Invalidates all contents (e.g. after DMA writes to memory).
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }

    /// Feeds what [`Cache::access`] reads to `word`: per set its fill and
    /// resident line words. Two caches of one geometry whose
    /// [`Cache::save_state`] bytes differ at most in the counters feed
    /// equal words; stale words beyond a set's fill are not fed.
    fn state_words(&self, word: &mut impl FnMut(u64)) {
        for (set, &n) in self.lines.chunks_exact(self.config.ways).zip(&self.fill) {
            word(n as u64);
            for &line in &set[..n] {
                word(line);
            }
        }
    }

    /// Copies `post`'s contents, a cache of the same geometry, over this
    /// one's in place, leaving the counters alone.
    fn copy_contents(&mut self, post: &Cache) {
        self.lines.copy_from_slice(&post.lines);
        self.fill.copy_from_slice(&post.fill);
    }

    /// Serializes contents (tags in LRU order, dirty bits) and counters.
    /// Geometry (`set_mask`, `tag_shift`, `line_shift`) is structural.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Cache {
            config,
            lines,
            fill,
            stats,
            set_mask: _,
            tag_shift: _,
            line_shift: _,
        } = self;
        w.usize(fill.len());
        for (set, &n) in lines.chunks_exact(config.ways).zip(fill) {
            w.usize(n);
            for &word in &set[..n] {
                w.u64(word >> 1);
                w.bool(word & 1 == 1);
            }
        }
        w.u64(stats.hits);
        w.u64(stats.misses);
        w.u64(stats.writebacks);
    }

    /// Restores contents and counters into a cache of identical geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot, including a set
    /// count or associativity that does not match this cache's geometry,
    /// or a tag wider than this geometry's addresses can produce.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_sets = r.usize()?;
        if n_sets != self.fill.len() {
            return Err(SnapError::BadLength {
                len: n_sets as u64,
                available: self.fill.len(),
            });
        }
        let ways = self.config.ways;
        for (set, fill) in self.lines.chunks_exact_mut(ways).zip(&mut self.fill) {
            let n = r.usize()?;
            if n > ways {
                return Err(SnapError::BadLength {
                    len: n as u64,
                    available: ways,
                });
            }
            for word in &mut set[..n] {
                let tag = r.u64()?;
                let dirty = r.bool()?;
                if tag.leading_zeros() < self.tag_shift {
                    return Err(SnapError::BadValue {
                        context: "cache tag",
                        value: tag,
                    });
                }
                *word = (tag << 1) | u64::from(dirty);
            }
            *fill = n;
        }
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        self.stats.writebacks = r.u64()?;
        Ok(())
    }
}

/// What the hierarchy counts and never reads: both caches' counters, the
/// bus's byte total and the prefetcher's hits. They only grow, and no
/// access, DMA transfer or kernel expansion depends on them, so a
/// timing-cache entry records an expansion's gain in each and a replay
/// adds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemCounters {
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Bytes moved over the bus.
    pub bus_bytes: u64,
    /// Misses absorbed by the L2 stream prefetcher.
    pub prefetch_hits: u64,
}

impl MemCounters {
    /// `op` applied to each pair of corresponding counters.
    fn zip(self, other: MemCounters, op: impl Fn(u64, u64) -> u64) -> MemCounters {
        let stats = |a: CacheStats, b: CacheStats| CacheStats {
            hits: op(a.hits, b.hits),
            misses: op(a.misses, b.misses),
            writebacks: op(a.writebacks, b.writebacks),
        };
        MemCounters {
            l1d: stats(self.l1d, other.l1d),
            l2: stats(self.l2, other.l2),
            bus_bytes: op(self.bus_bytes, other.bus_bytes),
            prefetch_hits: op(self.prefetch_hits, other.prefetch_hits),
        }
    }
}

/// Memory system timing and geometry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles (load-to-use).
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// DRAM access latency in cycles (row activation + CAS).
    pub dram_latency: u64,
    /// System bus width in bytes per cycle (128-bit = 16 B).
    pub bus_bytes_per_cycle: f64,
    /// DRAM sustained bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Latency of one uncached MMIO word access in cycles.
    pub mmio_latency: u64,
    /// Enables the L2 stream prefetcher (ablation knob).
    pub prefetch: bool,
}

impl MemConfig {
    /// Serializes the parameters.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let MemConfig {
            l1d,
            l2,
            l1_latency,
            l2_latency,
            dram_latency,
            bus_bytes_per_cycle,
            dram_bytes_per_cycle,
            mmio_latency,
            prefetch,
        } = self;
        l1d.save_state(w);
        l2.save_state(w);
        w.u64(*l1_latency);
        w.u64(*l2_latency);
        w.u64(*dram_latency);
        w.f64(*bus_bytes_per_cycle);
        w.f64(*dram_bytes_per_cycle);
        w.u64(*mmio_latency);
        w.bool(*prefetch);
    }

    /// Restores parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<MemConfig, SnapError> {
        Ok(MemConfig {
            l1d: CacheConfig::restore_state(r)?,
            l2: CacheConfig::restore_state(r)?,
            l1_latency: r.u64()?,
            l2_latency: r.u64()?,
            dram_latency: r.u64()?,
            bus_bytes_per_cycle: r.f64()?,
            dram_bytes_per_cycle: r.f64()?,
            mmio_latency: r.u64()?,
            prefetch: r.bool()?,
        })
    }
}

impl Default for MemConfig {
    /// Parameters representative of a 1 GHz embedded SoC with LPDDR4.
    fn default() -> MemConfig {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l1_latency: 2,
            l2_latency: 14,
            dram_latency: 90,
            bus_bytes_per_cycle: 16.0,
            dram_bytes_per_cycle: 12.8,
            mmio_latency: 40,
            prefetch: true,
        }
    }
}

/// The shared system bus: tracks the fraction of bandwidth reserved by the
/// accelerator's DMA engine so concurrent CPU misses see queueing delay.
#[derive(Debug, Clone, Default)]
pub struct Bus {
    /// Fraction of bus bandwidth currently consumed by DMA, in `[0, 1)`.
    dma_utilization: f64,
    /// Total bytes moved over the bus (for bandwidth accounting).
    total_bytes: u64,
}

impl Bus {
    /// Creates an idle bus.
    pub fn new() -> Bus {
        Bus::default()
    }

    /// Sets the DMA background utilization (clamped below 0.95 so CPU
    /// traffic always makes progress).
    pub fn set_dma_utilization(&mut self, util: f64) {
        self.dma_utilization = util.clamp(0.0, 0.95);
    }

    /// Current DMA background utilization.
    pub fn dma_utilization(&self) -> f64 {
        self.dma_utilization
    }

    /// Records bytes moved across the bus.
    pub fn record_bytes(&mut self, bytes: u64) {
        self.total_bytes += bytes;
    }

    /// Total traffic so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Queueing-inflated latency for a CPU transaction of `base` cycles
    /// (M/M/1-style 1/(1-rho) inflation of the transfer portion).
    pub fn contended(&self, base: u64) -> u64 {
        (base as f64 / (1.0 - self.dma_utilization)).round() as u64
    }

    /// Serializes the bus state.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Bus {
            dma_utilization,
            total_bytes,
        } = self;
        w.f64(*dma_utilization);
        w.u64(*total_bytes);
    }

    /// Restores the bus state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.dma_utilization = r.f64()?;
        self.total_bytes = r.u64()?;
        Ok(())
    }
}

/// The full CPU-side memory hierarchy with timing.
#[derive(Debug, Clone)]
pub struct MemSystem {
    config: MemConfig,
    l1d: Cache,
    l2: Cache,
    bus: Bus,
    /// L2 stream prefetcher: last line seen per tracked stream.
    prefetch_streams: [u64; 4],
    prefetch_hits: u64,
    /// Derived, not state: the miss latencies at the bus utilization they
    /// were last computed for.
    miss_latencies: MissLatencies,
}

/// The bus-contended latency of each L1-miss outcome at one DMA
/// utilization. A pure function of the configuration and the utilization,
/// so it is recomputed only when the utilization changes.
#[derive(Debug, Clone, Copy)]
struct MissLatencies {
    /// The utilization these were computed at.
    dma_utilization: f64,
    l2_hit: u64,
    prefetched: u64,
    dram: u64,
}

impl MissLatencies {
    fn at(config: &MemConfig, bus: &Bus) -> MissLatencies {
        let transfer = (config.l1d.line_bytes as f64 / config.bus_bytes_per_cycle).ceil() as u64;
        let fill = bus.contended(config.l2_latency + transfer);
        MissLatencies {
            dma_utilization: bus.dma_utilization(),
            l2_hit: bus.contended(config.l2_latency),
            prefetched: fill,
            dram: config.dram_latency + fill,
        }
    }
}

impl MemSystem {
    /// Creates an empty (cold) hierarchy.
    pub fn new(config: MemConfig) -> MemSystem {
        let bus = Bus::new();
        MemSystem {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            miss_latencies: MissLatencies::at(&config, &bus),
            bus,
            config,
            prefetch_streams: [u64::MAX; 4],
            prefetch_hits: 0,
        }
    }

    /// The miss latencies at the bus's current DMA utilization.
    fn miss_latencies(&mut self) -> MissLatencies {
        if self.miss_latencies.dma_utilization.to_bits() != self.bus.dma_utilization().to_bits() {
            self.miss_latencies = MissLatencies::at(&self.config, &self.bus);
        }
        self.miss_latencies
    }

    /// Misses absorbed by the L2 stream prefetcher so far.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Feeds what [`MemSystem::access`] reads to `word`, one `u64` at a
    /// time: both caches' sets, the bus's DMA utilization and the prefetch
    /// streams, read from the live arrays. The [`MemCounters`] are left
    /// out: two hierarchies of one [`MemConfig`] whose
    /// [`MemSystem::save_state`] bytes differ at most in them feed equal
    /// words, so the timing cache keys expansions by this walk with no
    /// serialization, and design points that moved different DMA traffic
    /// share entries.
    pub fn state_words(&self, mut word: impl FnMut(u64)) {
        let MemSystem {
            config: _,
            l1d,
            l2,
            bus,
            prefetch_streams,
            prefetch_hits: _,
            miss_latencies: _,
        } = self;
        l1d.state_words(&mut word);
        l2.state_words(&mut word);
        word(bus.dma_utilization.to_bits());
        for &stream in prefetch_streams {
            word(stream);
        }
    }

    /// True when `other`'s timing state equals this one's, compared as
    /// whole arrays: both caches' line words (stale ones included) and
    /// fills, the bus's DMA-utilization bits and the prefetch streams.
    /// Equal states feed equal [`MemSystem::state_words`], so the timing
    /// cache can take a hierarchy's context-hash lanes from an entry whose
    /// post-state it equals instead of walking it; the comparison reads
    /// each word once and runs no multiply chain.
    pub fn same_timing_state(&self, other: &MemSystem) -> bool {
        let MemSystem {
            config: _,
            l1d,
            l2,
            bus,
            prefetch_streams,
            prefetch_hits: _,
            miss_latencies: _,
        } = self;
        let same_contents = |a: &Cache, b: &Cache| a.lines == b.lines && a.fill == b.fill;
        same_contents(l1d, &other.l1d)
            && same_contents(l2, &other.l2)
            && bus.dma_utilization.to_bits() == other.bus.dma_utilization.to_bits()
            && *prefetch_streams == other.prefetch_streams
    }

    /// The counters the hierarchy increments and never reads.
    pub fn counters(&self) -> MemCounters {
        MemCounters {
            l1d: self.l1d.stats,
            l2: self.l2.stats,
            bus_bytes: self.bus.total_bytes,
            prefetch_hits: self.prefetch_hits,
        }
    }

    fn set_counters(&mut self, counters: MemCounters) {
        let MemCounters {
            l1d,
            l2,
            bus_bytes,
            prefetch_hits,
        } = counters;
        self.l1d.stats = l1d;
        self.l2.stats = l2;
        self.bus.total_bytes = bus_bytes;
        self.prefetch_hits = prefetch_hits;
    }

    /// A copy of this hierarchy whose counters hold what each gained since
    /// `pre`: the post-state a timing-cache entry records for an expansion
    /// that started at `pre`.
    pub fn expansion_post(&self, pre: MemCounters) -> MemSystem {
        let mut post = self.clone();
        post.set_counters(self.counters().zip(pre, |now, then| now - then));
        post
    }

    /// Replays a recorded expansion whose [`MemSystem::expansion_post`]
    /// is `post`, a hierarchy of the same [`MemConfig`]: copies its cache
    /// contents and prefetch streams over the live ones in place and adds
    /// its counter gains to the live counters. The bus's DMA utilization
    /// is part of the key and no expansion changes it, so it stays. The
    /// CPU's counters replay the same way
    /// ([`crate::cpu::CpuModel::replay_expansion`]).
    pub fn replay_expansion(&mut self, post: &MemSystem) {
        self.l1d.copy_contents(&post.l1d);
        self.l2.copy_contents(&post.l2);
        self.prefetch_streams = post.prefetch_streams;
        let counters = self
            .counters()
            .zip(post.counters(), |live, gain| live + gain);
        self.set_counters(counters);
    }

    /// Serializes the hierarchy: both cache contents, bus state, and the
    /// prefetcher's stream trackers.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let MemSystem {
            config: _,
            l1d,
            l2,
            bus,
            prefetch_streams,
            prefetch_hits,
            miss_latencies: _,
        } = self;
        l1d.save_state(w);
        l2.save_state(w);
        bus.save_state(w);
        for stream in prefetch_streams {
            w.u64(*stream);
        }
        w.u64(*prefetch_hits);
    }

    /// Restores the hierarchy state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.l1d.restore_state(r)?;
        self.l2.restore_state(r)?;
        self.bus.restore_state(r)?;
        for stream in &mut self.prefetch_streams {
            *stream = r.u64()?;
        }
        self.prefetch_hits = r.u64()?;
        Ok(())
    }

    /// Memory parameters.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// The shared bus (accelerator DMA coordinates through this).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable bus access.
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// L1 data cache statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Performs a load or store at `addr`, returning its latency in cycles.
    ///
    /// L1 hit → `l1_latency`; L1 miss, L2 hit → `l2_latency`; L2 miss →
    /// DRAM latency plus the line transfer, inflated by bus contention.
    /// The L1 hit is handled inline at every call site; the miss path
    /// (L2, bus and prefetcher) is `l1_miss`, out of line, so
    /// a kernel's many access sites do not each carry a copy of it.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, write: bool) -> u64 {
        if self.l1d.access(addr, write) {
            return self.config.l1_latency;
        }
        self.l1_miss(addr, write)
    }

    /// The L1-miss path of [`MemSystem::access`].
    #[inline(never)]
    fn l1_miss(&mut self, addr: u64, write: bool) -> u64 {
        let lat = self.miss_latencies();
        if self.l2.access(addr, write) {
            return lat.l2_hit;
        }
        self.bus.record_bytes(self.config.l1d.line_bytes as u64);
        // L2 stream prefetcher: a miss one line beyond a tracked stream was
        // fetched ahead of time and costs only the L2 hit latency.
        let line = addr / self.config.l1d.line_bytes as u64;
        if self.config.prefetch {
            for stream in &mut self.prefetch_streams {
                if line == stream.wrapping_add(1) {
                    *stream = line;
                    self.prefetch_hits += 1;
                    return lat.prefetched;
                }
            }
        }
        // Allocate the stream table entry (round-robin by line hash).
        self.prefetch_streams[(line % 4) as usize] = line;
        lat.dram
    }

    /// Latency of one uncached MMIO word access.
    pub fn mmio_access(&self) -> u64 {
        self.config.mmio_latency
    }

    /// Cycles for the accelerator's DMA engine to move `bytes` between
    /// scratchpad and DRAM: one DRAM latency plus the bandwidth-limited
    /// transfer over the narrower of bus and DRAM.
    pub fn dma_cycles(&mut self, bytes: u64) -> u64 {
        self.bus.record_bytes(bytes);
        self.dma_latency(bytes)
    }

    /// The latency portion of [`MemSystem::dma_cycles`] without recording
    /// bus traffic: a pure function of the transfer size, used by the
    /// closed-form accelerator cost model to price a tile class once and
    /// multiply by its occurrence count.
    pub fn dma_latency(&self, bytes: u64) -> u64 {
        let bw = self
            .config
            .bus_bytes_per_cycle
            .min(self.config.dram_bytes_per_cycle);
        self.config.dram_latency + (bytes as f64 / bw).ceil() as u64
    }

    /// Invalidates CPU caches (used when DMA writes shared buffers).
    pub fn invalidate(&mut self) {
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 2 sets, 2 ways, 64 B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn cache_hit_after_fill() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000, false)); // cold miss
        assert!(c.access(0x1000, false)); // hit
        assert!(c.access(0x1030, false)); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny_cache();
        // Three lines mapping to set 0 (set stride = 2 lines = 128 B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.access(a, false), "a should survive");
        assert!(!c.access(b, false), "b was evicted");
    }

    #[test]
    fn writeback_counted_for_dirty_victims() {
        let mut c = tiny_cache();
        c.access(0x0000, true); // dirty
        c.access(0x0100, false);
        c.access(0x0200, false); // evicts dirty 0x0000
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn hierarchy_latencies_are_ordered() {
        let mut m = MemSystem::new(MemConfig::default());
        let cold = m.access(0x4000, false);
        let l1_hit = m.access(0x4000, false);
        // Evict from L1 (16 KiB / 4-way: set stride 4 KiB, 4 ways) but stay
        // in L2 by touching 4 conflicting lines.
        for i in 1..=4 {
            m.access(0x4000 + i * 4096, false);
        }
        let l2_hit = m.access(0x4000, false);
        assert!(l1_hit < l2_hit, "{l1_hit} < {l2_hit}");
        assert!(l2_hit < cold, "{l2_hit} < {cold}");
        assert_eq!(l1_hit, MemConfig::default().l1_latency);
    }

    #[test]
    fn contention_inflates_misses() {
        let mut m = MemSystem::new(MemConfig::default());
        let quiet = m.access(0x8000, false); // cold miss, idle bus
        m.invalidate();
        m.bus_mut().set_dma_utilization(0.8);
        let busy = m.access(0x8000, false); // cold miss under DMA load
        assert!(
            busy > quiet + 10,
            "contended miss {busy} should exceed quiet miss {quiet}"
        );
    }

    #[test]
    fn dma_is_bandwidth_limited() {
        let mut m = MemSystem::new(MemConfig::default());
        let small = m.dma_cycles(64);
        let large = m.dma_cycles(64 * 1024);
        // 64 KiB at 12.8 B/cyc ≈ 5120 cycles of transfer.
        assert!(large > small + 4000, "large {large} small {small}");
        assert!(m.bus().total_bytes() >= 64 + 64 * 1024);
    }

    #[test]
    fn mmio_latency_fixed() {
        let m = MemSystem::new(MemConfig::default());
        assert_eq!(m.mmio_access(), 40);
    }

    #[test]
    fn same_timing_state_sees_every_field_the_walk_reads() {
        use crate::timing_cache::SharedTimingCache;
        let live = test_support::warmed(0, 0x5EED, 30);
        // Counters are not timing state.
        let mut twin = live.clone();
        test_support::set_counters(&mut twin, &[1; 8]);
        assert!(live.same_timing_state(&twin));
        // One-field mutants of the state the walk reads. Each must compare
        // unequal, both ways round, and move the walk's context too.
        fn occupied(c: &Cache) -> usize {
            c.fill.iter().position(|&n| n > 0).expect("a warmed set")
        }
        type Mutant = (&'static str, fn(&mut MemSystem));
        let mutants: [Mutant; 6] = [
            ("an L1 line word", |m| {
                let set = occupied(&m.l1d);
                m.l1d.lines[set * m.l1d.config.ways] ^= 2;
            }),
            ("an L2 line word", |m| {
                let set = occupied(&m.l2);
                m.l2.lines[set * m.l2.config.ways] ^= 2;
            }),
            ("an L1 fill", |m| {
                let set = occupied(&m.l1d);
                m.l1d.fill[set] -= 1;
            }),
            ("an L2 fill", |m| {
                let set = occupied(&m.l2);
                m.l2.fill[set] -= 1;
            }),
            ("the DMA-utilization bits", |m| {
                let bits = m.bus.dma_utilization.to_bits();
                m.bus.dma_utilization = f64::from_bits(bits ^ 1);
            }),
            ("a prefetch stream", |m| m.prefetch_streams[3] ^= 1),
        ];
        let context = |m: &MemSystem| SharedTimingCache::mem_context_hash(m, 7);
        for (field, mutate) in mutants {
            let mut mutant = live.clone();
            mutate(&mut mutant);
            assert!(!live.same_timing_state(&mutant), "{field}");
            assert!(!mutant.same_timing_state(&live), "{field}");
            assert_ne!(context(&live), context(&mutant), "{field}");
        }
    }

    #[test]
    fn flush_forces_refill() {
        let mut m = MemSystem::new(MemConfig::default());
        m.access(0x100, false);
        assert_eq!(m.access(0x100, false), MemConfig::default().l1_latency);
        m.invalidate();
        assert!(m.access(0x100, false) > MemConfig::default().l2_latency);
    }
}

/// Memory geometries and warmed states shared by the memory-system and
/// CPU-model tests.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Full dynamic state, for bit-exact before/after comparison.
    pub(crate) fn state_bytes(m: &MemSystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.save_state(&mut w);
        w.into_bytes()
    }

    /// Overwrites the counters `m` increments and never reads with
    /// `words`: eight values, in [`MemCounters`] field order.
    pub(crate) fn set_counters(m: &mut MemSystem, words: &[u64]) {
        let stats = |w: &[u64]| CacheStats {
            hits: w[0],
            misses: w[1],
            writebacks: w[2],
        };
        m.set_counters(MemCounters {
            l1d: stats(&words[0..3]),
            l2: stats(&words[3..6]),
            bus_bytes: words[6],
            prefetch_hits: words[7],
        });
    }

    /// Four memory configurations: the default; a tiny hierarchy of 32-B
    /// lines that evicts and conflicts on short streams; the default
    /// without the prefetcher; and a direct-mapped L1 of 128-B lines.
    pub(crate) fn config_from(sel: usize) -> MemConfig {
        match sel {
            0 => MemConfig::default(),
            1 => MemConfig {
                l1d: CacheConfig {
                    size_bytes: 512,
                    ways: 2,
                    line_bytes: 32,
                },
                l2: CacheConfig {
                    size_bytes: 4096,
                    ways: 4,
                    line_bytes: 32,
                },
                ..MemConfig::default()
            },
            2 => MemConfig {
                prefetch: false,
                ..MemConfig::default()
            },
            _ => MemConfig {
                l1d: CacheConfig {
                    size_bytes: 1024,
                    ways: 1,
                    line_bytes: 128,
                },
                ..MemConfig::default()
            },
        }
    }

    /// A hierarchy of geometry `sel` pre-touched with a pseudo-random
    /// working set, so runs start from a nontrivial cache arrangement,
    /// under `util_pct` % DMA contention.
    pub(crate) fn warmed(sel: usize, warm_seed: u64, util_pct: u64) -> MemSystem {
        let mut m = MemSystem::new(config_from(sel));
        let mut addr = warm_seed | 1;
        for i in 0..96u64 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.access(addr % (1 << 18), i % 3 == 0);
        }
        m.bus_mut().set_dma_utilization(util_pct as f64 / 100.0);
        m
    }
}

#[cfg(test)]
mod reference_lru_tests {
    use super::test_support::config_from;
    use super::*;
    use proptest::prelude::*;

    /// The reference LRU model: each set a `Vec` of `(tag, dirty)`, most-
    /// to least-recently used, reordered by `remove`/`insert`. [`Cache`]
    /// must agree with it access for access, and serialize identically.
    struct RefCache {
        ways: usize,
        sets: Vec<Vec<(u64, bool)>>,
        stats: CacheStats,
        set_mask: u64,
        line_shift: u32,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> RefCache {
            let sets = config.sets().unwrap();
            RefCache {
                ways: config.ways,
                sets: vec![Vec::with_capacity(config.ways); sets],
                stats: CacheStats::default(),
                set_mask: (sets - 1) as u64,
                line_shift: config.line_bytes.trailing_zeros(),
            }
        }

        fn access(&mut self, addr: u64, write: bool) -> bool {
            let line = addr >> self.line_shift;
            let set = &mut self.sets[(line & self.set_mask) as usize];
            let tag = line >> self.set_mask.count_ones();
            if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
                let (t, dirty) = set.remove(pos);
                set.insert(0, (t, dirty || write));
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if set.len() == self.ways {
                if let Some((_, true)) = set.pop() {
                    self.stats.writebacks += 1;
                }
            }
            set.insert(0, (tag, write));
            false
        }

        fn save_state(&self, w: &mut SnapWriter) {
            w.usize(self.sets.len());
            for set in &self.sets {
                w.usize(set.len());
                for &(tag, dirty) in set {
                    w.u64(tag);
                    w.bool(dirty);
                }
            }
            w.u64(self.stats.hits);
            w.u64(self.stats.misses);
            w.u64(self.stats.writebacks);
        }
    }

    fn cache_bytes(save: impl Fn(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    proptest! {
        #[test]
        fn flat_cache_matches_reference_lru(
            sel in 0usize..4,
            l2 in proptest::any::<bool>(),
            span_log2 in 8u32..20,
            seed in 0u64..u64::MAX,
            len in 0usize..1500,
        ) {
            // Both levels of all four geometries (the direct-mapped 128-B
            // L1 included), on streams that mix a hot strided walk with
            // scattered addresses over a span a few times the capacity.
            let mem = config_from(sel);
            let config = if l2 { mem.l2 } else { mem.l1d };
            let mut flat = Cache::new(config);
            let mut reference = RefCache::new(config);
            let mut x = seed | 1;
            for i in 0..len as u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let addr = if x >> 62 == 0 {
                    i * 24 % (1 << span_log2)
                } else {
                    (x >> 20) % (1 << span_log2)
                };
                let write = x >> 61 & 1 == 1;
                prop_assert_eq!(flat.access(addr, write), reference.access(addr, write));
            }
            prop_assert_eq!(flat.stats(), reference.stats);
            prop_assert_eq!(
                cache_bytes(|w| flat.save_state(w)),
                cache_bytes(|w| reference.save_state(w))
            );
            let mut restored = Cache::new(config);
            let bytes = cache_bytes(|w| flat.save_state(w));
            prop_assert!(restored.restore_state(&mut SnapReader::new(&bytes)).is_ok());
            prop_assert_eq!(cache_bytes(|w| restored.save_state(w)), bytes);
        }
    }

    #[test]
    fn restore_rejects_a_tag_wider_than_the_address() {
        // Two sets of 64-B lines: tags hold the top 57 address bits.
        let config = CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        };
        let mut w = SnapWriter::new();
        w.usize(2);
        w.usize(1);
        w.u64(u64::MAX >> 7);
        w.bool(true);
        w.usize(0);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        let ok = w.into_bytes();
        assert!(Cache::new(config)
            .restore_state(&mut SnapReader::new(&ok))
            .is_ok());
        let mut w = SnapWriter::new();
        w.usize(2);
        w.usize(1);
        w.u64(u64::MAX >> 6);
        w.bool(true);
        let wide = w.into_bytes();
        assert_eq!(
            Cache::new(config).restore_state(&mut SnapReader::new(&wide)),
            Err(SnapError::BadValue {
                context: "cache tag",
                value: u64::MAX >> 6,
            })
        );
    }

    #[test]
    #[should_panic(expected = "one-set cache")]
    fn one_set_of_byte_lines_is_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 4,
            ways: 4,
            line_bytes: 1,
        });
    }
}
#[cfg(test)]
mod prefetch_tests {
    use super::*;

    #[test]
    fn streaming_misses_are_absorbed_by_the_prefetcher() {
        let mut m = MemSystem::new(MemConfig::default());
        for i in 0..1024u64 {
            m.access(0x10_0000 + i * 64, false); // one access per line
        }
        // All but the stream-training misses hit the prefetcher.
        assert!(
            m.prefetch_hits() > 1000,
            "prefetch hits {}",
            m.prefetch_hits()
        );
    }

    #[test]
    fn random_misses_are_not_prefetched() {
        let mut m = MemSystem::new(MemConfig::default());
        let mut addr = 1u64;
        for _ in 0..512 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.access(addr % (1 << 30), false);
        }
        assert!(
            m.prefetch_hits() < 20,
            "random pattern prefetched {} times",
            m.prefetch_hits()
        );
    }

    #[test]
    fn prefetcher_can_be_disabled() {
        let mut m = MemSystem::new(MemConfig {
            prefetch: false,
            ..MemConfig::default()
        });
        for i in 0..256u64 {
            m.access(i * 64, false);
        }
        assert_eq!(m.prefetch_hits(), 0);
    }
}
