//! Making host measurements comparable across runs on a machine whose
//! speed drifts: one CPU, a yardstick timed between missions, and a heap
//! counter in place of the resident set ([`CountingAlloc`]).
//!
//! The machines this benchmark runs on are shared virtual machines whose
//! speed drifts by up to 2× over minutes, invisibly to the guest (no steal
//! time), and the drift slows every kind of work at once, though not always
//! by the same factor: a compute loop, thread spawns and cross-thread
//! wake-ups all stretch with the missions. No statistic over wall times
//! alone can remove that, so:
//!
//! - A run keeps to one CPU ([`pin_to_one_cpu`]). The two vCPUs drift
//!   independently; unpinned, a run's threads land on either, and the
//!   yardstick and the mission next to it can see different hosts.
//! - A fixed piece of work, the [`Yardstick`], is timed before the first
//!   mission and after each one, and each mission's wall time is scaled by
//!   it ([`normalize`]). The yardstick mixes the three kinds of work the
//!   workloads do: compute over a cache-sized working set, thread
//!   fork/join (the parallel sync mode), and channel round trips between
//!   two threads (the remote SoC). It is the benchmark's own code and calls
//!   nothing in the repository, so it does the same work at every commit.
//! - Memory is the heap peak the program itself holds, not the resident
//!   set, which also counts glibc's per-thread arenas.

use rose_trace::Stopwatch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Words in glibc's fixed-size `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and with it every thread it starts
/// afterwards, to the lowest-numbered CPU it may run on, and returns that
/// CPU. Call it before starting any thread.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    // `Cpus_allowed_list:` reads like `0-1` or `2,5-7`.
    let cpu = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().split([',', '-']).next()?.parse::<usize>().ok())
        .filter(|&cpu| cpu < CPU_SET_WORDS * 64)
        .ok_or("no usable Cpus_allowed_list in /proc/self/status")?;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, readable array of exactly the size passed,
    // the size of glibc's `cpu_set_t`; pid 0 names the calling thread, and
    // the call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "pinning to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Yardstick wall time, ms, of the host every normalized time is scaled
/// to: about what one yardstick takes on the baseline machine in the
/// README when that machine is quiet.
pub const NOMINAL_MS: f64 = 4.0;

/// Words in the compute loop's working set (2 MiB).
const WORDS: usize = 1 << 18;
/// Dependent read-modify-write steps of the compute loop.
const STEPS: usize = 200_000;
/// Scoped threads spawned and joined.
const SPAWNS: usize = 100;
/// Round trips between two threads over channels.
const ROUND_TRIPS: usize = 300;

/// The yardstick's working set, allocated once per run.
#[derive(Debug)]
pub struct Yardstick {
    words: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        Yardstick {
            words: vec![1; WORDS],
        }
    }
}

impl Yardstick {
    /// Does the fixed work once and returns its wall time, ms.
    pub fn measure(&mut self) -> f64 {
        let watch = Stopwatch::start();
        black_box(self.compute());
        fork_join();
        round_trips();
        watch.elapsed().as_secs_f64() * 1e3
    }

    /// A xorshift walk over the working set, each step depending on the
    /// last.
    fn compute(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % WORDS as u64) as usize;
            self.words[i] = self.words[i].wrapping_add(x);
            acc ^= self.words[i.wrapping_mul(7) % WORDS];
            if acc & 1 == 0 {
                acc = acc.rotate_left(3);
            }
        }
        acc
    }
}

fn fork_join() {
    for _ in 0..SPAWNS {
        std::thread::scope(|scope| {
            scope.spawn(|| black_box(1));
        });
    }
}

fn round_trips() {
    let (to_peer, from_main) = mpsc::channel::<usize>();
    let (to_main, from_peer) = mpsc::channel::<usize>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for v in from_main {
                if to_main.send(v + 1).is_err() {
                    break;
                }
            }
        });
        for i in 0..ROUND_TRIPS {
            // Both ends live until the scope ends, so neither call can
            // fail; a failure would only shorten the yardstick.
            if to_peer.send(i).is_err() || from_peer.recv().is_err() {
                break;
            }
        }
        drop(to_peer);
    });
}

/// `wall` (any unit) scaled to the nominal host, given the yardstick times
/// measured just before and just after it.
pub fn normalize(wall: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall * NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

/// The system allocator, counting the bytes the program holds and their
/// peak. The peak is the benchmark's memory metric: the resident set
/// (`VmHWM`) also counts what glibc keeps in per-thread arenas, and how many
/// arenas a run creates depends on thread timing, which moves it by up to
/// half between runs of the same code.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    // Relaxed: the counters publish no other data.
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// The most heap the program has held at once since the last
/// [`reset_peak_heap`], bytes.
pub fn peak_heap_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Starts a new peak from the heap held now.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the counters are only updated after a successful call.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s
        // contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_counts_a_large_allocation() {
        let held = vec![7u8; 8 << 20];
        assert!(peak_heap_bytes() >= held.len());
        assert!(LIVE_BYTES.load(Ordering::Relaxed) >= held.len());
    }

    #[test]
    fn a_host_twice_as_slow_reads_the_same() {
        let quiet = normalize(20.0, NOMINAL_MS, NOMINAL_MS);
        assert_eq!(quiet, 20.0);
        assert_eq!(normalize(40.0, 2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS), quiet);
        // A slowdown that starts mid-mission counts half.
        assert_eq!(normalize(30.0, NOMINAL_MS, 2.0 * NOMINAL_MS), quiet);
    }
}
