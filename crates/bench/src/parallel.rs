//! Thread-pooled execution of independent sweep points.
//!
//! Every figure sweep is embarrassingly parallel — each point is a
//! self-contained [`rose::mission::MissionConfig`] with its own seed and
//! no shared state — so the runners fan the points out over a small
//! worker pool and collect results in input order. The worker count is
//! taken from the `--jobs N` / `-j N` command-line flag, defaulting to the
//! machine's available parallelism.

use rose_sim_core::lock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The configured sweep parallelism: `--jobs N` (or `-j N` / `--jobs=N`)
/// from the command line, else the machine's available parallelism.
/// Always at least 1.
pub fn default_jobs() -> usize {
    jobs_from_args(std::env::args().skip(1))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Parses `--jobs N`, `--jobs=N`, or `-j N` out of an argument list.
fn jobs_from_args(args: impl Iterator<Item = String>) -> Option<usize> {
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let value = if arg == "--jobs" || arg == "-j" {
            args.next()
        } else {
            arg.strip_prefix("--jobs=").map(str::to_string)
        };
        if let Some(n) = value.and_then(|v| v.parse::<usize>().ok()) {
            if n > 0 {
                return Some(n);
            }
        }
    }
    None
}

/// Maps `f` over `items` on a pool of `jobs` worker threads, preserving
/// input order in the result. Workers pull items from a shared counter,
/// so uneven per-item cost balances automatically.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have stopped.
pub fn parallel_map<T, U, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }

    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = lock(&inputs[i]).take().expect("sweep item taken twice");
                let result = f(item);
                *lock(&outputs[i]) = Some(result);
            });
        }
    });

    outputs
        .iter()
        .map(|slot| lock(slot).take().expect("sweep item not computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(items, 7, |x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |args: &[&str]| jobs_from_args(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--jobs", "4"]), Some(4));
        assert_eq!(parse(&["-j", "2"]), Some(2));
        assert_eq!(parse(&["--jobs=16"]), Some(16));
        assert_eq!(parse(&["--jobs", "0"]), None);
        assert_eq!(parse(&["fig10"]), None);
    }
}
