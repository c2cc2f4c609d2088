//! Tier-1 tests for the vendored rayon work-stealing pool itself:
//! positional results, nesting, panic propagation, genuine multi-thread
//! execution, and one thread per unit of width. (The vendor tree is excluded from the
//! workspace, so its behaviour is pinned here.)
//!
//! The whole binary forces a 4-wide pool before first use — wider than
//! this machine may be, which is fine: cross-thread stealing is exercised
//! regardless of core count.

use rayon::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Forces the pool width once, before any test touches the pool. Tests
/// within one binary share the process-global pool, so every test calls
/// this first.
fn pool4() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        // Respect an explicit override (e.g. CI runs the suite at width 1
        // too); otherwise widen to 4 so stealing actually happens.
        if std::env::var("RESEX_THREADS").is_err() {
            assert!(rayon::set_num_threads(4), "pool already started");
        }
    });
}

#[test]
fn join_returns_positionally() {
    pool4();
    let (a, b) = rayon::join(|| 1 + 1, || "two");
    assert_eq!((a, b), (2, "two"));
}

#[test]
fn join_nests() {
    pool4();
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = rayon::join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    assert_eq!(fib(16), 987);
}

#[test]
fn par_map_preserves_input_order() {
    pool4();
    let squares: Vec<u64> = (0..1000u64).into_par_iter().map(|i| i * i).collect();
    let expected: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
    assert_eq!(squares, expected);
}

#[test]
fn par_map_runs_every_element_exactly_once() {
    pool4();
    let seen = Mutex::new(BTreeSet::new());
    let n = 257usize; // odd size: exercises uneven splits
    let out: Vec<usize> = (0..n)
        .into_par_iter()
        .map(|i| {
            assert!(seen.lock().unwrap().insert(i), "element {i} ran twice");
            i
        })
        .collect();
    assert_eq!(out.len(), n);
    assert_eq!(seen.lock().unwrap().len(), n);
}

#[test]
fn par_iter_over_slice_references() {
    pool4();
    let data = [10u32, 20, 30, 40];
    let doubled: Vec<u32> = data.par_iter().map(|&x| x * 2).collect();
    assert_eq!(doubled, vec![20, 40, 60, 80]);
}

#[test]
fn empty_and_singleton_inputs() {
    pool4();
    let empty: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
    assert!(empty.is_empty());
    let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
    assert_eq!(one, vec![8]);
}

#[test]
fn work_actually_spreads_across_threads() {
    pool4();
    if rayon::current_num_threads() <= 1 {
        return; // explicit RESEX_THREADS=1 run: nothing to assert
    }
    #[allow(clippy::disallowed_types)] // `ThreadId` is hashable but not ordered
    let ids = Mutex::new(std::collections::HashSet::new());
    let _: Vec<()> = (0..64)
        .into_par_iter()
        .map(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            // Enough work that the caller cannot race through every
            // element before a worker wakes up.
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .collect();
    assert!(
        ids.lock().unwrap().len() > 1,
        "64 jobs of 2 ms each never left the calling thread"
    );
}

#[test]
fn panics_propagate_to_the_caller() {
    pool4();
    let caught = std::panic::catch_unwind(|| {
        rayon::join(|| 1, || -> i32 { panic!("boom in b") });
    });
    assert!(caught.is_err(), "b's panic must surface");
    let caught = std::panic::catch_unwind(|| {
        rayon::join(|| -> i32 { panic!("boom in a") }, || 1);
    });
    assert!(caught.is_err(), "a's panic must surface");
    // The pool survives a panicked job: subsequent work still runs.
    let calls = AtomicUsize::new(0);
    let sum: Vec<u32> = (0..100u32)
        .into_par_iter()
        .map(|i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
        .collect();
    assert_eq!(sum.len(), 100);
    assert_eq!(calls.load(Ordering::Relaxed), 100);
}

#[test]
fn par_iter_mut_updates_every_element_in_place() {
    pool4();
    let mut data: Vec<u64> = (0..257).collect();
    data.par_iter_mut().for_each(|x| *x = *x * 3 + 1);
    let expected: Vec<u64> = (0..257).map(|x| x * 3 + 1).collect();
    assert_eq!(data, expected);
}

/// Pool workers alive in this process, counted by thread name.
fn worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("resex-worker-"))
        .count()
}

#[test]
fn width_n_runs_n_minus_one_workers() {
    pool4();
    let width = rayon::current_num_threads();
    if width <= 1 || !cfg!(target_os = "linux") {
        return; // no workers at width 1; thread names read from procfs
    }
    // Workers name themselves once running: wait for the expected count,
    // then give any surplus worker time to show up before counting.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while worker_threads() < width - 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(
        worker_threads(),
        width - 1,
        "a width-{width} pool must run {} workers besides the helping caller",
        width - 1
    );
}
