//! Determinism-under-parallelism suite (the tentpole guarantee): the
//! figure JSON a sweep produces must be **byte-identical** whether the
//! work-stealing pool is disabled (`RESEX_THREADS=1`), enabled, or run
//! twice — any pool-introduced ordering leak shows up as a byte diff.
//!
//! Each configuration of the `repro` binary is executed at most once per
//! test process and its JSON cached, so the three assertions below cost
//! three subprocess runs total.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Mutex, OnceLock};

type JsonCache = Mutex<BTreeMap<(String, u32), Vec<u8>>>;

/// Runs `repro fig9 --quick --json` with the given `RESEX_THREADS` value
/// (`run` disambiguates repeated runs of the same width) and returns the
/// JSON bytes.
fn fig9_json(threads: &str, run: u32) -> Vec<u8> {
    static CACHE: OnceLock<JsonCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(bytes) = cache.lock().unwrap().get(&(threads.to_string(), run)) {
        return bytes.clone();
    }
    let path = std::env::temp_dir().join(format!("resex_determinism_t{threads}_r{run}.json"));
    // Same sweep shape as `fig9 --quick`, shorter simulated span so the
    // debug-profile test binary stays fast; CI's determinism gate runs the
    // full --quick span against the release binary.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig9",
            "--quick",
            "--duration-ms",
            "400",
            "--warmup-ms",
            "100",
            "--json",
        ])
        .arg(&path)
        .env("RESEX_THREADS", threads)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed (RESEX_THREADS={threads}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).expect("read figure JSON");
    std::fs::remove_file(&path).ok();
    cache
        .lock()
        .unwrap()
        .insert((threads.to_string(), run), bytes.clone());
    bytes
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let sequential = fig9_json("1", 0);
    let parallel = fig9_json("4", 0);
    assert!(!sequential.is_empty());
    assert_eq!(
        sequential, parallel,
        "fig9 JSON differs between RESEX_THREADS=1 and the pool"
    );
}

#[test]
fn repeated_parallel_sweeps_are_byte_identical() {
    let first = fig9_json("4", 0);
    let second = fig9_json("4", 1);
    assert_eq!(
        first, second,
        "two parallel runs of the same sweep disagree — ordering leak in the pool"
    );
}
