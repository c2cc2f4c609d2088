//! Host-speed probe.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! moves by ±10 % over seconds to minutes, sometimes by 2×. A fixed piece
//! of work that runs no simulator code — a binary-heap calendar, a pointer
//! chase through an L2-sized table, and transcendental math, the three
//! things the simulator spends its time on — is timed between every two
//! segments of measured work (every scenario of a rep, every layer
//! driver). Each segment's time is scaled by `REFERENCE_S` over the mean
//! of the probe times at its two ends, which reports it in seconds of the
//! reference host and cancels much of the drift, while a change to the
//! simulator still moves it in full.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one probe measurement takes on the reference host (2-vCPU
/// x86-64 VM, see README.md) when it is quiet.
pub const REFERENCE_S: f64 = 0.00175;

const HEAP_DEPTH: u64 = 64;
const STEPS: usize = 64_000;
const TABLE: usize = 32 * 1024; // 256 KiB of u64

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times consecutive segments of work, each scaled by the probe measured
/// at its two ends. The probe's working set is allocated once, so later
/// measurements allocate nothing and are untouched by the simulator's heap.
pub struct ScaledTimer {
    heap: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
    /// The probe measurement that closed the previous segment.
    last: f64,
}

impl Default for ScaledTimer {
    fn default() -> Self {
        let mut t = ScaledTimer {
            heap: BinaryHeap::with_capacity(HEAP_DEPTH as usize + 1),
            table: (0..TABLE as u64).map(splitmix64).collect(),
            last: 0.0,
        };
        t.last = t.measure();
        t
    }
}

impl ScaledTimer {
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        self.heap.clear();
        self.heap
            .extend((0..HEAP_DEPTH).map(|i| Reverse(splitmix64(i) >> 40)));
        let (mut idx, mut acc, mut x) = (0usize, 0u64, 1.000_1_f64);
        for i in 0..STEPS {
            let Reverse(t) = self.heap.pop().expect("heap stays at depth");
            self.heap
                .push(Reverse(t + (splitmix64(t ^ i as u64) >> 44)));
            acc = acc.wrapping_add(self.table[idx]);
            idx = (self.table[idx] as usize ^ i) % TABLE;
            if i % 8 == 0 {
                x = (x.ln() + 1.0).sqrt().exp() * 0.5 + 0.5;
            }
        }
        black_box((acc, x));
        t0.elapsed().as_secs_f64()
    }

    /// The fastest of three probe passes, in seconds.
    fn measure(&mut self) -> f64 {
        (0..3).map(|_| self.pass()).fold(f64::INFINITY, f64::min)
    }

    /// Runs `f` as one segment. Returns its result, its wall seconds, and
    /// those seconds in reference-host units.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let next = self.measure();
        let scaled = secs * REFERENCE_S / ((self.last + next) / 2.0);
        self.last = next;
        (out, secs, scaled)
    }
}
