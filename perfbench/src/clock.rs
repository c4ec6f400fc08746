//! Wall-clock and memory readings. This file is the benchmark's only
//! user of `Instant`: every end-to-end time is measured from outside the
//! program, around calls into its public API.

use std::collections::HashMap;
// lint: allow(clock) the benchmark times public calls from outside the program
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
// lint: allow(clock) see the module docs
pub struct Timer(Instant);

impl Timer {
    /// Starts timing now.
    pub fn start() -> Self {
        // lint: allow(clock) see the module docs
        Timer(Instant::now())
    }

    /// Seconds since [`Timer::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since [`Timer::start`].
    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Reference-kernel operations per second on the host the benchmark was
/// calibrated on (a quiet period of a 2-vCPU x86-64 VM).
const NOMINAL_HOST_SPEED: f64 = 2.0e7;

/// Operations per second of a fixed, benchmark-owned kernel: hash-map
/// inserts and removes of small vectors, like the arbiter's own
/// bookkeeping. Sub-microsecond arbiter calls slow down and speed up
/// with the host (shared caches, neighbours on the same cores) by half
/// within seconds, and this kernel moves with them, so the workloads
/// report their times relative to it. The kernel uses only `std`; no
/// change to the program can move it.
fn host_speed() -> f64 {
    const OPS: u32 = 100_000;
    let t = Timer::start();
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut kept = 0usize;
    for _ in 0..OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 33) % 2048;
        if x & 1 == 0 {
            map.insert(key, vec![key as u32; 8]);
        } else if let Some(v) = map.remove(&key) {
            kept += v.len();
        }
    }
    std::hint::black_box(kept);
    f64::from(OPS) / t.secs()
}

/// [`host_speed`] over [`NOMINAL_HOST_SPEED`]: below 1 on a host running
/// slower than nominal. A time times this factor is the time at nominal
/// host speed.
pub fn host_factor() -> f64 {
    host_speed() / NOMINAL_HOST_SPEED
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MiB. `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
