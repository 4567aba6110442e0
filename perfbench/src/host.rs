//! Host speed, host-noise attribution and memory.
//!
//! On a shared VM a slow run is either the program or the host. Steal
//! time (ticks the hypervisor ran someone else while this guest wanted
//! the CPU) and this process's own CPU time, taken beside wall time,
//! tell the two apart. The host's clock speed also wanders, by up to
//! 1.7x over minutes, without any steal: [`kernel_ms`] times a fixed
//! kernel of this benchmark's own so that timings can be scaled to a
//! reference host (see [`Speed`]).

use std::hint::black_box;
use std::time::Instant;

/// What [`kernel_ms`] takes on the reference host: about its median on
/// a 2-vCPU cloud VM. Scaled timings read as if measured there.
pub const KERNEL_REF_MS: f64 = 2.0;

/// One pass of a fixed floating-point kernel (eight independent
/// multiply-add chains over two L1-resident vectors), in milliseconds.
/// It shares no code with the program, so a change to the program never
/// moves it; only the host does.
pub fn kernel_ms() -> f64 {
    let a: Vec<f32> = (0..1024).map(|i| (i as f32).sin()).collect();
    let b: Vec<f32> = (0..1024).map(|i| (i as f32).cos()).collect();
    let t0 = Instant::now();
    let mut acc = [0f32; 8];
    for _ in 0..2000 {
        for (k, (x, y)) in black_box(&a).iter().zip(&b).enumerate() {
            acc[k & 7] += x * y;
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// How slow the host ran around a timed section, relative to the
/// reference host: the mean of [`kernel_ms`] just before and just after
/// it, over [`KERNEL_REF_MS`]. Dividing a duration by it (or multiplying
/// a rate) gives the value on the reference host.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    pub kernel_ms: f64,
}

impl Speed {
    /// Run `f`, timing it in seconds, between two kernel passes.
    pub fn around<T>(f: impl FnOnce() -> T) -> (T, f64, Speed) {
        let k0 = kernel_ms();
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        let k1 = kernel_ms();
        (
            r,
            dt,
            Speed {
                kernel_ms: (k0 + k1) / 2.0,
            },
        )
    }

    /// Host slowness: >1 when the host ran slower than the reference.
    pub fn factor(&self) -> f64 {
        self.kernel_ms / KERNEL_REF_MS
    }
}

/// Kernel clock ticks per second for `/proc/stat` and `/proc/self/stat`
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// A point-in-time reading of the host counters.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    steal_ticks: u64,
    cpu_ticks: u64,
}

/// Host counters accumulated between two samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Steal time summed over all CPUs, in milliseconds.
    pub steal_ms: f64,
    /// CPU seconds this process used (user + system, all threads).
    pub cpu_s: f64,
}

impl HostSample {
    /// Read the counters now.
    pub fn now() -> HostSample {
        HostSample {
            at: Instant::now(),
            steal_ticks: steal_ticks().unwrap_or(0),
            cpu_ticks: process_cpu_ticks().unwrap_or(0),
        }
    }

    /// What accumulated since `self`.
    pub fn since(&self) -> HostDelta {
        let now = HostSample::now();
        HostDelta {
            wall_s: now.at.duration_since(self.at).as_secs_f64(),
            steal_ms: now.steal_ticks.saturating_sub(self.steal_ticks) as f64 * 1e3 / USER_HZ,
            cpu_s: now.cpu_ticks.saturating_sub(self.cpu_ticks) as f64 / USER_HZ,
        }
    }
}

/// The 8th value of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `utime + stime` of `/proc/self/stat` (fields 14 and 15).
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
