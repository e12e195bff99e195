//! Machine-speed reference.
//!
//! The reference box is a two-vCPU microVM on a shared host: for tens of
//! seconds at a time everything on it runs 10–40 % slower, whatever the
//! code. A run therefore times a fixed reference kernel before every pass
//! of the spine and reports its end-to-end timings *at reference speed*:
//! scaled by `NOMINAL_US / median(reference kernel, this run)`. The kernel
//! lives here, uses nothing of the system under test, and never changes
//! with it, so a gain or a regression in the libraries moves the metrics
//! exactly as it would unscaled; a slow stretch of the machine moves the
//! kernel and the workloads together and mostly cancels (measured: the
//! run-to-run quartile spread of every timing roughly halves).
//!
//! The kernel mixes what the workloads mix: a dependent load chain through
//! 256 KiB (latency, L2), a sweep over 8 MiB (bandwidth, last-level
//! cache) and four independent integer chains (issue width, which is what
//! a busy SMT sibling takes away). About 2 ms.

use crate::stats::median;
use std::hint::black_box;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// What the kernel takes on the reference box in a quiet stretch,
/// microseconds. Only fixes the scale: on that box a quiet run reports
/// what it measured.
pub const NOMINAL_US: f64 = 1_700.0;

struct Tables {
    /// One random cycle through all 65 536 slots.
    chase: Vec<u32>,
    sweep: Vec<u64>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let n = 1usize << 16;
        let mut chase: Vec<u32> = (0..n as u32).collect();
        // Sattolo's shuffle (xorshift-driven): a single cycle, so the
        // chain never settles into a short loop.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        Tables {
            chase,
            sweep: (0..1u64 << 20).collect(),
        }
    })
}

/// Runs the reference kernel once on every core at the same time and
/// returns the mean of their timings, microseconds. Not what the scaling
/// uses: it keeps a core that idled through a single-threaded pass from
/// starting the next threaded pass cold, and against the kernel run alone
/// it records how much the cores are in each other's way.
fn all_cores_kernel_us() -> f64 {
    let cores = crate::nproc();
    let barrier = Barrier::new(cores);
    let total: f64 = std::thread::scope(|scope| {
        let others: Vec<_> = (1..cores)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    kernel_us()
                })
            })
            .collect();
        barrier.wait();
        let mine = kernel_us();
        mine + others
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .sum::<f64>()
    });
    total / cores as f64
}

/// Runs the reference kernel once on the calling thread; microseconds.
fn kernel_us() -> f64 {
    let t = tables();
    // Untimed: bring the chase table back into cache after whatever the
    // last pass left there.
    let mut idx = 0u32;
    for _ in 0..t.chase.len() {
        idx = t.chase[idx as usize];
    }
    let t0 = Instant::now();
    let mut acc = u64::from(idx) | 1;
    for _ in 0..150_000 {
        idx = t.chase[idx as usize];
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(u64::from(idx));
    }
    let mut sum = 0u64;
    for v in &t.sweep {
        sum = sum.wrapping_add(*v ^ acc);
    }
    let (mut a, mut b, mut c, mut d) = (acc, sum, 3u64, 5u64);
    for i in 0..200_000u64 {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.rotate_left(7) ^ i;
        c = c.wrapping_add(a >> 3);
        d = d.wrapping_mul(5) ^ b;
    }
    black_box((a, b, c, d));
    t0.elapsed().as_secs_f64() * 1e6
}

/// The reference kernel's timings over one run.
#[derive(Debug, Default, Clone)]
pub struct MachineSpeed {
    alone_us: Vec<f64>,
    together_us: Vec<f64>,
}

impl MachineSpeed {
    /// One sample: the kernel on every core at once, then alone.
    pub fn sample(&mut self) {
        self.together_us.push(all_cores_kernel_us());
        self.alone_us.push(kernel_us());
    }

    pub fn samples(&self) -> usize {
        self.alone_us.len()
    }

    /// Median time of the kernel run alone, microseconds.
    pub fn kernel_us(&self) -> f64 {
        median(&self.alone_us)
    }

    /// Median of (kernel on every core at once) ÷ (kernel alone).
    pub fn parallel_slowdown(&self) -> f64 {
        median(&self.together_us) / self.kernel_us()
    }

    /// What a duration measured in this run is multiplied by (and a rate
    /// divided by) to read at reference speed.
    pub fn factor(&self) -> f64 {
        if self.alone_us.is_empty() {
            1.0
        } else {
            NOMINAL_US / self.kernel_us()
        }
    }
}
