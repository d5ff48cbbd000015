//! Reference kernels that measure how fast the host is running right
//! now, independent of the program under test.
//!
//! On a shared host the same code runs at speeds that drift by a third
//! or more, in stretches of seconds to minutes (caches, memory bandwidth
//! and cores are shared with other tenants; the drift shows in CPU time
//! as much as in wall time). A time measured in such a stretch says as
//! much about the neighbours as about the program. The benchmark
//! therefore times a short slice of a fixed kernel right after each
//! measured unit of work, and reports each timing scaled to the speed
//! the kernel runs at on a quiet host. Two kernels, because the drift
//! is not the same for all code: the memory kernel (random
//! read-modify-writes over a buffer larger than the caches) follows
//! work that misses the caches, as the engine workloads' large
//! reservoirs do; the in-cache kernel (hash-map churn over a table that
//! fits in the L2 cache) follows work that stays in the caches, as the
//! served workload's small sessions do. The program's own code never
//! runs inside a slice, so a change to the program moves the scaled
//! numbers exactly as it moves the raw ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Memory-kernel operations per second on a quiet host (the 2.1 GHz
/// Xeon vCPUs the benchmark was calibrated on run it at 100–120M
/// operations per second when unloaded). Only the ratio to it matters.
pub const NOMINAL_OPS_PER_S: f64 = 100e6;
/// The memory kernel's working set.
const BUFFER_BYTES: usize = 32 << 20;
/// Memory-kernel operations per slice (about 20 ms on a quiet host).
const SLICE_OPS: u64 = 2_000_000;
/// In-cache kernel operations per second on a quiet host (the same
/// vCPUs, quietest stretch seen: about 55M).
const CACHE_NOMINAL_OPS_PER_S: f64 = 50e6;
/// In-cache kernel operations per slice (about 10 ms on a quiet host).
const CACHE_SLICE_OPS: u64 = 400_000;
/// In-cache kernel key range: about 4,500 live keys, a table of some
/// 150 KiB.
const CACHE_KEYS: u64 = 6_000;

/// Which kernel a [`HostSpeed`] runs.
enum Kernel {
    Memory(Vec<u64>),
    InCache,
}

/// A reference kernel and the speeds it measured.
pub struct HostSpeed {
    kernel: Kernel,
    /// Each slice's speed as a share of nominal.
    pub factors: Vec<f64>,
}

impl HostSpeed {
    /// The memory kernel; allocates (and touches) its buffer.
    pub fn new() -> Self {
        HostSpeed { kernel: Kernel::Memory(vec![1; BUFFER_BYTES / 8]), factors: Vec::new() }
    }

    /// The in-cache kernel.
    pub fn in_cache() -> Self {
        HostSpeed { kernel: Kernel::InCache, factors: Vec::new() }
    }

    /// Times one slice on the calling thread; returns the host's current
    /// speed as a share of nominal (below 1 on a slowed host).
    pub fn sample(&mut self) -> f64 {
        let seed = (self.factors.len() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let started = Instant::now();
        let (ops, nominal) = match &mut self.kernel {
            Kernel::Memory(buf) => (memory_kernel(buf, seed), NOMINAL_OPS_PER_S),
            Kernel::InCache => (cache_kernel(seed), CACHE_NOMINAL_OPS_PER_S),
        };
        let factor = ops as f64 / started.elapsed().as_secs_f64() / nominal;
        self.factors.push(factor);
        factor
    }
}

/// The xorshift step both kernels draw their addresses from.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One slice of the memory kernel over `buf`; returns the operations
/// done.
fn memory_kernel(buf: &mut [u64], seed: u64) -> u64 {
    let n = buf.len() as u64;
    let mut x = seed | 1;
    for _ in 0..SLICE_OPS {
        let r = next(&mut x);
        let i = (r % n) as usize;
        buf[i] = buf[i].wrapping_mul(31).wrapping_add(r);
    }
    black_box(buf);
    SLICE_OPS
}

/// One slice of the in-cache kernel: lookups, updates, inserts and
/// removals on a fresh hash map; returns the operations done.
fn cache_kernel(seed: u64) -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(CACHE_KEYS as usize);
    let mut x = seed | 1;
    for _ in 0..CACHE_SLICE_OPS {
        let r = next(&mut x);
        let key = r % CACHE_KEYS;
        match map.get_mut(&key) {
            Some(v) if r & 3 == 0 => {
                black_box(*v);
                map.remove(&key);
            }
            Some(v) => *v = v.wrapping_add(r),
            None => {
                map.insert(key, r);
            }
        }
    }
    black_box(&map);
    CACHE_SLICE_OPS
}
