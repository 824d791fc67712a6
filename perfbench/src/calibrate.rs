//! Host-speed reference.
//!
//! Shared hosts change speed by tens of percent over seconds, which
//! swamps the run-to-run differences the benchmark exists to detect.
//! A fixed, deterministic kernel is timed before and after every timed
//! unit and around the set-ups: ordered-map and sort work, a small
//! dense `f32` product and random reads over a buffer far larger than
//! the per-core caches, the same mix of branchy integer code,
//! arithmetic and memory traffic the simulator and the functional model
//! run. Host times are then reported scaled to the speed at which the
//! kernel takes [`NOMINAL_S`]; the raw values are printed beside them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Kernel time that defines nominal host speed, s: about its median on
/// the 2-core x86-64 host the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.02;

/// Bytes of the kernel's read buffer. It stays resident for the whole
/// run, so peak-memory figures subtract it.
pub const BUFFER_BYTES: usize = 32 << 20;

/// Map operations per kernel run.
const MAP_OPS: u64 = 60_000;
/// Side of the square matrices multiplied per kernel run.
const MATMUL_N: usize = 64;
/// Matrix products per kernel run.
const MATMULS: usize = 6;
/// Random buffer reads per kernel run.
const READS: usize = 600_000;

/// Runs the reference kernel once and returns its wall time, s.
pub fn reference_s() -> f64 {
    let buffer = buffer();
    let clock = Instant::now();
    black_box(map_kernel(black_box(MAP_OPS)));
    black_box(matmul_kernel(black_box(MATMUL_N)));
    black_box(read_kernel(black_box(buffer)));
    clock.elapsed().as_secs_f64()
}

/// The read buffer, filled (and so made resident) on first use.
fn buffer() -> &'static [u64] {
    static BUFFER: OnceLock<Vec<u64>> = OnceLock::new();
    BUFFER.get_or_init(|| {
        (0..BUFFER_BYTES / 8)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    })
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn map_kernel(ops: u64) -> u64 {
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    let mut batch = Vec::with_capacity(256);
    for i in 0..ops {
        let r = xorshift(&mut x);
        let key = r % 16_384;
        if let Some(v) = map.insert(key, i) {
            acc = acc.wrapping_add(v);
        }
        batch.push(r);
        if batch.len() == batch.capacity() {
            batch.sort_unstable();
            acc ^= batch[batch.len() / 2];
            batch.clear();
            if let Some((&k, _)) = map.range(key..).next() {
                map.remove(&k);
            }
        }
    }
    acc.wrapping_add(map.len() as u64)
}

fn matmul_kernel(n: usize) -> f32 {
    let a: Vec<f32> = (0..n * n).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let mut b: Vec<f32> = (0..n * n).map(|i| (i % 13) as f32 * 0.125 - 0.75).collect();
    let mut c = vec![0f32; n * n];
    for _ in 0..MATMULS {
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        std::mem::swap(&mut b, &mut c);
        b.iter_mut().for_each(|v| *v *= 1e-3);
    }
    b.iter().sum()
}

fn read_kernel(buffer: &[u64]) -> u64 {
    let mask = buffer.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..READS {
        acc = acc.wrapping_add(buffer[xorshift(&mut x) as usize & mask]);
    }
    acc
}
