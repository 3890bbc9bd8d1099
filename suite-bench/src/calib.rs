//! Host-speed calibration.
//!
//! The host this benchmark was tuned on shares its cores with other
//! tenants. It has interference episodes of seconds to minutes in which
//! everything, pure computation included, runs up to 50% slower, and
//! process CPU time inflates with wall time. Over ten runs the raw
//! end-to-end figures spread by 10–30% between quartiles.
//!
//! So before every op the benchmark times a fixed reference kernel that
//! shares no code with the repository, and scales each pass's times by
//! `NOMINAL_NS / (median kernel time in that pass)`. A change to the
//! repository cannot change the kernel, so it moves the scaled figures
//! by its full amount. The kernel mixes what the workloads spend their
//! time on: allocation and pointer chasing (a `BTreeMap` of small
//! vectors), hashing and sorting, and a small interpreter's dispatch
//! loop.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on a quiet host: a 2.1 GHz Xeon vCPU with nothing else
/// running. Scaled figures read as if every pass ran at this speed.
pub const NOMINAL_NS: f64 = 300_000.0;

fn allocate_and_chase() {
    let mut tree = BTreeMap::new();
    for i in 0..600u64 {
        tree.insert(
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            vec![i; (i % 9) as usize],
        );
    }
    black_box(tree.len());
}

fn hash_and_sort() {
    let mut map = HashMap::new();
    let mut vecs: Vec<Vec<u64>> = Vec::new();
    for i in 0..800u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        vecs.push((0..i % 17).collect());
    }
    vecs.sort_by_key(Vec::len);
    black_box((map.len(), vecs.len()));
}

/// A four-register machine running a fixed loop over a 1 KiB memory.
fn dispatch() {
    const PROGRAM: [(u8, usize, usize); 7] = [
        (0, 0, 0), // r0 += 1
        (1, 1, 0), // r1 = r0 * 7
        (2, 2, 1), // r2 = mem[r1]
        (3, 3, 2), // r3 ^= r2 + r1
        (4, 1, 3), // mem[r1] = r3
        (5, 0, 3), // if r3 is odd, r0 += 1
        (6, 0, 0), // loop while r0 < 12_000
    ];
    let mut mem = [0u32; 256];
    let mut r = [0u64; 4];
    let mut pc = 0;
    while pc < PROGRAM.len() {
        let (op, a, b) = black_box(PROGRAM[pc]);
        pc += 1;
        match op {
            0 => r[a] += 1,
            1 => r[a] = r[b].wrapping_mul(7),
            2 => r[a] = u64::from(mem[(r[b] & 255) as usize]),
            3 => r[a] ^= r[b].wrapping_add(r[1]),
            4 => mem[(r[a] & 255) as usize] = r[b] as u32,
            5 => r[a] += r[b] & 1,
            _ if r[0] < 12_000 => pc = 0,
            _ => {}
        }
    }
    black_box(r);
}

/// Times one run of the reference kernel, in ns.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    allocate_and_chase();
    hash_and_sort();
    dispatch();
    t0.elapsed().as_nanos() as f64
}
