//! A fixed reference kernel that times how fast the host runs right now.
//!
//! The kernel is the benchmark's own code, not the program's, so no change
//! to the program moves it. Load from outside the VM slows the campaign
//! engines mostly through their memory traffic, not their arithmetic, so
//! the kernel does what they spend that traffic on: many small heap
//! allocations, formatted strings hashed into a map, and an ordered map.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Small heap allocations per pass.
const ALLOCATIONS: usize = 1 << 17;
/// Formatted string keys per pass.
const STRINGS: u32 = 60_000;
/// Ordered-map inserts per pass.
const ORDERED: u64 = 100_000;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pass of the kernel; returns a checksum so no part is elided.
fn pass() -> u64 {
    let boxes: Vec<Box<[u64; 6]>> = (0..ALLOCATIONS).map(|i| Box::new([i as u64; 6])).collect();
    let mut sum: u64 = boxes.iter().map(|b| b[3]).sum();
    drop(boxes);

    let key = |i: u32| format!("session-{i}-dev-{}", i % 7);
    let mut by_name: HashMap<String, u32> = HashMap::new();
    for i in 0..STRINGS {
        by_name.insert(key(i), i);
    }
    for i in (0..STRINGS).step_by(3) {
        sum += u64::from(by_name[&key(i)]);
    }
    drop(by_name);

    let mut state = 5;
    let mut ordered = BTreeMap::new();
    for i in 0..ORDERED {
        ordered.insert(splitmix64(&mut state) % 1_000_000, i);
    }
    sum.wrapping_add(ordered.range(1_000..500_000).map(|(_, v)| *v).sum::<u64>())
}

/// Host seconds of one kernel pass.
pub fn time() -> f64 {
    let start = Instant::now();
    black_box(pass());
    start.elapsed().as_secs_f64()
}
