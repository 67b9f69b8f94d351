//! A fixed CPU kernel that tracks how fast the machine is running.
//!
//! On a shared machine the same command drifts by tens of percent over
//! minutes as neighbours come and go, far more than any median over one
//! run can absorb. The kernel below does a fixed amount of work shaped
//! like the pipeline's own (a random gate network evaluated on 64-bit
//! words in topological order), and is timed between samples, one copy
//! per generator thread so a two-worker workload is calibrated against
//! both cores. End-to-end timings are then reported scaled to a machine
//! on which the kernel takes [`REFERENCE_S`]; the raw seconds stay in the
//! results file.
//!
//! The kernel depends on nothing in the repository, so no change to the
//! pipeline can move it.

use std::time::Instant;

/// The kernel's time on the machine the benchmark was tuned on, when
/// quiet: calibrated timings read as seconds on that machine.
pub const REFERENCE_S: f64 = 0.05;

const GATES: usize = 20_000;
const INPUTS: usize = 64;
const ROUNDS: u64 = 400;

/// Runs `copies` instances of the kernel at once, one per thread, and
/// returns their mean wall time in seconds.
#[must_use]
pub fn kernel_seconds(copies: usize) -> f64 {
    let copies = copies.max(1);
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..copies).map(|_| scope.spawn(kernel_once)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel does not panic"))
            .sum()
    });
    total / copies as f64
}

/// One run of the kernel; its wall time in seconds.
fn kernel_once() -> f64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let gates: Vec<(u32, u32, u8)> = (0..GATES)
        .map(|i| {
            if i < INPUTS {
                (0, 0, 0)
            } else {
                let below = i as u64;
                (
                    (next() % below) as u32,
                    (next() % below) as u32,
                    (next() % 3) as u8,
                )
            }
        })
        .collect();
    let mut values = vec![0u64; GATES];
    let start = Instant::now();
    for round in 0..ROUNDS {
        for (i, v) in values.iter_mut().take(INPUTS).enumerate() {
            *v = round
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32);
        }
        for i in INPUTS..GATES {
            let (a, b, op) = gates[i];
            let (x, y) = (values[a as usize], values[b as usize]);
            values[i] = match op {
                0 => x & y,
                1 => x | y,
                _ => x ^ !y,
            };
        }
    }
    std::hint::black_box(&values);
    start.elapsed().as_secs_f64()
}
