//! Host-speed calibration for the end-to-end metrics.
//!
//! The boxes this benchmark runs on are small virtual machines on a shared
//! host, and the host changes under them in two ways that last from seconds
//! to many minutes: longer than a run, so no median over passes removes
//! them, and two runs of the same code then differ by more than any useful
//! bound.
//!
//! - The cores switch between speed states some 25 % apart.
//! - Neighbours load the shared last-level cache and memory. A load that
//!   misses the 2 MB private cache then takes up to twice as long while a
//!   dependent integer chain runs at full speed: `explore_gemm_100k` was
//!   seen to go from 1.25 s to 1.9 s a pass for ten minutes and
//!   `serve_mixed` from 0.83 s to 1.15 s, with the chain's time unchanged.
//!
//! The untraced run therefore times a fixed reference loop right before and
//! after every pass and scales the pass's host time by how much slower than
//! nominal the loop ran. The loop has two halves, one for each effect: a
//! serially dependent integer chain ([`spin`]) and a serially dependent walk
//! through a random cycle over 8 MB ([`walk`]: past the private cache, well
//! inside the shared one; walked twice and timed the second time, so that
//! what the pass before it evicted does not count). The factor is the mean
//! of the two slow-downs, as for a program that spends half its time on
//! each. The figures reported are thus *calibrated* seconds: seconds on a
//! host that runs both halves in their nominal times, which is the reference
//! box when its neighbours are quiet. Both sides of any comparison are scaled
//! by the same rule, and the loop's time depends on the host only, never on
//! the program under test. Per-layer metrics of the traced run are raw.
//!
//! What it buys is in `README.md`: about a third of the spread of 20 s
//! medians of `pass_s` while the neighbours are loud. What it does not remove
//! is noise faster than a pass, and whatever a workload's own mix of the two
//! halves differs from one to one by; the bounds in `BENCHMARK.json` are as
//! wide as they are for that.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds [`SPINS`] spins take on the reference box (2 vCPUs of a 2.1 GHz
/// Xeon) in its usual speed state.
pub const NOMINAL_CORE_S: f64 = 0.0150;

/// Seconds [`WALK_STEPS`] steps of the timed walk take on the reference box
/// while its neighbours are quiet.
pub const NOMINAL_CACHE_S: f64 = 0.0195;

const SPINS: usize = 8;
const WALK_STEPS: usize = 300_000;

/// Slots of the walk's buffer: 8 MB of `u32`, four times the private cache
/// of a core of the reference box and a thirtieth of the cache it shares.
const RING_SLOTS: usize = 2 << 20;

/// What the walk's buffer adds to the resident set of the process from the
/// first [`sample`] on. It is the benchmark's, not the program's, and the
/// run takes it off the peak it reports.
pub const RING_MB: f64 = (RING_SLOTS * std::mem::size_of::<u32>()) as f64 / (1 << 20) as f64;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A serially dependent xorshift chain: no memory traffic, nothing for the
/// compiler to vectorize or hoist, so its time moves with core speed only.
fn spin() {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..1_000_000 {
        acc = acc.wrapping_add(xorshift(&mut x));
    }
    black_box(acc);
}

/// One random cycle through all [`RING_SLOTS`] slots (Sattolo's shuffle of
/// the identity): slot `i` holds the slot to visit next, so that every load
/// waits for the one before it and no prefetcher can guess the next line.
fn ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let mut next: Vec<u32> = (0..RING_SLOTS as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..RING_SLOTS).rev() {
            next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        next
    })
}

/// [`WALK_STEPS`] dependent loads along the cycle from slot `start`, and
/// the seconds they took.
fn walk(ring: &[u32], start: usize) -> f64 {
    let started = Instant::now();
    let mut slot = start as u32;
    for _ in 0..WALK_STEPS {
        slot = ring[slot as usize];
    }
    black_box(slot);
    started.elapsed().as_secs_f64()
}

/// One reading of the reference loop: seconds for each half.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    core_s: f64,
    cache_s: f64,
}

/// One calibration sample: the loop's times with `threads` threads running
/// it at once, as many as the workload keeps busy, averaged over them. The
/// times are whole, not the fastest of several goes: what slows the loop for
/// a moment slows the program under test as well.
pub fn sample(threads: usize) -> Sample {
    let ring = ring();
    let one = |thread: usize| {
        let started = Instant::now();
        (0..SPINS).for_each(|_| spin());
        let core_s = started.elapsed().as_secs_f64();
        // The pass before this sample pushed the buffer out of the caches.
        // Walking the same stretch twice and timing the second go leaves
        // that out: what is timed is the shared cache answering, at the
        // speed the neighbours leave it.
        let start = thread * (RING_SLOTS / 8);
        walk(ring, start);
        (core_s, walk(ring, start))
    };
    let times: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|t| scope.spawn(move || one(t))).collect();
        std::iter::once(one(0))
            .chain(
                others
                    .into_iter()
                    .map(|t| t.join().expect("the loop cannot panic")),
            )
            .collect()
    });
    let n = times.len() as f64;
    Sample {
        core_s: times.iter().map(|t| t.0).sum::<f64>() / n,
        cache_s: times.iter().map(|t| t.1).sum::<f64>() / n,
    }
}

/// The factor that turns host seconds measured between two samples into
/// calibrated seconds: the inverse of the mean slow-down of the two halves.
pub fn factor(before: Sample, after: Sample) -> f64 {
    let core = (before.core_s + after.core_s) / 2.0 / NOMINAL_CORE_S;
    let cache = (before.cache_s + after.cache_s) / 2.0 / NOMINAL_CACHE_S;
    2.0 / (core + cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOMINAL: Sample = Sample {
        core_s: NOMINAL_CORE_S,
        cache_s: NOMINAL_CACHE_S,
    };

    #[test]
    fn the_ring_is_one_cycle_through_every_slot() {
        let ring = ring();
        let mut slot = 0u32;
        for step in 1..=RING_SLOTS {
            slot = ring[slot as usize];
            assert_eq!(slot == 0, step == RING_SLOTS, "back at 0 after {step}");
        }
    }

    #[test]
    fn a_sample_is_plausible_and_the_nominal_host_has_factor_one() {
        let s = sample(2);
        assert!(s.core_s > 1e-4 && s.core_s < 5.0, "{s:?}");
        assert!(s.cache_s > 1e-4 && s.cache_s < 5.0, "{s:?}");
        assert_eq!(factor(NOMINAL, NOMINAL), 1.0);
    }

    #[test]
    fn a_host_slower_in_either_half_has_a_factor_below_one() {
        let slow_core = Sample {
            core_s: 2.0 * NOMINAL_CORE_S,
            ..NOMINAL
        };
        let slow_cache = Sample {
            cache_s: 2.0 * NOMINAL_CACHE_S,
            ..NOMINAL
        };
        // Twice as slow in one half is half as slow again overall.
        assert!((factor(slow_core, slow_core) - 1.0 / 1.5).abs() < 1e-12);
        assert!((factor(slow_cache, slow_cache) - 1.0 / 1.5).abs() < 1e-12);
        assert!(factor(NOMINAL, slow_cache) > factor(slow_cache, slow_cache));
    }
}
