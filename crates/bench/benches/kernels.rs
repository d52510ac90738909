//! Hot-path kernel microbenches: the data-oriented SoA kernels against
//! their scalar twins, at the granularity the simulator actually calls
//! them — per run, not per element.
//!
//! Three tiers, matching `memory.run_merge_ns_per_run`,
//! `memory.buffer_epoch_ns_per_run` and `memory.reuse_profile_ns_per_run`
//! of the repo benchmark (`benchmark/README.md`):
//!
//! * **run-merge** — `AddrRuns::extend_runs` (one boundary check + two
//!   memcpys) vs the per-run push loop, and `IntervalSet::insert_with_gaps`
//!   (fused probe/gap-walk/union) vs the `BTreeMap` twin.
//! * **buffer epoch** — `RunBuffer::epoch` span-batched FIFO miss
//!   classification vs `DoubleBuffer::epoch` walking the same stream
//!   element by element, and the O(1) answer to a sealed stream shown
//!   again to a buffer it thrashes (a fold row's A stream under WS).
//! * **reuse profile** — batched `ReuseProfile::from_runs` vs the
//!   element-walk `from_demands`.
//!
//! All inputs come from a fixed LCG so runs are reproducible; stream
//! shapes mimic the fig9 sweep (runs of ~16-64 elements, moderate reuse).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use scalesim_memory::scalar::{extend_runs_scalar, ScalarIntervalSet};
use scalesim_memory::{AddrRuns, DoubleBuffer, IntervalSet, ReuseProfile, RunBuffer};

/// Deterministic address-stream generator (LCG, fixed seed).
struct Lcg(u64);

impl Lcg {
    fn new() -> Self {
        Lcg(0x2545F4914F6CDD1D)
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A demand stream of `runs` runs with fig9-like shape: mostly ascending
/// spans of 16-64 elements over a bounded window, with periodic re-visits
/// so buffers and reuse profiles see real hits.
fn synthetic_stream(runs: usize, window: u64) -> AddrRuns {
    let mut lcg = Lcg::new();
    let mut out = AddrRuns::with_capacity(runs);
    for i in 0..runs {
        let start = if i % 5 == 4 {
            // Revisit: jump back into the window already touched.
            lcg.next() % window
        } else {
            (i as u64 * 48) % window
        };
        let len = 16 + lcg.next() % 48;
        out.push(start, len);
    }
    out
}

/// Random half-open spans for the interval-set union benchmark.
fn synthetic_spans(n: usize, window: u64) -> Vec<(u64, u64)> {
    let mut lcg = Lcg::new();
    (0..n)
        .map(|_| {
            let s = lcg.next() % window;
            (s, s + 1 + lcg.next() % 64)
        })
        .collect()
}

fn bench_run_merge(c: &mut Criterion) {
    let chunks: Vec<AddrRuns> = (0..64).map(|_| synthetic_stream(256, 1 << 20)).collect();
    let mut group = c.benchmark_group("kernel_run_merge");
    group.bench_function("extend_runs_soa", |b| {
        b.iter(|| {
            let mut acc = AddrRuns::new();
            for chunk in &chunks {
                acc.extend_runs(black_box(chunk));
            }
            acc.element_count()
        })
    });
    group.bench_function("extend_runs_scalar", |b| {
        b.iter(|| {
            let mut acc = AddrRuns::new();
            for chunk in &chunks {
                extend_runs_scalar(&mut acc, black_box(chunk));
            }
            acc.element_count()
        })
    });

    let spans = synthetic_spans(4096, 1 << 18);
    group.bench_function("insert_with_gaps_soa", |b| {
        b.iter(|| {
            let mut set = IntervalSet::new();
            let mut covered = 0;
            for &(s, e) in black_box(&spans) {
                set.insert_with_gaps(s, e, |gs, ge| covered += ge - gs);
            }
            covered
        })
    });
    group.bench_function("insert_with_gaps_scalar", |b| {
        b.iter(|| {
            let mut set = ScalarIntervalSet::new();
            let mut covered = 0;
            for &(s, e) in black_box(&spans) {
                set.insert_with_gaps(s, e, |gs, ge| covered += ge - gs);
            }
            covered
        })
    });
    group.finish();
}

fn bench_buffer_epoch(c: &mut Criterion) {
    // ~64 epochs of 256 runs each against a buffer holding half the window,
    // so every epoch mixes hits, misses, and FIFO evictions.
    let epochs: Vec<AddrRuns> = (0..64).map(|_| synthetic_stream(256, 1 << 16)).collect();
    let capacity = 1u64 << 15;
    let mut group = c.benchmark_group("kernel_buffer_epoch");
    group.bench_function("run_buffer", |b| {
        b.iter(|| {
            let mut buf = RunBuffer::new(capacity);
            let mut misses = 0;
            for epoch in black_box(&epochs) {
                misses += buf.epoch(epoch).misses;
            }
            misses
        })
    });
    group.bench_function("double_buffer", |b| {
        b.iter(|| {
            let mut buf = DoubleBuffer::new(capacity as usize);
            let mut misses = 0;
            for epoch in black_box(&epochs) {
                misses += buf.epoch(epoch.iter_elements()).misses;
            }
            misses
        })
    });
    // One duplicate-free stream of four bufferfuls, sealed, shown 64 times
    // to a buffer it thrashes: walked once (rule 3 of `RunBuffer::epoch`),
    // then answered from the fixed point. Unsealed, all 64 are walked.
    let mut fold_row = AddrRuns::with_capacity(4096);
    for i in 0..4096 {
        fold_row.push(i * 48, 32);
    }
    fold_row.seal_distinct();
    group.bench_function("run_buffer_sealed_repeat", |b| {
        b.iter(|| {
            let mut buf = RunBuffer::new(capacity);
            let mut misses = 0;
            for _ in 0..64 {
                misses += buf.epoch(black_box(&fold_row)).misses;
            }
            misses
        })
    });
    group.finish();
}

fn bench_reuse_profile(c: &mut Criterion) {
    let stream = synthetic_stream(2048, 1 << 16);
    let mut group = c.benchmark_group("kernel_reuse_profile");
    group.bench_function("from_runs", |b| {
        b.iter(|| ReuseProfile::from_runs(black_box(&stream)).total_accesses())
    });
    group.bench_function("from_demands", |b| {
        b.iter(|| ReuseProfile::from_demands(black_box(&stream).iter_elements()).total_accesses())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_run_merge,
    bench_buffer_epoch,
    bench_reuse_profile
);
criterion_main!(benches);
