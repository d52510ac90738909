//! Per-worker simulation scratch (`SimArena`).
//!
//! The cold path of a sweep runs thousands of layer simulations, and each
//! one used to allocate its demand-stream vectors and operand buffers from
//! scratch — millions of short-lived heap allocations whose sizes repeat
//! almost exactly between neighbouring folds and design points. A
//! [`SimArena`] keeps that scratch alive per OS thread: the fold iterator
//! fills the same [`FoldDemandRuns`] in place via
//! `FoldDemandsRuns::next_into`, and retired [`scalesim_memory::RunBuffer`]s
//! go back into a [`BufferPool`] for the next `DramModel`. After the first
//! layer warms a worker, its fold loop performs no steady-state heap
//! allocation.
//!
//! The arena is deliberately thread-local rather than passed down the call
//! stack: `Simulator::run_layer` is a public API called from sweep
//! workers, server workers and library callers alike, so per-thread
//! storage gives every simulating thread a private arena without threading
//! `&mut` through the facade.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use scalesim_memory::{AddrRuns, BufferPool, IntervalSet};
use scalesim_systolic::FoldDemandRuns;

/// Reusable per-worker scratch for the layer fold loop.
///
/// One arena lives on each thread that runs simulations (sweep workers,
/// server workers, the caller's own thread). All fields start empty and
/// grow to the largest working set the thread has seen.
#[derive(Debug, Default)]
pub struct SimArena {
    /// Retired operand [`scalesim_memory::RunBuffer`]s, reused by the next
    /// [`scalesim_memory::DramModel`] built on this thread.
    pub pool: BufferPool,
    /// Demand-stream scratch the fold iterator fills in place, one fold at
    /// a time.
    pub demand: FoldDemandRuns,
    /// First-use dedup set for the A stream, loaned to the demand iterator
    /// via `fold_demand_runs_in` and reclaimed after each layer.
    pub a_seen: IntervalSet,
    /// The A stream the demand iterator makes and seals once per fold row
    /// (OS, WS) or fold (IS) and copies, seal and all, into every fold it
    /// serves; loaned alongside `a_seen`. Whatever it comes back with is
    /// never served again: the next layer's iterator overwrites it before
    /// its first fold.
    ///
    /// The copies of A streams the iterator keeps for later members of a
    /// translation class are not here: they travel in a per-thread slot
    /// of `scalesim-systolic`, beside this pair rather than through it, so
    /// that `fold_demand_runs_in` keeps the signature its callers use.
    pub a_scratch: AddrRuns,
}

/// Threads that have touched their arena so far, process-wide.
static ARENAS_CREATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARENA: RefCell<SimArena> = {
        ARENAS_CREATED.fetch_add(1, Ordering::Relaxed);
        RefCell::new(SimArena::default())
    };
}

/// How many threads have created a [`SimArena`] since the process started:
/// each thread's first [`with_arena`] counts once. A test hook — the
/// difference across a sweep is the number of distinct threads that
/// simulated in it.
#[doc(hidden)]
pub fn arenas_created() -> usize {
    ARENAS_CREATED.load(Ordering::Relaxed)
}

/// Runs `f` with this thread's [`SimArena`].
///
/// # Panics
///
/// Panics if called re-entrantly from within `f` (the arena is a single
/// mutable resource per thread).
pub fn with_arena<R>(f: impl FnOnce(&mut SimArena) -> R) -> R {
    ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_persists_across_calls_on_one_thread() {
        with_arena(|arena| {
            let buf = arena.pool.take(16);
            arena.pool.put(buf);
        });
        with_arena(|arena| {
            assert_eq!(arena.pool.pooled(), 1);
            // Drain so other tests on this thread see a clean pool count.
            let _ = arena.pool.take(1);
        });
    }
}
