#![warn(missing_docs)]

//! Cycle-accurate systolic-array simulation for `scale-sim-rs`.
//!
//! This crate is the compute side of SCALE-Sim (Section II of the paper):
//! given a workload projected onto array dimensions
//! ([`scalesim_topology::MappedDims`]) and a physical [`ArrayShape`], the
//! trace engines generate the exact per-cycle SRAM read/write address
//! streams the accelerator would issue for the Output-Stationary,
//! Weight-Stationary and Input-Stationary dataflows, assuming the PE array
//! never stalls (the tool's "inside-out" modeling approach of Sec. II-C).
//!
//! Three layers of fidelity are provided:
//!
//! * [`simulate`] — the vectorized trace engine: emits every SRAM access
//!   with its cycle stamp to a [`TraceSink`] and returns a
//!   [`ComputeReport`].
//! * [`fold_demand_runs`] — the fold-granular demand stream (unique
//!   addresses per fold, as address runs) that feeds the DRAM double-buffer
//!   model; orders of magnitude cheaper than full traces and provably
//!   consistent with them. [`fold_demands`] enumerates the same demand one
//!   real address at a time: the form DRAM trace export prints, and the
//!   reference the run generator is tested against.
//! * [`pe_grid`] — a register-level golden model: a literal grid of MAC
//!   PEs with store-and-forward links, computing real values. This is the
//!   stand-in for the RTL implementation the paper validates against in
//!   Fig. 4; the test suite checks the trace engines cycle-for-cycle
//!   against it.
//!
//! The per-cycle occupancy profile a fold schedule implies is drawn by the
//! `utilization_profile` binary of `scalesim-bench`.
//!
//! # Example
//!
//! ```
//! use scalesim_systolic::{simulate, ArrayShape, CountingSink};
//! use scalesim_memory::{GemmAddressMap, RegionOffsets};
//! use scalesim_topology::{Dataflow, GemmShape};
//!
//! let shape = GemmShape::new(16, 8, 16);
//! let dims = shape.project(Dataflow::OutputStationary);
//! let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
//! let mut sink = CountingSink::new();
//! let report = simulate(&dims, ArrayShape::square(16), &map, &mut sink);
//! // One fold; Eq. 1 of the paper: 2*16 + 16 + 8 - 2 cycles.
//! assert_eq!(report.total_cycles, 54);
//! assert_eq!(sink.counts().o_writes, 16 * 16);
//! ```

mod array;
mod demand;
mod engine;
mod fold;
mod is_df;
mod os;
pub mod pe_grid;
mod trace;
mod ws;

pub use crate::array::ArrayShape;
pub use crate::demand::{
    fold_demand_runs, fold_demand_runs_in, fold_demands, FoldDemandRuns, FoldDemands,
    FoldDemandsRuns,
};
pub use crate::engine::{analyze, simulate, ComputeReport};
pub use crate::fold::{fold_duration, Fold, FoldPlan};
pub use crate::trace::{CountingSink, CsvTraceSink, NullSink, SramCounts, TraceSink};

// Re-export the mapping types callers need alongside the engines.
pub use scalesim_topology::{Dataflow, MappedDims};
