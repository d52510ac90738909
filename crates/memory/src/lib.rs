#![warn(missing_docs)]

//! Memory-system models for `scale-sim-rs`.
//!
//! SCALE-Sim's memory side (Section II-C of the paper) has three pieces,
//! all implemented here:
//!
//! 1. **Address maps** ([`address`]) — translate the GEMM coordinates the
//!    trace engines work in (`A[m][k]`, `B[k][n]`, `O[m][n]`) into the flat
//!    SRAM addresses the traces record. Convolutions get overlapping-window
//!    IFMAP addressing so spatial reuse is visible in the address stream.
//! 2. **Double-buffered SRAM** ([`buffer`]) — a working-set model with FIFO
//!    replacement that classifies each fold's demand into hits and misses.
//! 3. **DRAM interface** ([`dram`]) — converts per-fold miss sets into
//!    prefetch traffic and the *stall-free bandwidth requirement*: misses of
//!    fold *f* must arrive while fold *f−1* computes (double buffering).
//!
//! The [`bandwidth`] module provides the windowed bytes-per-cycle profiler
//! both SRAM and DRAM reporting share.
//!
//! Every address stream in this crate's API is an [`AddrRuns`] ([`runs`]):
//! ordered `(start, len)` runs, walked per run. The element-granular models
//! these replaced — a hash-set FIFO, an element-walk reuse profile, a
//! `BTreeMap` interval set — are the test suite's oracle and live with it,
//! in the workspace's `tests/src/oracle.rs`; nothing here depends on them.

pub mod address;
pub mod arena;
pub mod bandwidth;
pub mod buffer;
pub mod dram;
pub mod dram_trace;
pub mod reuse;
pub mod runs;
pub mod stall;

pub use address::{AddressMap, ConvAddressMap, GemmAddressMap, RegionOffsets, SubGemmMap};
pub use arena::BufferPool;
pub use bandwidth::BandwidthProfile;
pub use buffer::{EpochStats, RunBuffer};
pub use dram::{DramModel, DramSummary, FoldTraffic, OperandBufferSpec};
pub use dram_trace::DramTraceWriter;
pub use reuse::{ReuseProfile, ReuseScratch};
pub use runs::{AddrRun, AddrRuns, IntervalSet};
pub use stall::{StallModel, StallSummary};
