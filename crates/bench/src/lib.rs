//! Shared helpers for the figure-harness binaries.
//!
//! The deliverables live in `src/bin/` (one binary per paper table /
//! figure); this library holds the small amount of code they share. The
//! simulator's own speed is measured by the standalone package in
//! `benchmark/` at the repository root, not here.

pub mod harness;

pub use harness::{mac_budgets, print_series, Series};
