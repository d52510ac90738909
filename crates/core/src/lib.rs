#![warn(missing_docs)]

//! # scale-sim-rs
//!
//! A from-scratch Rust implementation of **SCALE-Sim** — the cycle-accurate,
//! configurable systolic-array DNN accelerator simulator of Samajdar et al.
//! (ISPASS 2020) — together with the paper's analytical runtime model and
//! its scale-up vs. scale-out methodology.
//!
//! This crate is the user-facing facade. It ties together:
//!
//! * [`scalesim_topology`] — workloads (conv/GEMM layers, topology CSV
//!   files, built-in networks like ResNet-50 and the Table IV language
//!   models);
//! * [`scalesim_systolic`] — the OS/WS/IS cycle-accurate trace engines and
//!   the register-level PE-grid golden model;
//! * [`scalesim_memory`] — operand address maps, double-buffered SRAMs and
//!   the DRAM interface/bandwidth model;
//! * [`scalesim_analytical`] — Eqs. 1–6, aspect-ratio and partition-grid
//!   search, multi-workload pareto optimization;
//! * [`scalesim_energy`] — the relative energy model of Fig. 12.
//!
//! Studies built on the simulator, such as inter-layer pipelining, live in
//! the `scalesim-bench` binaries that print them.
//!
//! # Quickstart
//!
//! ```
//! use scalesim::{SimConfig, Simulator};
//! use scalesim_topology::networks;
//!
//! // A 32x32 output-stationary accelerator with the paper's SRAM sizing.
//! let config = SimConfig::default();
//! let sim = Simulator::new(config);
//!
//! let alexnet = networks::alexnet();
//! let report = sim.run_topology(&alexnet);
//! println!("{report}");
//! assert_eq!(report.layers().len(), 8);
//! assert!(report.total_cycles() > 0);
//! ```
//!
//! # Scale-out
//!
//! The same simulator runs partitioned (scale-out) configurations: a
//! `P_R × P_C` grid of identical arrays, each owning a tile of every
//! layer's output space, with the SRAM budget divided evenly (Sec. III-C
//! of the paper):
//!
//! ```
//! use scalesim::{PartitionGrid, SimConfig, Simulator};
//! use scalesim_topology::networks;
//!
//! let sim = Simulator::new(SimConfig::default())
//!     .with_grid(PartitionGrid::new(2, 2));
//! let tf0 = networks::language_model("TF0").unwrap();
//! let report = sim.run_layer(&tf0);
//! assert_eq!(report.active_partitions, 4);
//! ```

pub mod arena;
pub mod cache;
mod config;
mod error;
pub mod exec;
pub mod explore;
pub mod layer_cache;
pub mod pool;
mod report;
mod simulator;
pub mod sweep;

pub use crate::arena::{with_arena, SimArena};
pub use crate::cache::{ContentKey, ShardedLru};
pub use crate::config::{parse_config, SimConfig, SimConfigBuilder};
pub use crate::error::{ParseConfigError, RegionOverflowError};
pub use crate::exec::{ExecSummary, FaultPlan, SimError};
pub use crate::explore::{
    predict_cycles, ExploreBudget, ExploreEngine, ExploreOptions, ExploreOutcome, MeasuredPoint,
    PruneOutcome, SurvivorPoint,
};
pub use crate::report::{LayerReport, NetworkReport};
pub use crate::simulator::{telemetry_names, Simulator};
pub use crate::sweep::{
    DataflowChoice, PlanSpaceSummary, PointSpec, SweepEngine, SweepOutcome, SweepPlan,
};

// The vocabulary types users need with the facade.
pub use scalesim_analytical::{PartitionGrid, ScaleOutConfig};
pub use scalesim_energy::{EnergyBreakdown, EnergyModel};
pub use scalesim_memory::{DramSummary, RegionOffsets};
pub use scalesim_systolic::{ArrayShape, ComputeReport, SramCounts};
pub use scalesim_topology::{ConvLayer, Dataflow, GemmShape, Layer, Topology};
