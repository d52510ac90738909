#![warn(missing_docs)]

//! The analytical model and design-space search of the paper (Sections III
//! and IV).
//!
//! SCALE-Sim answers "how long does this layer take on this exact
//! configuration?" cycle-accurately; this crate answers the *design*
//! questions around it, fast enough to sweep thousands of configurations:
//!
//! * [`runtime`] — the closed-form stall-free runtime model:
//!   Eq. 1 (unlimited PEs), Eq. 4 (scale-up with folding) and the exact
//!   fold-schedule sum [`exact_scaleup`].
//! * [`search`] — enumerate and rank all aspect ratios of a monolithic
//!   array with a given MAC budget (the x-axis of Fig. 9).
//! * [`partition`] — enumerate scale-out configurations
//!   (`P_R × P_C` grids of `R × C` arrays, Eq. 5) and find the best
//!   (Figs. 9–11); Eq. 6 is [`scaleout_runtime`].
//! * [`pareto`] — multi-workload optimization: gather each workload's
//!   locally-optimal candidates and pick the global
//!   `argmin_a Σ_w runtime(w, a)` (Sec. IV-B, Figs. 13–14).
//!
//! * [`dataflow_choice`] — the dataflow with the least stall-free runtime
//!   (Sec. III-B), which `Simulator::with_auto_dataflow` runs each layer
//!   under.
//! * [`frontier`] — cost/runtime Pareto frontiers, slack-band pruning and
//!   the acquisition scoring used by analytical-guided exploration.
//!
//! Every cycle count is Eq. 3 ([`scalesim_systolic::fold_duration`]) summed
//! by [`exact_scaleup`] over the tile of [`PartitionGrid::largest_tile`].
//! The one pluggable cost is [`pareto_optimal`]'s closure (Sec. IV-B).
//!
//! The extension studies built on these calls (the scaling advisor, the
//! reconfiguration gain, the OS drain plane) live in the `scalesim-bench`
//! binaries that print them.

pub mod dataflow_choice;
pub mod frontier;
pub mod pareto;
pub mod partition;
pub mod runtime;
pub mod search;

pub use dataflow_choice::best_dataflow;
pub use frontier::{acquisition_score, ErrorStats, Frontier, FrontierPoint};
pub use pareto::{pareto_optimal, CandidateScore, ParetoOutcome};
pub use partition::{
    best_scaleout, scaleout_configs, scaleout_runtime, split_dims, PartitionGrid, ScaleOutConfig,
};
pub use runtime::{eq1_unlimited, eq4_scaleup, exact_scaleup};
pub use search::{aspect_ratio_shapes, best_scaleup, rank_scaleup, ScaleUpScore};

// Frequently used alongside this crate.
pub use scalesim_systolic::ArrayShape;
pub use scalesim_topology::{Dataflow, GemmShape, MappedDims};
