//! Scale-out: partitioned accelerators (Section III-C).
//!
//! Instead of one monolithic `R × C` array, the MAC budget is organized as a
//! `P_R × P_C` grid of smaller `R × C` arrays, each owning one tile of the
//! output space (Fig. 8 of the paper). Eq. 5 splits the workload,
//! `S_R′ = ⌈S_R / P_R⌉` and `S_C′ = ⌈S_C / P_C⌉`; partitions run in
//! parallel, so total runtime is the slowest partition's (Eq. 6).

use std::fmt;

use serde::{Deserialize, Serialize};

use scalesim_systolic::ArrayShape;
use scalesim_topology::MappedDims;

use crate::runtime::RuntimeModel;

/// A grid of identical systolic-array partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartitionGrid {
    rows: u64,
    cols: u64,
}

impl PartitionGrid {
    /// A `P_R × P_C` partition grid.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(rows: u64, cols: u64) -> Self {
        assert!(rows > 0 && cols > 0, "partition counts must be nonzero");
        PartitionGrid { rows, cols }
    }

    /// The monolithic (scale-up) case: a single partition.
    pub fn monolithic() -> Self {
        PartitionGrid::new(1, 1)
    }

    /// Partition rows (`P_R`).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Partition columns (`P_C`).
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Total partitions (`P = P_R · P_C`).
    pub fn count(&self) -> u64 {
        self.rows * self.cols
    }
}

impl fmt::Display for PartitionGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

impl std::str::FromStr for PartitionGrid {
    type Err = String;

    /// Parses the `PRxPC` spelling [`fmt::Display`] writes, both counts
    /// nonzero (spaces around either are ignored).
    fn from_str(s: &str) -> Result<PartitionGrid, String> {
        let count = |text: &str| text.trim().parse().ok().filter(|&n: &u64| n > 0);
        s.split_once('x')
            .and_then(|(rows, cols)| Some(PartitionGrid::new(count(rows)?, count(cols)?)))
            .ok_or_else(|| format!("grid `{s}` is not PRxPC with nonzero counts"))
    }
}

/// A complete scale-out configuration: the grid plus the per-partition
/// array shape. Total MACs = `P_R · P_C · R · C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ScaleOutConfig {
    /// The partition grid.
    pub grid: PartitionGrid,
    /// The shape of each partition's array.
    pub array: ArrayShape,
}

impl ScaleOutConfig {
    /// A monolithic configuration (grid 1×1).
    pub fn monolithic(array: ArrayShape) -> Self {
        ScaleOutConfig {
            grid: PartitionGrid::monolithic(),
            array,
        }
    }

    /// Total MAC units across all partitions.
    pub fn total_macs(&self) -> u64 {
        self.grid.count() * self.array.macs()
    }

    /// Whether this is the single-partition (scale-up) case.
    pub fn is_monolithic(&self) -> bool {
        self.grid.count() == 1
    }
}

impl fmt::Display for ScaleOutConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} grid of {} arrays", self.grid, self.array)
    }
}

/// Eq. 5: the workload share of the *largest* partition —
/// `S_R′ = ⌈S_R / P_R⌉`, `S_C′ = ⌈S_C / P_C⌉`, `T` unchanged.
///
/// Since all partitions execute in parallel and the ceiling share is the
/// biggest, this partition determines the scale-out runtime.
pub fn split_dims(dims: &MappedDims, grid: PartitionGrid) -> MappedDims {
    MappedDims {
        spatial_rows: dims.spatial_rows.div_ceil(grid.rows()).max(1),
        spatial_cols: dims.spatial_cols.div_ceil(grid.cols()).max(1),
        temporal: dims.temporal,
        dataflow: dims.dataflow,
    }
}

/// Eq. 6: scale-out runtime — the slowest (largest-share) partition's
/// scale-up runtime on its own array.
pub fn scaleout_runtime<M: RuntimeModel>(
    dims: &MappedDims,
    config: &ScaleOutConfig,
    model: &M,
) -> u64 {
    model.runtime(&split_dims(dims, config.grid), config.array)
}

/// Enumerates every scale-out configuration with exactly `mac_budget` MACs:
/// all power-of-two `(P_R, P_C, R, C)` with `R, C ≥ min_dim` (the paper's
/// 8×8 floor, which also bounds the partition count). Includes the
/// monolithic configurations (grid 1×1) — they are the y = 1×1 row of
/// Fig. 9(a).
///
/// # Panics
///
/// Panics if `mac_budget`/`min_dim` are not powers of two or the budget
/// cannot fit a single `min_dim × min_dim` array.
pub fn scaleout_configs(mac_budget: u64, min_dim: u64) -> Vec<ScaleOutConfig> {
    assert!(
        mac_budget.is_power_of_two() && min_dim.is_power_of_two(),
        "MAC budget and minimum dimension must be powers of two"
    );
    assert!(
        mac_budget >= min_dim * min_dim,
        "budget {mac_budget} cannot fit a {min_dim}x{min_dim} array"
    );
    let mut configs = Vec::new();
    let mut pr = 1;
    while pr * min_dim * min_dim <= mac_budget {
        let mut pc = 1;
        while pr * pc * min_dim * min_dim <= mac_budget {
            let per_array = mac_budget / (pr * pc);
            let mut rows = per_array / min_dim;
            while rows >= min_dim {
                configs.push(ScaleOutConfig {
                    grid: PartitionGrid::new(pr, pc),
                    array: ArrayShape::new(rows, per_array / rows),
                });
                rows /= 2;
            }
            pc *= 2;
        }
        pr *= 2;
    }
    configs
}

/// The fastest scale-out configuration (over grids *and* per-partition
/// aspect ratios) for `dims` under `mac_budget`, with its runtime.
///
/// # Panics
///
/// Same conditions as [`scaleout_configs`].
pub fn best_scaleout<M: RuntimeModel>(
    dims: &MappedDims,
    mac_budget: u64,
    min_dim: u64,
    model: &M,
) -> (ScaleOutConfig, u64) {
    scaleout_configs(mac_budget, min_dim)
        .into_iter()
        .map(|cfg| {
            let cycles = scaleout_runtime(dims, &cfg, model);
            (cfg, cycles)
        })
        .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
        .expect("scaleout_configs returns at least one configuration")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::AnalyticalModel;
    use crate::search::best_scaleup;
    use scalesim_topology::{Dataflow, GemmShape};

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn grid_parses_what_it_displays_and_nothing_else() {
        for grid in [PartitionGrid::monolithic(), PartitionGrid::new(4, 2)] {
            assert_eq!(grid.to_string().parse(), Ok(grid));
        }
        assert_eq!(" 8 x 16 ".parse(), Ok(PartitionGrid::new(8, 16)));
        for bad in ["", "4", "4x", "x4", "0x2", "2x0", "2x2x2", "-1x2", "axb"] {
            let err = bad.parse::<PartitionGrid>().unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn split_uses_ceiling_shares() {
        let d = dims(100, 10, 60);
        let s = split_dims(&d, PartitionGrid::new(3, 4));
        assert_eq!(s.spatial_rows, 34);
        assert_eq!(s.spatial_cols, 15);
        assert_eq!(s.temporal, 10);
    }

    #[test]
    fn split_never_reaches_zero() {
        let d = dims(2, 5, 2);
        let s = split_dims(&d, PartitionGrid::new(16, 16));
        assert_eq!(s.spatial_rows, 1);
        assert_eq!(s.spatial_cols, 1);
    }

    #[test]
    fn configs_conserve_mac_budget() {
        let configs = scaleout_configs(1 << 12, 8);
        assert!(!configs.is_empty());
        assert!(configs.iter().all(|c| c.total_macs() == 1 << 12));
        // Contains the monolithic row.
        assert!(configs.iter().any(|c| c.is_monolithic()));
        // No per-partition dimension below the floor.
        assert!(configs
            .iter()
            .all(|c| c.array.rows() >= 8 && c.array.cols() >= 8));
    }

    #[test]
    fn config_enumeration_has_no_duplicates() {
        let mut configs = scaleout_configs(1 << 14, 8);
        let before = configs.len();
        configs.sort();
        configs.dedup();
        assert_eq!(before, configs.len());
    }

    #[test]
    fn partitioning_never_loses_to_monolithic() {
        // The paper's headline observation (Fig. 10): the best partitioned
        // configuration is never slower than the best monolithic one (the
        // monolithic configs are a subset of the scale-out space).
        let model = AnalyticalModel;
        for (m, k, n) in [(31999, 84, 1024), (128, 4096, 2048), (2048, 128, 1)] {
            let d = dims(m, k, n);
            let budget = 1 << 14;
            let up = best_scaleup(&d, budget, 8, &model);
            let (_, out_cycles) = best_scaleout(&d, budget, 8, &model);
            assert!(
                out_cycles <= up.cycles,
                "scale-out lost for {m}x{k}x{n}: {out_cycles} vs {}",
                up.cycles
            );
        }
    }

    #[test]
    fn relative_slowdown_amplifies_with_scale() {
        // Fig. 10: the monolithic-vs-partitioned gap grows with the budget.
        let model = AnalyticalModel;
        let d = dims(31999, 84, 1024); // TF0
        let ratio = |budget: u64| {
            let up = best_scaleup(&d, budget, 8, &model).cycles as f64;
            let (_, out) = best_scaleout(&d, budget, 8, &model);
            up / out as f64
        };
        assert!(ratio(1 << 16) > ratio(1 << 10));
    }

    #[test]
    fn display_formats() {
        let cfg = ScaleOutConfig {
            grid: PartitionGrid::new(4, 2),
            array: ArrayShape::new(16, 32),
        };
        assert_eq!(cfg.to_string(), "4x2 grid of 16x32 arrays");
    }

    #[test]
    fn monolithic_scaleout_equals_scaleup_runtime() {
        let model = AnalyticalModel;
        let d = dims(500, 64, 300);
        let array = ArrayShape::new(32, 64);
        let mono = ScaleOutConfig::monolithic(array);
        assert_eq!(
            scaleout_runtime(&d, &mono, &model),
            model.runtime(&d, array)
        );
    }
}
