//! Scale-out: partitioned accelerators (Section III-C).
//!
//! Instead of one monolithic `R × C` array, the MAC budget is organized as a
//! `P_R × P_C` grid of smaller `R × C` arrays, each owning one tile of the
//! output space (Fig. 8 of the paper). Eq. 5 splits the workload in output
//! coordinates, `M′ = ⌈M / P_R⌉` and `N′ = ⌈N / P_C⌉` with `K` whole
//! ([`PartitionGrid::largest_tile`]), so every partition computes complete
//! outputs whatever the dataflow; partitions run in parallel, so total
//! runtime is the slowest partition's (Eq. 6). Under OS, where
//! `(S_R, S_C) = (M, N)`, this is the paper's `S_R′ = ⌈S_R / P_R⌉`,
//! `S_C′ = ⌈S_C / P_C⌉`.

use std::fmt;

use serde::{Deserialize, Serialize};

use scalesim_systolic::ArrayShape;
use scalesim_topology::{GemmShape, MappedDims};

use crate::runtime::exact_scaleup;
use crate::search::aspect_ratio_shapes;

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
    /// Panics if either count is zero or `P_R · P_C` overflows `u64`.
    pub fn new(rows: u64, cols: u64) -> Self {
        assert!(rows > 0 && cols > 0, "partition counts must be nonzero");
        assert!(
            rows.checked_mul(cols).is_some(),
            "{rows}x{cols} partitions overflow a 64-bit count"
        );
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

    /// Eq. 5, the one tiling rule of the workspace: the largest tile of
    /// `shape`'s `M × N` output space a partition receives,
    /// `(⌈M/P_R⌉, K, ⌈N/P_C⌉)`. It is the first tile, and since Eq. 3 is
    /// monotone in every extent, the slowest (Eq. 6).
    pub fn largest_tile(&self, shape: GemmShape) -> GemmShape {
        GemmShape {
            m: shape.m.div_ceil(self.rows),
            k: shape.k,
            n: shape.n.div_ceil(self.cols),
        }
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
    /// nonzero and their product a `u64` (spaces around either are
    /// ignored).
    fn from_str(s: &str) -> Result<PartitionGrid, String> {
        let count = |text: &str| text.trim().parse().ok().filter(|&n: &u64| n > 0);
        let (rows, cols) = s
            .split_once('x')
            .and_then(|(rows, cols)| Some((count(rows)?, count(cols)?)))
            .ok_or_else(|| format!("grid `{s}` is not PRxPC with nonzero counts"))?;
        if rows.checked_mul(cols).is_none() {
            return Err(format!("grid `{s}` has more partitions than a u64 counts"));
        }
        Ok(PartitionGrid::new(rows, cols))
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
    /// Total MAC units across all partitions.
    pub fn total_macs(&self) -> u64 {
        self.grid.count().saturating_mul(self.array.macs())
    }
}

impl fmt::Display for ScaleOutConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} grid of {} arrays", self.grid, self.array)
    }
}

/// Eq. 5: the workload share of the *largest* partition, projected like
/// `dims` — [`PartitionGrid::largest_tile`] of the GEMM `dims` was
/// projected from.
///
/// Since all partitions execute in parallel and the ceiling share is the
/// biggest, this partition determines the scale-out runtime.
pub fn split_dims(dims: &MappedDims, grid: PartitionGrid) -> MappedDims {
    grid.largest_tile(dims.gemm()).project(dims.dataflow)
}

/// Eq. 6: scale-out runtime — the slowest (largest-share) partition's
/// exact scale-up runtime on its own array, which is what the simulator
/// reports for a partitioned layer.
pub fn scaleout_runtime(dims: &MappedDims, config: &ScaleOutConfig) -> u64 {
    exact_scaleup(&split_dims(dims, config.grid), config.array)
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
            let grid = PartitionGrid::new(pr, pc);
            for array in aspect_ratio_shapes(mac_budget / (pr * pc), min_dim) {
                configs.push(ScaleOutConfig { grid, array });
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
pub fn best_scaleout(dims: &MappedDims, mac_budget: u64, min_dim: u64) -> (ScaleOutConfig, u64) {
    scaleout_configs(mac_budget, min_dim)
        .into_iter()
        .map(|cfg| (cfg, scaleout_runtime(dims, &cfg)))
        .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
        .expect("scaleout_configs returns at least one configuration")
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn a_grid_whose_partition_count_overflows_is_rejected() {
        // 2^63 + 1 rows times 2 columns wraps to 2 partitions.
        let err = "9223372036854775809x2"
            .parse::<PartitionGrid>()
            .unwrap_err();
        assert!(err.contains("more partitions than a u64 counts"), "{err}");
        let widest = format!("{}x1", u64::MAX);
        assert_eq!(widest.parse::<PartitionGrid>().unwrap().count(), u64::MAX);
        assert_eq!(
            "4294967296x4294967295"
                .parse::<PartitionGrid>()
                .unwrap()
                .count(),
            u64::MAX - (1 << 32) + 1
        );
        assert!("4294967296x4294967296".parse::<PartitionGrid>().is_err());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn new_asserts_the_partition_count_fits() {
        let _ = PartitionGrid::new(1 << 63, 2);
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
    fn split_tiles_the_output_space_under_every_dataflow() {
        // Eq. 5 on the projected S_R/S_C split K under WS/IS: 880 cycles
        // for a layer the simulator runs in 1,248, and 386 for one it runs
        // in 302 — not even a lower bound.
        let array = ArrayShape::square(16);
        let ws = GemmShape::new(64, 64, 64).project(Dataflow::WeightStationary);
        let grid = PartitionGrid::new(2, 1);
        let tile = split_dims(&ws, grid);
        assert_eq!(
            tile,
            GemmShape::new(32, 64, 64).project(Dataflow::WeightStationary)
        );
        assert_eq!(
            scaleout_runtime(&ws, &ScaleOutConfig { grid, array }),
            1_248
        );
        let is = GemmShape::new(100, 30, 70).project(Dataflow::InputStationary);
        let grid = PartitionGrid::new(4, 2);
        assert_eq!(split_dims(&is, grid).gemm(), GemmShape::new(25, 30, 35));
        assert_eq!(scaleout_runtime(&is, &ScaleOutConfig { grid, array }), 302);
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
        assert!(configs.iter().any(|c| c.grid.count() == 1));
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
        for (m, k, n) in [(31999, 84, 1024), (128, 4096, 2048), (2048, 128, 1)] {
            let d = dims(m, k, n);
            let budget = 1 << 14;
            let up = best_scaleup(&d, budget, 8);
            let (_, out_cycles) = best_scaleout(&d, budget, 8);
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
        let d = dims(31999, 84, 1024); // TF0
        let ratio = |budget: u64| {
            let up = best_scaleup(&d, budget, 8).cycles as f64;
            let (_, out) = best_scaleout(&d, budget, 8);
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
        let d = dims(500, 64, 300);
        let array = ArrayShape::new(32, 64);
        let mono = ScaleOutConfig {
            grid: PartitionGrid::monolithic(),
            array,
        };
        assert_eq!(scaleout_runtime(&d, &mono), exact_scaleup(&d, array));
    }
}
