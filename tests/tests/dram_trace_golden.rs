//! The DRAM trace export (`scale-sim run --traces`, Fig. 2's "DRAM R/W")
//! is a second implementation of the fold step: `DramModel::fold_traced`
//! installs outputs eagerly and collects miss runs where `fold_runs` defers
//! and only counts. Two pins keep it honest:
//!
//! * its bytes — `golden/dram_trace/*.csv` were written by the binary of
//!   the commit before the export moved from `Vec<u64>` to `AddrRuns`
//!   (`scale-sim run --traces` on a 4x4 array with 1 KB SRAMs), and
//! * its accounting — the `DramSummary` it returns is the one `run_layer`
//!   reports, whatever the dataflow and however tight the buffers.

use scalesim::{SimConfig, Simulator};
use scalesim_systolic::{ArrayShape, Dataflow};
use scalesim_topology::{ConvLayerBuilder, Layer};

fn conv(name: &str, ifmap: u64, channels: u64, filters: u64, stride: u64) -> Layer {
    ConvLayerBuilder::new(name)
        .ifmap(ifmap, ifmap)
        .filter(3, 3)
        .channels(channels)
        .num_filters(filters)
        .stride(stride)
        .build()
        .unwrap()
        .into()
}

fn sim(dataflow: Dataflow, sram_kb: (u64, u64, u64)) -> Simulator {
    Simulator::new(
        SimConfig::builder()
            .array(ArrayShape::square(4))
            .dataflow(dataflow)
            .sram_kb(sram_kb.0, sram_kb.1, sram_kb.2)
            .build(),
    )
}

fn dram_traces(sim: &Simulator, layer: &Layer) -> (Vec<u8>, Vec<u8>) {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    sim.write_dram_traces(layer, &mut reads, &mut writes)
        .unwrap();
    (reads, writes)
}

macro_rules! assert_golden {
    ($dataflow:expr, $layer:expr, $name:literal) => {{
        let (reads, writes) = dram_traces(&sim($dataflow, (1, 1, 1)), &$layer);
        let golden_reads = include_bytes!(concat!("golden/dram_trace/", $name, "_dram_read.csv"));
        let golden_writes = include_bytes!(concat!("golden/dram_trace/", $name, "_dram_write.csv"));
        // Compare as text so a mismatch prints rows, not byte arrays.
        assert_eq!(
            String::from_utf8(reads).unwrap(),
            std::str::from_utf8(golden_reads).unwrap(),
            concat!($name, " read trace")
        );
        assert_eq!(
            String::from_utf8(writes).unwrap(),
            std::str::from_utf8(golden_writes).unwrap(),
            concat!($name, " write trace")
        );
    }};
}

/// A strided convolution under OS: window overlap dedups the A stream and
/// the stride leaves gaps in it.
#[test]
fn os_strided_conv_trace_is_byte_identical() {
    assert_golden!(
        Dataflow::OutputStationary,
        conv("os_conv", 9, 2, 6, 2),
        "os_conv"
    );
}

/// WS with 1440 live partial sums through a 1024-element OFMAP buffer:
/// every re-read of the second contraction fold is a DRAM read-back, so the
/// read trace carries OFMAP addresses.
#[test]
fn ws_spilling_gemm_trace_is_byte_identical() {
    let layer = Layer::gemm("ws_gemm_spill", 40, 8, 36);
    assert_golden!(Dataflow::WeightStationary, layer, "ws_gemm_spill");
    let (reads, _) = dram_traces(&sim(Dataflow::WeightStationary, (1, 1, 1)), &layer);
    let ofmap_reads = String::from_utf8(reads)
        .unwrap()
        .lines()
        .flat_map(|row| row.split(',').skip(1).map(|a| a.parse::<u64>().unwrap()))
        .filter(|&addr| addr >= 20_000_000)
        .count();
    assert_eq!(ofmap_reads, 40 * 36);
}

/// IS over three contraction folds whose partial sums stay on chip.
#[test]
fn is_gemm_trace_is_byte_identical() {
    assert_golden!(
        Dataflow::InputStationary,
        Layer::gemm("is_gemm", 20, 10, 12),
        "is_gemm"
    );
}

/// The traced fold step (eager installs, real addresses, element pushes)
/// and the production one (deferred installs, canonical labels, sealed A
/// streams) account the same traffic and the same bandwidth profile.
#[test]
fn traced_summary_equals_run_layer_summary() {
    let layers = [
        Layer::gemm("tall", 40, 8, 36),
        Layer::gemm("ragged", 21, 10, 13),
        conv("conv", 8, 3, 5, 1),
    ];
    for dataflow in Dataflow::ALL {
        for sram_kb in [(64, 64, 32), (4, 2, 1), (1, 1, 1)] {
            let sim = sim(dataflow, sram_kb);
            for layer in &layers {
                let traced = sim
                    .write_dram_traces(layer, std::io::sink(), std::io::sink())
                    .unwrap();
                assert_eq!(
                    traced,
                    sim.run_layer(layer).dram,
                    "{dataflow:?}, SRAM {sram_kb:?} KB, layer {}",
                    layer.name()
                );
            }
        }
    }
}
