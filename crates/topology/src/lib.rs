#![warn(missing_docs)]

//! Workload descriptions for `scale-sim-rs`.
//!
//! This crate implements the *input side* of SCALE-Sim (Samajdar et al.,
//! ISPASS 2020): neural-network layer descriptions, the topology CSV file
//! format of Table II, the spatio-temporal GEMM projection of Table III, and
//! the built-in networks of the paper's evaluation (ResNet-50, the Table IV
//! language-model layers and six more CNNs), each a shipped Table II file.
//!
//! # Quick example
//!
//! ```
//! use scalesim_topology::{networks, Dataflow};
//!
//! let resnet = networks::resnet50();
//! let conv1 = resnet.layers()[0].as_conv().unwrap();
//! // Project the layer onto the systolic array dimensions for the
//! // output-stationary dataflow (Table III of the paper).
//! let dims = conv1.shape().project(Dataflow::OutputStationary);
//! assert_eq!(dims.spatial_rows, conv1.ofmap_pixels());
//! assert_eq!(dims.spatial_cols, conv1.num_filters());
//! ```

mod csv;
mod dataflow;
mod error;
mod gemm;
mod layer;
pub mod networks;
mod topology;

pub use crate::csv::{parse_topology_csv, topology_to_csv};
pub use crate::dataflow::Dataflow;
pub use crate::error::{BatchOverflowError, ParseTopologyError, ValidateLayerError};
pub use crate::gemm::{GemmShape, MappedDims};
pub use crate::layer::{ConvLayer, ConvLayerBuilder, Layer};
pub use crate::topology::Topology;
