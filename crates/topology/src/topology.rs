//! A named sequence of layers — one workload file.

use serde::{Deserialize, Serialize};

use crate::Layer;

/// A neural-network workload: an ordered list of layers.
///
/// SCALE-Sim simulates the layers of a topology strictly in order (modern
/// "cells" with parallel branches are serialized in file order — Section II-E
/// of the paper), so a `Topology` is simply a named `Vec<Layer>`.
///
/// ```
/// use scalesim_topology::{Layer, Topology};
///
/// let mut topo = Topology::new("two_gemms");
/// topo.push(Layer::gemm("A", 64, 64, 64));
/// topo.push(Layer::gemm("B", 128, 32, 16));
/// assert_eq!(topo.len(), 2);
/// assert_eq!(topo.total_macs(), 64u64.pow(3) + 128 * 32 * 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    layers: Vec<Layer>,
}

impl Topology {
    /// Creates an empty topology called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Creates a topology from an existing layer list.
    pub fn from_layers(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Topology {
            name: name.into(),
            layers,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers, in simulation order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Into<Layer>) {
        self.layers.push(layer.into());
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the topology has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Finds a layer by its tag.
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name() == name)
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Layer> {
        self.layers.iter()
    }

    /// Sum of MAC operations over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Returns a new topology containing only the layers whose tags satisfy
    /// `keep` — handy for the paper's "first and last five layers" subsets.
    pub fn filtered(&self, keep: impl Fn(&Layer) -> bool) -> Topology {
        Topology {
            name: self.name.clone(),
            layers: self.layers.iter().filter(|l| keep(l)).cloned().collect(),
        }
    }
}

impl Extend<Layer> for Topology {
    fn extend<T: IntoIterator<Item = Layer>>(&mut self, iter: T) {
        self.layers.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Topology {
    type Item = &'a Layer;
    type IntoIter = std::slice::Iter<'a, Layer>;

    fn into_iter(self) -> Self::IntoIter {
        self.layers.iter()
    }
}

impl IntoIterator for Topology {
    type Item = Layer;
    type IntoIter = std::vec::IntoIter<Layer>;

    fn into_iter(self) -> Self::IntoIter {
        self.layers.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Topology {
        let mut t = Topology::new("sample");
        t.push(Layer::gemm("a", 2, 3, 4));
        t.push(Layer::gemm("b", 5, 6, 7));
        t
    }

    #[test]
    fn push_len_lookup() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(t.layer("a").is_some());
        assert!(t.layer("missing").is_none());
    }

    #[test]
    fn total_macs_sums_layers() {
        assert_eq!(sample().total_macs(), 2 * 3 * 4 + 5 * 6 * 7);
    }

    #[test]
    fn filtered_keeps_matching_layers() {
        let t = sample().filtered(|l| l.name() == "b");
        assert_eq!(t.len(), 1);
        assert_eq!(t.layers()[0].name(), "b");
    }

    #[test]
    fn iteration_orders_match() {
        let t = sample();
        let names: Vec<&str> = t.iter().map(Layer::name).collect();
        assert_eq!(names, ["a", "b"]);
        let owned: Vec<Layer> = t.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        let by_ref: Vec<&Layer> = (&t).into_iter().collect();
        assert_eq!(by_ref.len(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut t = sample();
        t.extend([Layer::gemm("c", 1, 1, 1)]);
        assert_eq!(t.len(), 3);
    }
}
