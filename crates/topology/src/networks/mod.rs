//! Built-in workloads used by the paper's evaluation (Section IV).
//!
//! Each built-in network is its Table II topology file in `assets/`,
//! compiled in and parsed by [`parse_topology_csv`] on every call; the
//! table [`BUILTIN`] names them, and feeds [`by_name`] and each named
//! constructor.
//!
//! * [`resnet50`] — the convolution + FC layers of ResNet-50 (He et al.),
//!   the CNN workload of Figs. 10–14.
//! * [`language_models`] — the ten language-model GEMMs of Table IV
//!   (GNMT, DeepSpeech2, Transformer, NCF), one `name, M, K, N` row each.
//! * [`alexnet`], [`resnet18`], [`googlenet`], [`mobilenet_v1`],
//!   [`vgg16`], [`yolo_tiny`] — further classic CNN topologies, useful for
//!   examples and tests.
//!
//! As in the original tool's topology files, IFMAP extents include padding
//! and pooling layers are elided. [`batched`] batches any workload.

mod generators;

pub use generators::batched;

use crate::{parse_topology_csv, Layer, Topology};

/// The entry of [`BUILTIN`] for `assets/<name>.csv`.
macro_rules! asset {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../../../../assets/", $name, ".csv")),
        )
    };
}

/// Every built-in network: its name and the text of `assets/<name>.csv`.
pub const BUILTIN: [(&str, &str); 8] = [
    asset!("resnet50"),
    asset!("resnet18"),
    asset!("alexnet"),
    asset!("googlenet"),
    asset!("mobilenet_v1"),
    asset!("vgg16"),
    asset!("yolo_tiny"),
    asset!("language_models"),
];

/// The built-in network `name` of [`BUILTIN`], parsed.
fn builtin(name: &str) -> Option<Topology> {
    let (name, text) = BUILTIN.iter().find(|(n, _)| *n == name)?;
    Some(parse_topology_csv(name, text).expect("a shipped topology file parses"))
}

fn network(name: &str) -> Topology {
    builtin(name).expect("a name of the BUILTIN table")
}

/// ResNet-50 (He et al., 2016), the paper's CNN workload: Conv1, 48
/// bottleneck convolutions and 4 projection shortcuts (`_proj`), and the
/// 1000-way FC layer — 54 layers. Names follow the original SCALE-Sim
/// files: `CB<stage><block>_<n>` for projection blocks, `ID…` for identity
/// blocks.
pub fn resnet50() -> Topology {
    network("resnet50")
}

/// The "first and last five convolution and fully connected layers" subset
/// used by Fig. 10(a) of the paper.
pub fn resnet50_edges() -> Topology {
    let full = resnet50();
    let n = full.len();
    let layers: Vec<Layer> = full
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < 5 || *i >= n - 5)
        .map(|(_, l)| l.clone())
        .collect();
    Topology::from_layers("resnet50_edges", layers)
}

/// ResNet-18 (He et al.), 21 layers: stem, four 2-block stages of 3×3
/// basic blocks with projection shortcuts, classifier.
pub fn resnet18() -> Topology {
    network("resnet18")
}

/// AlexNet (Krizhevsky et al.), 8 layers: 5 convolutions, 3 FC layers.
pub fn alexnet() -> Topology {
    network("alexnet")
}

/// GoogLeNet / Inception-v1 (Szegedy et al.), 58 layers: stem, 9 inception
/// modules of six convolutions each, classifier. A module is the "cell
/// composed of multiple convolution layers in parallel" of the paper's
/// Section II-E; its branches run in file order.
pub fn googlenet() -> Topology {
    network("googlenet")
}

/// MobileNet-v1 (Howard et al.), 28 layers: stem, 13 depthwise-separable
/// blocks, classifier. A depthwise 3×3 over `C` channels is listed, as in
/// the original SCALE-Sim files, with `Channels = 1` and `Num Filter = C`.
pub fn mobilenet_v1() -> Topology {
    network("mobilenet_v1")
}

/// VGG-16 (Simonyan & Zisserman), 16 layers: 13 convolutions, 3 FC
/// layers; FC6 (25088 → 4096) is a classic bandwidth stress test.
pub fn vgg16() -> Topology {
    network("vgg16")
}

/// YOLO-tiny, 9 layers: all-3×3 convolutions with growing channel counts.
pub fn yolo_tiny() -> Topology {
    network("yolo_tiny")
}

/// The Table IV language-model GEMMs as one topology, in paper order. The
/// paper lists each as `(S_R, T, S_C)` for the OS dataflow, which equals
/// the raw `(M, K, N)`.
pub fn language_models() -> Topology {
    network("language_models")
}

/// Looks up a single Table IV layer by tag (e.g. `"TF0"`).
pub fn language_model(name: &str) -> Option<Layer> {
    language_models().into_iter().find(|l| l.name() == name)
}

/// Resolves a workload name to a topology.
///
/// Accepts the names of [`BUILTIN`] (case-insensitive, with `mobilenet`
/// for `mobilenet_v1`) and the Table IV language-model layer tags (`TF0`,
/// `GNMT3`, ... — the layers of [`language_models`]), which resolve to
/// single-layer topologies. Returns `None` for unknown names — this is the
/// shared vocabulary of the CLI, the server and the sweep planner.
pub fn by_name(name: &str) -> Option<Topology> {
    match name.to_ascii_lowercase().as_str() {
        "mobilenet" => Some(mobilenet_v1()),
        lower => builtin(lower).or_else(|| {
            let tag = name.to_ascii_uppercase();
            let layer = language_model(&tag)?;
            Some(Topology::from_layers(tag, vec![layer]))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_are_nonempty_and_valid() {
        for topo in BUILTIN.iter().map(|(name, _)| network(name)) {
            assert!(!topo.is_empty(), "{} has no layers", topo.name());
            for layer in &topo {
                if let Some(conv) = layer.as_conv() {
                    conv.validate().expect("built-in layer validates");
                }
                assert!(layer.macs() > 0);
            }
        }
    }

    #[test]
    fn by_name_resolves_networks_and_layer_tags() {
        assert_eq!(by_name("resnet50").unwrap().name(), "resnet50");
        assert_eq!(by_name("ResNet50").unwrap().name(), "resnet50");
        let tf0 = by_name("TF0").unwrap();
        assert_eq!(tf0.name(), "TF0");
        assert_eq!(tf0.len(), 1);
        assert_eq!(tf0.layers()[0].name(), "TF0");
        // Tags are matched case-insensitively too.
        assert_eq!(by_name("tf0").unwrap().name(), "TF0");
        assert!(by_name("no_such_workload").is_none());
    }

    #[test]
    fn layer_names_are_unique_within_each_network() {
        for topo in BUILTIN.iter().map(|(name, _)| network(name)) {
            let mut names: Vec<&str> = topo.iter().map(|l| l.name()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(
                before,
                names.len(),
                "duplicate layer names in {}",
                topo.name()
            );
        }
    }

    mod resnet50 {
        use crate::networks::*;

        #[test]
        fn layer_count_matches_bottleneck_structure() {
            // 1 stem + (3+4+6+3) blocks * 3 convs + 4 projections + 1 FC = 54.
            assert_eq!(resnet50().len(), 54);
        }

        #[test]
        fn stage_transitions_have_expected_ofmaps() {
            let net = resnet50();
            let conv1 = net.layer("Conv1").unwrap().as_conv().unwrap();
            assert_eq!((conv1.ofmap_h(), conv1.ofmap_w()), (112, 112));
            let cb3 = net.layer("CB3a_2").unwrap().as_conv().unwrap();
            assert_eq!((cb3.ofmap_h(), cb3.ofmap_w()), (28, 28));
            let cb5 = net.layer("ID5c_2").unwrap().as_conv().unwrap();
            assert_eq!((cb5.ofmap_h(), cb5.ofmap_w()), (7, 7));
        }

        #[test]
        fn total_macs_in_resnet50_ballpark() {
            // ResNet-50 is ~3.8-4.1 GMACs at 224x224 (this listing excludes
            // pooling and counts the padded stem).
            let macs = resnet50().total_macs();
            assert!((3_500_000_000..5_000_000_000).contains(&macs), "got {macs}");
        }

        #[test]
        fn edges_subset_has_ten_layers_from_both_ends() {
            let edges = resnet50_edges();
            assert_eq!(edges.len(), 10);
            assert_eq!(edges.layers()[0].name(), "Conv1");
            assert_eq!(edges.layers()[9].name(), "FC1000");
        }

        #[test]
        fn fc_layer_is_fully_connected() {
            let net = resnet50();
            let fc = net.layer("FC1000").unwrap().as_conv().unwrap();
            assert!(fc.is_fully_connected());
            assert_eq!(fc.shape().n, 1000);
        }
    }

    mod resnet18 {
        use crate::networks::*;

        #[test]
        fn layer_count() {
            assert_eq!(resnet18().len(), 1 + 4 + 3 * 5 + 1);
        }

        #[test]
        fn stage_extents_follow_the_halving_schedule() {
            let net = resnet18();
            let px = |name: &str| net.layer(name).unwrap().as_conv().unwrap().ofmap_h();
            assert_eq!(px("S1B1_1"), 56);
            assert_eq!(px("S2B1_1"), 28);
            assert_eq!(px("S3B1_1"), 14);
            assert_eq!(px("S4B2_2"), 7);
        }

        #[test]
        fn projection_matches_main_path_output() {
            let net = resnet18();
            for tag in ["S2", "S3", "S4"] {
                let proj = net
                    .layer(&format!("{tag}B1_proj"))
                    .unwrap()
                    .as_conv()
                    .unwrap();
                let main = net.layer(&format!("{tag}B1_2")).unwrap().as_conv().unwrap();
                assert_eq!(proj.num_filters(), main.num_filters(), "{tag}");
                assert_eq!(proj.ofmap_pixels(), main.ofmap_pixels(), "{tag}");
            }
        }

        #[test]
        fn total_macs_in_resnet18_ballpark() {
            // ResNet-18 is ~1.8 GMACs at 224x224.
            let macs = resnet18().total_macs();
            assert!((1_500_000_000..2_400_000_000).contains(&macs), "got {macs}");
        }
    }

    mod alexnet {
        use crate::networks::*;

        #[test]
        fn has_eight_layers() {
            assert_eq!(alexnet().len(), 8);
        }

        #[test]
        fn conv1_ofmap_is_55() {
            let net = alexnet();
            let c1 = net.layer("Conv1").unwrap().as_conv().unwrap();
            assert_eq!(c1.ofmap_h(), 55);
        }

        #[test]
        fn fc_layers_are_fully_connected() {
            let net = alexnet();
            for name in ["FC6", "FC7", "FC8"] {
                assert!(net
                    .layer(name)
                    .unwrap()
                    .as_conv()
                    .unwrap()
                    .is_fully_connected());
            }
        }
    }

    mod googlenet {
        use crate::networks::*;

        #[test]
        fn layer_count() {
            assert_eq!(googlenet().len(), 3 + 9 * 6 + 1);
        }

        #[test]
        fn inception_channel_chaining_is_consistent() {
            // 3a out 256 feeds 3b; 3b out 480 feeds 4a; 4d out 528 feeds 4e;
            // 4e out 832 feeds 5a and 5b's input.
            let net = googlenet();
            let cin = |name: &str| net.layer(name).unwrap().as_conv().unwrap().channels();
            assert_eq!(cin("3b_1x1"), 256);
            assert_eq!(cin("4a_1x1"), 480);
            assert_eq!(cin("4e_1x1"), 528);
            assert_eq!(cin("5a_1x1"), 832);
            assert_eq!(cin("FC1000"), 1024);
        }

        #[test]
        fn total_macs_in_googlenet_ballpark() {
            // GoogLeNet is ~1.5 GMACs at 224x224 (convs only, padded stem).
            let macs = googlenet().total_macs();
            assert!((1_200_000_000..2_200_000_000).contains(&macs), "got {macs}");
        }

        #[test]
        fn branch_ofmaps_agree_within_a_module() {
            let net = googlenet();
            for tag in ["3a", "4c", "5b"] {
                let px = |suffix: &str| {
                    net.layer(&format!("{tag}_{suffix}"))
                        .unwrap()
                        .as_conv()
                        .unwrap()
                        .ofmap_pixels()
                };
                assert_eq!(px("1x1"), px("3x3"), "{tag}");
                assert_eq!(px("1x1"), px("5x5"), "{tag}");
            }
        }
    }

    mod mobilenet {
        use crate::networks::*;

        #[test]
        fn layer_count() {
            assert_eq!(mobilenet_v1().len(), 1 + 13 * 2 + 1);
        }

        #[test]
        fn depthwise_layers_have_single_channel_windows() {
            let net = mobilenet_v1();
            let dw = net.layer("DW7").unwrap().as_conv().unwrap();
            assert_eq!(dw.channels(), 1);
            assert_eq!(dw.num_filters(), 512);
            assert_eq!(dw.window_size(), 9);
        }

        #[test]
        fn strided_blocks_halve_the_map() {
            let net = mobilenet_v1();
            let dw2 = net.layer("DW2").unwrap().as_conv().unwrap();
            assert_eq!(dw2.ofmap_h(), 56);
            let pw2 = net.layer("PW2").unwrap().as_conv().unwrap();
            assert_eq!(pw2.ifmap_h(), 56);
        }

        #[test]
        fn pointwise_dominates_compute() {
            // The whole point of depthwise separability: ~95% of MACs live in
            // the 1x1 convolutions.
            let net = mobilenet_v1();
            let dw: u64 = net
                .iter()
                .filter(|l| l.name().starts_with("DW"))
                .map(|l| l.macs())
                .sum();
            let pw: u64 = net
                .iter()
                .filter(|l| l.name().starts_with("PW"))
                .map(|l| l.macs())
                .sum();
            assert!(pw > 10 * dw);
        }

        #[test]
        fn total_macs_in_mobilenet_ballpark() {
            // MobileNet-v1 is ~0.57 GMACs at 224x224.
            let macs = mobilenet_v1().total_macs();
            assert!((450_000_000..750_000_000).contains(&macs), "got {macs}");
        }
    }

    mod vgg16 {
        use crate::networks::*;

        #[test]
        fn sixteen_layers() {
            assert_eq!(vgg16().len(), 16);
        }

        #[test]
        fn channel_chaining() {
            let net = vgg16();
            let c = |name: &str| net.layer(name).unwrap().as_conv().unwrap().channels();
            assert_eq!(c("Conv1_2"), 64);
            assert_eq!(c("Conv3_1"), 128);
            assert_eq!(c("Conv5_3"), 512);
            assert_eq!(c("FC6"), 25088);
        }

        #[test]
        fn total_macs_in_vgg16_ballpark() {
            // VGG-16 is ~15.5 GMACs at 224x224.
            let macs = vgg16().total_macs();
            assert!(
                (14_000_000_000..18_000_000_000).contains(&macs),
                "got {macs}"
            );
        }

        #[test]
        fn conv_extents_match_stage_plan() {
            let net = vgg16();
            let px = |name: &str| net.layer(name).unwrap().as_conv().unwrap().ofmap_h();
            assert_eq!(px("Conv1_1"), 224);
            assert_eq!(px("Conv4_2"), 28);
            assert_eq!(px("Conv5_3"), 14);
        }
    }

    mod yolo_tiny {
        use crate::networks::*;

        #[test]
        fn has_nine_layers() {
            assert_eq!(yolo_tiny().len(), 9);
        }

        #[test]
        fn first_layer_dominates_ofmap_pixels() {
            let net = yolo_tiny();
            let first = net.layers()[0].shape().m;
            let last = net.layers()[8].shape().m;
            assert!(first > last * 100);
        }
    }

    mod language {
        use crate::networks::*;
        use crate::Dataflow;

        #[test]
        fn table_iv_has_ten_rows() {
            assert_eq!(language_models().len(), 10);
        }

        #[test]
        fn tf0_matches_paper() {
            let tf0 = language_model("TF0").unwrap();
            let dims = tf0.shape().project(Dataflow::OutputStationary);
            assert_eq!(dims.spatial_rows, 31999);
            assert_eq!(dims.temporal, 84);
            assert_eq!(dims.spatial_cols, 1024);
        }

        #[test]
        fn ncf0_is_a_matrix_vector_product() {
            // NCF0 has S_C = 1: the degenerate matrix-vector case the paper's
            // footnote 1 calls out.
            let ncf0 = language_model("NCF0").unwrap();
            assert_eq!(ncf0.shape().n, 1);
        }

        #[test]
        fn lookup_misses_return_none() {
            assert!(language_model("GPT3").is_none());
        }
    }
}
