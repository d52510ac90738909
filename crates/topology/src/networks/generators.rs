//! Parametric workload generators.
//!
//! The paper's language-model layers (Table IV) are snapshots of larger
//! models; these generators produce whole model stacks so users can study
//! their own configurations — an MLP of arbitrary widths, a transformer
//! encoder stack (the GEMMs behind each attention + feed-forward block),
//! and batched variants of any GEMM workload.

use crate::{BatchOverflowError, GemmShape, Layer, Topology};

/// A fully-connected network: one GEMM per layer, `batch × in → batch ×
/// out`.
///
/// # Panics
///
/// Panics if `batch` is zero or `widths` has fewer than two entries (a
/// network needs an input and an output width).
///
/// ```
/// use scalesim_topology::networks::mlp;
///
/// let net = mlp("m", 32, &[784, 512, 256, 10]);
/// assert_eq!(net.len(), 3);
/// assert_eq!(net.layers()[0].shape().m, 32); // batch maps to GEMM rows
/// ```
pub fn mlp(name: impl Into<String>, batch: u64, widths: &[u64]) -> Topology {
    assert!(batch > 0, "batch must be nonzero");
    assert!(widths.len() >= 2, "an MLP needs at least two widths");
    let layers = widths
        .windows(2)
        .enumerate()
        .map(|(i, w)| Layer::gemm(format!("fc{i}"), batch, w[0], w[1]))
        .collect();
    Topology::from_layers(name, layers)
}

/// The GEMMs of one transformer encoder layer, repeated `n_layers` times:
/// fused QKV projection, attention scores (`QKᵀ`), attention-weighted
/// values, output projection, and the two feed-forward GEMMs.
///
/// `seq` is the sequence length, `d_model` the embedding width, `d_ff` the
/// feed-forward width. Attention-head splitting only reshapes the score
/// GEMMs; heads are folded into one GEMM here, matching how Table IV
/// snapshots Transformer layers (TF0/TF1 are exactly such GEMMs).
///
/// # Panics
///
/// Panics if any parameter is zero.
pub fn transformer_encoder(
    name: impl Into<String>,
    seq: u64,
    d_model: u64,
    d_ff: u64,
    n_layers: u64,
) -> Topology {
    assert!(
        seq > 0 && d_model > 0 && d_ff > 0 && n_layers > 0,
        "transformer dimensions must be nonzero"
    );
    let mut layers = Vec::with_capacity((n_layers * 6) as usize);
    for l in 0..n_layers {
        layers.push(Layer::gemm(format!("L{l}_qkv"), seq, d_model, 3 * d_model));
        layers.push(Layer::gemm(format!("L{l}_scores"), seq, d_model, seq));
        layers.push(Layer::gemm(format!("L{l}_values"), seq, seq, d_model));
        layers.push(Layer::gemm(format!("L{l}_proj"), seq, d_model, d_model));
        layers.push(Layer::gemm(format!("L{l}_ff1"), seq, d_model, d_ff));
        layers.push(Layer::gemm(format!("L{l}_ff2"), seq, d_ff, d_model));
    }
    Topology::from_layers(name, layers)
}

/// Returns a copy of `topology` with every layer's GEMM batched `batch`
/// times: the output-row dimension (`M`) is multiplied, which is how
/// inference batching composes for both FC layers and (flattened)
/// convolutions.
///
/// Convolution layers are lowered to their GEMM form in the process —
/// batching across images shares filters but not IFMAP windows, so the
/// conv-specific overlap addressing no longer applies. Use this for
/// throughput studies, not for single-image DRAM traffic.
///
/// # Errors
///
/// Returns [`BatchOverflowError`] if a layer's MAC count, `M × batch × K ×
/// N`, does not fit a `u64`; an unchecked product wrapped to a smaller
/// layer.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn batched(topology: &Topology, batch: u64) -> Result<Topology, BatchOverflowError> {
    assert!(batch > 0, "batch must be nonzero");
    let layers = topology
        .iter()
        .map(|layer| {
            let s = layer.shape();
            let m =
                s.m.checked_mul(batch)
                    .filter(|&m| GemmShape { m, ..s }.checked_macs().is_some())
                    .ok_or_else(|| BatchOverflowError {
                        layer: layer.name().to_owned(),
                        m: s.m,
                        batch,
                    })?;
            Ok(Layer::Gemm {
                name: layer.name().to_owned(),
                shape: GemmShape::new(m, s.k, s.n),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Topology::from_layers(
        format!("{}_b{batch}", topology.name()),
        layers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks;

    #[test]
    fn mlp_shapes_chain() {
        let net = mlp("m", 8, &[100, 50, 10]);
        let shapes: Vec<GemmShape> = net.iter().map(|l| l.shape()).collect();
        assert_eq!(shapes[0], GemmShape::new(8, 100, 50));
        assert_eq!(shapes[1], GemmShape::new(8, 50, 10));
    }

    #[test]
    #[should_panic(expected = "two widths")]
    fn mlp_needs_two_widths() {
        let _ = mlp("m", 1, &[10]);
    }

    #[test]
    fn transformer_layer_structure() {
        let net = transformer_encoder("t", 128, 512, 2048, 2);
        assert_eq!(net.len(), 12);
        let scores = net.layer("L0_scores").unwrap().shape();
        assert_eq!(scores, GemmShape::new(128, 512, 128));
        let ff1 = net.layer("L1_ff1").unwrap().shape();
        assert_eq!(ff1, GemmShape::new(128, 512, 2048));
        // Total MACs: per layer 3dm² + 2·s·dm + dm² + 2·dm·dff per token.
        let per_layer = 128 * (3 * 512 * 512 + 512 * 128 + 128 * 512 + 512 * 512 + 512 * 2048 * 2);
        assert_eq!(net.total_macs(), 2 * per_layer);
    }

    #[test]
    fn batching_scales_macs_linearly() {
        let base = networks::alexnet();
        let b4 = batched(&base, 4).unwrap();
        assert_eq!(b4.total_macs(), 4 * base.total_macs());
        assert_eq!(b4.len(), base.len());
        assert_eq!(b4.name(), "alexnet_b4");
        // Layers are lowered to GEMMs.
        assert!(b4.layers().iter().all(|l| l.as_conv().is_none()));
    }

    #[test]
    fn batch_one_preserves_shapes() {
        let base = networks::language_models();
        let b1 = batched(&base, 1).unwrap();
        for (a, b) in base.iter().zip(&b1) {
            assert_eq!(a.shape(), b.shape());
        }
    }

    #[test]
    fn a_batch_whose_rows_overflow_is_an_error() {
        // TF0's M = 31999 times this batch wraps to 15,483 rows.
        let tf0 = networks::by_name("TF0").unwrap();
        let err = batched(&tf0, 576_478_767_264_901).unwrap_err();
        assert_eq!(
            err,
            BatchOverflowError {
                layer: "TF0".into(),
                m: 31999,
                batch: 576_478_767_264_901,
            }
        );
        assert!(err.to_string().contains("batch 576478767264901"), "{err}");
        // The largest batch whose MAC count fits still batches; one more
        // keeps `M × batch` in 64 bits but not `M × batch × K × N`.
        let fits = u64::MAX / (31999 * 84 * 1024);
        assert_eq!(
            batched(&tf0, fits).unwrap().layers()[0].shape().m,
            31999 * fits
        );
        assert_eq!(
            batched(&tf0, fits + 1).unwrap_err(),
            BatchOverflowError {
                layer: "TF0".into(),
                m: 31999,
                batch: fits + 1,
            }
        );
    }
}
