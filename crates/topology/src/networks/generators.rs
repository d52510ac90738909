//! Batched variants of any workload.

use crate::{BatchOverflowError, GemmShape, Layer, Topology};

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
