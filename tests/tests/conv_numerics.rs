//! End-to-end numerical validation of the convolution lowering: the GEMM
//! the simulator schedules (Table III / Sec. III-A) must compute the same
//! values as a direct convolution loop, all the way through the
//! register-level array — tying the address map's coordinate convention to
//! actual arithmetic.

use proptest::prelude::*;

use scalesim_systolic::pe_grid::{run, Matrix};
use scalesim_systolic::{ArrayShape, Dataflow};
use scalesim_topology::{ConvLayer, ConvLayerBuilder};

/// Direct convolution: `out[oh][ow][f] = Σ_{kh,kw,c} in[...]·w[f][...]`.
fn direct_conv(layer: &ConvLayer, ifmap: &[i64], filters: &[i64]) -> Vec<i64> {
    let (ih, iw) = (layer.ifmap_h() as usize, layer.ifmap_w() as usize);
    let (fh, fw) = (layer.filter_h() as usize, layer.filter_w() as usize);
    let ch = layer.channels() as usize;
    let nf = layer.num_filters() as usize;
    let (sh, sw) = (layer.stride_h() as usize, layer.stride_w() as usize);
    let (oh_n, ow_n) = (layer.ofmap_h() as usize, layer.ofmap_w() as usize);
    let mut out = vec![0i64; oh_n * ow_n * nf];
    for oh in 0..oh_n {
        for ow in 0..ow_n {
            for f in 0..nf {
                let mut acc = 0;
                for kh in 0..fh {
                    for kw in 0..fw {
                        for c in 0..ch {
                            let iv = ifmap[((oh * sh + kh) * iw + (ow * sw + kw)) * ch + c];
                            let wv = filters[f * (fh * fw * ch) + (kh * fw + kw) * ch + c];
                            acc += iv * wv;
                        }
                    }
                }
                out[(oh * ow_n + ow) * nf + f] = acc;
            }
        }
    }
    let _ = ih; // extents used implicitly through indexing
    out
}

/// Builds the im2col operand matrices with exactly the coordinate
/// convention the simulator's `ConvAddressMap` uses: `A[m][k]` is window
/// element `k` of output pixel `m`; `B[k][n]` is element `k` of filter `n`.
fn im2col(layer: &ConvLayer, ifmap: &[i64], filters: &[i64]) -> (Matrix, Matrix) {
    let shape = layer.shape();
    let iw = layer.ifmap_w() as usize;
    let ch = layer.channels() as usize;
    let fw = layer.filter_w() as usize;
    let ow_n = layer.ofmap_w() as usize;
    let (sh, sw) = (layer.stride_h() as usize, layer.stride_w() as usize);
    let a = Matrix::from_fn(shape.m as usize, shape.k as usize, |m, k| {
        let (oh, ow) = (m / ow_n, m % ow_n);
        let kh = k / (fw * ch);
        let rem = k % (fw * ch);
        let (kw, c) = (rem / ch, rem % ch);
        ifmap[((oh * sh + kh) * iw + (ow * sw + kw)) * ch + c]
    });
    let b = Matrix::from_fn(shape.k as usize, shape.n as usize, |k, n| {
        filters[n * shape.k as usize + k]
    });
    (a, b)
}

fn check(layer: &ConvLayer, array: ArrayShape, df: Dataflow, seed: i64) {
    let ifmap: Vec<i64> = (0..layer.ifmap_elems())
        .map(|i| ((i as i64 * 7 + seed) % 11) - 5)
        .collect();
    let filters: Vec<i64> = (0..layer.window_size() * layer.num_filters())
        .map(|i| ((i as i64 * 13 - seed) % 9) - 4)
        .collect();
    let reference = direct_conv(layer, &ifmap, &filters);
    let (a, b) = im2col(layer, &ifmap, &filters);
    let golden = run(&a, &b, array, df);
    let nf = layer.num_filters() as usize;
    for m in 0..layer.ofmap_pixels() as usize {
        for f in 0..nf {
            assert_eq!(
                golden.output[(m, f)],
                reference[m * nf + f],
                "pixel {m}, filter {f}, {df:?}"
            );
        }
    }
}

#[test]
fn conv_through_the_array_equals_direct_convolution() {
    let layer = ConvLayer::new("c", 8, 8, 3, 3, 2, 4, 1).unwrap();
    for df in Dataflow::ALL {
        check(&layer, ArrayShape::new(4, 4), df, 3);
    }
}

#[test]
fn strided_conv_through_the_array() {
    let layer = ConvLayer::new("s", 9, 9, 3, 3, 1, 3, 2).unwrap();
    check(&layer, ArrayShape::new(4, 2), Dataflow::OutputStationary, 7);
    check(&layer, ArrayShape::new(2, 4), Dataflow::WeightStationary, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_convs_compute_correctly(
        ih in 3u64..10,
        fdim in 1u64..4,
        ch in 1u64..3,
        nf in 1u64..5,
        stride in 1u64..3,
        df_idx in 0usize..3,
        seed in -20i64..20,
    ) {
        prop_assume!(fdim <= ih);
        let layer = ConvLayerBuilder::new("p")
            .ifmap(ih, ih)
            .filter(fdim, fdim)
            .channels(ch)
            .num_filters(nf)
            .stride(stride)
            .build()
            .unwrap();
        check(&layer, ArrayShape::new(4, 4), Dataflow::ALL[df_idx], seed);
    }
}
