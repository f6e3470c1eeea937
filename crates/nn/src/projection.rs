use crate::NnError;
use linalg::{
    matmul_fused_into_ws, matmul_quantized_into, DenseMatrix, Epilogue, LinalgError,
    QuantizedMatrix, Workspace,
};

/// A borrowed projection weight at either serving precision — the one
/// thing an int8 forward pass swaps.
///
/// Every layer computes `H · W` exactly once; everything around that
/// product (sparse aggregation, concatenation, attention/softmax, the
/// fused bias/ReLU epilogue) is f32 at both precisions. So precision is
/// a property of the weight a layer is *handed*, not of the layer's
/// type: each layer's `forward_with` takes a `Projection`, the f32
/// entry points pass [`Projection::F32`] of the layer's own trained
/// weight, and an int8 serving path passes [`Projection::Int8`] of a
/// [`QuantizedMatrix`] it keeps beside the (always retained) f32
/// layer. Biases and attention vectors are read from the f32 layer at
/// both precisions.
///
/// # Examples
///
/// ```
/// use linalg::{DenseMatrix, QuantizedMatrix, Workspace};
/// use nn::{DenseLayer, Projection};
/// use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let layer = DenseLayer::new(4, 2, &mut rand::rngs::StdRng::seed_from_u64(0));
/// let codes = QuantizedMatrix::quantize(&layer.weight().value);
/// let h = DenseMatrix::filled(3, 4, 0.5);
/// let mut ws = Workspace::new();
/// let int8 = layer.forward_with(Projection::Int8(&codes), &h, false, &mut ws)?;
/// let f32 = layer.forward_fused(&h, false, &mut ws)?;
/// assert!(int8.output.approx_eq(&f32.output, 0.05));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub enum Projection<'a> {
    /// Full-precision `in × out` weight (packed f32 GEMM).
    F32(&'a DenseMatrix),
    /// Per-output-channel int8 codes (dynamic activation quantization,
    /// exact i32 accumulation, f32 dequant at the epilogue).
    Int8(&'a QuantizedMatrix),
}

impl<'a> Projection<'a> {
    /// Layer `i`'s weight at a serving precision: `int8[i]` when an
    /// int8 list is given, the layer's own f32 `weight` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `int8` is given and has no entry `i`; validate the
    /// list once with [`check_int8_count`].
    pub fn select(weight: &'a DenseMatrix, int8: Option<&'a [QuantizedMatrix]>, i: usize) -> Self {
        match int8 {
            Some(q) => Projection::Int8(&q[i]),
            None => Projection::F32(weight),
        }
    }

    /// `out = epilogue(input · W)`; `out` is overwritten. `ws` supplies
    /// the f32 path's packing buffers (the int8 kernel needs none).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `input`, the weight, `out`,
    /// and the epilogue's bias do not agree.
    pub fn matmul_into(
        self,
        input: &DenseMatrix,
        out: &mut DenseMatrix,
        epilogue: Epilogue<'_>,
        ws: &mut Workspace,
    ) -> Result<(), LinalgError> {
        match self {
            Projection::F32(w) => matmul_fused_into_ws(input, w, out, epilogue, ws),
            Projection::Int8(q) => matmul_quantized_into(input, q, out, epilogue),
        }
    }
}

/// Checks that an int8 projection list has one entry per layer of the
/// stack it stands in for, so [`Projection::select`] cannot index past
/// it. (Each entry's *shape* is checked where it is used: the GEMM
/// rejects a weight that does not fit its input and output.)
///
/// # Errors
///
/// [`NnError::InvalidArchitecture`] on a count mismatch.
pub fn check_int8_count(int8: Option<&[QuantizedMatrix]>, layers: usize) -> Result<(), NnError> {
    match int8 {
        Some(q) if q.len() != layers => Err(NnError::InvalidArchitecture {
            reason: format!("{} int8 projections for a {layers}-layer stack", q.len()),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{glorot_uniform, ConvKind, ConvLayer, GcnNetwork, MlpNetwork};
    use graph::{normalization, Graph};
    use linalg::{ops, CsrMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CsrMatrix, DenseMatrix) {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]).unwrap();
        let adj = normalization::gcn_normalize(&g);
        let mut rng = StdRng::seed_from_u64(11);
        let x = glorot_uniform(6, 5, &mut rng);
        (adj, x)
    }

    fn quantize_all<'a>(weights: impl Iterator<Item = &'a DenseMatrix>) -> Vec<QuantizedMatrix> {
        weights.map(QuantizedMatrix::quantize).collect()
    }

    #[test]
    fn int8_projection_tracks_f32_for_every_kind() {
        let (adj, x) = setup();
        for kind in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            let mut rng = StdRng::seed_from_u64(23);
            let layer = ConvLayer::new(kind, 5, 3, &mut rng);
            let codes = QuantizedMatrix::quantize(&layer.weight().value);
            assert!(
                codes.nbytes() < layer.weight().len() * std::mem::size_of::<f32>(),
                "{}",
                kind.label()
            );
            for fuse_relu in [false, true] {
                let mut ws = Workspace::new();
                let f32_out = layer.forward_fused(&adj, &x, fuse_relu, &mut ws).unwrap();
                let q_out = layer
                    .forward_with(Projection::Int8(&codes), &adj, &x, fuse_relu, &mut ws)
                    .unwrap();
                assert!(
                    q_out.output().approx_eq(f32_out.output(), 0.15),
                    "{} fuse_relu={fuse_relu}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn int8_network_agrees_on_labels() {
        let (adj, x) = setup();
        let net = GcnNetwork::new(5, &[8, 3], 3).unwrap();
        let codes = quantize_all(net.layers().iter().map(|l| &l.weight().value));
        let f32_logits = net.logits(&adj, &x).unwrap();
        let q_embs = net.forward_embeddings_at(&adj, &x, Some(&codes)).unwrap();
        let q_logits = q_embs.last().unwrap();
        assert_eq!(
            ops::argmax_rows(&f32_logits),
            ops::argmax_rows(q_logits),
            "int8 logits drifted across the argmax boundary"
        );
        assert!(q_logits.approx_eq(&f32_logits, 0.2));

        let mlp = MlpNetwork::new(5, &[8, 3], 3).unwrap();
        let codes = quantize_all(mlp.layers().iter().map(|l| &l.weight().value));
        assert_eq!(
            ops::argmax_rows(&mlp.logits(&x).unwrap()),
            ops::argmax_rows(
                mlp.forward_embeddings_at(&x, Some(&codes))
                    .unwrap()
                    .last()
                    .unwrap()
            ),
        );
    }

    #[test]
    fn codes_rebuilt_from_parts_reproduce_quantize_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        // A GCN/GAT-shaped weight and a SAGE one (fan-in `2·in`).
        for (rows, cols) in [(4, 3), (8, 3)] {
            let q = QuantizedMatrix::quantize(&glorot_uniform(rows, cols, &mut rng));
            // What a snapshot stores and a decoder hands back.
            let (data, scales) = (q.data().to_vec(), q.scales().to_vec());
            let rebuilt = QuantizedMatrix::from_parts(q.out_dim(), q.in_dim(), data, scales);
            assert_eq!(rebuilt.unwrap(), q);
            // Re-quantizing the dequantized weights is a fixed point, so
            // a restored vault that re-derives its codes gets the same.
            assert_eq!(QuantizedMatrix::quantize(&q.dequantize()), q);
        }
    }

    #[test]
    fn wrong_count_or_shape_projection_lists_fail_typed() {
        let (adj, x) = setup();
        let net = GcnNetwork::new(5, &[4, 3], 1).unwrap();
        let good = quantize_all(net.layers().iter().map(|l| &l.weight().value));
        assert!(net.forward_embeddings_at(&adj, &x, Some(&good)).is_ok());
        for bad in [&[][..], &good[..1]] {
            assert!(matches!(
                net.forward_embeddings_at(&adj, &x, Some(bad)),
                Err(NnError::InvalidArchitecture { .. })
            ));
        }
        let misshapen = vec![
            good[0].clone(),
            QuantizedMatrix::quantize(&DenseMatrix::filled(5, 3, 1.0)),
        ];
        assert!(matches!(
            net.forward_embeddings_at(&adj, &x, Some(&misshapen)),
            Err(NnError::Linalg(_))
        ));
        let mlp = MlpNetwork::new(5, &[4, 3], 1).unwrap();
        assert!(matches!(
            mlp.forward_embeddings_at(&x, Some(&good[..1])),
            Err(NnError::InvalidArchitecture { .. })
        ));

        // A single layer handed a projection of the wrong shape is a
        // typed shape error from the GEMM, never an out-of-bounds read.
        // SAGE's weight spans `[H ‖ Ā H]`, so the 5×3 matrix that fits
        // GCN and GAT is exactly the wrong one for it, and vice versa.
        let mut rng = StdRng::seed_from_u64(7);
        let narrow = QuantizedMatrix::quantize(&DenseMatrix::filled(5, 3, 1.0));
        let wide = QuantizedMatrix::quantize(&DenseMatrix::filled(10, 3, 1.0));
        for (kind, wrong) in [
            (ConvKind::Gcn, &wide),
            (ConvKind::Sage, &narrow),
            (ConvKind::Gat, &wide),
        ] {
            let layer = ConvLayer::new(kind, 5, 3, &mut rng);
            let mut ws = Workspace::new();
            assert!(matches!(
                layer.forward_with(Projection::Int8(wrong), &adj, &x, false, &mut ws),
                Err(NnError::Linalg(_))
            ));
        }
    }
}
