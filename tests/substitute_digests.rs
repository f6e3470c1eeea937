//! Tier-1 guard on the substitute graphs the paper artifacts train on.
//!
//! Each artifact's backbone runs over the KNN (k = 2) substitute graph
//! of its dataset's public features. Which two neighbours a node gets
//! can turn on the last bit of a similarity, so a change to the
//! pairwise kernel's summation order can move a graph — and with it the
//! paper's numbers at full scale — while the tiny-configuration goldens
//! in `paper_goldens.rs` still pass. This test pins an FNV-1a digest of
//! each dataset's edge list at the harness's `--scale 1.0` sizes and
//! seed 42.
//!
//! A change that moves a graph on purpose prints the new digests here
//! and regenerates the paper goldens and `epochs30.md5` in the same
//! diff.

use datasets::DatasetSpec;
use gnnvault::SubstituteKind;

/// `(dataset, edges, digest)` at `--scale 1.0 --seed 42`.
const DIGESTS: [(&str, usize, u64); 6] = [
    ("Cora", 662, 0xf6c1_90f5_024f_40d2),
    ("Citeseer", 678, 0xff9e_31f8_1c65_58a6),
    ("Pubmed", 1531, 0x36e5_2d58_3bfc_85a9),
    ("Computer", 1066, 0x603c_f0a2_8874_2f9f),
    ("Photo", 948, 0x6027_402e_b09c_dda8),
    ("CoraFull", 1090, 0x5481_73df_8c34_d820),
];

/// FNV-1a over the edge count and every edge, each as a `u64` in
/// little-endian order.
fn digest(edges: &[(usize, usize)]) -> u64 {
    let words = std::iter::once(edges.len()).chain(edges.iter().flat_map(|&(u, v)| [u, v]));
    words
        .flat_map(|w| (w as u64).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn knn_substitute_graphs_match_their_digests() {
    let mut moved = Vec::new();
    for (spec, &(name, edges, want)) in DatasetSpec::ALL.iter().zip(&DIGESTS) {
        assert_eq!(spec.name, name);
        let data = bench::load(spec, 1.0, 42);
        let graph = SubstituteKind::Knn { k: 2 }
            .build(&data.features, data.graph.num_edges(), 42)
            .unwrap()
            .expect("KNN builds a graph");
        let got = (graph.num_edges(), digest(graph.edges()));
        if got != (edges, want) {
            moved.push(format!("(\"{name}\", {}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(
        moved.is_empty(),
        "substitute graphs moved; now:\n{}",
        moved.join("\n")
    );
}
