//! Every input the benchmark feeds the program, generated from the
//! run's seeds: collections, query pools and appended rows.

use tkspmv_sparse::gen::{query_vector, NnzDistribution, Rng64, SyntheticConfig};
use tkspmv_sparse::{Csr, DenseVector};

/// The paper's Table III gamma collection at 1/10 of its smallest size:
/// 100,000 × 1,024 at 12 nnz/row, a ~5 MB BS-CSR stream.
pub fn table3_collection(seed: u64) -> Csr {
    SyntheticConfig {
        num_rows: 100_000,
        num_cols: 1_024,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::table3_gamma(),
        seed,
    }
    .generate()
}

/// The 72k-nnz serving collection: 6,000 × 256 at 12 nnz/row, uniform.
pub fn serve_collection(seed: u64) -> Csr {
    SyntheticConfig {
        num_rows: 6_000,
        num_cols: 256,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::Uniform,
        seed,
    }
    .generate()
}

/// Derives an independent stream seed from a run seed and a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` distinct unit-norm dense queries of dimension `dim`.
pub fn queries(dim: usize, seed: u64, n: usize) -> Vec<DenseVector> {
    (0..n as u64)
        .map(|i| query_vector(dim, mix(seed, i)))
        .collect()
}

/// `n` sparse unit-norm rows of `nnz` sorted distinct columns, the rows
/// a streaming-ingest client appends.
pub fn rows(dim: usize, nnz: usize, seed: u64, n: usize) -> Vec<(Vec<u32>, Vec<f32>)> {
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|_| {
            let mut cols = rng.sample_distinct(nnz, dim);
            cols.sort_unstable();
            let vals: Vec<f32> = (0..nnz).map(|_| rng.next_f32().max(1e-3)).collect();
            let norm = vals.iter().map(|v| v * v).sum::<f32>().sqrt();
            (cols, vals.into_iter().map(|v| v / norm).collect())
        })
        .collect()
}
