//! Multi-core execution: the §III-A partitioned approximation.

use std::sync::Arc;

use tkspmv_fixed::SpmvScalar;
use tkspmv_sparse::BsCsr;

use super::core_model::{run_core_block, BatchScratch, CoreStats, Fidelity, QueryBlock};
use crate::exec;
use crate::topk::TopKResult;

/// Output of a multi-core run: the merged approximate Top-K plus
/// per-core statistics.
#[derive(Debug, Clone)]
pub struct MulticoreOutput {
    /// Merged global Top-K (scores converted to `f64`).
    pub topk: TopKResult,
    /// Statistics of each core, in partition order.
    pub core_stats: Vec<CoreStats>,
    /// Packets streamed by the busiest core — the quantity that bounds
    /// wall-clock time, since cores run in lock-step on independent
    /// channels.
    pub max_packets_per_core: u64,
}

/// Runs `c` independent cores, one per `(first_row, partition)` pair, and
/// merges their local top-`k` lists into a global top-`big_k`.
///
/// Each core computes the exact top-`k` of its own partition; the merge
/// keeps the best `big_k` of the `k·c` candidates. This is the paper's
/// approximation: it is exact whenever no partition holds more than `k`
/// of the true global Top-K (Figure 2).
///
/// The `c` cores are a *semantic* parameter: they fix the row
/// partitioning and the per-core `k`, and so the answer. How many of
/// them run at once is the host's business — each partition is one task
/// on the shared [`exec`](crate::exec) executor, which never changes a
/// result.
///
/// # Panics
///
/// Panics if `partitions` is empty, `k == 0`, or `k * partitions.len() <
/// big_k` (the configuration could not possibly fill the requested K).
pub fn run_multicore<S: SpmvScalar>(
    partitions: &[(usize, BsCsr)],
    x: &[S],
    k: usize,
    big_k: usize,
    fidelity: Fidelity,
) -> MulticoreOutput {
    // Delegate to the batch engine with B = 1: one accumulation-order
    // implementation to maintain, one place for future SIMD work.
    run_multicore_impl(partitions, &[x], k, big_k, fidelity)
        .pop()
        // invariant: a one-query batch yields exactly one output
        .expect("a single-query batch yields exactly one output")
}

/// Runs a batch of queries over the same partitioned matrix, one
/// [`MulticoreOutput`] per query, in input order.
///
/// This is the **matrix-major** loop: each partition is one executor
/// task per batch that makes **one pass** over its packet stream,
/// decoding every BS-CSR packet into the running thread's resident
/// scratch exactly once and accumulating the decoded entries into all B
/// query lanes before advancing (see
/// [`run_core_batch_with_scratch`](crate::run_core_batch_with_scratch)),
/// eight lanes at a time. That mirrors the hardware — the BS-CSR stream
/// stays resident in its HBM channel while B query vectors sit in URAM —
/// and amortises packet field extraction, value decode, and partition
/// traversal across the batch. The per-query cost therefore falls toward
/// the pure multiply-accumulate floor as B grows, where the query-major
/// formulation (B full decode passes per partition) paid the decode
/// every time. The queries are laid out for the lane replay once per
/// batch, in a block every partition shares.
///
/// Results are **bit-identical** to running each query alone: per
/// query, multiplies, accumulations, and Top-K offers happen in the
/// same packet-arrival order as the sequential path, and cores carry no
/// state between queries.
///
/// # Panics
///
/// Panics under the same conditions as [`run_multicore`] (`partitions`
/// empty, `k == 0`, or `k·c < big_k`).
pub fn run_multicore_batch<S: SpmvScalar>(
    partitions: &[(usize, BsCsr)],
    queries: &[Vec<S>],
    k: usize,
    big_k: usize,
    fidelity: Fidelity,
) -> Vec<MulticoreOutput> {
    run_multicore_impl(partitions, queries, k, big_k, fidelity)
}

/// Shared implementation behind [`run_multicore`] (B = 1) and
/// [`run_multicore_batch`]: one executor task per partition, one
/// matrix-major pass over each partition's packets per batch.
// alloc-ok(fn): per-batch fan-out and owned result assembly; the
// per-packet loop lives in run_core_block, which reuses each executor
// thread's resident BatchScratch across batches, and the query block is
// resident on the calling thread.
fn run_multicore_impl<S: SpmvScalar, Q: AsRef<[S]>>(
    partitions: &[(usize, BsCsr)],
    queries: &[Q],
    k: usize,
    big_k: usize,
    fidelity: Fidelity,
) -> Vec<MulticoreOutput> {
    assert!(!partitions.is_empty(), "need at least one partition");
    assert!(
        k * partitions.len() >= big_k,
        "k*c = {} cannot cover K = {big_k}",
        k * partitions.len()
    );
    if queries.is_empty() {
        return Vec::new();
    }

    // `per_partition[p][q]` = partition p's globalised top-k and stats
    // for query q. The batch's query block is built once, on the
    // caller's resident buffer, and shared by every partition task;
    // each task streams its partition through the running thread's
    // resident BatchScratch, so the steady-state loop allocates nothing
    // per packet.
    type PerQuery = Vec<(Vec<(u32, f64)>, CoreStats)>;
    let per_partition: Vec<PerQuery> = exec::with_resident(|spare: &mut QueryBlock<S>| {
        let mut block = std::mem::take(spare);
        block.fill(queries);
        let block = Arc::new(block);
        let shared = Arc::clone(&block);
        let parts = partitions.to_vec();
        let per_partition = exec::run_tasks(parts.len(), move |p| {
            let (first_row, part) = &parts[p];
            exec::with_resident(|scratch: &mut BatchScratch<S>| {
                run_core_block(part, &shared, k, fidelity, &mut scratch.core)
                    .iter()
                    .map(|out| {
                        let globalised: Vec<(u32, f64)> = out
                            .topk
                            .iter()
                            .map(|&(local, acc)| (local + *first_row as u32, S::acc_to_f64(acc)))
                            .collect();
                        (globalised, out.stats)
                    })
                    .collect()
            })
        });
        // `run_tasks` has dropped the task closure, so the block is
        // unique again and goes back for the next batch.
        if let Ok(block) = Arc::try_unwrap(block) {
            *spare = block;
        }
        per_partition
    });

    // Transpose partition-major to query-major by moving each per-query
    // pair vector exactly once — the merge consumes owned pairs, so no
    // per-core top-k list is ever cloned.
    let mut per_query: Vec<PerQuery> = (0..queries.len())
        .map(|_| Vec::with_capacity(partitions.len()))
        .collect();
    for partition_outputs in per_partition {
        for (q, output) in partition_outputs.into_iter().enumerate() {
            per_query[q].push(output);
        }
    }
    per_query
        .into_iter()
        .map(|parts| {
            let core_stats: Vec<CoreStats> = parts.iter().map(|(_, s)| *s).collect();
            let max_packets_per_core = core_stats.iter().map(|s| s.packets).max().unwrap_or(0);
            let merged =
                TopKResult::merge_pairs(parts.into_iter().flat_map(|(pairs, _)| pairs), big_k);
            MulticoreOutput {
                topk: merged,
                core_stats,
                max_packets_per_core,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::core_model::quantize_vector;
    use tkspmv_fixed::Q1_31;
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
    use tkspmv_sparse::{Csr, PacketLayout};

    fn encode_partitions(csr: &Csr, c: usize) -> Vec<(usize, BsCsr)> {
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        csr.partition_rows(c)
            .into_iter()
            .map(|(first, part)| (first, BsCsr::encode::<Q1_31>(&part, layout)))
            .collect()
    }

    fn exact_topk(csr: &Csr, x: &[f32], k: usize) -> Vec<u32> {
        let y = csr.spmv_exact(x);
        let mut pairs: Vec<(u32, f64)> = y
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v))
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn multicore_recovers_global_topk_when_k_large_enough() {
        let csr = SyntheticConfig {
            num_rows: 800,
            num_cols: 256,
            avg_nnz_per_row: 16,
            distribution: NnzDistribution::Uniform,
            seed: 11,
        }
        .generate();
        let x = query_vector(256, 5);
        let xs = quantize_vector::<Q1_31>(x.as_slice());
        let parts = encode_partitions(&csr, 8);
        // k = K: approximation can only fail if >k of top-K land in one
        // partition; with k = 10 = K that is impossible.
        let out = run_multicore::<Q1_31>(&parts, &xs, 10, 10, Fidelity::Reference);
        let exact = exact_topk(&csr, x.as_slice(), 10);
        assert_eq!(out.topk.indices(), exact);
    }

    #[test]
    fn row_indices_are_globalised() {
        // Partition 2's local row 0 must come back with its global index.
        let mut triplets = vec![(0u32, 0u32, 0.1f32)];
        for r in 1..6u32 {
            triplets.push((r, 0, 0.1 * (r + 1) as f32));
        }
        let csr = Csr::from_triplets(6, 4, &triplets).unwrap();
        let x = [1.0f32, 0.0, 0.0, 0.0];
        let xs = quantize_vector::<Q1_31>(&x);
        let parts = encode_partitions(&csr, 3);
        let out = run_multicore::<Q1_31>(&parts, &xs, 2, 3, Fidelity::Reference);
        // Best rows are 5 (0.6), 4 (0.5), 3 (0.4).
        assert_eq!(out.topk.indices(), vec![5, 4, 3]);
    }

    #[test]
    fn approximation_can_lose_values_when_partition_overflows() {
        // All top values in partition 0; with k = 1 per core only one
        // survives per partition.
        let triplets: Vec<(u32, u32, f32)> = (0..8)
            .map(|r| (r, 0, if r < 4 { 0.9 - 0.01 * r as f32 } else { 0.1 }))
            .collect();
        let csr = Csr::from_triplets(8, 2, &triplets).unwrap();
        let xs = quantize_vector::<Q1_31>(&[1.0, 0.0]);
        let parts = encode_partitions(&csr, 2); // rows 0-3 | rows 4-7
        let out = run_multicore::<Q1_31>(&parts, &xs, 1, 2, Fidelity::Reference);
        // Exact top-2 is {0, 1}, but partition 0 only returns row 0.
        let got = out.topk.indices();
        assert_eq!(got[0], 0);
        assert_ne!(got[1], 1, "row 1 must have been lost to the approximation");
    }

    #[test]
    fn per_core_stats_are_reported() {
        let csr = SyntheticConfig {
            num_rows: 100,
            num_cols: 64,
            avg_nnz_per_row: 8,
            distribution: NnzDistribution::Uniform,
            seed: 2,
        }
        .generate();
        let xs = quantize_vector::<Q1_31>(query_vector(64, 1).as_slice());
        let parts = encode_partitions(&csr, 4);
        let out = run_multicore::<Q1_31>(&parts, &xs, 8, 8, Fidelity::Reference);
        assert_eq!(out.core_stats.len(), 4);
        let rows: u64 = out.core_stats.iter().map(|s| s.rows_finished).sum();
        assert_eq!(rows, 100);
        assert!(out.max_packets_per_core >= 1);
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let csr = SyntheticConfig {
            num_rows: 600,
            num_cols: 128,
            avg_nnz_per_row: 12,
            distribution: NnzDistribution::Uniform,
            seed: 23,
        }
        .generate();
        let parts = encode_partitions(&csr, 4);
        let queries: Vec<Vec<_>> = (0..5u64)
            .map(|q| quantize_vector::<Q1_31>(query_vector(128, q).as_slice()))
            .collect();
        let batch = run_multicore_batch::<Q1_31>(&parts, &queries, 8, 16, Fidelity::Reference);
        assert_eq!(batch.len(), queries.len());
        for (x, got) in queries.iter().zip(&batch) {
            let single = run_multicore::<Q1_31>(&parts, x, 8, 16, Fidelity::Reference);
            assert_eq!(got.topk, single.topk);
            assert_eq!(got.core_stats, single.core_stats);
            assert_eq!(got.max_packets_per_core, single.max_packets_per_core);
        }
    }

    #[test]
    fn query_block_stays_resident_on_the_calling_thread() {
        let csr = SyntheticConfig {
            num_rows: 300,
            num_cols: 64,
            avg_nnz_per_row: 8,
            distribution: NnzDistribution::Uniform,
            seed: 4,
        }
        .generate();
        let parts = encode_partitions(&csr, 4);
        let queries: Vec<Vec<_>> = (0..16u64)
            .map(|q| quantize_vector::<Q1_31>(query_vector(64, q).as_slice()))
            .collect();
        let resident = || {
            exec::with_resident(|block: &mut QueryBlock<Q1_31>| (block.len(), block.blocks_ptr()))
        };
        let first = run_multicore_batch::<Q1_31>(&parts, &queries, 8, 8, Fidelity::Reference);
        let (lanes, ptr) = resident();
        assert_eq!(lanes, 16, "the batch's block came back to the caller");
        let second = run_multicore_batch::<Q1_31>(&parts, &queries, 8, 8, Fidelity::Reference);
        assert_eq!(resident().1, ptr, "the next batch refilled the same buffer");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.topk, b.topk);
        }
    }

    #[test]
    fn empty_batch_returns_no_outputs() {
        let csr = Csr::from_triplets(4, 2, &[(0, 0, 0.5), (3, 1, 0.25)]).unwrap();
        let parts = encode_partitions(&csr, 2);
        let batch = run_multicore_batch::<Q1_31>(&parts, &[], 2, 4, Fidelity::Reference);
        assert!(batch.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn insufficient_kc_is_rejected() {
        let csr = Csr::from_triplets(4, 2, &[(0, 0, 0.5)]).unwrap();
        let xs = quantize_vector::<Q1_31>(&[1.0, 0.0]);
        let parts = encode_partitions(&csr, 2);
        let _ = run_multicore::<Q1_31>(&parts, &xs, 1, 4, Fidelity::Reference);
    }
}
