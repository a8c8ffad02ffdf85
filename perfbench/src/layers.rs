//! Direct calls into single layers' public functions, timed from
//! outside: packet decode, per-partition core passes, the partition
//! merge, the prune pass, and the exact CPU engine.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tkspmv::backend::{QueryBatch, QueryTier, TopKBackend};
use tkspmv::{
    quantize_vector, run_core_batch_with_scratch, BatchScratch, Fidelity, LoadedMatrix,
    PrunedBackend, TopKResult,
};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fixed::{Precision, PruneBits, SpmvScalar, Q1_19};
use tkspmv_sparse::{Csr, DenseVector, PacketScratch, PruneIndex};

use crate::stats::{recall, Samples};
use crate::Outcome;

/// Repetitions of each direct layer call; the median is reported.
const REPS: usize = 7;

/// Times the sparse, engine and top-k layers of one batch pass over an
/// encoded collection and records `sparse.*`, `engine.core_*` and
/// `topk.*`. Returns the summed per-partition core time of one pass, ms.
pub fn engine(
    out: &mut Outcome,
    loaded: &LoadedMatrix,
    k: usize,
    big_k: usize,
    batch: &[DenseVector],
) -> Result<f64, String> {
    if loaded.precision != Precision::Fixed20 {
        return Err(format!(
            "engine layer probe supports Q1.19 only, matrix is {:?}",
            loaded.precision
        ));
    }
    let parts = &loaded.partitions;
    let stored: u64 = parts.iter().map(|(_, p)| p.stored_entries()).sum();
    let packets: u64 = parts.iter().map(|(_, p)| p.num_packets() as u64).sum();
    let slots = packets * u64::from(loaded.layout.entries_per_packet());
    out.set(
        "sparse.stream_bytes",
        loaded.size_bytes() as f64,
        1,
        "computed: LoadedMatrix::size_bytes",
    );
    out.set(
        "sparse.packet_fill",
        stored as f64 / slots.max(1) as f64,
        1,
        format!("computed: {stored} stored entries / {slots} packet slots"),
    );

    let mut decode = Samples::new();
    let mut scratch = PacketScratch::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for (_, part) in parts {
            for i in 0..part.num_packets() {
                part.view_into(i, &mut scratch);
                black_box(scratch.len());
            }
        }
        decode.push_ms(t.elapsed());
    }
    out.set(
        "sparse.decode_ms",
        decode.median(),
        decode.len(),
        format!("BsCsr::view_into over all {packets} packets"),
    );

    let xs: Vec<Vec<Q1_19>> = batch
        .iter()
        .map(|x| quantize_vector::<Q1_19>(x.as_slice()))
        .collect();
    let fidelity = Fidelity::Faithful {
        rows_per_packet: loaded.design.r,
    };
    // per_part[p] = core times of partition p; pairs[q] = every
    // partition's globalised candidates for query q.
    let mut per_part: Vec<Samples> = vec![Samples::new(); parts.len()];
    let mut pairs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); batch.len()];
    let (mut accepted, mut finished) = (0u64, 0u64);
    for (p, (first_row, part)) in parts.iter().enumerate() {
        let mut scratch = BatchScratch::<Q1_19>::new();
        for rep in 0..REPS {
            let t = Instant::now();
            let outs = run_core_batch_with_scratch(part, &xs, k, fidelity, &mut scratch);
            per_part[p].push_ms(t.elapsed());
            if rep == 0 {
                for (q, o) in outs.iter().enumerate() {
                    accepted += o.stats.topk_accepted;
                    finished += o.stats.rows_finished;
                    pairs[q].extend(
                        o.topk.iter().map(|&(local, acc)| {
                            (local + *first_row as u32, Q1_19::acc_to_f64(acc))
                        }),
                    );
                }
            }
        }
    }
    let medians: Vec<f64> = per_part.iter_mut().map(Samples::median).collect();
    let core_ms: f64 = medians.iter().sum();
    let mean = core_ms / medians.len().max(1) as f64;
    let max = medians.iter().copied().fold(0.0, f64::max);
    out.set(
        "engine.core_ms",
        core_ms,
        REPS * parts.len(),
        format!(
            "sum over {} partitions of run_core_batch_with_scratch, B = {}",
            parts.len(),
            batch.len()
        ),
    );
    out.set(
        "engine.core_max_over_mean",
        max / mean.max(f64::MIN_POSITIVE),
        parts.len(),
        "slowest partition / mean partition",
    );
    out.set(
        "topk.accept_frac",
        accepted as f64 / finished.max(1) as f64,
        batch.len() * parts.len(),
        "CoreStats::topk_accepted / rows_finished",
    );

    let mut merge = Samples::new();
    for q in &pairs {
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(TopKResult::merge_pairs(q.iter().copied(), big_k));
            merge.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.set(
        "topk.merge_us",
        merge.median(),
        merge.len(),
        format!("TopKResult::merge_pairs of {} candidates", k * parts.len()),
    );
    Ok(core_ms)
}

/// Times the prune pass, the rescore behind it, and the exact CPU
/// engine on one node-sized shard, single-threaded like a default node,
/// and records `prune.*` and `cpu.exact_ms`.
pub fn prune_and_cpu(
    out: &mut Outcome,
    shard: &Csr,
    queries: &[DenseVector],
    big_k: usize,
    bits: PruneBits,
    factor: usize,
) -> Result<(), String> {
    let index = PruneIndex::build(shard, bits).map_err(|e| format!("prune index: {e}"))?;
    let cpu: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(1));
    let pruned = PrunedBackend::new(Arc::clone(&cpu), bits, factor)
        .and_then(|p| p.with_threads(1))
        .map_err(|e| format!("pruned backend: {e}"))?;
    let exact_m = cpu.prepare(shard).map_err(|e| e.to_string())?;
    let pruned_m = pruned.prepare(shard).map_err(|e| e.to_string())?;

    let mut scores = vec![0u64; shard.num_rows()];
    let (mut score, mut rescore, mut exact, mut rec) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    for x in queries {
        let one = QueryBatch::new(vec![x.clone()]).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let q = index.quantize_query(x.as_slice());
        index.score_rows(0, &q, &mut scores);
        black_box(&scores);
        let score_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let staged = pruned
            .query_batch_tiered(
                &pruned_m,
                &one,
                big_k,
                QueryTier::Pruned {
                    shortlist_factor: factor,
                },
            )
            .map_err(|e| e.to_string())?;
        let staged_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let truth = cpu
            .query_batch(&exact_m, &one, big_k)
            .map_err(|e| e.to_string())?;
        exact.push(t.elapsed().as_secs_f64() * 1e3);

        score.push(score_ms);
        rescore.push((staged_ms - score_ms).max(0.0));
        rec.push(recall(staged[0].topk.entries(), truth[0].topk.entries()));
    }
    let n = queries.len();
    let rows = shard.num_rows();
    out.set(
        "prune.score_ms",
        score.median(),
        n,
        format!(
            "PruneIndex::score_rows over {rows} rows, {}-bit",
            bits.bits()
        ),
    );
    out.set(
        "prune.rescore_ms",
        rescore.median(),
        n,
        format!("pruned-tier call (c = {factor}) minus the score pass"),
    );
    out.set(
        "prune.recall_at_k",
        rec.mean(),
        n,
        format!("pruned tier vs exact CpuTopK on a {rows}-row shard, K = {big_k}"),
    );
    out.set(
        "cpu.exact_ms",
        exact.median(),
        n,
        format!("CpuTopK(1) query_batch, B = 1, {rows} rows"),
    );
    Ok(())
}

/// Records `engine.overhead_ms` and `engine.pass_gbps` from the wall
/// times of whole engine calls, each one pass over `stream` bytes at
/// batch size `b`, given the summed per-partition core time of a pass.
pub fn engine_wall(out: &mut Outcome, stream: u64, core_ms: f64, walls: &mut Samples, b: usize) {
    let wall = walls.median();
    let threads = crate::probe::host_threads();
    out.set(
        "engine.overhead_ms",
        wall - core_ms / threads as f64,
        walls.len(),
        format!("engine call wall minus B = {b} core time / {threads} host threads"),
    );
    out.set(
        "engine.pass_gbps",
        stream as f64 / (wall * 1e6),
        walls.len(),
        format!("{stream} B per pass / median engine call wall"),
    );
}
