//! `table3-batch32`: one thread runs a closed loop of
//! `TopKBackend::query_batch` (B = 32, K = 100) on the paper-default
//! accelerator (Q1.19, 32 cores, k = 8) over the Table III gamma
//! collection. Decode, score, per-partition top-k and the 32-way
//! fan-out do nearly all the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tkspmv::backend::{PreparedMatrix, QueryBatch, TopKBackend};
use tkspmv::{Accelerator, LoadedMatrix};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fixed::PruneBits;

use crate::inputs::{self, mix};
use crate::probe;
use crate::stats::{recall, Samples};
use crate::timing::{Recorder, TimedBackend};
use crate::{layers, Outcome, RunConfig};

const DIM: usize = 1_024;
const K: usize = 100;
const B: usize = 32;
/// Distinct batches the loop cycles through; every answer is checked
/// against the B = 1 reference of its query.
const POOL: usize = 4;

type Answer = Vec<(u32, f64)>;

/// What one timed closed-loop phase saw.
struct Phase {
    lat_ms: Samples,
    answered: u64,
    failed: u64,
    wrong: u64,
    elapsed: Duration,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.lat_ms.append(&other.lat_ms);
        self.answered += other.answered;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.elapsed += other.elapsed;
    }

    fn qps(&self) -> f64 {
        self.answered as f64 / self.elapsed.as_secs_f64()
    }
}

fn closed_loop(
    backend: &dyn TopKBackend,
    matrix: &PreparedMatrix,
    pool: &[QueryBatch],
    refs: &[Vec<Answer>],
    seconds: Duration,
) -> Phase {
    let mut phase = Phase {
        lat_ms: Samples::new(),
        answered: 0,
        failed: 0,
        wrong: 0,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < seconds {
        let slot = i % pool.len();
        let t = Instant::now();
        let res = backend.query_batch(matrix, &pool[slot], K);
        phase.lat_ms.push_ms(t.elapsed());
        match res {
            Ok(results) => {
                phase.answered += results.len() as u64;
                phase.wrong += results
                    .iter()
                    .zip(&refs[slot])
                    .filter(|(r, want)| r.topk.entries() != want.as_slice())
                    .count() as u64;
            }
            Err(_) => phase.failed += pool[slot].len() as u64,
        }
        i += 1;
    }
    phase.elapsed = start.elapsed();
    phase
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let csr = inputs::table3_collection(cfg.seed);
    let batch = |seed| QueryBatch::new(inputs::queries(DIM, seed, B)).map_err(|e| e.to_string());
    let pool: Vec<QueryBatch> = (0..POOL as u64)
        .map(|i| batch(mix(cfg.seed, 100 + i)))
        .collect::<Result<_, _>>()?;
    let heldout = batch(cfg.heldout_seed)?;

    let accel = Accelerator::builder()
        .build()
        .map_err(|e| format!("accelerator: {e}"))?;
    let family = accel.family();
    let recorder = Recorder::new();
    let backend = TimedBackend::new(
        Arc::new(accel.clone()),
        Arc::clone(&recorder),
        "engine.query_batch",
        "sparse.prepare",
    );

    // Set-up is encode and warm-up. It is repeated between segments too,
    // each time into a matrix that is dropped, so its samples span the
    // run as the probes do.
    let (mut setup, mut encode) = (Samples::new(), Samples::new());
    let mut set_up = || -> Result<PreparedMatrix, String> {
        let mut matrix = None;
        for _ in 0..crate::SETUPS_PER_SEGMENT {
            drop(matrix.take());
            let t = Instant::now();
            let m = backend.prepare(&csr).map_err(|e| format!("prepare: {e}"))?;
            encode.push(t.elapsed().as_secs_f64());
            backend
                .query_batch(&m, &pool[0], K)
                .map_err(|e| format!("warm-up: {e}"))?;
            setup.push(t.elapsed().as_secs_f64());
            matrix = Some(m);
        }
        Ok(matrix.expect("SETUPS_PER_SEGMENT > 0 builds a matrix"))
    };
    let matrix = set_up()?;
    let stream = matrix
        .downcast::<LoadedMatrix>(&family)
        .map_err(|e| e.to_string())?
        .size_bytes() as usize;

    // B = 1 reference answers for every pooled query.
    let refs: Vec<Vec<Answer>> = pool
        .iter()
        .map(|b| {
            b.iter()
                .map(|x| {
                    backend
                        .query(&matrix, x, K)
                        .map(|r| r.topk.entries().to_vec())
                })
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference: {e}"))?;

    let mut probes = vec![probe::stream_read(stream)];
    let mut plain = closed_loop(&backend, &matrix, &pool, &refs, cfg.segment());
    for _ in 1..crate::SEGMENTS {
        probes.push(probe::stream_read(stream));
        drop(set_up()?);
        plain.absorb(closed_loop(&backend, &matrix, &pool, &refs, cfg.segment()));
    }
    probes.push(probe::stream_read(stream));
    let traced = cfg.trace.then(|| {
        recorder.set_enabled(true);
        let p = closed_loop(&backend, &matrix, &pool, &refs, cfg.phase());
        recorder.set_enabled(false);
        p
    });
    let loaded: &LoadedMatrix = matrix.downcast(&family).map_err(|e| e.to_string())?;
    let probe_gbps = probe::denominator(&mut out, &mut probes);
    let peak_rss = probe::peak_rss_mib();

    for p in std::iter::once(&plain).chain(traced.as_ref()) {
        out.attempted += p.answered + p.failed;
        out.failed += p.failed + p.wrong;
        out.check(
            format!("every timed B={B} answer == its B=1 reference"),
            p.wrong == 0 && p.failed == 0,
        );
    }

    // Held-out queries: batch == singles, and recall against exact.
    let batched = backend
        .query_batch(&matrix, &heldout, K)
        .map_err(|e| format!("held-out batch: {e}"))?;
    let cpu = CpuTopK::new(probe::host_threads());
    let (mut identical, mut rec) = (0usize, Samples::new());
    for (x, got) in heldout.iter().zip(&batched) {
        let single = backend
            .query(&matrix, x, K)
            .map_err(|e| format!("held-out single: {e}"))?;
        identical += usize::from(single.topk.entries() == got.topk.entries());
        let truth = cpu.run(&csr, x.as_slice(), K);
        rec.push(recall(got.topk.entries(), truth.entries()));
    }
    out.attempted += heldout.len() as u64;
    out.failed += (heldout.len() - identical) as u64;
    out.check(
        format!("held-out B={B} batch == {B} B=1 queries"),
        identical == heldout.len(),
    );

    out.set(
        "qps",
        plain.qps(),
        plain.answered as usize,
        format!("closed loop, 1 thread, B = {B}, K = {K}"),
    );
    let lat = &mut plain.lat_ms;
    out.set("p50_ms", lat.median(), lat.len(), "per query_batch call");
    out.set(
        "p99_ms",
        lat.percentile(99.0),
        lat.len(),
        format!("per query_batch call, {} beyond", lat.beyond(99.0)),
    );
    out.set(
        "bw_efficiency",
        plain.qps() * stream as f64 / (probe_gbps * 1e9),
        plain.answered as usize,
        format!("qps x {stream} B BS-CSR stream / {probe_gbps:.2} GB/s same-size read probe"),
    );
    out.set(
        "recall_at_k",
        rec.mean(),
        rec.len(),
        format!("held-out queries vs exact CpuTopK, K = {K}"),
    );
    out.set(
        "setup_s",
        setup.median(),
        setup.len(),
        "median over the run of encode + warm-up",
    );
    out.set("peak_rss_mb", peak_rss, 1, "VmHWM");

    if let Some(mut traced) = traced {
        out.set(
            "sparse.encode_s",
            encode.median(),
            encode.len(),
            "TopKBackend::prepare on Accelerator",
        );
        out.set(
            "engine.probe_gbps",
            probe_gbps,
            probes.len(),
            "same-size streaming read, pooled over the probes around the segments",
        );
        probe::dram(&mut out);
        let core_ms = layers::engine(&mut out, loaded, accel.config().k, K, pool[0].queries())?;
        layers::engine_wall(&mut out, stream as u64, core_ms, &mut traced.lat_ms, B);
        let shard = csr.partition_rows(2).swap_remove(0).1;
        let shard_queries = inputs::queries(DIM, mix(cfg.heldout_seed, 7), 8);
        layers::prune_and_cpu(&mut out, &shard, &shard_queries, K, PruneBits::Four, 8)?;
        out.set(
            "trace.overhead_frac",
            1.0 - traced.qps() / plain.qps(),
            2,
            "1 - traced qps / untraced qps",
        );
        out.set(
            "trace.spans",
            recorder.spans().len() as f64,
            1,
            "spans recorded",
        );
        out.spans_jsonl = Some(recorder.to_jsonl());
    }
    Ok(out)
}
