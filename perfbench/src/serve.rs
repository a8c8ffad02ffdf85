//! `serve-72k-open`: one thread submits to a two-shard `TopKService`
//! (accelerator with 8 cores and k = 16 per shard, default
//! `BatchPolicy`, K = 32) on a seeded Poisson schedule at a fixed rate;
//! the calling thread collects the tickets in order. Latency counts from
//! each request's due time, so generator stalls show.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tkspmv::backend::{PreparedMatrix, TopKBackend};
use tkspmv::{Accelerator, LoadedMatrix, TopKResult};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fixed::PruneBits;
use tkspmv_serve::{ServeError, TopKService};
use tkspmv_sparse::gen::Rng64;
use tkspmv_sparse::DenseVector;

use crate::inputs::{self, mix};
use crate::probe;
use crate::stats::{recall, Samples};
use crate::timing::{longest_in_window, query_key, spans_by_key, Busy, Recorder, TimedBackend};
use crate::{layers, Outcome, RunConfig};

const DIM: usize = 256;
const K: usize = 32;
const SHARDS: usize = 2;
/// Distinct queries the schedule cycles through; every answer is checked
/// against the per-shard direct reference of its query.
const POOL: usize = 512;
const HELDOUT: usize = 64;
/// Offered load, queries/s: about 1/7 of the ~3,700/s capacity measured
/// on a 2-vCPU host, so the service stays far from saturation even when
/// the host runs 30% slower than usual.
const RATE: f64 = 500.0;

type Answer = Vec<(u32, f64)>;

/// What one open-loop phase saw.
struct Phase {
    lat_ms: Samples,
    lag_ms: Samples,
    answered: u64,
    refused: u64,
    failed: u64,
    wrong: u64,
    elapsed: Duration,
    /// The backend's query calls during the phase.
    busy: Busy,
    /// `(pool slot, due ns, done ns)` of every answered request.
    done: Vec<(usize, u64, u64)>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.lat_ms.append(&other.lat_ms);
        self.lag_ms.append(&other.lag_ms);
        self.answered += other.answered;
        self.refused += other.refused;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.elapsed += other.elapsed;
        self.busy.add(other.busy);
        self.done.extend(other.done);
    }
}

fn open_loop(
    svc: &TopKService,
    backend: &TimedBackend,
    pool: &[DenseVector],
    refs: &[Answer],
    seconds: Duration,
    seed: u64,
    recorder: &Recorder,
) -> Phase {
    let mut phase = Phase {
        lat_ms: Samples::new(),
        lag_ms: Samples::new(),
        answered: 0,
        refused: 0,
        failed: 0,
        wrong: 0,
        elapsed: Duration::ZERO,
        busy: Busy::default(),
        done: Vec::new(),
    };
    let busy = backend.busy();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<_, ServeError>)>();
    let start = Instant::now();
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut rng = Rng64::new(seed);
            let mut lag = Samples::new();
            let mut due = start;
            for i in 0.. {
                due += Duration::from_secs_f64(-(1.0 - rng.next_f64()).ln() / RATE);
                if due.duration_since(start) >= seconds {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lag.push_ms(Instant::now().duration_since(due));
                let slot = i % pool.len();
                if tx
                    .send((slot, due, svc.submit(pool[slot].clone(), K)))
                    .is_err()
                {
                    break;
                }
            }
            lag
        });
        for (slot, due, submitted) in rx {
            match submitted.map(|ticket| ticket.wait()) {
                Ok(Ok(res)) => {
                    let done = Instant::now();
                    phase.lat_ms.push_ms(done.duration_since(due));
                    phase.answered += 1;
                    if res.topk.entries() != refs[slot].as_slice() {
                        phase.wrong += 1;
                    }
                    if recorder.enabled() {
                        phase.done.push((slot, recorder.ns(due), recorder.ns(done)));
                    }
                }
                Err(ServeError::QueueFull { .. }) => phase.refused += 1,
                Ok(Err(_)) | Err(_) => phase.failed += 1,
            }
        }
        phase.lag_ms = generator.join().expect("generator thread panicked");
    });
    phase.elapsed = start.elapsed();
    phase.busy = backend.busy().since(busy);
    phase
}

/// Set-up, [`crate::SETUPS_PER_SEGMENT`] times, each service replacing
/// the last: both shard prepares, service start and 16 warm-up queries.
/// Returns the last service.
fn set_up(
    backend: &Arc<TimedBackend>,
    csr: &tkspmv_sparse::Csr,
    pool: &[DenseVector],
    setup: &mut Samples,
) -> Result<TopKService, String> {
    let mut service = None;
    for _ in 0..crate::SETUPS_PER_SEGMENT {
        if let Some(old) = service.take() {
            let _ = TopKService::shutdown(old);
        }
        let t = Instant::now();
        let svc = TopKService::builder(Arc::clone(backend) as Arc<dyn TopKBackend>)
            .shards(SHARDS)
            .build(csr)
            .map_err(|e| format!("service build: {e}"))?;
        for x in pool.iter().take(16) {
            svc.query(x.clone(), K)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        setup.push(t.elapsed().as_secs_f64());
        service = Some(svc);
    }
    Ok(service.expect("SETUPS_PER_SEGMENT > 0 builds a service"))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let csr = inputs::serve_collection(cfg.seed);
    let pool = inputs::queries(DIM, mix(cfg.seed, 200), POOL);
    let heldout = inputs::queries(DIM, cfg.heldout_seed, HELDOUT);

    let accel = Accelerator::builder()
        .cores(8)
        .k(16)
        .build()
        .map_err(|e| format!("accelerator: {e}"))?;
    let family = accel.family();
    let recorder = Recorder::new();
    let backend = Arc::new(TimedBackend::new(
        Arc::new(accel.clone()),
        Arc::clone(&recorder),
        "engine.query_batch",
        "sparse.prepare",
    ));

    // Set-up is repeated between segments too, each time into a service
    // that is shut down, so its samples span the run as the probes do.
    let mut setup = Samples::new();
    let svc = set_up(&backend, &csr, &pool, &mut setup)?;

    // The per-shard direct reference: each shard queried alone, merged.
    let t = Instant::now();
    let shards =
        PreparedMatrix::prepare_row_shards(&accel, &csr, SHARDS).map_err(|e| e.to_string())?;
    let encode_s = t.elapsed().as_secs_f64();
    let reference = |x: &DenseVector| -> Result<Answer, String> {
        let mut pairs = Vec::new();
        for s in &shards {
            let r = TopKBackend::query(&accel, s.matrix(), x, K).map_err(|e| e.to_string())?;
            pairs.extend(s.globalize(&r.topk));
        }
        Ok(TopKResult::merge_pairs(pairs, K).entries().to_vec())
    };
    let refs: Vec<Answer> = pool.iter().map(reference).collect::<Result<_, _>>()?;
    let stream: u64 = shards
        .iter()
        .map(|s| {
            s.matrix()
                .downcast::<LoadedMatrix>(&family)
                .map(LoadedMatrix::size_bytes)
        })
        .sum::<Result<u64, _>>()
        .map_err(|e| e.to_string())?;

    let segment = |i: u32| {
        open_loop(
            &svc,
            &backend,
            &pool,
            &refs,
            cfg.segment(),
            mix(cfg.seed, u64::from(i)),
            &recorder,
        )
    };
    let mut probes = vec![probe::stream_read(stream as usize)];
    let mut plain = segment(0);
    for i in 1..crate::SEGMENTS {
        probes.push(probe::stream_read(stream as usize));
        let _ = set_up(&backend, &csr, &pool, &mut setup)?.shutdown();
        plain.absorb(segment(i));
    }
    probes.push(probe::stream_read(stream as usize));
    let traced = cfg.trace.then(|| {
        recorder.set_enabled(true);
        let p = open_loop(
            &svc,
            &backend,
            &pool,
            &refs,
            cfg.phase(),
            mix(cfg.seed, u64::from(crate::SEGMENTS)),
            &recorder,
        );
        recorder.set_enabled(false);
        p
    });
    let probe_gbps = probe::denominator(&mut out, &mut probes);
    let peak_rss = probe::peak_rss_mib();

    for p in std::iter::once(&plain).chain(traced.as_ref()) {
        out.attempted += p.answered + p.refused + p.failed;
        out.failed += p.refused + p.failed + p.wrong;
        out.check(
            "every served answer == per-shard reference merged",
            p.wrong == 0 && p.failed == 0,
        );
    }

    // Held-out queries through the service: identity and recall.
    let cpu = CpuTopK::new(probe::host_threads());
    let (mut identical, mut rec) = (0usize, Samples::new());
    for x in &heldout {
        let got = svc
            .query(x.clone(), K)
            .map_err(|e| format!("held-out query: {e}"))?;
        identical += usize::from(got.topk.entries() == reference(x)?.as_slice());
        rec.push(recall(
            got.topk.entries(),
            cpu.run(&csr, x.as_slice(), K).entries(),
        ));
    }
    out.attempted += HELDOUT as u64;
    out.failed += (HELDOUT - identical) as u64;
    out.check(
        "held-out served answers == per-shard reference merged",
        identical == HELDOUT,
    );
    let _ = svc.shutdown();

    out.note(format!(
        "open loop: Poisson {RATE}/s for {:.1} s, generator lag p99 {:.3} ms, max {:.3} ms",
        cfg.phase().as_secs_f64(),
        plain.lag_ms.percentile(99.0),
        plain.lag_ms.max()
    ));
    out.set(
        "qps",
        plain.answered as f64 / plain.elapsed.as_secs_f64(),
        plain.answered as usize,
        format!("answered / wall: the offered {RATE}/s while the service keeps up"),
    );
    let lat = &mut plain.lat_ms;
    out.set(
        "p50_ms",
        lat.median(),
        lat.len(),
        "from each request's due time",
    );
    out.set(
        "p99_ms",
        lat.percentile(99.0),
        lat.len(),
        format!("from due time, {} beyond", lat.beyond(99.0)),
    );
    // Every query reaches each shard once, so a backend call carrying
    // `b` queries streams `b` shards' worth of bytes; the rate is taken
    // over the time the backend was busy, as the offered load is fixed.
    let busy = plain.busy;
    let busy_gbps =
        busy.queries as f64 * (stream as f64 / SHARDS as f64) / busy.time.as_secs_f64() / 1e9;
    out.set(
        "bw_efficiency",
        busy_gbps / probe_gbps,
        busy.queries as usize,
        format!(
            "{busy_gbps:.3} GB/s query-equivalent BS-CSR bytes per backend-busy second \
             ({} queries in {:.3} s of shard calls) / {probe_gbps:.2} GB/s probe",
            busy.queries,
            busy.time.as_secs_f64()
        ),
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
        "median over the run of service build (2 shard prepares) + 16 warm-up queries",
    );
    out.set("peak_rss_mb", peak_rss, 1, "VmHWM");

    if let Some(mut traced) = traced {
        let calls = recorder.spans();
        let by_key = spans_by_key(&calls);
        let mut wait = Samples::new();
        for &(slot, due, done) in &traced.done {
            let key = query_key(pool[slot].as_slice());
            if let Some(backend_ms) = longest_in_window(&by_key, key, due, done) {
                wait.push((done - due) as f64 / 1e6 - backend_ms);
            }
        }
        let mut backend_ms: Samples = calls.iter().map(|s| s.ms()).collect();
        let sizes: Samples = calls.iter().map(|s| s.keys.len() as f64).collect();
        out.set(
            "serve.wait_p50_ms",
            wait.median(),
            wait.len(),
            "latency from due time minus its slowest shard backend call",
        );
        out.set(
            "serve.wait_p99_ms",
            wait.percentile(99.0),
            wait.len(),
            format!("{} beyond", wait.beyond(99.0)),
        );
        out.set(
            "serve.batch_size",
            sizes.mean(),
            sizes.len(),
            "mean queries per shard backend call",
        );
        out.set(
            "serve.backend_ms",
            backend_ms.median(),
            backend_ms.len(),
            "per shard backend call (timing wrapper)",
        );
        out.set(
            "serve.refused",
            traced.refused as f64,
            traced.answered as usize,
            "QueueFull",
        );
        out.set(
            "serve.gen_lag_p99_ms",
            traced.lag_ms.percentile(99.0),
            traced.lag_ms.len(),
            "submit time minus due time",
        );
        out.set(
            "sparse.encode_s",
            encode_s,
            SHARDS,
            "TopKBackend::prepare of both shards",
        );
        out.set(
            "engine.probe_gbps",
            probe_gbps,
            probes.len(),
            "same-size streaming read, pooled over the probes around the segments",
        );
        probe::dram(&mut out);
        let b = (sizes.mean().round() as usize).clamp(1, POOL);
        let shard0 = shards[0]
            .matrix()
            .downcast::<LoadedMatrix>(&family)
            .map_err(|e| e.to_string())?;
        let core_ms = layers::engine(&mut out, shard0, accel.config().k, K, &pool[..b])?;
        layers::engine_wall(&mut out, shard0.size_bytes(), core_ms, &mut backend_ms, b);
        let shard = csr.partition_rows(SHARDS).swap_remove(0).1;
        let shard_queries = inputs::queries(DIM, mix(cfg.heldout_seed, 7), 16);
        layers::prune_and_cpu(&mut out, &shard, &shard_queries, K, PruneBits::Four, 8)?;
        out.set(
            "trace.overhead_frac",
            traced.lat_ms.median() / plain.lat_ms.median() - 1.0,
            2,
            "traced p50 / untraced p50 - 1",
        );
        out.set("trace.spans", calls.len() as f64, 1, "spans recorded");
        out.spans_jsonl = Some(recorder.to_jsonl());
    }
    Ok(out)
}
