//! `fabric-mixed`: two in-process `NodeServer`s over loopback TCP hold
//! the Table III collection split by rows, each configured like the
//! `tkspmv_node` defaults (4-bit c = 8 `PrunedBackend` over
//! `CpuTopK(1)`, coalescing 32 / 500 µs, queue 1024), behind one
//! default `Router`. Two closed-loop clients alternate the exact and
//! pruned tiers at K = 100; the first also appends 8 rows every 16th
//! query and compacts the fleet every 256th. Unpaced: every query does
//! real work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tkspmv::backend::{QueryBatch, QueryTier, TopKBackend};
use tkspmv::{Accelerator, LoadedMatrix, PrunedBackend};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::{
    DeltaCollection, NodeClient, NodeServer, Router, RouterConfig, ShardSpec, SparseRow,
};
use tkspmv_fixed::PruneBits;
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::{Csr, DenseVector};

use crate::inputs::{self, mix};
use crate::probe;
use crate::stats::{recall, Samples};
use crate::timing::{longest_in_window, query_key, spans_by_key, Recorder, TimedBackend};
use crate::{layers, Outcome, RunConfig};

const DIM: usize = 1_024;
const K: usize = 100;
const NODES: usize = 2;
const BITS: PruneBits = PruneBits::Four;
const FACTOR: usize = 8;
const PRUNED: QueryTier = QueryTier::Pruned {
    shortlist_factor: FACTOR,
};
const APPEND_EVERY: usize = 16;
const APPEND_ROWS: usize = 8;
const COMPACT_EVERY: usize = 256;
/// The writer records the two queries after every 4th append (and after
/// every compaction) for an exact check against a rebuilt reference.
const VERIFY_EVERY_APPENDS: usize = 4;
/// Second half of the traced phase: every 8th writer query is repeated
/// against each node directly, to split router and wire time.
const DIRECT_EVERY: usize = 8;
const POOL: usize = 256;
const HELDOUT: usize = 16;

type Answer = Vec<(u32, f64)>;

struct Fleet {
    nodes: Vec<NodeServer>,
    router: Router,
}

impl Fleet {
    fn spawn(parts: &[(usize, Csr)], recorder: &Arc<Recorder>) -> Result<Self, String> {
        let mut nodes = Vec::new();
        for (first_row, part) in parts {
            let exact: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(1));
            let pruned = PrunedBackend::new(exact, BITS, FACTOR)
                .and_then(|p| p.with_threads(1))
                .map_err(|e| format!("pruned backend: {e}"))?;
            let backend = TimedBackend::new(
                Arc::new(pruned),
                Arc::clone(recorder),
                "node.backend",
                "node.prepare",
            );
            let service = TopKService::builder(Arc::new(backend))
                .shards(1)
                .batch_policy(BatchPolicy::coalescing(32, Duration::from_micros(500)))
                .queue_capacity(1024)
                .build(part)
                .map_err(|e| format!("node service: {e}"))?;
            let collection = DeltaCollection::new(service, part.clone(), *first_row);
            nodes.push(
                NodeServer::spawn(Arc::new(collection), "127.0.0.1:0")
                    .map_err(|e| format!("node bind: {e}"))?,
            );
        }
        let specs = nodes
            .iter()
            .map(|n| ShardSpec::single(n.local_addr().to_string()))
            .collect();
        let router = Router::connect(specs, RouterConfig::default())
            .map_err(|e| format!("router connect: {e}"))?;
        Ok(Self { nodes, router })
    }

    fn shutdown(self) {
        drop(self.router);
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// A writer-client answer kept for checking once the run is over.
struct Check {
    x: usize,
    tier: QueryTier,
    /// Rows the writer had appended (and seen acknowledged) before it.
    appended: usize,
    answer: Answer,
}

#[derive(Default)]
struct ClientLog {
    lat_ms: Samples,
    exact_ms: Samples,
    pruned_ms: Samples,
    append_ms: Samples,
    compact_ms: Samples,
    router_overhead_ms: Samples,
    answered: u64,
    ops: u64,
    failed: u64,
    malformed: u64,
    checks: Vec<Check>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        for (a, b) in [
            (&mut self.lat_ms, other.lat_ms),
            (&mut self.exact_ms, other.exact_ms),
            (&mut self.pruned_ms, other.pruned_ms),
            (&mut self.append_ms, other.append_ms),
            (&mut self.compact_ms, other.compact_ms),
            (&mut self.router_overhead_ms, other.router_overhead_ms),
        ] {
            for &v in b.values() {
                a.push(v);
            }
        }
        self.answered += other.answered;
        self.ops += other.ops;
        self.failed += other.failed;
        self.malformed += other.malformed;
        self.checks.extend(other.checks);
    }
}

/// The append/compact side of the writer client, carried across phases.
struct Writer {
    seed: u64,
    rows: Vec<SparseRow>,
    appends: usize,
}

/// Direct connections to every node, for the traced split.
struct Direct<'a> {
    clients: Vec<NodeClient>,
    recorder: &'a Recorder,
    /// `(key, from ns, to ns, ms)` of every direct node call.
    calls: Vec<(u64, u64, u64, f64)>,
}

fn client(
    router: &Router,
    pool: &[DenseVector],
    seconds: Duration,
    mut writer: Option<&mut Writer>,
    mut direct: Option<&mut Direct<'_>>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let deadline = router.deadline();
    let mut verify_next = 0;
    let start = Instant::now();
    let mut j = 0usize;
    while start.elapsed() < seconds {
        if let Some(w) = writer.as_deref_mut().filter(|_| j > 0) {
            if j.is_multiple_of(APPEND_EVERY) {
                let rows = inputs::rows(DIM, 12, mix(w.seed, w.appends as u64), APPEND_ROWS);
                let t = Instant::now();
                let res = router.append(&rows);
                log.ops += 1;
                match res {
                    Ok(ids) if ids.len() == rows.len() => {
                        log.append_ms.push_ms(t.elapsed());
                        w.rows.extend(rows);
                        w.appends += 1;
                        if w.appends.is_multiple_of(VERIFY_EVERY_APPENDS) {
                            verify_next = 2;
                        }
                    }
                    Ok(_) => log.malformed += 1,
                    Err(_) => log.failed += 1,
                }
            }
            if j.is_multiple_of(COMPACT_EVERY) {
                let t = Instant::now();
                log.ops += 1;
                match router.compact_all() {
                    Ok(_) => {
                        log.compact_ms.push_ms(t.elapsed());
                        verify_next = 2;
                    }
                    Err(_) => log.failed += 1,
                }
            }
        }
        let slot = j % pool.len();
        let x = pool[slot].as_slice();
        let tier = if j.is_multiple_of(2) {
            QueryTier::Exact
        } else {
            PRUNED
        };
        let t = Instant::now();
        let res = router.query(x, K, tier);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        log.ops += 1;
        match res {
            Ok(r) => {
                log.answered += 1;
                log.lat_ms.push(ms);
                match tier {
                    QueryTier::Exact => log.exact_ms.push(ms),
                    QueryTier::Pruned { .. } => log.pruned_ms.push(ms),
                }
                if r.topk.len() != K || !r.coverage.is_complete() {
                    log.malformed += 1;
                }
                if verify_next > 0 {
                    verify_next -= 1;
                    log.checks.push(Check {
                        x: slot,
                        tier,
                        appended: writer.as_deref().map_or(0, |w| w.rows.len()),
                        answer: r.topk.entries().to_vec(),
                    });
                }
            }
            Err(_) => log.failed += 1,
        }
        if let Some(d) = direct
            .as_deref_mut()
            .filter(|_| j.is_multiple_of(DIRECT_EVERY))
        {
            let key = query_key(x);
            let mut slowest = 0.0f64;
            for c in &mut d.clients {
                let t = Instant::now();
                let ok = c.query(x, K, tier, deadline).is_ok();
                let node_ms = t.elapsed().as_secs_f64() * 1e3;
                if ok {
                    slowest = slowest.max(node_ms);
                    d.calls.push((
                        key,
                        d.recorder.ns(t),
                        d.recorder.ns(Instant::now()),
                        node_ms,
                    ));
                }
            }
            log.router_overhead_ms.push(ms - slowest);
        }
        j += 1;
    }
    log
}

/// What one phase of both clients saw.
struct Phase {
    /// Both clients' logs merged.
    log: ClientLog,
    wall: Duration,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.log.absorb(other.log);
        self.wall += other.wall;
    }

    fn qps(&self) -> f64 {
        self.log.answered as f64 / self.wall.as_secs_f64()
    }
}

/// Runs both clients for `seconds`; the writer appends and compacts.
fn phase(
    router: &Router,
    pools: &[Vec<DenseVector>; 2],
    seconds: Duration,
    writer: &mut Writer,
    direct: Option<&mut Direct<'_>>,
) -> Phase {
    let start = Instant::now();
    let (mut log, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| client(router, &pools[1], seconds, None, None));
        let a = client(router, &pools[0], seconds, Some(writer), direct);
        (a, reader.join().expect("reader client panicked"))
    });
    let wall = start.elapsed();
    log.absorb(reader);
    Phase { log, wall }
}

fn router_counter(router: &Router, name: &str) -> f64 {
    router
        .render_metrics()
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0.0)
}

/// Set-up, [`crate::SETUPS_PER_SEGMENT`] times, each fleet replacing
/// the last: node services, listeners, router connect and warm-up.
/// Returns the last fleet.
fn set_up(
    parts: &[(usize, Csr)],
    pool: &[DenseVector],
    recorder: &Arc<Recorder>,
    setup: &mut Samples,
) -> Result<Fleet, String> {
    let mut fleet: Option<Fleet> = None;
    for _ in 0..crate::SETUPS_PER_SEGMENT {
        if let Some(old) = fleet.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let f = Fleet::spawn(parts, recorder)?;
        for (i, x) in pool.iter().take(4).enumerate() {
            let tier = if i.is_multiple_of(2) {
                QueryTier::Exact
            } else {
                PRUNED
            };
            f.router
                .query(x.as_slice(), K, tier)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        setup.push(t.elapsed().as_secs_f64());
        fleet = Some(f);
    }
    Ok(fleet.expect("SETUPS_PER_SEGMENT > 0 spawns a fleet"))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let csr = inputs::table3_collection(cfg.seed);
    let parts = csr.partition_rows(NODES);
    let pools = [
        inputs::queries(DIM, mix(cfg.seed, 300), POOL),
        inputs::queries(DIM, mix(cfg.seed, 301), POOL),
    ];
    let heldout = inputs::queries(DIM, cfg.heldout_seed, HELDOUT);
    let recorder = Recorder::new();

    // The nodes stream the CSR (f32 values, u32 columns, u64 row
    // pointers); bandwidth is read against a probe of that size.
    let stream = csr.nnz() * 8 + (csr.num_rows() + 1) * 8;
    let mut writer = Writer {
        seed: mix(cfg.seed, 400),
        rows: Vec::new(),
        appends: 0,
    };
    // Set-up is repeated between segments too, each time into a fleet
    // that is shut down, so its samples span the run as the probes do.
    let mut setup = Samples::new();
    let fleet = set_up(&parts, &pools[0], &recorder, &mut setup)?;
    let router = &fleet.router;
    let mut probes = vec![probe::stream_read(stream)];
    let mut plain = phase(router, &pools, cfg.segment(), &mut writer, None);
    for _ in 1..crate::SEGMENTS {
        probes.push(probe::stream_read(stream));
        set_up(&parts, &pools[0], &recorder, &mut setup)?.shutdown();
        plain.absorb(phase(router, &pools, cfg.segment(), &mut writer, None));
    }
    probes.push(probe::stream_read(stream));
    let mut traced = if cfg.trace {
        let mut direct = Direct {
            clients: fleet
                .nodes
                .iter()
                .map(|n| NodeClient::connect(n.local_addr(), Duration::from_secs(1)))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("direct node connect: {e}"))?,
            recorder: &recorder,
            calls: Vec::new(),
        };
        // The first half only records spans, so its rate against the
        // untraced phase is the tracing overhead; the second half adds
        // the direct node calls that split router and wire time.
        recorder.set_enabled(true);
        let mut p = phase(router, &pools, cfg.phase() / 2, &mut writer, None);
        let traced_qps = p.qps();
        p.absorb(phase(
            router,
            &pools,
            cfg.phase() / 2,
            &mut writer,
            Some(&mut direct),
        ));
        recorder.set_enabled(false);
        Some((p.log, traced_qps, direct.calls))
    } else {
        None
    };
    let probe_gbps = probe::denominator(&mut out, &mut probes);

    // Check: exact answers == unsharded CpuTopK over base + acknowledged
    // appends; pruned answers are scored by recall against it.
    let cpu = CpuTopK::new(probe::host_threads());
    let peak_rss = probe::peak_rss_mib();
    let mut checks: Vec<(&DenseVector, QueryTier, usize, Answer)> = Vec::new();
    for log in std::iter::once(&mut plain.log).chain(traced.as_mut().map(|t| &mut t.0)) {
        for c in log.checks.drain(..) {
            checks.push((&pools[0][c.x], c.tier, c.appended, c.answer));
        }
    }
    for x in &heldout {
        for tier in [QueryTier::Exact, PRUNED] {
            let r = router
                .query(x.as_slice(), K, tier)
                .map_err(|e| format!("held-out query: {e}"))?;
            checks.push((x, tier, writer.rows.len(), r.topk.entries().to_vec()));
        }
    }
    checks.sort_by_key(|c| c.2);
    let (mut exact_ok, mut exact_n, mut rec) = (0usize, 0usize, Samples::new());
    let mut mirror: Option<(usize, Csr)> = None;
    for (x, tier, appended, answer) in &checks {
        if mirror.as_ref().map(|m| m.0) != Some(*appended) {
            let m = csr
                .append_rows(&writer.rows[..*appended])
                .map_err(|e| format!("reference rebuild: {e}"))?;
            mirror = Some((*appended, m));
        }
        let reference = &mirror.as_ref().expect("mirror built above").1;
        let truth = cpu.run(reference, x.as_slice(), K);
        rec.push(recall(answer, truth.entries()));
        if *tier == QueryTier::Exact {
            exact_n += 1;
            exact_ok += usize::from(answer.as_slice() == truth.entries());
        }
    }
    let compactions =
        plain.log.compact_ms.len() + traced.as_ref().map_or(0, |t| t.0.compact_ms.len());
    out.note(format!(
        "{} checked answers ({exact_n} exact) over {} appends, {compactions} compactions",
        checks.len(),
        writer.appends
    ));
    out.check(
        "exact answers == unsharded CpuTopK over base + appends",
        exact_ok == exact_n,
    );
    for log in std::iter::once(&plain.log).chain(traced.as_ref().map(|t| &t.0)) {
        out.attempted += log.ops;
        out.failed += log.failed + log.malformed;
        out.check(
            "every routed call succeeded with full coverage and K rows",
            log.failed == 0 && log.malformed == 0,
        );
    }
    out.attempted += (2 * HELDOUT) as u64;
    out.failed += (exact_n - exact_ok) as u64;

    let qps = plain.qps();
    let mut plain = plain.log;
    out.set(
        "qps",
        qps,
        plain.answered as usize,
        "2 closed-loop clients, exact/pruned alternating, K = 100",
    );
    let lat = &mut plain.lat_ms;
    out.set(
        "p50_ms",
        lat.median(),
        lat.len(),
        "Router::query, both tiers",
    );
    out.set(
        "p99_ms",
        lat.percentile(99.0),
        lat.len(),
        format!("Router::query, both tiers, {} beyond", lat.beyond(99.0)),
    );
    out.set(
        "bw_efficiency",
        qps * stream as f64 / (probe_gbps * 1e9),
        plain.answered as usize,
        format!("qps x {stream} B CSR / {probe_gbps:.2} GB/s same-size read probe"),
    );
    out.set(
        "recall_at_k",
        rec.mean(),
        rec.len(),
        "checked answers (both tiers) vs exact CpuTopK over base + appends",
    );
    out.set(
        "setup_s",
        setup.median(),
        setup.len(),
        "median over the run of 2 node services + listeners + router connect + warm-up",
    );
    out.set("peak_rss_mb", peak_rss, 1, "VmHWM");
    if !cfg.trace {
        for (name, s) in [
            ("exact_p50_ms", &mut plain.exact_ms),
            ("pruned_p50_ms", &mut plain.pruned_ms),
            ("append_p50_ms", &mut plain.append_ms),
            ("compact_p50_ms", &mut plain.compact_ms),
        ] {
            out.set(name, s.median(), s.len(), "untraced phase");
        }
    }

    if let Some((mut log, traced_qps, calls)) = traced {
        let spans = recorder.named("node.backend");
        let by_key = spans_by_key(&spans);
        let mut wire = Samples::new();
        for &(key, from, to, ms) in &calls {
            if let Some(backend_ms) = longest_in_window(&by_key, key, from, to) {
                wire.push(ms - backend_ms);
            }
        }
        out.set(
            "wire.rtt_ms",
            wire.median(),
            wire.len(),
            "NodeClient::query minus the node's backend call",
        );
        let ro = &mut log.router_overhead_ms;
        out.set(
            "router.overhead_ms",
            ro.median(),
            ro.len(),
            "Router::query minus slowest direct NodeClient::query",
        );
        out.set(
            "router.failovers",
            router_counter(router, "tkspmv_router_failovers_total"),
            1,
            "Router::render_metrics",
        );
        out.set(
            "router.hedges",
            router_counter(router, "tkspmv_router_hedged_sends_total"),
            1,
            "Router::render_metrics",
        );
        for (name, s, what) in [
            (
                "delta.append_ms",
                &mut log.append_ms,
                "Router::append of 8 rows",
            ),
            (
                "delta.compact_ms",
                &mut log.compact_ms,
                "Router::compact_all",
            ),
            (
                "prune.tier_p50_ms",
                &mut log.pruned_ms,
                "pruned-tier Router::query",
            ),
        ] {
            out.set(name, s.median(), s.len(), what);
        }
        let mut backend_ms: Samples = spans.iter().map(|s| s.ms()).collect();
        let sizes: Samples = spans.iter().map(|s| s.keys.len() as f64).collect();
        out.set(
            "serve.backend_ms",
            backend_ms.median(),
            backend_ms.len(),
            "node backend call (timing wrapper)",
        );
        out.set(
            "serve.batch_size",
            sizes.mean(),
            sizes.len(),
            "mean queries per node backend call",
        );
        out.set(
            "engine.probe_gbps",
            probe_gbps,
            probes.len(),
            "same-size streaming read, pooled over the probes around the segments",
        );
        probe::dram(&mut out);

        // Controls: the engine and prune layers over the same
        // collection, which this workload's nodes never call.
        let accel = Accelerator::builder()
            .build()
            .map_err(|e| format!("accelerator: {e}"))?;
        let t = Instant::now();
        let matrix = accel.prepare(&csr).map_err(|e| e.to_string())?;
        out.set(
            "sparse.encode_s",
            t.elapsed().as_secs_f64(),
            1,
            "control: TopKBackend::prepare on Accelerator",
        );
        let loaded: &LoadedMatrix = matrix
            .downcast(&accel.family())
            .map_err(|e| e.to_string())?;
        let batch = QueryBatch::new(pools[1][..32].to_vec()).map_err(|e| e.to_string())?;
        let core_ms = layers::engine(&mut out, loaded, accel.config().k, K, batch.queries())?;
        let mut walls = Samples::new();
        for _ in 0..5 {
            let t = Instant::now();
            TopKBackend::query_batch(&accel, &matrix, &batch, K).map_err(|e| e.to_string())?;
            walls.push_ms(t.elapsed());
        }
        layers::engine_wall(&mut out, loaded.size_bytes(), core_ms, &mut walls, 32);
        let shard_queries = inputs::queries(DIM, mix(cfg.heldout_seed, 7), 8);
        layers::prune_and_cpu(&mut out, &parts[0].1, &shard_queries, K, BITS, FACTOR)?;
        out.set(
            "trace.overhead_frac",
            1.0 - traced_qps / qps,
            2,
            "1 - traced qps / untraced qps, before the direct node calls start",
        );
        out.set(
            "trace.spans",
            recorder.spans().len() as f64,
            1,
            "spans recorded",
        );
        out.spans_jsonl = Some(recorder.to_jsonl());
    }
    fleet.shutdown();
    Ok(out)
}
