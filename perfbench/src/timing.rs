//! The traced run's instrumentation: an in-memory span recorder and a
//! timing [`TopKBackend`] wrapper that records one span per backend call
//! (and, traced or not, sums the time its query calls take).
//!
//! Spans are timed with wall clocks from outside the library; nothing
//! the engine reports about its own timing is used.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tkspmv::backend::{PreparedMatrix, QueryBatch, QueryResult, QueryTier, TopKBackend};
use tkspmv::EngineError;
use tkspmv_sparse::snapshot::SnapshotPayload;
use tkspmv_sparse::{Csr, DenseVector, PruneIndex};

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `engine.query_batch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Keys of the queries the call carried (see [`query_key`]).
    pub keys: Vec<u64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans while enabled; disabled, a record call is one atomic
/// load.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        // ordering: a plain on/off switch; the spans it gates are
        // published through the mutex, not through this flag.
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        // ordering: see set_enabled.
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to now, if enabled.
    pub fn record(&self, name: &'static str, start: Instant, keys: Vec<u64>) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
            keys,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Spans named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Spans as JSON lines, for writing out once the run is over.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"queries\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.keys.len()
            );
        }
        out
    }
}

/// A cheap identity for a query vector: the same values give the same
/// key wherever the vector travels (through the serving queue, over
/// the wire), so spans on both sides of a layer can be matched.
pub fn query_key(x: &[f32]) -> u64 {
    x.iter().take(16).fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// For each key, the `(end_ns, ms)` of every span that carried it, so a
/// request can find the backend calls that served it.
pub fn spans_by_key(spans: &[Span]) -> HashMap<u64, Vec<(u64, f64)>> {
    let mut map: HashMap<u64, Vec<(u64, f64)>> = HashMap::new();
    for s in spans {
        for &k in &s.keys {
            map.entry(k).or_default().push((s.end_ns, s.ms()));
        }
    }
    map
}

/// The longest span carrying `key` that ended inside `[from_ns, to_ns]`.
pub fn longest_in_window(
    map: &HashMap<u64, Vec<(u64, f64)>>,
    key: u64,
    from_ns: u64,
    to_ns: u64,
) -> Option<f64> {
    map.get(&key)?
        .iter()
        .filter(|(end, _)| (from_ns..=to_ns).contains(end))
        .map(|&(_, ms)| ms)
        .reduce(f64::max)
}

/// Busy time of a backend's query calls and the queries they carried.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub queries: u64,
    pub time: Duration,
}

impl Busy {
    /// What happened between `earlier` and this snapshot.
    pub fn since(self, earlier: Busy) -> Busy {
        Busy {
            queries: self.queries - earlier.queries,
            time: self.time - earlier.time,
        }
    }

    pub fn add(&mut self, other: Busy) {
        self.queries += other.queries;
        self.time += other.time;
    }
}

/// Forwards every [`TopKBackend`] call to `inner`, recording a
/// `"<layer>.<call>"` span per call while its recorder is enabled. The
/// wall time of every query call is summed whether or not it is.
pub struct TimedBackend {
    inner: Arc<dyn TopKBackend>,
    recorder: Arc<Recorder>,
    query_span: &'static str,
    prepare_span: &'static str,
    busy_ns: AtomicU64,
    queries: AtomicU64,
}

impl TimedBackend {
    /// `query_span` names the query calls, `prepare_span` the prepares.
    pub fn new(
        inner: Arc<dyn TopKBackend>,
        recorder: Arc<Recorder>,
        query_span: &'static str,
        prepare_span: &'static str,
    ) -> Self {
        Self {
            inner,
            recorder,
            query_span,
            prepare_span,
            busy_ns: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    /// Query calls' summed wall time and query count so far.
    pub fn busy(&self) -> Busy {
        // ordering: two independent running sums read after the calls
        // that fed them have returned; no other memory is published.
        Busy {
            queries: self.queries.load(Ordering::Relaxed),
            time: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
        }
    }

    fn add_busy(&self, start: Instant, queries: usize) {
        // ordering: see busy.
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.queries.fetch_add(queries as u64, Ordering::Relaxed);
    }

    fn keys(&self, batch: &QueryBatch) -> Vec<u64> {
        if self.recorder.enabled() {
            batch.iter().map(|x| query_key(x.as_slice())).collect()
        } else {
            Vec::new()
        }
    }
}

impl TopKBackend for TimedBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn family(&self) -> String {
        self.inner.family()
    }

    fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
        let t = Instant::now();
        let out = self.inner.prepare(csr);
        self.recorder.record(self.prepare_span, t, Vec::new());
        out
    }

    fn query(
        &self,
        matrix: &PreparedMatrix,
        x: &DenseVector,
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let t = Instant::now();
        let out = self.inner.query(matrix, x, k);
        self.add_busy(t, 1);
        let keys = if self.recorder.enabled() {
            vec![query_key(x.as_slice())]
        } else {
            Vec::new()
        };
        self.recorder.record(self.query_span, t, keys);
        out
    }

    fn query_batch(
        &self,
        matrix: &PreparedMatrix,
        batch: &QueryBatch,
        k: usize,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let t = Instant::now();
        let out = self.inner.query_batch(matrix, batch, k);
        self.add_busy(t, batch.len());
        self.recorder.record(self.query_span, t, self.keys(batch));
        out
    }

    fn query_batch_tiered(
        &self,
        matrix: &PreparedMatrix,
        batch: &QueryBatch,
        k: usize,
        tier: QueryTier,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let t = Instant::now();
        let out = self.inner.query_batch_tiered(matrix, batch, k, tier);
        self.add_busy(t, batch.len());
        self.recorder.record(self.query_span, t, self.keys(batch));
        out
    }

    fn snapshot_family(&self) -> String {
        self.inner.snapshot_family()
    }

    fn accepts_snapshot_family(&self, family: &str) -> bool {
        self.inner.accepts_snapshot_family(family)
    }

    fn snapshot_companion(
        &self,
        matrix: &PreparedMatrix,
    ) -> Result<Option<PruneIndex>, EngineError> {
        self.inner.snapshot_companion(matrix)
    }

    fn restore_payload_with_companion(
        &self,
        payload: SnapshotPayload,
        companion: Option<PruneIndex>,
    ) -> Result<PreparedMatrix, EngineError> {
        self.inner
            .restore_payload_with_companion(payload, companion)
    }

    fn snapshot_payload(&self, matrix: &PreparedMatrix) -> Result<SnapshotPayload, EngineError> {
        self.inner.snapshot_payload(matrix)
    }

    fn restore_payload(&self, payload: SnapshotPayload) -> Result<PreparedMatrix, EngineError> {
        self.inner.restore_payload(payload)
    }
}
