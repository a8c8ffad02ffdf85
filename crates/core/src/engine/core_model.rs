//! Single-core emulation of the 4-stage dataflow pipeline (Algorithm 1).

use tkspmv_fixed::SpmvScalar;
use tkspmv_sparse::{BsCsr, PacketScratch};

use crate::topk::TopKTracker;

/// How faithfully the emulator mirrors the RTL's resource-saving
/// shortcuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Mirror the hardware exactly: at most `rows_per_packet` (`r`) rows
    /// finishing in a single packet are offered to the Top-K stage;
    /// later finishers in the same packet are dropped (§IV-B motivates
    /// `B/4 < r < B/2` as accuracy-neutral).
    Faithful {
        /// `r`: row-completion slots per packet.
        rows_per_packet: u32,
    },
    /// No `r` limit: every finished row reaches the Top-K stage. Used as
    /// the reference for the `r` ablation.
    Reference,
}

/// Statistics gathered while a core processes its packet stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Packets consumed (one per cycle in steady state).
    pub packets: u64,
    /// Entries processed, including empty-row placeholders.
    pub entries: u64,
    /// Rows completed and offered to the Top-K stage.
    pub rows_finished: u64,
    /// Rows dropped by the `r` limit (only in [`Fidelity::Faithful`]).
    pub rows_dropped: u64,
    /// Candidates accepted into the scratchpad.
    pub topk_accepted: u64,
}

/// Result of one core run: the per-partition top-k plus statistics.
#[derive(Debug, Clone)]
pub struct CoreOutput<A> {
    /// `(local_row, accumulator)` pairs sorted by value descending.
    pub topk: Vec<(u32, A)>,
    /// Execution statistics.
    pub stats: CoreStats,
}

/// One query's resident state inside a [`BatchScratch`]: its Top-K
/// scratchpad plus the partial sum of the row left open by the previous
/// packet.
#[derive(Debug, Clone)]
struct QueryLane<S: SpmvScalar> {
    tracker: TopKTracker<S::Acc>,
    carry: S::Acc,
}

/// One row segment of the current chunk, precomputed **once** per
/// chunk of packets and replayed by every query lane: entry range,
/// destination row, whether the segment starts from the previous
/// chunk's carry, and whether the finished row is offered to the Top-K
/// stage (the `r`-limit gate). All of it is a property of the matrix
/// and the fidelity, never of the query.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u32,
    end: u32,
    row: u32,
    use_carry: bool,
    offer: bool,
}

/// Packets decoded per chunk before the lane sweep. Large enough to
/// amortise the per-lane loop entry/exit over many packets (and to
/// merge most cross-packet row segments), small enough that the flat
/// `dvals`/`cidx` chunk stays inside L1 alongside a query vector.
const CHUNK_PACKETS: usize = 64;

/// Query lanes replayed together by one pass over a chunk: a full block
/// holds one query value per lane for every column, so each matrix entry
/// costs one load of its value and index, one gather of `LANES` query
/// values, and `LANES` independent multiply-accumulates. On baseline
/// x86-64 the f32 lanes compile to packed SIMD; the fixed-point lanes
/// stay scalar (SSE2 has no 64-bit unsigned compare for the saturating
/// add) but still share the loads and run as independent chains.
pub(crate) const LANES: usize = 8;

/// A batch's queries laid out for the lane replay, built once per batch
/// and read by every partition.
///
/// The first `full * LANES` queries sit in column-major blocks
/// (`blocks[j * cols + c][l]` is column `c` of query `j * LANES + l`);
/// the `B mod LANES` remaining queries stay row-major in `rest` and take
/// the scalar lane pass, so small batches never pay for padded lanes.
#[derive(Debug, Clone)]
pub(crate) struct QueryBlock<S> {
    /// Entries kept per query: the shortest query's length.
    cols: usize,
    /// Queries in the batch.
    lanes: usize,
    /// Full lane blocks, column-major.
    blocks: Vec<[S; LANES]>,
    /// The remainder queries, row-major.
    rest: Vec<S>,
}

impl<S> Default for QueryBlock<S> {
    // alloc-ok(fn): empty vecs, allocation-free until the first fill.
    fn default() -> Self {
        Self {
            cols: 0,
            lanes: 0,
            blocks: Vec::new(),
            rest: Vec::new(),
        }
    }
}

impl<S: SpmvScalar> QueryBlock<S> {
    /// Refills the block from `queries`, reusing its capacity.
    pub(crate) fn fill<Q: AsRef<[S]>>(&mut self, queries: &[Q]) {
        let cols = queries.iter().map(|q| q.as_ref().len()).min().unwrap_or(0);
        let full = queries.len() / LANES;
        self.cols = cols;
        self.lanes = queries.len();
        self.blocks.clear();
        for group in queries[..full * LANES].chunks_exact(LANES) {
            self.blocks
                .extend((0..cols).map(|c| std::array::from_fn(|l| group[l].as_ref()[c])));
        }
        self.rest.clear();
        for q in &queries[full * LANES..] {
            self.rest.extend_from_slice(&q.as_ref()[..cols]);
        }
    }

    /// Queries in the batch.
    pub(crate) fn len(&self) -> usize {
        self.lanes
    }

    /// Where the full blocks live, so tests can tell reuse from rebuild.
    #[cfg(test)]
    pub(crate) fn blocks_ptr(&self) -> *const [S; LANES] {
        self.blocks.as_ptr()
    }
}

/// Reusable working memory for [`run_core_batch_with_scratch`]: the
/// decoded packet fields, the once-per-packet decoded matrix values, and
/// one resident lane (Top-K tracker + carry) per query in the batch.
///
/// Allocate one per worker thread and stream every batch through it.
/// Lane and output buffers only ever grow to the largest batch size
/// seen, and every per-packet buffer is capacity-warm after the first
/// few packets, so the steady-state loop performs zero heap allocations
/// per packet — *independent of both the packet count and the batch
/// size* (asserted by the `zero_alloc` integration test). That is what
/// lets the software model be bandwidth- rather than allocator-bound.
/// The multi-core engine keeps one resident on every executor thread.
#[derive(Debug, Clone)]
pub struct BatchScratch<S: SpmvScalar> {
    /// The stream and lane state of a pass.
    pub(crate) core: CoreState<S>,
    /// The batch's query block when the caller passes plain query
    /// slices ([`run_core_batch_with_scratch`]); the multi-core engine
    /// shares one block across partitions instead.
    block: QueryBlock<S>,
}

/// Everything a core pass mutates except the queries.
#[derive(Debug, Clone)]
pub(crate) struct CoreState<S: SpmvScalar> {
    /// Decoded packet fields (`row_ends` / `idx` / `val`).
    packet: PacketScratch,
    /// The current chunk's values decoded into the scalar domain —
    /// computed once per chunk of packets, shared by every query lane.
    dvals: Vec<S>,
    /// The current chunk's column indices, flattened across its packets.
    cidx: Vec<u32>,
    /// The current chunk's segment program — computed once, replayed by
    /// every query lane. Rows spanning packets inside the chunk appear
    /// as one merged segment (the running-sum order is unchanged).
    segs: Vec<Segment>,
    /// Per-query resident state; `lanes[..B]` are active, the rest keep
    /// their warm capacity for a later, larger batch.
    lanes: Vec<QueryLane<S>>,
    /// Per-query outputs, reusing each lane's sorted-topk buffer across
    /// batches.
    outputs: Vec<CoreOutput<S::Acc>>,
}

impl<S: SpmvScalar> BatchScratch<S> {
    /// Creates an empty scratch; the first batch sizes its buffers.
    // alloc-ok(fn): cold constructor — the empty vecs here are the
    // buffers whose reuse makes the batch loop allocation-free.
    pub fn new() -> Self {
        Self {
            core: CoreState {
                packet: PacketScratch::new(),
                dvals: Vec::new(),
                cidx: Vec::new(),
                segs: Vec::new(),
                lanes: Vec::new(),
                outputs: Vec::new(),
            },
            block: QueryBlock::default(),
        }
    }
}

impl<S: SpmvScalar> Default for BatchScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable working memory for [`run_core_with_scratch`] — a
/// single-lane [`BatchScratch`], kept as its own type so single-query
/// call sites keep their simple signature.
#[derive(Debug, Clone)]
pub struct CoreScratch<S: SpmvScalar> {
    batch: BatchScratch<S>,
}

impl<S: SpmvScalar> CoreScratch<S> {
    /// Creates an empty scratch; the first packet sizes its buffers.
    pub fn new() -> Self {
        Self {
            batch: BatchScratch::new(),
        }
    }
}

impl<S: SpmvScalar> Default for CoreScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs one core over a BS-CSR partition, returning its local top-`k`.
///
/// This follows Algorithm 1 stage by stage:
///
/// 1. **Scatter**: for each of the packet's `B` entries, read `x[idx]`
///    from (emulated) URAM and form the point-wise product;
/// 2. **Aggregation**: sum products belonging to the same row, using the
///    packet-local `ptr` row ends;
/// 3. **Summary**: stitch rows that span packet boundaries via the
///    `new_row` bit and the carried partial sum;
/// 4. **Top-K update**: offer every row finished in this packet (at most
///    `r` in faithful mode) to the argmin scratchpad.
///
/// `x` must already be quantised to `S` (the URAM upload step); use
/// [`quantize_vector`].
///
/// # Panics
///
/// Panics if `x` is shorter than the matrix's column count or if
/// `k == 0`.
pub fn run_core<S: SpmvScalar>(
    matrix: &BsCsr,
    x: &[S],
    k: usize,
    fidelity: Fidelity,
) -> CoreOutput<S::Acc> {
    run_core_with_scratch(matrix, x, k, fidelity, &mut CoreScratch::new())
}

/// [`run_core`] with caller-owned working memory — the steady-state hot
/// path, implemented as a single-lane [`run_core_batch_with_scratch`]
/// so there is exactly one accumulation-order implementation to
/// maintain.
///
/// Identical results to [`run_core`] for any scratch state (each packet
/// overwrites the scratch completely), but reusing one [`CoreScratch`]
/// across packets, queries, and matrices keeps the decode→accumulate
/// loop free of heap allocation. [`run_multicore`] and
/// [`run_multicore_batch`] keep one batch scratch resident on every
/// executor thread and stream every partition through it.
///
/// [`run_multicore`]: crate::run_multicore
/// [`run_multicore_batch`]: crate::run_multicore_batch
///
/// # Panics
///
/// Panics under the same conditions as [`run_core`].
pub fn run_core_with_scratch<S: SpmvScalar>(
    matrix: &BsCsr,
    x: &[S],
    k: usize,
    fidelity: Fidelity,
    scratch: &mut CoreScratch<S>,
) -> CoreOutput<S::Acc> {
    let outputs = run_core_batch_with_scratch(matrix, &[x], k, fidelity, &mut scratch.batch);
    // One owned clone per call — constant-size, independent of the
    // stream length, so the zero-allocation-per-packet property holds.
    outputs[0].clone()
}

/// Runs one core over a BS-CSR partition for a whole batch of queries
/// in a single **matrix-major** pass: each packet is decoded into the
/// scratch **once** and its entries are accumulated into all B query
/// lanes before the stream advances, instead of replaying the decode
/// once per query.
///
/// The queries stay resident in the [`BatchScratch`] (one Top-K tracker
/// and carry register per lane — the software picture of B query
/// vectors resident in URAM while the BS-CSR stream flows past), so the
/// per-packet field extraction and value decode are paid once and
/// amortised over the batch.
///
/// Results are **bit-identical** to running each query alone: per lane,
/// the sequence of multiply/accumulate operations and Top-K offers is
/// exactly the packet-arrival order the single-query loop produces —
/// the segment structure, carry stitching, and `r`-limit gating depend
/// only on the matrix, not on the other queries in the batch.
///
/// The returned slice borrows the scratch and holds one
/// [`CoreOutput`] per query, in input order. [`CoreStats`] are
/// per-query: every field except `topk_accepted` is query-independent
/// and therefore identical across the batch.
///
/// # Panics
///
/// Panics if any query is shorter than the matrix's column count or if
/// `k == 0` (for a non-empty batch).
pub fn run_core_batch_with_scratch<'s, S: SpmvScalar, Q: AsRef<[S]>>(
    matrix: &BsCsr,
    queries: &[Q],
    k: usize,
    fidelity: Fidelity,
    scratch: &'s mut BatchScratch<S>,
) -> &'s [CoreOutput<S::Acc>] {
    if queries.is_empty() {
        return &[];
    }
    scratch.block.fill(queries);
    run_core_block(matrix, &scratch.block, k, fidelity, &mut scratch.core)
}

/// [`run_core_batch_with_scratch`] over a prebuilt [`QueryBlock`] — the
/// multi-core engine builds one block per batch and shares it across
/// every partition's task.
pub(crate) fn run_core_block<'s, S: SpmvScalar>(
    matrix: &BsCsr,
    queries: &QueryBlock<S>,
    k: usize,
    fidelity: Fidelity,
    scratch: &'s mut CoreState<S>,
) -> &'s [CoreOutput<S::Acc>] {
    let b = queries.len();
    if b == 0 {
        return &[];
    }
    let cols = matrix.num_cols();
    assert!(
        queries.cols >= cols,
        "query vector has {} entries, matrix needs {}",
        queries.cols,
        cols
    );

    // Activate the first `b` lanes, reusing warm slab capacity; lanes
    // beyond `b` are left untouched so a later, larger batch finds them
    // warm again.
    for lane in scratch.lanes.iter_mut().take(b) {
        lane.tracker.reset(k);
        lane.carry = S::acc_zero();
    }
    while scratch.lanes.len() < b {
        scratch.lanes.push(QueryLane {
            tracker: TopKTracker::new(k),
            carry: S::acc_zero(),
        });
    }
    let full = b / LANES;

    // Query-independent stream state: stats, the row cursor, and whether
    // the previous packet left a row open (each lane holds its own carry
    // *value*, but the carry *structure* is a property of the matrix).
    let mut shared = CoreStats::default();
    let mut carry_active = false;
    let mut current_row: u32 = 0;
    let r_limit = match fidelity {
        Fidelity::Faithful { rows_per_packet } => rows_per_packet,
        Fidelity::Reference => u32::MAX,
    };

    let num_packets = matrix.num_packets();
    let mut p = 0usize;
    while p < num_packets {
        let chunk_end = (p + CHUNK_PACKETS).min(num_packets);

        // Stages 1a+2+3 structure, once per chunk: decode the chunk's
        // packets into flat `dvals`/`cidx` arrays and build its segment
        // program (entry ranges, destination rows, carry stitching, `r`
        // gate). The per-lane loop below only pays the query-dependent
        // gather-multiply-accumulate. A row spanning packets *inside*
        // the chunk becomes one merged segment: the sequential path's
        // carry is just the running sum at the packet boundary, so the
        // merged accumulation performs the identical operation sequence.
        // Stage hook: one timestamp pair per chunk (zero-sized no-op
        // unless the `obs-trace` feature is on; see `obs_hooks`).
        let decode_timer = crate::obs_hooks::StageTimer::start(crate::obs_hooks::STAGE_DECODE);
        scratch.dvals.clear();
        scratch.cidx.clear();
        scratch.segs.clear();
        let mut base = 0u32; // chunk-relative entry offset of the packet
        let mut seg_open_start = 0u32; // where the next segment begins
        let mut seg_open_carry = carry_active; // continues pre-chunk row?
        for pk in p..chunk_end {
            matrix.view_into(pk, &mut scratch.packet);
            let view = &scratch.packet;
            let len = view.len() as u32;
            shared.packets += 1;
            shared.entries += len as u64;
            debug_assert_eq!(
                view.new_row,
                !(seg_open_start < base || seg_open_carry),
                "encoder new_row bit consistent with carry state"
            );
            scratch.cidx.extend_from_slice(&view.idx);
            scratch
                .dvals
                .extend(view.val.iter().map(|&raw| S::decode(raw)));
            let ends_in_packet = view.row_ends.len() as u32;
            for (n, &end) in view.row_ends.iter().enumerate() {
                scratch.segs.push(Segment {
                    start: seg_open_start,
                    end: base + end,
                    row: current_row + n as u32,
                    use_carry: seg_open_carry,
                    offer: (n as u32) < r_limit,
                });
                seg_open_start = base + end;
                seg_open_carry = false;
            }
            let finished = ends_in_packet.min(r_limit);
            shared.rows_finished += finished as u64;
            shared.rows_dropped += (ends_in_packet - finished) as u64;
            current_row += ends_in_packet;
            base += len;
        }
        // Entries after the chunk's last row end carry into the next
        // chunk via each lane's carry register.
        let tail = if seg_open_start < base || seg_open_carry {
            Some((seg_open_start as usize, seg_open_carry))
        } else {
            None
        };
        carry_active = tail.is_some();

        decode_timer.stop();

        let chunk = Chunk {
            dvals: &scratch.dvals,
            idx: &scratch.cidx,
            segs: &scratch.segs,
            tail,
        };
        let score_timer = crate::obs_hooks::StageTimer::start(crate::obs_hooks::STAGE_SCORE);

        // Stages 1b+2+3+4 per lane: fused gather-multiply-accumulate
        // replaying the shared segment program, then the Top-K offer —
        // `LANES` queries at a time over the full blocks, one at a time
        // over the remainder. Per query the multiply/accumulate order is
        // exactly the sequential path's packet-arrival order, so sums
        // (including fixed-point saturation and float rounding) are
        // bit-identical whichever pass a query takes.
        //
        // When the column count is a power of two — the paper's M = 1024
        // operating point, and the only case where every encodable `idx`
        // is automatically in range — the gather masks the index instead
        // of bounds-checking it: identical reads for every valid stream,
        // no panic path in the inner loop. Other widths keep the checked
        // gather.
        let (block_lanes, rest_lanes) = scratch.lanes[..b].split_at_mut(full * LANES);
        // (`max(1)`: a zero-width matrix has empty query rows.)
        let blocks = queries.blocks.chunks_exact(queries.cols.max(1));
        let rest = queries.rest.chunks_exact(queries.cols.max(1));
        if let Some(col_mask) = pow2_col_mask(cols) {
            for (lanes, xb) in block_lanes.chunks_exact_mut(LANES).zip(blocks) {
                block_pass::<S>(lanes, &xb[..cols], &chunk, |xb, i| {
                    xb[i as usize & col_mask]
                });
            }
            for (lane, x) in rest_lanes.iter_mut().zip(rest) {
                lane_pass::<S>(lane, &x[..cols], &chunk, |x, i| x[i as usize & col_mask]);
            }
        } else {
            for (lanes, xb) in block_lanes.chunks_exact_mut(LANES).zip(blocks) {
                block_pass::<S>(lanes, xb, &chunk, |xb, i| xb[i as usize]);
            }
            for (lane, x) in rest_lanes.iter_mut().zip(rest) {
                lane_pass::<S>(lane, x, &chunk, |x, i| x[i as usize]);
            }
        }
        score_timer.stop();

        p = chunk_end;
    }
    debug_assert!(!carry_active, "no row may remain open at end of stream");

    // The encoder terminates every row inside some packet, so no carry
    // can survive the stream.
    debug_assert_eq!(
        current_row as usize,
        matrix.num_rows(),
        "all rows must finish by end of stream"
    );

    while scratch.outputs.len() < b {
        scratch.outputs.push(CoreOutput {
            // alloc-ok: grows only when this batch is wider than any
            // before; Vec::new itself is allocation-free, and steady
            // state reuses the slots.
            topk: Vec::new(),
            stats: CoreStats::default(),
        });
    }
    for (lane, out) in scratch.lanes[..b].iter().zip(&mut scratch.outputs[..b]) {
        lane.tracker.write_sorted_into(&mut out.topk);
        out.stats = CoreStats {
            topk_accepted: lane.tracker.accepted(),
            ..shared
        };
    }
    &scratch.outputs[..b]
}

/// `num_cols - 1` when the column count is a power of two (so masking an
/// in-range index is the identity), else `None`.
#[inline(always)]
fn pow2_col_mask(num_cols: usize) -> Option<usize> {
    (num_cols.is_power_of_two()).then(|| num_cols - 1)
}

/// One decoded chunk, shared by every lane pass: the flat entry arrays,
/// the segment program, and the open row (if any) carried past its end.
struct Chunk<'a, S> {
    dvals: &'a [S],
    idx: &'a [u32],
    segs: &'a [Segment],
    /// `(first entry, continues a carry)` of the row left open.
    tail: Option<(usize, bool)>,
}

/// Replays the shared segment program of one chunk for one query lane:
/// fused gather-multiply-accumulate per segment, Top-K offer for rows
/// the `r` gate admits, carry update from the tail.
///
/// `gather` is the `x[idx]` read, parameterised so the power-of-two
/// column case monomorphises to a masked (panic-free) load while the
/// general case keeps the bounds check.
#[inline(always)]
fn lane_pass<S: SpmvScalar>(
    lane: &mut QueryLane<S>,
    x: &[S],
    chunk: &Chunk<'_, S>,
    gather: impl Fn(&[S], u32) -> S,
) {
    let accumulate = |mut acc: S::Acc, start: usize, end: usize| {
        for (&d, &i) in chunk.dvals[start..end].iter().zip(&chunk.idx[start..end]) {
            acc = S::acc_add(acc, S::mul(d, gather(x, i)));
        }
        acc
    };
    for seg in chunk.segs {
        let init = if seg.use_carry {
            lane.carry
        } else {
            S::acc_zero()
        };
        let acc = accumulate(init, seg.start as usize, seg.end as usize);
        if seg.offer {
            lane.tracker.insert(seg.row, acc);
        }
    }
    lane.carry = match chunk.tail {
        Some((start, use_carry)) => {
            let init = if use_carry { lane.carry } else { S::acc_zero() };
            accumulate(init, start, chunk.dvals.len())
        }
        None => S::acc_zero(),
    };
}

/// [`lane_pass`] for a full block of `LANES` queries: each entry's value
/// and index are loaded once, one gather fetches all `LANES` query
/// values for its column, and `LANES` independent accumulators take one
/// multiply-accumulate each. Every lane sees exactly the operation
/// sequence [`lane_pass`] would give it.
#[inline(always)]
fn block_pass<S: SpmvScalar>(
    lanes: &mut [QueryLane<S>],
    xb: &[[S; LANES]],
    chunk: &Chunk<'_, S>,
    gather: impl Fn(&[[S; LANES]], u32) -> [S; LANES],
) {
    let accumulate = |acc: &mut [S::Acc; LANES], start: usize, end: usize| {
        for (&d, &i) in chunk.dvals[start..end].iter().zip(&chunk.idx[start..end]) {
            let xs = gather(xb, i);
            for (a, &x) in acc.iter_mut().zip(&xs) {
                *a = S::acc_add(*a, S::mul(d, x));
            }
        }
    };
    let carry: [S::Acc; LANES] = std::array::from_fn(|l| lanes[l].carry);
    for seg in chunk.segs {
        let mut acc = if seg.use_carry {
            carry
        } else {
            [S::acc_zero(); LANES]
        };
        accumulate(&mut acc, seg.start as usize, seg.end as usize);
        if seg.offer {
            for (lane, &a) in lanes.iter_mut().zip(&acc) {
                lane.tracker.insert(seg.row, a);
            }
        }
    }
    let carry = match chunk.tail {
        Some((start, use_carry)) => {
            let mut acc = if use_carry {
                carry
            } else {
                [S::acc_zero(); LANES]
            };
            accumulate(&mut acc, start, chunk.dvals.len());
            acc
        }
        None => [S::acc_zero(); LANES],
    };
    for (lane, c) in lanes.iter_mut().zip(carry) {
        lane.carry = c;
    }
}

/// Quantises a dense query vector into the scalar domain `S` — the URAM
/// upload step performed by the host before launching the kernel.
// alloc-ok(fn): per-query host-side upload step, one vector per query;
// the per-packet loop never calls this.
pub fn quantize_vector<S: SpmvScalar>(x: &[f32]) -> Vec<S> {
    x.iter().map(|&v| S::decode(S::encode(v as f64))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_fixed::{F32, Q1_19, Q1_31};
    use tkspmv_sparse::{Csr, PacketLayout};

    fn encode20(csr: &Csr) -> BsCsr {
        BsCsr::encode::<Q1_19>(csr, PacketLayout::solve(csr.num_cols(), 20).unwrap())
    }

    fn ones(m: usize) -> Vec<Q1_19> {
        quantize_vector::<Q1_19>(&vec![1.0f32; m])
    }

    #[test]
    fn single_packet_topk_matches_row_sums() {
        let csr = Csr::from_triplets(
            3,
            8,
            &[(0, 1, 0.5), (0, 3, 0.25), (1, 0, 0.125), (2, 2, 0.9)],
        )
        .unwrap();
        let bs = encode20(&csr);
        let out = run_core::<Q1_19>(&bs, &ones(8), 2, Fidelity::Reference);
        let rows: Vec<u32> = out.topk.iter().map(|&(r, _)| r).collect();
        assert_eq!(rows, vec![2, 0]); // 0.9 > 0.75 > 0.125
        assert_eq!(out.stats.rows_finished, 3);
        assert_eq!(out.stats.packets, 1);
    }

    #[test]
    fn rows_spanning_packets_accumulate_carry() {
        // One row of 40 equal entries: value must be 40 * 0.02 = 0.8
        // regardless of how packets split it (B = 15 -> 3 packets).
        let triplets: Vec<(u32, u32, f32)> = (0..40).map(|c| (0, c, 0.02)).collect();
        let csr = Csr::from_triplets(1, 1024, &triplets).unwrap();
        let bs = encode20(&csr);
        assert_eq!(bs.num_packets(), 3);
        let out = run_core::<Q1_19>(&bs, &ones(1024), 1, Fidelity::Reference);
        assert_eq!(out.topk.len(), 1);
        let v = Q1_19::acc_to_f64(out.topk[0].1);
        assert!((v - 0.8).abs() < 1e-4, "row sum {v}");
    }

    #[test]
    fn matches_exact_spmv_within_quantisation() {
        let csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 200,
            num_cols: 256,
            avg_nnz_per_row: 12,
            distribution: tkspmv_sparse::gen::NnzDistribution::Uniform,
            seed: 42,
        }
        .generate();
        let x = tkspmv_sparse::gen::query_vector(256, 7);
        let exact = csr.spmv_exact(x.as_slice());
        let bs = BsCsr::encode::<Q1_31>(&csr, PacketLayout::solve(256, 32).unwrap());
        let xs = quantize_vector::<Q1_31>(x.as_slice());
        let out = run_core::<Q1_31>(&bs, &xs, 200, Fidelity::Reference);
        assert_eq!(out.topk.len(), 200);
        for &(row, acc) in &out.topk {
            let got = Q1_31::acc_to_f64(acc);
            let want = exact[row as usize];
            assert!((got - want).abs() < 1e-5, "row {row}: {got} vs {want}");
        }
    }

    #[test]
    fn f32_core_matches_f32_reference() {
        let csr = Csr::from_triplets(2, 4, &[(0, 0, 0.1), (0, 1, 0.2), (1, 2, 0.3), (1, 3, 0.4)])
            .unwrap();
        let layout = PacketLayout::solve(4, 32).unwrap();
        let bs = BsCsr::encode::<F32>(&csr, layout);
        let x = [0.5f32, 0.5, 0.5, 0.5];
        let xs = quantize_vector::<F32>(&x);
        let out = run_core::<F32>(&bs, &xs, 2, Fidelity::Reference);
        // f32 arithmetic, exact per-step.
        let want0 = 0.1f32 * 0.5 + 0.2 * 0.5;
        let want1 = 0.3f32 * 0.5 + 0.4 * 0.5;
        let got: std::collections::HashMap<u32, f64> = out
            .topk
            .iter()
            .map(|&(r, a)| (r, F32::acc_to_f64(a)))
            .collect();
        assert_eq!(got[&0], want0 as f64);
        assert_eq!(got[&1], want1 as f64);
    }

    #[test]
    fn empty_rows_contribute_zero() {
        let csr = Csr::from_triplets(5, 8, &[(0, 0, 0.5), (4, 7, 0.75)]).unwrap();
        let bs = encode20(&csr);
        let out = run_core::<Q1_19>(&bs, &ones(8), 5, Fidelity::Reference);
        assert_eq!(out.stats.rows_finished, 5);
        let best: Vec<u32> = out.topk.iter().map(|&(r, _)| r).collect();
        assert_eq!(best[0], 4);
        assert_eq!(best[1], 0);
        // Placeholder rows have accumulator zero.
        assert_eq!(Q1_19::acc_to_f64(out.topk[2].1), 0.0);
    }

    #[test]
    fn faithful_r_limit_drops_excess_rows() {
        // 15 single-entry rows finish in one packet; r = 4 keeps only the
        // first 4 finishers.
        let triplets: Vec<(u32, u32, f32)> =
            (0..15).map(|r| (r, r, 0.1 + 0.01 * r as f32)).collect();
        let csr = Csr::from_triplets(15, 1024, &triplets).unwrap();
        let bs = encode20(&csr);
        let out = run_core::<Q1_19>(
            &bs,
            &ones(1024),
            8,
            Fidelity::Faithful { rows_per_packet: 4 },
        );
        assert_eq!(out.stats.rows_finished, 4);
        assert_eq!(out.stats.rows_dropped, 11);
        // Only rows 0..4 were considered.
        assert!(out.topk.iter().all(|&(r, _)| r < 4));
    }

    #[test]
    fn faithful_with_generous_r_equals_reference() {
        let csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 500,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: tkspmv_sparse::gen::NnzDistribution::table3_gamma(),
            seed: 3,
        }
        .generate();
        let bs = encode20(&csr);
        let x = quantize_vector::<Q1_19>(tkspmv_sparse::gen::query_vector(512, 1).as_slice());
        let faithful = run_core::<Q1_19>(
            &bs,
            &x,
            8,
            Fidelity::Faithful {
                rows_per_packet: 15,
            },
        );
        let reference = run_core::<Q1_19>(&bs, &x, 8, Fidelity::Reference);
        assert_eq!(faithful.topk, reference.topk);
        assert_eq!(faithful.stats.rows_dropped, 0);
    }

    /// Lane blocks against the scalar pass on a stream many chunks long,
    /// with rows that carry across chunk boundaries: B = 19 is two full
    /// blocks plus three scalar lanes, and every lane must equal its
    /// own single-query run bit for bit.
    fn blocks_match_scalar_lanes_across_chunks<S: SpmvScalar>() {
        let mut csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 300,
            num_cols: 1024,
            avg_nnz_per_row: 60,
            distribution: tkspmv_sparse::gen::NnzDistribution::table3_gamma(),
            seed: 12,
        }
        .generate();
        csr.normalize_rows();
        let bs = BsCsr::encode::<S>(&csr, PacketLayout::solve(1024, S::VALUE_BITS).unwrap());
        assert!(bs.num_packets() > 4 * CHUNK_PACKETS);
        let queries: Vec<Vec<S>> = (0..19u64)
            .map(|q| quantize_vector::<S>(tkspmv_sparse::gen::query_vector(1024, q).as_slice()))
            .collect();
        for fidelity in [
            Fidelity::Faithful { rows_per_packet: 3 },
            Fidelity::Reference,
        ] {
            let mut scratch = BatchScratch::new();
            let batch = run_core_batch_with_scratch(&bs, &queries, 16, fidelity, &mut scratch);
            for (x, got) in queries.iter().zip(batch) {
                let single = run_core::<S>(&bs, x, 16, fidelity);
                assert_eq!(single.topk, got.topk);
                assert_eq!(single.stats, got.stats);
            }
        }
    }

    #[test]
    fn lane_blocks_are_bit_identical_across_chunk_boundaries() {
        blocks_match_scalar_lanes_across_chunks::<Q1_19>();
        blocks_match_scalar_lanes_across_chunks::<Q1_31>();
        blocks_match_scalar_lanes_across_chunks::<F32>();
        blocks_match_scalar_lanes_across_chunks::<tkspmv_fixed::Half>();
    }

    #[test]
    fn stats_count_packets_and_entries() {
        let csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 100,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: tkspmv_sparse::gen::NnzDistribution::Uniform,
            seed: 9,
        }
        .generate();
        let bs = encode20(&csr);
        let out = run_core::<Q1_19>(&bs, &ones(512), 8, Fidelity::Reference);
        assert_eq!(out.stats.packets, bs.num_packets() as u64);
        assert_eq!(out.stats.entries, bs.stored_entries());
        assert_eq!(out.stats.rows_finished, 100);
    }
}
