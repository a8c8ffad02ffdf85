//! Engine-stage timing hooks for the observability layer.
//!
//! The serve layer wants to attribute a query's engine time to its
//! pipeline stages (packet decode vs. scoring, prune pass vs. exact
//! rescore), but the engine's hot loop must not pay for that when
//! nobody is looking. These hooks are the compromise:
//!
//! - With the `obs-trace` cargo feature **off** (the default), every
//!   function here is an empty `#[inline(always)]` no-op over
//!   zero-sized state — the hot loop compiles to exactly the code it
//!   had before the hooks existed, and `tests/zero_alloc.rs` plus the
//!   `batch_query` bench numbers do not move.
//! - With `obs-trace` **on**, each stage accumulates elapsed
//!   nanoseconds into a process-global atomic (one `Instant::now()`
//!   pair per *chunk*, not per packet — measured overhead on the B=32
//!   1M-nnz `batch_query` stream is recorded in `BENCH_obs.json` and
//!   must stay ≤ 2%).
//!
//! Globals (not thread-locals) are deliberate: `run_multicore_impl`
//! runs each channel partition as a task on the shared
//! [`exec`](crate::exec) executor, so a call's stage time accrues on
//! whichever executor threads ran its tasks, and per-thread
//! accumulators would be stranded on threads the caller never sees.
//! A caller brackets an engine call with [`totals_ns`] snapshots and
//! takes the difference; the deltas are exact when queries are
//! dispatched one at a time and an aggregate attribution under
//! concurrent dispatch (documented where consumed).

/// Index of the packet-decode stage (chunk → flat arrays + segments).
pub const STAGE_DECODE: usize = 0;
/// Index of the exact scoring stage (gather-multiply-accumulate).
pub const STAGE_SCORE: usize = 1;
/// Index of the low-bit prune pass.
pub const STAGE_PRUNE: usize = 2;
/// Index of the shortlist exact-rescore stage (its inner engine call
/// also feeds decode/score, so consumers pick *either* prune+rescore
/// *or* decode+score, never both).
pub const STAGE_RESCORE: usize = 3;
/// Number of engine stages tracked.
pub const NUM_STAGES: usize = 4;

/// True when this build carries the timing instrumentation.
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "obs-trace")
}

#[cfg(feature = "obs-trace")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    use super::NUM_STAGES;

    static TOTALS_NS: [AtomicU64; NUM_STAGES] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    /// A running stage timer; dropping it without `stop` loses the
    /// sample (deliberate: panic unwinds should not record garbage).
    pub struct StageTimer {
        stage: usize,
        start: Instant,
    }

    impl StageTimer {
        /// Starts timing `stage`.
        #[inline(always)]
        pub fn start(stage: usize) -> Self {
            Self {
                stage,
                start: Instant::now(),
            }
        }

        /// Stops the timer and adds the elapsed time to the stage total.
        #[inline(always)]
        pub fn stop(self) {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // ordering: diagnostic running total; no other data is
            // published under this counter, and readers tolerate skew.
            TOTALS_NS[self.stage].fetch_add(ns, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn totals_ns() -> [u64; NUM_STAGES] {
        let mut out = [0u64; NUM_STAGES];
        for (o, t) in out.iter_mut().zip(&TOTALS_NS) {
            // ordering: point-in-time diagnostic read; callers take
            // before/after deltas and tolerate concurrent skew.
            *o = t.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(not(feature = "obs-trace"))]
mod imp {
    use super::NUM_STAGES;

    /// Zero-sized stand-in: `start`/`stop` inline to nothing.
    pub struct StageTimer;

    impl StageTimer {
        /// Starts timing `stage` (no-op in this build).
        #[inline(always)]
        pub fn start(_stage: usize) -> Self {
            Self
        }

        /// Stops the timer (no-op in this build).
        #[inline(always)]
        pub fn stop(self) {}
    }

    #[inline(always)]
    pub fn totals_ns() -> [u64; NUM_STAGES] {
        [0; NUM_STAGES]
    }
}

pub use imp::StageTimer;

/// Cumulative nanoseconds per stage since process start (all zeros
/// when `obs-trace` is off). Bracket an engine call with two reads and
/// subtract to attribute its time.
#[must_use]
pub fn totals_ns() -> [u64; NUM_STAGES] {
    imp::totals_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_shape_matches_stage_indices() {
        let t = totals_ns();
        assert_eq!(t.len(), NUM_STAGES);
        // Compile-time index-bounds pins (clippy rejects runtime
        // asserts on constants).
        const _: () = assert!(STAGE_DECODE < NUM_STAGES);
        const _: () = assert!(STAGE_RESCORE < NUM_STAGES);
    }

    #[test]
    fn timer_accumulates_only_when_enabled() {
        let before = totals_ns();
        let timer = StageTimer::start(STAGE_DECODE);
        std::thread::sleep(std::time::Duration::from_millis(2));
        timer.stop();
        let after = totals_ns();
        if enabled() {
            assert!(after[STAGE_DECODE] > before[STAGE_DECODE]);
        } else {
            assert_eq!(after, [0; NUM_STAGES]);
        }
    }
}
