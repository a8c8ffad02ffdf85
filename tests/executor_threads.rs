//! The shared executor's contract, end to end: once warm, no query
//! spawns a thread, whichever engine it goes through, and a panic inside
//! a partition task still reaches the caller (the serving tier turns it
//! into `ServeError::WorkerPanicked`) without breaking the pool.
//!
//! One test in its own binary, so the process thread count it reads is
//! not moved by other tests' threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tkspmv::backend::{QueryBatch, TopKBackend};
use tkspmv::{quantize_vector, run_multicore, Accelerator, Fidelity, PrunedBackend};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fixed::{PruneBits, Q1_19};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

/// Threads in this process, from `/proc/self/status` (Linux only).
fn thread_count() -> Option<usize> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn warm_queries_spawn_no_threads_and_task_panics_reach_the_caller() {
    let csr = SyntheticConfig {
        num_rows: 2_000,
        num_cols: 256,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::table3_gamma(),
        seed: 21,
    }
    .generate();
    let batch = QueryBatch::random(4, 256, 5);
    let x = query_vector(256, 9);

    let acc = Accelerator::builder()
        .cores(32)
        .k(8)
        .build()
        .expect("design builds");
    let loaded = acc.load_matrix(&csr).expect("loads");
    assert_eq!(loaded.partitions.len(), 32);
    let pruned = PrunedBackend::new(Arc::new(CpuTopK::new(1)), PruneBits::Eight, 4)
        .expect("pruned backend builds");
    let pruned_matrix = pruned.prepare(&csr).expect("prepares");
    let cpu = CpuTopK::new(2);
    let cpu_matrix = cpu.prepare(&csr).expect("prepares");

    let run_all = || {
        let engine = acc
            .query_batch(&loaded, batch.queries(), 100)
            .expect("engine runs");
        let staged = pruned.query(&pruned_matrix, &x, 10).expect("pruned runs");
        let exact = cpu.query(&cpu_matrix, &x, 10).expect("cpu runs");
        (
            engine.into_iter().map(|o| o.topk).collect::<Vec<_>>(),
            staged.topk,
            exact.topk,
        )
    };

    let reference = run_all();

    // A sampler watches the count while the warm calls run, so a thread
    // spawned and joined inside one call shows up too, not only one
    // that outlives it. It starts before the baseline is read.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = thread_count();
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(thread_count());
                std::thread::sleep(Duration::from_micros(100));
            }
            peak
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    let warm = thread_count();
    for _ in 0..500 {
        assert!(run_all() == reference, "warm answers changed");
    }
    stop.store(true, Ordering::Relaxed);
    let peak = sampler.join().expect("sampler runs");
    assert_eq!(peak, warm, "warm queries spawned threads while running");
    let warm = thread_count();

    // A panic inside a partition task (a query too short for the
    // matrix) is resumed on the caller with its own message.
    let short = quantize_vector::<Q1_19>(&[0.5; 16]);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_multicore::<Q1_19>(&loaded.partitions, &short, 8, 100, Fidelity::Reference)
    }));
    let payload = caught.expect_err("a partition task panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("query vector has 16 entries"), "{msg}");

    // The pool survives the panic and still answers correctly.
    assert!(run_all() == reference, "answers changed after a task panic");
    assert_eq!(thread_count(), warm, "the panic cost the pool a thread");
}
