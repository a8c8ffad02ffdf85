//! Host measurements the workloads are read against: a streaming-read
//! bandwidth probe (the `bw_efficiency` denominator), peak resident
//! memory, and the last-level cache size.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use crate::stats::Samples;
use crate::Outcome;

/// Bytes each probe reads in total, so small buffers get many passes
/// and large ones a few.
const PROBE_TOTAL_BYTES: usize = 8 << 30;
/// Least bytes one timed pass reads: a small buffer is read several
/// times over per pass, so thread hand-off does not dominate the pass.
const PASS_MIN_BYTES: usize = 8 << 20;

/// One streaming-read probe: each of `threads` threads sums its own
/// slice of one shared buffer, pass after pass, timing its own passes.
#[derive(Debug, Clone)]
pub struct Probe {
    pub bytes: usize,
    /// Per thread, the read bandwidth of each of its passes, GB/s.
    pub threads: Vec<Samples>,
}

impl Probe {
    /// The bandwidth the buffer sustains: the sum over threads of each
    /// thread's 90th-percentile pass, since interference from elsewhere
    /// only slows a pass. Threads are timed apart so one thread's stall
    /// does not slow the other's passes.
    pub fn gbps(&mut self) -> f64 {
        self.threads.iter_mut().map(|t| t.percentile(90.0)).sum()
    }

    /// Adds another probe's passes over the same buffer, thread by thread.
    pub fn absorb(&mut self, other: &Probe) {
        for (mine, theirs) in self.threads.iter_mut().zip(&other.threads) {
            mine.append(theirs);
        }
    }

    /// Passes over all threads.
    pub fn passes(&self) -> usize {
        self.threads.iter().map(Samples::len).sum()
    }
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Reads a `bytes`-sized buffer with [`host_threads`] threads and
/// returns the bandwidth of every pass.
pub fn stream_read(bytes: usize) -> Probe {
    let threads = host_threads();
    let words = (bytes / 8).max(threads);
    let buf: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let sweeps = PASS_MIN_BYTES.div_ceil(words * 8);
    let passes = (PROBE_TOTAL_BYTES / (sweeps * words * 8)).clamp(5, 1000);
    let chunk = words.div_ceil(threads);
    let barrier = Barrier::new(words.div_ceil(chunk));
    let per_thread = std::thread::scope(|s| {
        let handles: Vec<_> = buf
            .chunks(chunk)
            .map(|slice| {
                let barrier = &barrier;
                s.spawn(move || {
                    let read = (sweeps * slice.len() * 8) as f64;
                    let mut rates = Samples::new();
                    barrier.wait();
                    for _ in 0..passes {
                        let t = Instant::now();
                        for _ in 0..sweeps {
                            black_box(sum(black_box(slice)));
                        }
                        rates.push(read / t.elapsed().as_secs_f64() / 1e9);
                    }
                    rates
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    Probe {
        bytes: words * 8,
        threads: per_thread,
    }
}

/// Sums `slice` with 16 independent lanes, so each loop iteration reads
/// 128 bytes: a two-lane loop is small enough that where the linker
/// happens to place it moves the probe of an L2-sized buffer by ~30%.
#[inline(never)]
fn sum(slice: &[u64]) -> u64 {
    let mut lanes = [0u64; 16];
    let mut chunks = slice.chunks_exact(16);
    for chunk in &mut chunks {
        for (lane, &w) in lanes.iter_mut().zip(chunk) {
            *lane = lane.wrapping_add(w);
        }
    }
    chunks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(0u64, |acc, &w| acc.wrapping_add(w))
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the largest CPU cache the kernel reports, bytes (32 MiB when
/// it reports none).
pub fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|s| parse_cache_size(s.trim()))
        .max()
        .unwrap_or(32 << 20)
}

fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * scale)
}

/// Records `bw_efficiency`'s denominator from the probes taken around
/// the timed segments and returns it: [`Probe::gbps`] over every
/// probe's passes pooled.
pub fn denominator(out: &mut Outcome, probes: &mut [Probe]) -> f64 {
    let each: Vec<String> = probes
        .iter_mut()
        .map(|p| format!("{:.1}", p.gbps()))
        .collect();
    let Some((first, rest)) = probes.split_first() else {
        return 0.0;
    };
    let mut pooled = first.clone();
    for p in rest {
        pooled.absorb(p);
    }
    let gbps = pooled.gbps();
    out.note(format!(
        "read probe: {} B buffer, {} threads, {} probes, {} passes; per probe [{}] GB/s, \
         pooled {:.2} GB/s (first thread pass IQR {:.1}%); LLC {} B",
        pooled.bytes,
        pooled.threads.len(),
        probes.len(),
        pooled.passes(),
        each.join(", "),
        gbps,
        100.0 * pooled.threads[0].iqr_frac(),
        llc_bytes()
    ));
    gbps
}

/// Runs the 4×LLC probe and records it. Callers read peak memory
/// before this, so the probe's buffer does not count toward it.
pub fn dram(out: &mut Outcome) {
    let llc = llc_bytes();
    let bytes = 4 * llc;
    let mut probe = stream_read(bytes);
    out.set(
        "engine.probe_dram_gbps",
        probe.gbps(),
        probe.passes(),
        format!("streaming read of {bytes} B (4 x LLC {llc} B)"),
    );
}
