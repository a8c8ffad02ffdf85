//! The repo benchmark: three seeded workloads over the library crates'
//! public APIs, each printing its end-to-end metrics (untraced run) or
//! its per-layer metrics (traced run) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table3-batch32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//! - `table3-batch32`: closed-loop `query_batch` (B = 32) on the
//!   paper-default accelerator over the Table III gamma collection;
//! - `serve-72k-open`: an open-loop Poisson stream into a two-shard
//!   `TopKService` over the 72k-nnz serving collection;
//! - `fabric-mixed`: two closed-loop clients through a `Router` in front
//!   of two loopback `NodeServer`s, mixing exact and pruned reads with
//!   appends and compactions.
//!
//! Every answer is checked; a wrong answer counts as a failed operation
//! and makes the run exit non-zero after printing its result.

mod fabric;
mod inputs;
mod layers;
mod probe;
mod serve;
mod stats;
mod table3;
mod timing;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("qps", "queries/s"),
    ("p50_ms", "ms"),
    ("bw_efficiency", "ratio"),
    ("recall_at_k", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never calls reports 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("p99_ms", "ms"),
    ("sparse.stream_bytes", "bytes"),
    ("sparse.packet_fill", "ratio"),
    ("sparse.decode_ms", "ms"),
    ("sparse.encode_s", "s"),
    ("engine.core_ms", "ms"),
    ("engine.core_max_over_mean", "ratio"),
    ("engine.overhead_ms", "ms"),
    ("engine.pass_gbps", "GB/s"),
    ("engine.probe_gbps", "GB/s"),
    ("engine.probe_dram_gbps", "GB/s"),
    ("topk.merge_us", "us"),
    ("topk.accept_frac", "ratio"),
    ("prune.score_ms", "ms"),
    ("prune.rescore_ms", "ms"),
    ("prune.recall_at_k", "ratio"),
    ("prune.tier_p50_ms", "ms"),
    ("cpu.exact_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.wait_p99_ms", "ms"),
    ("serve.batch_size", "queries"),
    ("serve.backend_ms", "ms"),
    ("serve.refused", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("wire.rtt_ms", "ms"),
    ("router.overhead_ms", "ms"),
    ("router.failovers", "count"),
    ("router.hedges", "count"),
    ("delta.append_ms", "ms"),
    ("delta.compact_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// One measured number with the count of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
    /// How the number was obtained, for the human-readable report.
    pub note: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics by name: the end-to-end or per-layer set, plus
    /// workload-specific extras that are only printed.
    pub metrics: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    /// Failed, refused, timed-out and wrong-answer operations.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Free-form facts about the run (probe sizes, generator lag, ...).
    pub notes: Vec<String>,
    /// The traced run's spans as JSON lines.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        self.metrics.insert(
            name,
            Metric {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    /// Seed of the collection and the timed queries.
    pub seed: u64,
    /// Seed of the held-out verification queries.
    pub heldout_seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Segments the untraced phase is cut into, with a read probe before,
/// between and after them: the probe's bandwidth wanders over seconds
/// on a shared host, so it is sampled across the whole phase.
pub const SEGMENTS: u32 = 6;

/// Set-ups before each segment, each replacing the last. The first
/// segment's last set-up serves the whole run; the others are thrown
/// away. `setup_s` is their median, so like the probe it samples the
/// host across the whole run.
pub const SETUPS_PER_SEGMENT: usize = 3;

impl RunConfig {
    /// Length of one timed phase. A traced run splits its time between
    /// an untraced and a traced phase, so every run measures for
    /// `seconds` in total.
    pub fn phase(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }

    /// Length of one segment of the untraced phase.
    pub fn segment(&self) -> Duration {
        self.phase() / SEGMENTS
    }
}

/// Stream tag of the default held-out seed.
const HELDOUT_TAG: u64 = 0x4845_4C44;

const WORKLOADS: [&str; 3] = ["table3-batch32", "serve-72k-open", "fabric-mixed"];

const USAGE: &str = "usage: perfbench --workload {table3-batch32|serve-72k-open|fabric-mixed} \
--seed N --seconds S --trace {0|1} [--heldout-seed N]";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        if !matches!(
            key,
            "workload" | "seed" | "seconds" | "trace" | "heldout-seed"
        ) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key, value);
    }
    fn num<T: std::str::FromStr>(
        map: &BTreeMap<&str, &str>,
        key: &str,
    ) -> Result<Option<T>, String> {
        map.get(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{key}: cannot parse `{v}`"))
            })
            .transpose()
    }
    let workload = map
        .get("workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed: u64 = num(&map, "seed")?.ok_or("--seed is required")?;
    let seconds: f64 = num(&map, "seconds")?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match num::<u8>(&map, "trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(RunConfig {
        workload,
        seed,
        heldout_seed: num(&map, "heldout-seed")?.unwrap_or(inputs::mix(seed, HELDOUT_TAG)),
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_report(cfg: &RunConfig, out: &Outcome) {
    let set: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# {} seed={} heldout_seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.heldout_seed,
        cfg.seconds.as_secs_f64(),
        u8::from(cfg.trace)
    );
    for line in &out.notes {
        println!("#   {line}");
    }
    for (name, ok) in &out.checks {
        println!("# check {:<52} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or(if name.ends_with("_ms") { "ms" } else { "" }, |(_, u)| *u)
    };
    for (name, unit) in set {
        match out.metrics.get(name) {
            Some(m) => println!(
                "{name:<26} {:>14.6} {unit:<10} n={:<7} {}",
                m.value, m.samples, m.note
            ),
            None => println!(
                "{name:<26} {:>14} {unit:<10} not exercised by this workload",
                0
            ),
        }
    }
    // Metrics outside this run's set are printed, not emitted.
    for (name, m) in &out.metrics {
        if !set.iter().any(|(n, _)| n == name) {
            println!(
                "{name:<26} {:>14.6} {:<10} n={:<7} {} (reported only)",
                m.value,
                unit_of(name),
                m.samples,
                m.note
            );
        }
    }
    println!(
        "# attempted={} failed={} failed_frac={:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let metrics: Vec<String> = set
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).map_or(0.0, |m| m.value);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

/// Writes the traced run's spans under the build directory.
fn write_spans(cfg: &RunConfig, jsonl: &str) -> Result<String, String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    std::fs::write(&path, jsonl).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cfg.workload.as_str() {
        "table3-batch32" => table3::run(&cfg),
        "serve-72k-open" => serve::run(&cfg),
        _ => fabric::run(&cfg),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(jsonl) = out.spans_jsonl.take() {
        match write_spans(&cfg, &jsonl) {
            Ok(path) => out.note(format!("spans written to {path}")),
            Err(e) => out.note(format!("spans not written: {e}")),
        }
    }
    print_report(&cfg, &out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
