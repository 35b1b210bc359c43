//! Shared helpers: the metric catalogue, run reports, statistics,
//! process memory, the seeded input RNG and the per-seed references.

use carta_obs::json::{self, ObjectBuilder, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed on every workload by an untraced run.
/// Each is defined per workload in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("p50_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics, printed on every workload by a traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_share", "share"),
    ("trace_overhead_share", "share"),
    ("trace.whole_ms", "ms"),
    ("trace.self_ms.client", "ms"),
    ("trace.self_ms.server", "ms"),
    ("trace.self_ms.api", "ms"),
    ("trace.self_ms.kmatrix", "ms"),
    ("trace.self_ms.engine", "ms"),
    ("trace.self_ms.can", "ms"),
    ("trace.self_ms.optim", "ms"),
    ("trace.self_ms.bench", "ms"),
    ("trace.self_ms.residual", "ms"),
    ("sweep.points_per_s_1job", "1/s"),
    ("serve.p99_ms_low", "ms"),
    ("serve.p50_ms_high", "ms"),
    ("serve.p99_ms_high", "ms"),
    ("serve.max_rps", "1/s"),
    ("server.residual_p50_ms", "ms"),
    ("server.residual_p99_ms", "ms"),
    ("server.http_read_us", "us"),
    ("server.http_write_us", "us"),
    ("server.upload_p50_ms", "ms"),
    ("server.requests.shed", "count"),
    ("server.requests.degraded", "count"),
    ("server.state.appended", "count"),
    ("client.gen_lag_ms", "ms"),
    ("api.decode_us", "us"),
    ("api.encode_us", "us"),
    ("api.handle_us.analyze", "us"),
    ("api.handle_us.load", "us"),
    ("api.handle_us.lint", "us"),
    ("api.handle_us.prob-analyze", "us"),
    ("api.handle_us.loss", "us"),
    ("api.handle_us.sensitivity", "us"),
    ("api.handle_us.optimize", "us"),
    ("kmatrix.load_network_us", "us"),
    ("engine.hit_rate", "share"),
    ("engine.warm_start_rate", "share"),
    ("engine.compiles_per_kpt", "count"),
    ("engine.batch_ms_per_kpt", "ms"),
    ("engine.variant_build_us", "us"),
    ("engine.overhead_share", "share"),
    ("engine.evaluate_hit_us", "us"),
    ("engine.batch.shard_waits", "count"),
    ("engine.scratch.evictions", "count"),
    ("engine.cache.evictions", "count"),
    ("can.compile_us", "us"),
    ("can.solve_cold_us", "us"),
    ("can.solve_warm_us", "us"),
    ("can.iters_per_point", "count"),
    ("can.prob_us", "us"),
    ("optim.evaluations", "count"),
    ("optim.evals_per_s", "1/s"),
    ("optim.eval_share", "share"),
];

/// Workload inputs repeat with period `INPUT_SEEDS` in the workload
/// seed, so every seed has a recorded reference.
pub const INPUT_SEEDS: u64 = 64;

/// The generator seeds of a workload's K-Matrix fleet: the input seed
/// first, then one per further matrix, never shared with another input
/// seed's fleet.
pub fn fleet_seeds(input_seed: u64, size: usize) -> Vec<u64> {
    (0..size as u64)
        .map(|k| input_seed + k * INPUT_SEEDS)
        .collect()
}

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload seed as given.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Engine jobs, one per hardware thread.
    pub jobs: usize,
    /// Compare against a deliberately wrong reference (self-test).
    pub corrupt_reference: bool,
    /// Scratch directory inside the checkout.
    pub work_dir: std::path::PathBuf,
    /// The `carta-server` binary (serve only).
    pub server_bin: Option<std::path::PathBuf>,
    /// Overrides of the `serve` request mix (`--mix`, serve only).
    pub mix: Option<String>,
}

impl RunConfig {
    /// The generator seed the workload derives its inputs from.
    pub fn input_seed(&self) -> u64 {
        self.seed % INPUT_SEEDS
    }
}

/// One output check: its name and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts about the run (sample counts, repeated counters) written
    /// to the run record and stderr.
    pub notes: Vec<(String, String)>,
    /// Spans of a traced run.
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One set-up timing sample for workloads whose set-up takes about a
/// millisecond: the fastest of three back-to-back runs of `f`, which
/// drops the cache misses of the first. Workloads take one sample
/// after every unit of measured work and report the median, so
/// `setup_s` spans the whole run rather than one moment of it.
pub fn setup_sample<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..3)
        .map(|_| timed(&mut f).0)
        .fold(f64::INFINITY, f64::min)
}

/// Runs `f` once; returns its wall seconds and its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (secs(start.elapsed()), value)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded stream for workload inputs
/// (rotations, arrival times, request mix), independent of the
/// program's RNGs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5eed_cafe_f00d_d00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The recorded per-seed references (`perfbench/reference.json`).
pub struct References(Value);

impl References {
    pub fn load() -> References {
        let doc = json::parse(include_str!("../reference.json"))
            .expect("perfbench/reference.json is valid JSON");
        References(doc)
    }

    /// The reference of `workload` for input seed `seed`, if recorded.
    pub fn get(&self, seed: u64, workload: &str) -> Option<&Value> {
        self.0.get("seeds")?.get(&seed.to_string())?.get(workload)
    }
}

/// Renders `(name, value)` rows as a JSON object.
pub fn object(rows: &[(String, String)]) -> String {
    rows.iter()
        .fold(ObjectBuilder::new(), |b, (k, v)| b.string(k, v))
        .build()
}
