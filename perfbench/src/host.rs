//! How fast this host runs right now, from a fixed, benchmark-owned
//! CPU probe.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants
//! of that host take cycles from it (a busy sibling hyperthread, a
//! lower clock, a thrashed last-level cache), and the same work can
//! take twice as long from one minute to the next. A CPU-bound figure
//! measured that way says more about the neighbours than about the
//! program. So the CPU-bound workloads time the probe between their
//! units of measured work and report their timings scaled to a host on
//! which the probe takes `REFERENCE_PROBE_S`:
//!
//! ```text
//! reported = measured × REFERENCE_PROBE_S / probe
//! ```
//!
//! The probe uses none of the program's code, so a change to the
//! program moves the reported figure exactly as it moves the measured
//! one. It mixes what the analysis does — integer fixpoint iterations
//! with divisions, hashed lookups, short-lived allocations and reads
//! scattered over a table larger than L2 — and spreads a fixed number
//! of chunks over `jobs` threads through a shared counter, the way the
//! engine spreads a batch.

use crate::common::{median, secs, SplitMix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Probe seconds on the reference host: a round figure near what two
/// jobs took on a 2-vCPU Xeon VM, so the scaled figures stay near the
/// measured ones there.
pub const REFERENCE_PROBE_S: f64 = 0.050;
/// Chunks per probe, shared among the jobs.
const CHUNKS: usize = 192;
const TASKS: usize = 48;
/// Words in the scattered-read table (16 MiB, counted in the run's
/// `peak_rss_mb`).
const TABLE_WORDS: usize = 1 << 21;

/// The probes of one run, taken between its units of measured work.
pub struct HostSpeed {
    jobs: usize,
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Takes the first probe, before the first unit of work.
    pub fn new(jobs: usize) -> Self {
        let mut speed = HostSpeed {
            jobs,
            probes: Vec::new(),
        };
        speed.probe();
        speed
    }

    /// Takes a probe after a unit of work; returns the host's speed
    /// during that unit, from the probes just before and just after
    /// it: below 1 while the host runs slower than the reference.
    pub fn probe(&mut self) -> f64 {
        self.probes.push(probe_s(self.jobs));
        let last = &self.probes[self.probes.len().saturating_sub(2)..];
        REFERENCE_PROBE_S * last.len() as f64 / last.iter().sum::<f64>()
    }

    /// The host's speed over the whole run: from the median probe.
    pub fn median(&self) -> f64 {
        REFERENCE_PROBE_S / median(&self.probes)
    }
}

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rng = SplitMix::new(0x0b5e_55ed);
        (0..TABLE_WORDS).map(|_| rng.next_u64()).collect()
    })
}

/// One probe: wall seconds for `CHUNKS` chunks on `jobs` threads.
fn probe_s(jobs: usize) -> f64 {
    let table = table();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| {
                let mut acc = 0u64;
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= CHUNKS {
                        break;
                    }
                    acc = acc.wrapping_add(chunk(k as u64, table));
                }
                std::hint::black_box(acc)
            });
        }
    });
    secs(start.elapsed())
}

/// One chunk of probe work; the value keeps it from being optimised
/// away.
fn chunk(k: u64, table: &[u64]) -> u64 {
    let mut rng = SplitMix::new(k);
    // Response-time fixpoints over a random task set, highest priority
    // first: r = c + Σ ceil((r + j) / t) · c over the tasks before it.
    let tasks: Vec<(u64, u64)> = (0..TASKS)
        .map(|_| (1 + rng.below(40), 2_000 + rng.below(98_000)))
        .collect();
    let mut acc = 0u64;
    for i in 0..TASKS {
        let (c, _) = tasks[i];
        let mut r = c;
        for _ in 0..64 {
            let next = c + tasks[..i]
                .iter()
                .map(|&(cj, tj)| (r + 50).div_ceil(tj) * cj)
                .sum::<u64>();
            if next == r {
                break;
            }
            r = next;
        }
        acc = acc.wrapping_mul(31).wrapping_add(r);
    }
    // Hashed lookups on a map built per chunk, and scattered reads.
    let mut map: HashMap<u64, Vec<u64>> = HashMap::with_capacity(256);
    for _ in 0..512 {
        let key = rng.below(256);
        let idx = (rng.next_u64() as usize) % table.len();
        map.entry(key).or_default().push(table[idx] ^ acc);
    }
    for _ in 0..2048 {
        let idx = (acc as usize ^ rng.next_u64() as usize) % table.len();
        acc = acc.rotate_left(7) ^ table[idx];
        if let Some(v) = map.get(&rng.below(256)) {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    acc
}
