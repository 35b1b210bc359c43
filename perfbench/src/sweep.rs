//! `sweep`: offline what-if exploration through
//! `Evaluator::evaluate_batch`.
//!
//! One pass streams a fixed grid of structurally distinct variants
//! over a fleet of four K-Matrices — per matrix 32 jitter ratios × 16
//! sporadic-error intervals × 4 identifier permutations (identity plus
//! three seeded rotations) — in slabs of 1024 through a fresh evaluator
//! whose bounded cache (2048 entries) is smaller than the 8192-point
//! working set. A fleet rather than one matrix keeps the work per pass
//! nearly the same from seed to seed. Passes alternate between
//! `jobs = nproc` and `jobs = 1`, so both rates come from the same
//! stretch of time.

use crate::common::{
    fleet_seeds, mean, median, peak_rss_mb, secs, setup_sample, timed, References, Report,
    RunConfig, SplitMix,
};
use crate::host::HostSpeed;
use crate::kernel::Kernel;
use crate::trace::{self, Layer, Tracer};
use carta_can::compiled::{CompiledBus, RtaWorkspace, SolvePoint};
use carta_can::rta::BusReport;
use carta_core::time::Time;
use carta_engine::evaluator::EvalResult;
use carta_engine::prelude::{BaseSystem, CacheStats, Evaluator, Scenario, SystemVariant};
use carta_kmatrix::csv::{from_csv, to_csv};
use carta_kmatrix::generator::{powertrain_kmatrix, CaseStudyConfig};
use carta_obs::metrics::MetricsRegistry;
use std::sync::Arc;
use std::time::Instant;

const FLEET: usize = 4;
const RATIOS: usize = 32;
const ERRORS: usize = 16;
const PERMS: usize = 4;
const PER_BASE: usize = RATIOS * ERRORS * PERMS;
const POINTS: usize = FLEET * PER_BASE;
const SLAB: usize = 1024;
const CACHE_CAPACITY: usize = 2048;
/// `peak_rss_mb` is read after this many passes: a fixed amount of
/// work, so the figure does not grow with how many passes a fast host
/// fits into the run.
const RSS_AFTER_PASSES: usize = 6;
/// The engine's fixed batch chunk: warm-start state never crosses a
/// chunk boundary, so the kernel replay invalidates there too.
const ENGINE_CHUNK: usize = 64;
/// Traced run: passes that replay the kernel next to each batch.
const KERNEL_SHARE_PASSES: usize = 3;

/// One K-Matrix of the fleet and its permutation axis.
struct Base {
    system: Arc<BaseSystem>,
    perms: Vec<Option<Arc<Vec<usize>>>>,
}

pub struct Inputs {
    bases: Vec<Base>,
}

/// Loads the fleet's K-Matrices (as CSV text, the way a user's file
/// arrives) and lays out each one's permutation axis.
pub fn setup(input_seed: u64) -> Inputs {
    let mut rng = SplitMix::new(input_seed);
    let bases = fleet_seeds(input_seed, FLEET)
        .into_iter()
        .map(|seed| {
            let matrix = powertrain_kmatrix(&CaseStudyConfig {
                seed,
                ..CaseStudyConfig::default()
            });
            let net = from_csv(&to_csv(&matrix))
                .expect("generated K-Matrix parses")
                .to_network()
                .expect("generated K-Matrix converts");
            let n = net.messages().len();
            let mut rotations: Vec<usize> = Vec::new();
            while rotations.len() < PERMS - 1 {
                let rot = 1 + rng.below(n as u64 - 1) as usize;
                if !rotations.contains(&rot) {
                    rotations.push(rot);
                }
            }
            let perms = std::iter::once(None)
                .chain(
                    rotations
                        .iter()
                        .map(|&rot| Some(Arc::new((0..n).map(|i| (i + rot) % n).collect()))),
                )
                .collect();
            Base {
                system: BaseSystem::new(net),
                perms,
            }
        })
        .collect();
    Inputs { bases }
}

/// Point `i` of the grid: jitter ratio fastest, then error interval,
/// then permutation, then fleet matrix.
fn point(inputs: &Inputs, i: usize) -> SystemVariant {
    let base = &inputs.bases[i / PER_BASE];
    let j = i % PER_BASE;
    let ratio = (j % RATIOS) as f64 / RATIOS as f64 * 0.6;
    let err = (j / RATIOS) % ERRORS;
    let scenario = Scenario::sporadic_errors(Time::from_us(2_000 + 500 * err as u64));
    let v = SystemVariant::new(base.system.clone(), scenario).with_jitter_ratio(ratio);
    match &base.perms[j / (RATIOS * ERRORS)] {
        Some(p) => v.with_permutation(p.clone()),
        None => v,
    }
}

/// Order-dependent fold over every message's WCRT (unbounded folds as
/// `u64::MAX`); returns the new checksum and the number of failed
/// points.
fn fold(mut checksum: u64, results: &[EvalResult]) -> (u64, u64) {
    let mut errors = 0;
    for result in results {
        match result {
            Ok(report) => {
                for m in &report.messages {
                    let wcrt = m.outcome.wcrt().map_or(u64::MAX, |t| t.as_ns());
                    checksum = checksum.wrapping_mul(0x100000001b3).wrapping_add(wcrt);
                }
            }
            Err(_) => {
                errors += 1;
                checksum = checksum.wrapping_mul(0x100000001b3) ^ 0xdead;
            }
        }
    }
    (checksum, errors)
}

struct Pass {
    jobs: usize,
    wall_s: f64,
    /// The host's speed while the pass ran (see `host`), from the
    /// probes just before and just after it.
    speed: f64,
    batch_s: f64,
    build_s: f64,
    checksum: u64,
    errors: u64,
    stats: CacheStats,
}

fn run_pass(
    inputs: &Inputs,
    jobs: usize,
    registry: Option<&Arc<MetricsRegistry>>,
    mut tracer: Option<&mut Tracer>,
) -> (Pass, Evaluator) {
    let start = Instant::now();
    let root = tracer.as_mut().map(|t| t.open("sweep.pass", Layer::Op));
    let mut builder = Evaluator::builder()
        .jobs(jobs)
        .cache_capacity(CACHE_CAPACITY);
    if let Some(registry) = registry {
        builder = builder.metrics(registry);
    }
    let eval = builder.build();
    let (mut checksum, mut errors) = (0u64, 0u64);
    let (mut batch_s, mut build_s) = (0.0, 0.0);
    for lo in (0..POINTS).step_by(SLAB) {
        let t0 = Instant::now();
        let slab: Vec<SystemVariant> = (lo..lo + SLAB).map(|i| point(inputs, i)).collect();
        let t1 = Instant::now();
        let results = eval.evaluate_batch(&slab);
        let t2 = Instant::now();
        let (next, errs) = fold(checksum, &results);
        let t3 = Instant::now();
        checksum = next;
        errors += errs;
        build_s += secs(t1 - t0);
        batch_s += secs(t2 - t1);
        if let Some(t) = tracer.as_mut() {
            t.record(root, "engine.variant_build", Layer::Engine, t0, t1);
            t.record(root, "engine.evaluate_batch", Layer::Engine, t1, t2);
            t.record(root, "bench.checksum", Layer::Bench, t2, t3);
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    let pass = Pass {
        jobs,
        wall_s: secs(start.elapsed()),
        speed: 1.0,
        batch_s,
        build_s,
        checksum,
        errors,
        stats: eval.stats(),
    };
    (pass, eval)
}

/// Kernel-only replay of a pass in the engine's chunk order, one slab
/// at a time: per fleet matrix one `CompiledBus::compile`, the identity
/// block through `solve_point` (warm state reset at every engine chunk
/// boundary), and each permuted point through `reordered` plus
/// `solve_incremental` against the identity report of the same ratio
/// and interval — the anchor the engine diffs it against.
struct KernelReplay<'a> {
    inputs: &'a Inputs,
    kernel: Kernel,
    /// The current fleet matrix compiled, and its higher-priority sets.
    identity: Option<(CompiledBus, Vec<Vec<usize>>)>,
    anchors: Vec<BusReport>,
    ws: RtaWorkspace,
    solve_point: SolvePoint,
}

impl<'a> KernelReplay<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        KernelReplay {
            inputs,
            kernel: Kernel::default(),
            identity: None,
            anchors: Vec::with_capacity(RATIOS * ERRORS),
            ws: RtaWorkspace::new(),
            solve_point: SolvePoint::new(),
        }
    }

    /// Replays the slab starting at point `lo`; returns its kernel
    /// time, µs.
    fn slab(&mut self, lo: usize) -> f64 {
        let identity_block = RATIOS * ERRORS;
        let mut slab_us = 0.0;
        for i in lo..lo + SLAB {
            let base = &self.inputs.bases[i / PER_BASE];
            let j = i % PER_BASE;
            let v = point(self.inputs, i);
            let config = v.scenario().analysis_config();
            if j == 0 {
                let compiled = self.kernel.compile(base.system.network(), &config);
                let hp = compiled.hp_sets().to_vec();
                self.identity = Some((compiled, hp));
                self.anchors.clear();
                slab_us += self.kernel.compile_us.last().copied().unwrap_or(0.0);
            }
            let (identity, hp) = self
                .identity
                .as_ref()
                .expect("compiled at the matrix's first point");
            let errors = v.scenario().errors.model();
            slab_us += if j < identity_block {
                if i % ENGINE_CHUNK == 0 {
                    self.ws.invalidate();
                }
                let n = base.system.network().messages().len();
                self.solve_point.fill_with(n, |k| v.solve_row(k));
                let (report, us) = self.kernel.solve(
                    identity,
                    &self.solve_point,
                    errors.as_ref(),
                    &config,
                    &mut self.ws,
                );
                self.anchors.push(report);
                us
            } else {
                let net = v.materialize();
                let anchor = Some((&self.anchors[j % identity_block], &hp[..]));
                let (report, _, us) =
                    self.kernel
                        .permuted(identity, &net, errors.as_ref(), &config, anchor);
                std::hint::black_box(report);
                us
            };
        }
        slab_us
    }
}

/// A `jobs = 1` pass on a fresh evaluator that replays each slab's
/// kernel calls right after `evaluate_batch` answered it, so the two
/// run within milliseconds of each other. Returns the replay, each
/// slab's kernel time over its batch time, and the pass's batch time
/// in seconds.
fn kernel_share_pass(inputs: &Inputs) -> (Kernel, Vec<f64>, f64) {
    let eval = Evaluator::builder()
        .jobs(1)
        .cache_capacity(CACHE_CAPACITY)
        .build();
    let mut replay = KernelReplay::new(inputs);
    let (mut shares, mut batch_s) = (Vec::new(), 0.0);
    for lo in (0..POINTS).step_by(SLAB) {
        let slab: Vec<SystemVariant> = (lo..lo + SLAB).map(|i| point(inputs, i)).collect();
        let t0 = Instant::now();
        std::hint::black_box(eval.evaluate_batch(&slab));
        let batch = secs(t0.elapsed());
        batch_s += batch;
        shares.push(replay.slab(lo) / (batch * 1e6));
    }
    (replay.kernel, shares, batch_s)
}

/// Mean µs of one cached `Evaluator::evaluate` after a pass.
fn evaluate_hit_us(eval: &Evaluator, inputs: &Inputs) -> f64 {
    let v = point(inputs, 0);
    let _ = eval.evaluate(&v);
    let reps = 2000;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(eval.evaluate(&v).is_ok());
    }
    secs(t0.elapsed()) * 1e6 / reps as f64
}

/// Median µs of `Evaluator::evaluate_prob` on a fresh evaluator.
fn prob_us(inputs: &Inputs) -> f64 {
    let v = point(inputs, RATIOS / 4);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let eval = Evaluator::builder().jobs(1).build();
            let t0 = Instant::now();
            let ok = eval.evaluate_prob(&v).is_ok();
            let us = secs(t0.elapsed()) * 1e6;
            assert!(ok, "prob analysis of a generated network succeeds");
            us
        })
        .collect();
    median(&samples)
}

fn stats_row(s: &CacheStats) -> String {
    format!(
        "hits={} misses={} compiles={} warm_starts={} cold_starts={} reused={} recomputed={}",
        s.hits,
        s.misses,
        s.compiles,
        s.warm_starts,
        s.cold_starts,
        s.messages_reused,
        s.messages_recomputed
    )
}

pub fn run(cfg: &RunConfig, refs: &References) -> Report {
    let mut report = Report::default();
    let seed = cfg.input_seed();
    let (first_setup_s, inputs) = timed(|| setup(seed));
    let mut setup_times = vec![first_setup_s];
    report.note("points_per_pass", POINTS);

    // Untraced passes: two at jobs = 1 for the cross-jobs checks, then
    // jobs = nproc. A traced run alternates the two job counts after
    // that, for `sweep.points_per_s_1job`, and spends half its budget
    // here for the overhead baseline.
    let budget = if cfg.trace {
        cfg.seconds * 0.45
    } else {
        cfg.seconds
    };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_eval = None;
    let mut rss = None;
    let mut host = HostSpeed::new(cfg.jobs);
    while passes.len() < RSS_AFTER_PASSES || secs(started.elapsed()) < budget {
        let n = passes.len();
        let jobs = if n < 2 || (cfg.trace && n % 2 == 1) {
            1
        } else {
            cfg.jobs
        };
        let (mut pass, eval) = run_pass(&inputs, jobs, None, None);
        pass.speed = host.probe();
        passes.push(pass);
        last_eval = Some(eval);
        if passes.len() == RSS_AFTER_PASSES {
            rss = Some(peak_rss_mb(None));
        }
        setup_times.push(setup_sample(|| setup(seed)));
    }
    let setup_s = median(&setup_times);
    // The first pass never joins the `jobs = nproc` group: on a
    // one-CPU host it is a jobs = 1 pass on this thread, whose counts
    // differ from later passes' (see the repeat check below).
    let par: Vec<&Pass> = passes[1..].iter().filter(|p| p.jobs == cfg.jobs).collect();
    let one: Vec<&Pass> = passes.iter().filter(|p| p.jobs == 1).collect();
    let rate = |ps: &[&Pass]| {
        median(
            &ps.iter()
                .map(|p| POINTS as f64 / p.wall_s)
                .collect::<Vec<_>>(),
        )
    };

    // Output checks.
    let checksum = passes[0].checksum;
    let errors: u64 = passes.iter().map(|p| p.errors).sum();
    report.check(
        "sweep_points_analyzed",
        errors == 0,
        format!("{errors} failed points"),
    );
    let mismatched: Vec<&Pass> = passes.iter().filter(|p| p.checksum != checksum).collect();
    report.check(
        "sweep_checksum_equal_across_jobs",
        mismatched.is_empty(),
        format!(
            "{} of {} passes differ from {checksum:#018x}",
            mismatched.len(),
            passes.len()
        ),
    );
    let reference = refs.get(seed, "sweep");
    let ref_checksum = reference
        .and_then(|r| r.get("checksum")?.as_str())
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        .map(|c| if cfg.corrupt_reference { c ^ 1 } else { c });
    report.check(
        "sweep_checksum_matches_reference",
        ref_checksum == Some(checksum),
        format!("run {checksum:#018x}, reference {ref_checksum:x?}"),
    );
    // Counters must repeat exactly at fixed jobs. The first jobs = 1
    // pass is left out: it runs on this thread, whose per-thread
    // scratch pool outlives the evaluator, so later passes find the
    // base already compiled (one compile fewer).
    for group in [&par[..], &one[1..]] {
        let first = group[0].stats;
        report.check(
            &format!("sweep_counts_repeat_at_jobs_{}", group[0].jobs),
            group.iter().all(|p| p.stats == first),
            group
                .iter()
                .map(|p| stats_row(&p.stats))
                .collect::<Vec<_>>()
                .join(" | "),
        );
    }
    let ref_counts = reference.and_then(|r| r.get("counts_jobs_1")?.as_str());
    report.check(
        "sweep_counts_match_reference_at_jobs_1",
        ref_counts == Some(stats_row(&one[1].stats).as_str()),
        format!("run {}, reference {ref_counts:?}", stats_row(&one[1].stats)),
    );
    report.note("checksum", format!("{checksum:#018x}"));
    report.note(
        &format!("counts_jobs_{}", cfg.jobs),
        stats_row(&par[0].stats),
    );
    report.note("counts_jobs_1_first_pass", stats_row(&one[0].stats));
    report.note("counts_jobs_1", stats_row(&one[1].stats));
    report.note("passes_jobs_n", par.len());
    report.note("passes_jobs_1", one.len());

    // A pass whose checksum misses the reference failed as a whole.
    let expected = ref_checksum.unwrap_or(checksum);
    report.attempted = (passes.len() * POINTS) as u64;
    report.failed = passes
        .iter()
        .map(|p| {
            if p.checksum == expected {
                p.errors
            } else {
                POINTS as u64
            }
        })
        .sum();
    let fail_share = report.failed as f64 / report.attempted as f64;

    if !cfg.trace {
        // Slabs of identity and of permuted points differ in cost, so
        // a median over single slabs would sit on the boundary between
        // the two kinds; each pass's mean slab latency is one sample,
        // scaled to the reference host's speed (see `host`).
        let slab_ms = |p: &&Pass| p.wall_s * 1e3 / (POINTS / SLAB) as f64;
        let scaled_ms: Vec<f64> = par.iter().map(|p| slab_ms(p) * p.speed).collect();
        let p50_ms = median(&scaled_ms);
        let measured_ms = median(&par.iter().map(slab_ms).collect::<Vec<_>>());
        report.note("measured_p50_ms", measured_ms);
        report.note("host_speed", host.median());
        report.note("measured_setup_s", setup_s);
        report.set("setup_s", setup_s * host.median());
        report.set("peak_rss_mb", rss.expect("enough passes ran"));
        report.set("ok_share", 1.0 - fail_share);
        report.set("p50_ms", p50_ms);
        report.set("rate_per_s", SLAB as f64 * 1e3 / p50_ms);
        return report;
    }

    // Traced run: jobs = 1 passes with spans (CPU time equals wall
    // time there, so the kernel replay can be charged inside each
    // evaluate_batch span), one jobs = nproc pass with an explicit
    // metrics registry, then the kernel replay.
    report.set("fail_share", fail_share);
    report.set("sweep.points_per_s_1job", rate(&one));
    let untraced_1job_s = median(&one.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let traced: Vec<Pass> = (0..2)
        .map(|_| run_pass(&inputs, 1, None, Some(&mut tracer)).0)
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let (registry_pass, _) = run_pass(&inputs, cfg.jobs, Some(&registry), None);
    let snapshot = registry.snapshot();
    for name in [
        "engine.batch.shard_waits",
        "engine.scratch.evictions",
        "engine.cache.evictions",
    ] {
        report.set(name, snapshot.counter(name).unwrap_or(0) as f64);
    }
    report.check(
        "sweep_traced_checksum",
        traced
            .iter()
            .chain([&registry_pass])
            .all(|p| p.checksum == checksum),
        "traced passes agree with untraced ones",
    );
    // The kernel inside each traced batch is charged as a share of
    // it: per slab, the median over replay passes of kernel time over
    // the batch time it was measured next to.
    let mut kernel = Kernel::default();
    let (mut slab_shares, mut replay_batch_s) = (vec![Vec::new(); POINTS / SLAB], 0.0);
    for _ in 0..KERNEL_SHARE_PASSES {
        let (replayed, shares, batch_s) = kernel_share_pass(&inputs);
        for (all, share) in slab_shares.iter_mut().zip(shares) {
            all.push(share);
        }
        kernel.extend(replayed);
        replay_batch_s += batch_s;
    }
    for (k, id) in tracer
        .ids_named("engine.evaluate_batch")
        .into_iter()
        .enumerate()
    {
        let share = median(&slab_shares[k % (POINTS / SLAB)]);
        tracer.attribute_share(id, "can.kernel", Layer::Can, share);
    }
    let spans = tracer.into_spans();
    trace::decompose(&mut report, &spans);
    report.spans = spans;

    let traced_s = mean(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    report.set("trace_overhead_share", traced_s / untraced_1job_s - 1.0);
    report.set(
        "engine.overhead_share",
        1.0 - kernel.total_us() / (replay_batch_s * 1e6),
    );
    report.set("engine.hit_rate", par[0].stats.hit_rate());
    report.set("engine.warm_start_rate", par[0].stats.warm_start_rate());
    report.set(
        "engine.compiles_per_kpt",
        par[0].stats.compiles as f64 * 1000.0 / POINTS as f64,
    );
    report.set(
        "engine.batch_ms_per_kpt",
        median(
            &par.iter()
                .map(|p| p.batch_s * 1e3 * 1000.0 / POINTS as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "engine.variant_build_us",
        median(
            &par.iter()
                .map(|p| p.build_s * 1e6 / POINTS as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let eval = last_eval.expect("at least one pass ran");
    report.set("engine.evaluate_hit_us", evaluate_hit_us(&eval, &inputs));
    report.set("can.compile_us", mean(&kernel.compile_us));
    report.set("can.solve_cold_us", mean(&kernel.cold_us));
    report.set("can.solve_warm_us", mean(&kernel.warm_us));
    let solved = (kernel.cold_us.len() + kernel.warm_us.len()).max(1);
    report.set(
        "can.iters_per_point",
        kernel.iterations as f64 / solved as f64,
    );
    report.set("can.prob_us", prob_us(&inputs));
    report.note("kernel_cold_points", kernel.cold_us.len());
    report.note("kernel_warm_points", kernel.warm_us.len());
    report.note("kernel_permuted_points", kernel.permuted_us.len());
    report
}

/// The reference row of input seed `seed`: the pass checksum (asserted
/// equal at jobs 1 and `jobs`) and the jobs = 1 cache counters.
pub fn reference(seed: u64, jobs: usize) -> String {
    let inputs = setup(seed);
    let (par, _) = run_pass(&inputs, jobs, None, None);
    let _ = run_pass(&inputs, 1, None, None);
    let (one, _) = run_pass(&inputs, 1, None, None);
    assert_eq!(one.errors, 0, "seed {seed}: failed sweep points");
    assert_eq!(
        one.checksum, par.checksum,
        "seed {seed}: checksum differs across jobs"
    );
    carta_obs::json::ObjectBuilder::new()
        .string("checksum", &format!("{:#018x}", one.checksum))
        .string("counts_jobs_1", &stats_row(&one.stats))
        .build()
}
