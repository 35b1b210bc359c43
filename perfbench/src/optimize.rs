//! `optimize`: the paper's Sec. 4.2–4.3 pipeline through
//! `Handler::handle`, in-process, on a fresh handler per pipeline, for
//! each K-Matrix of a fleet of three (one round):
//!
//! 1. the `loss` and `prob-loss` curves under burst errors (the
//!    worst-case scenario);
//! 2. SPEA2 `optimize` with the API's default population (60) and
//!    generation count (40);
//! 3. the loss curve of the optimised matrix, which the `optimize`
//!    response carries next to the original's.
//!
//! Each genome is a fresh identifier permutation, so the engine
//! compiles nearly every analysis and reuses little — the opposite of
//! `sweep`'s solve-heavy, warm-started batches. A fleet rather than one
//! matrix keeps the work per round nearly the same from seed to seed.

use crate::common::{
    fleet_seeds, mean, median, peak_rss_mb, secs, setup_sample, timed, References, Report,
    RunConfig,
};
use crate::host::HostSpeed;
use crate::kernel::Kernel;
use crate::trace::{self, Layer, Tracer};
use carta_api::handler::load_network;
use carta_api::prelude::{Handler, Model, OptimizeSummary, Request, Response, ScenarioSpec};
use carta_api::wire;
use carta_can::network::CanNetwork;
use carta_can::rta::BusReport;
use carta_engine::prelude::{
    BaseSystem, CacheStats, Evaluator, Parallelism, Scenario, SystemVariant,
};
use carta_explore::loss::{paper_jitter_grid, LossCurve};
use carta_explore::sweeps::Sweeps;
use carta_kmatrix::csv::to_csv;
use carta_kmatrix::generator::{powertrain_kmatrix, CaseStudyConfig};
use carta_obs::json::{ObjectBuilder, Value};
use carta_obs::metrics::MetricsRegistry;
use carta_optim::canid::CanIdProblem;
use carta_optim::permutation::Permutation;
use carta_optim::spea2::{self, Problem, Spea2Config};
use rand::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `optimize` request's defaults on the wire and in the CLI.
const POPULATION: usize = 60;
const GENERATIONS: usize = 40;
/// `CanIdProblem`'s evaluation ratios under `optimize_can_ids`'s
/// defaults.
const EVAL_RATIOS: [f64; 3] = [0.25, 0.40, 0.60];

const FLEET: usize = 3;
/// Traced run: back-to-back replays per matrix of the pipeline and of
/// the parts of its `optimize` call, and of its short calls.
const HEAVY_REPLAYS: usize = 3;
const LIGHT_REPLAYS: usize = 9;
/// `peak_rss_mb` is read after this many rounds: a fixed amount of
/// work, however many rounds the host fits into the run.
const RSS_AFTER_ROUNDS: usize = 2;

struct Inputs {
    models: Vec<Model>,
}

/// Generates the fleet's K-Matrices as CSV text and checks they load.
fn setup(input_seed: u64) -> Inputs {
    let models = fleet_seeds(input_seed, FLEET)
        .into_iter()
        .map(|seed| {
            let model = Model::from_csv(to_csv(&powertrain_kmatrix(&CaseStudyConfig {
                seed,
                ..CaseStudyConfig::default()
            })));
            load_network(&model).expect("generated K-Matrix loads");
            model
        })
        .collect();
    Inputs { models }
}

/// What one pipeline produced.
struct Pipeline {
    wall_s: f64,
    loss_us: f64,
    optimize_us: f64,
    encode_us: Vec<f64>,
    loss: Option<LossCurve>,
    summary: Option<OptimizeSummary>,
    errors: u64,
    /// The pipeline's handler, kept for a traced pipeline only: every
    /// handler holds its evaluator's caches.
    handler: Option<Handler>,
}

fn pipeline(model: &Model, jobs: usize, mut tracer: Option<&mut Tracer>) -> Pipeline {
    let start = Instant::now();
    let root = tracer
        .as_mut()
        .map(|t| t.open("optimize.pipeline", Layer::Op));
    let handler = Handler::new(Parallelism::new(jobs));
    let model = model.clone();
    let requests = [
        Request::Loss {
            model: model.clone(),
            scenario: ScenarioSpec::Worst,
        },
        Request::ProbLoss {
            model: model.clone(),
            scenario: ScenarioSpec::Worst,
        },
        Request::Optimize {
            model,
            population: POPULATION,
            generations: GENERATIONS,
            emit_csv: false,
        },
    ];
    let mut out = Pipeline {
        wall_s: 0.0,
        loss_us: 0.0,
        optimize_us: 0.0,
        encode_us: Vec::new(),
        loss: None,
        summary: None,
        errors: 0,
        handler: tracer.is_some().then(|| handler.clone()),
    };
    for request in &requests {
        let name = match request {
            Request::Loss { .. } => "api.handle.loss",
            Request::ProbLoss { .. } => "api.handle.prob-loss",
            _ => "api.handle.optimize",
        };
        let t0 = Instant::now();
        let span = tracer.as_mut().map(|t| t.open(name, Layer::Api));
        let result = handler.handle(request);
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
        let t1 = Instant::now();
        let us = secs(t1 - t0) * 1e6;
        match result {
            Ok(response) => {
                let body = wire::encode_response(&response);
                let t2 = Instant::now();
                std::hint::black_box(body);
                if let Some(t) = tracer.as_mut() {
                    t.record(root, "api.encode", Layer::Api, t1, t2);
                }
                out.encode_us.push(secs(t2 - t1) * 1e6);
                match response {
                    Response::Loss(curve) => {
                        out.loss_us = us;
                        out.loss = Some(curve);
                    }
                    Response::ProbLoss(_) => {}
                    Response::Optimize(summary) => {
                        out.optimize_us = us;
                        out.summary = Some(summary);
                    }
                    _ => out.errors += 1,
                }
            }
            Err(_) => out.errors += 1,
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    out.wall_s = secs(start.elapsed());
    out
}

fn missed(curve: &LossCurve) -> Vec<u64> {
    curve.points.iter().map(|p| p.missed as u64).collect()
}

fn join<T: std::fmt::Debug>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The outputs the reference pins: the winner's objectives and the
/// loss tables before and after, as exact text.
fn outputs(p: &Pipeline) -> Option<(String, String, String)> {
    let s = p.summary.as_ref()?;
    Some((
        join(&s.objectives),
        join(&missed(&s.loss_before)),
        join(&missed(&s.loss_after)),
    ))
}

/// The run's counters. Only `evaluations` repeats exactly: at jobs > 1
/// the engine's hit/miss and warm/cold counters of a permutation batch
/// depend on which worker reaches a genome first.
fn counts(p: &Pipeline) -> Option<String> {
    let s = p.summary.as_ref()?;
    Some(format!(
        "evaluations={} hits={} misses={} compiles={}",
        s.evaluations, s.cache.hits, s.cache.misses, s.cache.compiles
    ))
}

/// Wraps the optimisation problem to time `evaluate_population` from
/// the outside. With a kernel replay attached, each population's
/// distinct analyses are replayed kernel-only right after the engine
/// evaluated them, so the two are timed within milliseconds of each
/// other; the replay's own time is kept apart.
struct Timed<'a> {
    inner: CanIdProblem<'a>,
    eval: Cell<Duration>,
    evaluations: Cell<u64>,
    replay: Option<RefCell<KernelReplay>>,
    replay_wall: Cell<Duration>,
}

impl Problem for Timed<'_> {
    type Genome = Permutation;

    fn random_genome(&self, rng: &mut StdRng) -> Permutation {
        self.inner.random_genome(rng)
    }

    fn seed_genomes(&self) -> Vec<Permutation> {
        self.inner.seed_genomes()
    }

    fn crossover(&self, a: &Permutation, b: &Permutation, rng: &mut StdRng) -> Permutation {
        self.inner.crossover(a, b, rng)
    }

    fn mutate(&self, genome: &mut Permutation, rng: &mut StdRng) {
        self.inner.mutate(genome, rng);
    }

    fn evaluate(&self, genome: &Permutation) -> Vec<f64> {
        self.evaluate_population(std::slice::from_ref(genome))
            .remove(0)
    }

    fn evaluate_population(&self, genomes: &[Permutation]) -> Vec<Vec<f64>> {
        let t0 = Instant::now();
        let out = self.inner.evaluate_population(genomes);
        let t1 = Instant::now();
        self.eval.set(self.eval.get() + (t1 - t0));
        self.evaluations
            .set(self.evaluations.get() + genomes.len() as u64);
        if let Some(replay) = &self.replay {
            replay.borrow_mut().replay(genomes);
            self.replay_wall.set(self.replay_wall.get() + t1.elapsed());
        }
        out
    }
}

/// Kernel-only replay of the GA's distinct analyses in evaluation
/// order: one full compile of the base, then per distinct genome and
/// evaluation ratio a `reordered` plus an incremental solve against the
/// ratio's anchor (the ratio's first analysis, solved cold).
struct KernelReplay {
    kernel: Kernel,
    net: CanNetwork,
    base: Arc<BaseSystem>,
    scenario: Scenario,
    identity: Option<carta_can::compiled::CompiledBus>,
    anchors: Vec<Option<(BusReport, Vec<Vec<usize>>)>>,
    seen: HashSet<Vec<usize>>,
}

impl KernelReplay {
    fn new(net: &CanNetwork) -> KernelReplay {
        KernelReplay {
            kernel: Kernel::default(),
            net: net.clone(),
            base: BaseSystem::new(net.clone()),
            scenario: Scenario::worst_case(),
            identity: None,
            anchors: vec![None; EVAL_RATIOS.len()],
            seen: HashSet::new(),
        }
    }

    fn replay(&mut self, genomes: &[Permutation]) {
        let errors = self.scenario.errors.model();
        let config = self.scenario.analysis_config();
        if self.identity.is_none() {
            self.identity = Some(self.kernel.compile(&self.net, &config));
        }
        let identity = self.identity.as_ref().expect("compiled above");
        for genome in genomes {
            if !self.seen.insert(genome.as_slice().to_vec()) {
                continue;
            }
            let perm = Arc::new(genome.as_slice().to_vec());
            for (r, &ratio) in EVAL_RATIOS.iter().enumerate() {
                let v = SystemVariant::new(self.base.clone(), self.scenario.clone())
                    .with_jitter_ratio(ratio)
                    .with_permutation(perm.clone());
                let permuted = v.materialize();
                let anchor = self.anchors[r]
                    .as_ref()
                    .map(|(report, hp)| (report, &hp[..]));
                let (report, hp, _) =
                    self.kernel
                        .permuted(identity, &permuted, errors.as_ref(), &config, anchor);
                if self.anchors[r].is_none() {
                    self.anchors[r] = Some((report, hp));
                }
            }
        }
    }
}

/// The SPEA2 run of the pipeline, repeated outside the handler with a
/// timing adapter.
struct GaRun {
    /// The run's wall time, less any kernel replay.
    total_s: f64,
    eval_s: f64,
    evaluations: u64,
    registry: Option<Arc<MetricsRegistry>>,
    kernel: Option<Kernel>,
}

/// What a [`ga_run`] attaches besides the timing adapter.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GaMode {
    /// An explicit metrics registry, which switches on the engine's
    /// per-evaluation instrumentation: use it for counters, never for
    /// timings.
    Counted,
    /// A kernel replay of each population (see [`Timed`]).
    KernelReplay,
}

fn ga_run(net: &CanNetwork, jobs: usize, mode: GaMode) -> GaRun {
    let registry = (mode == GaMode::Counted).then(|| Arc::new(MetricsRegistry::new()));
    let mut builder = Evaluator::builder().parallelism(Parallelism::new(jobs));
    if let Some(registry) = &registry {
        builder = builder.metrics(registry);
    }
    let problem = Timed {
        inner: CanIdProblem::new(net, Scenario::worst_case(), EVAL_RATIOS.to_vec())
            .with_evaluator(builder.build()),
        eval: Cell::new(Duration::ZERO),
        evaluations: Cell::new(0),
        replay: (mode == GaMode::KernelReplay).then(|| RefCell::new(KernelReplay::new(net))),
        replay_wall: Cell::new(Duration::ZERO),
    };
    let config = Spea2Config {
        population: POPULATION,
        archive: POPULATION / 2,
        generations: GENERATIONS,
        ..Spea2Config::default()
    };
    let t0 = Instant::now();
    let result = spea2::optimize(&problem, &config);
    let total_s = secs(t0.elapsed() - problem.replay_wall.get());
    std::hint::black_box(result.archive.len());
    GaRun {
        total_s,
        eval_s: secs(problem.eval.get()),
        evaluations: problem.evaluations.get(),
        registry,
        kernel: problem.replay.map(|r| r.into_inner().kernel),
    }
}

/// One pipeline per fleet matrix, in fleet order.
fn round(inputs: &Inputs, jobs: usize, mut tracer: Option<&mut Tracer>) -> Vec<Pipeline> {
    inputs
        .models
        .iter()
        .map(|model| pipeline(model, jobs, tracer.as_deref_mut()))
        .collect()
}

fn round_wall(round: &[Pipeline]) -> f64 {
    round.iter().map(|p| p.wall_s).sum()
}

fn check_outputs(
    report: &mut Report,
    cfg: &RunConfig,
    refs: &References,
    rounds: &[Vec<Pipeline>],
) -> u64 {
    let reference = refs
        .get(cfg.input_seed(), "optimize")
        .and_then(Value::as_arr);
    let mut failed = 0;
    for m in 0..FLEET {
        let row = reference.and_then(|r| r.get(m));
        let field = |key: &str| row.and_then(|r| r.get(key)?.as_str()).map(str::to_string);
        let mut expected = (
            field("objectives"),
            field("loss_before"),
            field("loss_after"),
        );
        if cfg.corrupt_reference {
            expected.0 = expected.0.map(|o| format!("{o},0.0"));
        }
        let ref_evaluations = row.and_then(|r| r.get("evaluations")?.as_u64());
        let mut bad = 0;
        for round in rounds {
            let run = &round[m];
            let ok = run.errors == 0
                && outputs(run).is_some_and(|(o, b, a)| {
                    Some(o) == expected.0 && Some(b) == expected.1 && Some(a) == expected.2
                })
                && run.summary.as_ref().map(|s| s.evaluations as u64) == ref_evaluations
                && run.loss.as_ref().map(missed)
                    == run.summary.as_ref().map(|s| missed(&s.loss_before));
            if !ok {
                bad += 1;
                failed += 3;
            }
        }
        report.check(
            &format!("optimize_matrix_{m}_matches_reference"),
            bad == 0,
            format!(
                "{bad} of {} pipelines differ; first {:?}, evaluations {:?}; reference {expected:?}, evaluations {ref_evaluations:?}",
                rounds.len(),
                outputs(&rounds[0][m]),
                rounds[0][m].summary.as_ref().map(|s| s.evaluations),
            ),
        );
        report.note(
            &format!("counts_matrix_{m}"),
            counts(&rounds[0][m]).unwrap_or_default(),
        );
    }
    failed
}

pub fn run(cfg: &RunConfig, refs: &References) -> Report {
    let mut report = Report::default();
    let (first_setup_s, inputs) = timed(|| setup(cfg.input_seed()));
    let mut setup_times = vec![first_setup_s];
    let budget = if cfg.trace {
        cfg.seconds * 0.25
    } else {
        cfg.seconds
    };
    let started = Instant::now();
    let (mut rounds, mut rss) = (Vec::new(), None);
    // Each round's wall time scaled to the reference host's speed (see
    // `host`), pipeline by pipeline, from the probes just before and
    // just after each one.
    let mut scaled_walls = Vec::new();
    let mut host = HostSpeed::new(cfg.jobs);
    while rounds.len() < RSS_AFTER_ROUNDS || secs(started.elapsed()) < budget {
        let mut scaled = 0.0;
        let pipelines: Vec<Pipeline> = inputs
            .models
            .iter()
            .map(|model| {
                let p = pipeline(model, cfg.jobs, None);
                scaled += p.wall_s * host.probe();
                p
            })
            .collect();
        rounds.push(pipelines);
        scaled_walls.push(scaled);
        if rounds.len() == RSS_AFTER_ROUNDS {
            rss = Some(peak_rss_mb(None));
        }
        setup_times.push(setup_sample(|| setup(cfg.input_seed())));
    }
    let setup_s = median(&setup_times);
    let failed = check_outputs(&mut report, cfg, refs, &rounds);
    report.attempted = (3 * FLEET * rounds.len()) as u64;
    report.failed = failed.min(report.attempted);
    report.note(
        "round_walls_ms",
        rounds
            .iter()
            .map(|r| format!("{:.0}", round_wall(r) * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let fail_share = report.failed as f64 / report.attempted as f64;
    let wall_s = median(&rounds.iter().map(|r| round_wall(r)).collect::<Vec<_>>());
    let evaluations: f64 = rounds[0]
        .iter()
        .map(|p| p.summary.as_ref().map_or(0, |s| s.evaluations) as f64)
        .sum();

    if !cfg.trace {
        let scaled_s = median(&scaled_walls);
        report.note("measured_p50_ms", wall_s * 1e3);
        report.note("host_speed", host.median());
        report.note("measured_setup_s", setup_s);
        report.set("setup_s", setup_s * host.median());
        report.set("peak_rss_mb", rss.expect("enough rounds ran"));
        report.set("ok_share", 1.0 - fail_share);
        report.set("p50_ms", scaled_s * 1e3);
        report.set("rate_per_s", evaluations / scaled_s);
        return report;
    }

    report.set("fail_share", fail_share);
    let mut cache = CacheStats::default();
    for s in rounds[0].iter().filter_map(|p| p.summary.as_ref()) {
        cache.hits += s.cache.hits;
        cache.misses += s.cache.misses;
        cache.compiles += s.cache.compiles;
        cache.warm_starts += s.cache.warm_starts;
        cache.cold_starts += s.cache.cold_starts;
    }
    report.set("engine.hit_rate", cache.hit_rate());
    report.set("engine.warm_start_rate", cache.warm_start_rate());
    report.set(
        "engine.compiles_per_kpt",
        cache.compiles as f64 * 1000.0 / (cache.hits + cache.misses).max(1) as f64,
    );
    let nets: Vec<CanNetwork> = inputs
        .models
        .iter()
        .map(|m| load_network(m).expect("model loads"))
        .collect();
    let counted = ga_run(&nets[0], cfg.jobs, GaMode::Counted);
    let snapshot = counted
        .registry
        .as_ref()
        .expect("registry attached")
        .snapshot();
    for name in [
        "engine.batch.shard_waits",
        "engine.scratch.evictions",
        "engine.cache.evictions",
    ] {
        report.set(name, snapshot.counter(name).unwrap_or(0) as f64);
    }

    // The layer split runs at jobs = 1, where CPU time is wall time:
    // one traced round, then for each matrix replays of its pipeline
    // and of the parts inside each `handle` call. Single calls on this
    // kind of host vary by a quarter from one to the next, so a part
    // is charged as a share of the traced call: the median, over
    // replays run back to back, of the part's time over the replayed
    // call's time.
    let mut tracer = Tracer::new(Instant::now());
    let traced = round(&inputs, 1, Some(&mut tracer));
    report.check(
        "optimize_traced_round_matches",
        traced
            .iter()
            .zip(&rounds[0])
            .all(|(t, u)| outputs(t) == outputs(u)),
        "the traced round reproduces the untraced outputs",
    );

    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        f();
        secs(t0.elapsed()) * 1e6
    };
    let worst = Scenario::worst_case();
    let grid = paper_jitter_grid();
    let handles = |name| tracer.ids_named(name);
    let (loss_ids, prob_ids, opt_ids) = (
        handles("api.handle.loss"),
        handles("api.handle.prob-loss"),
        handles("api.handle.optimize"),
    );
    let (mut load, mut ga_total, mut ga_eval, mut ga_evaluations) = (Vec::new(), 0.0, 0.0, 0);
    let mut kernel = Kernel::default();
    // Untraced jobs = 1 rounds, assembled from the pipeline replays.
    let mut base: Vec<Vec<Pipeline>> = (0..HEAVY_REPLAYS).map(|_| Vec::new()).collect();
    for (m, (model, net)) in inputs.models.iter().zip(&nets).enumerate() {
        let load_us = median(
            &(0..20)
                .map(|_| time(&|| drop(load_network(model))))
                .collect::<Vec<_>>(),
        );
        load.push(load_us);
        // The two short calls, each against a fresh handler or
        // evaluator as in the pipeline.
        let (mut loss_calls, mut prob_calls) = (Vec::new(), Vec::new());
        let (mut loss_sweep, mut prob_sweep) = (Vec::new(), Vec::new());
        for _ in 0..LIGHT_REPLAYS {
            let handler = Handler::new(Parallelism::new(1));
            let loss = Request::Loss {
                model: model.clone(),
                scenario: ScenarioSpec::Worst,
            };
            let prob = Request::ProbLoss {
                model: model.clone(),
                scenario: ScenarioSpec::Worst,
            };
            let loss_call = time(&|| drop(handler.handle(&loss)));
            let prob_call = time(&|| drop(handler.handle(&prob)));
            let fresh = Evaluator::builder().jobs(1).build();
            loss_sweep.push(time(&|| drop(fresh.loss_vs_jitter(net, &worst, &grid))) / loss_call);
            prob_sweep
                .push(time(&|| drop(fresh.prob_loss_vs_jitter(net, &worst, &grid))) / prob_call);
            loss_calls.push(loss_call);
            prob_calls.push(prob_call);
        }
        // The optimize call: a whole pipeline, then its parts.
        let (mut curves, mut spea2, mut eval, mut in_kernel, mut opt_calls) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (k, replayed_round) in base.iter_mut().enumerate() {
            let replayed = pipeline(model, 1, None);
            let opt_call = replayed.optimize_us;
            opt_calls.push(opt_call);
            replayed_round.push(replayed);
            // `optimize` closes with two loss curves: the original's,
            // cached by the pipeline's first call, and the optimised
            // matrix's, new work of that size.
            let fresh = Evaluator::builder().jobs(1).build();
            let curve_us = time(&|| drop(fresh.loss_vs_jitter(net, &worst, &grid)))
                + time(&|| drop(fresh.loss_vs_jitter(net, &worst, &grid)));
            curves.push(curve_us / opt_call);
            let ga = ga_run(net, 1, GaMode::KernelReplay);
            spea2.push(ga.total_s * 1e6 / opt_call);
            eval.push(ga.eval_s / ga.total_s);
            let replayed = ga.kernel.expect("kernel replay attached");
            in_kernel.push(replayed.total_us() / (ga.eval_s * 1e6));
            kernel.extend(replayed);
            if k == 0 {
                report.check(
                    &format!("optimize_adapter_evaluations_match_{m}"),
                    traced[m].summary.as_ref().map(|s| s.evaluations as u64)
                        == Some(ga.evaluations),
                    format!("adapter {} evaluations", ga.evaluations),
                );
                ga_evaluations += ga.evaluations;
            }
            ga_total += ga.total_s;
            ga_eval += ga.eval_s;
        }
        let load_of = |calls: Vec<f64>| load_us / median(&calls);
        tracer.attribute_share(
            loss_ids[m],
            "kmatrix.load_network",
            Layer::Kmatrix,
            load_of(loss_calls),
        );
        tracer.attribute_share(
            loss_ids[m],
            "engine.sweep",
            Layer::Engine,
            median(&loss_sweep),
        );
        tracer.attribute_share(
            prob_ids[m],
            "kmatrix.load_network",
            Layer::Kmatrix,
            load_of(prob_calls),
        );
        tracer.attribute_share(
            prob_ids[m],
            "engine.sweep",
            Layer::Engine,
            median(&prob_sweep),
        );
        tracer.attribute_share(
            opt_ids[m],
            "kmatrix.load_network",
            Layer::Kmatrix,
            load_of(opt_calls),
        );
        tracer.attribute_share(
            opt_ids[m],
            "engine.loss_curves",
            Layer::Engine,
            median(&curves),
        );
        // The SPEA2 run is nearly all of the call, so a replayed share
        // would read about 1 plus the calls' noise: it gets the rest of
        // the call instead, which also holds the handler's own few
        // microseconds of picking the winner and building the reply.
        let ga_span = tracer.attribute_rest(opt_ids[m], "optim.spea2", Layer::Optim);
        report.note(
            &format!("spea2_replay_over_call_{m}"),
            format!("{:.3}", median(&spea2)),
        );
        let eval_span = tracer.attribute_share(
            ga_span,
            "engine.evaluate_population",
            Layer::Engine,
            median(&eval),
        );
        tracer.attribute_share(eval_span, "can.kernel", Layer::Can, median(&in_kernel));
    }
    let spans = tracer.into_spans();
    trace::decompose(&mut report, &spans);
    report.spans = spans;

    let pipelines = || base.iter().flatten();
    report.set(
        "api.handle_us.loss",
        median(&pipelines().map(|p| p.loss_us).collect::<Vec<_>>()),
    );
    report.set(
        "api.handle_us.optimize",
        median(&pipelines().map(|p| p.optimize_us).collect::<Vec<_>>()),
    );
    report.set(
        "api.encode_us",
        mean(
            &pipelines()
                .flat_map(|p| p.encode_us.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    report.check(
        "optimize_replayed_pipelines_match",
        base.iter()
            .all(|r| r.iter().zip(&traced).all(|(p, t)| outputs(p) == outputs(t))),
        "every replayed pipeline reproduces the traced one of its matrix",
    );
    let base_wall = median(&base.iter().map(|r| round_wall(r)).collect::<Vec<_>>());
    report.set(
        "trace_overhead_share",
        round_wall(&traced) / base_wall - 1.0,
    );
    report.set("kmatrix.load_network_us", mean(&load));
    report.set("optim.evaluations", ga_evaluations as f64);
    report.set(
        "optim.evals_per_s",
        ga_evaluations as f64 * HEAVY_REPLAYS as f64 / ga_total,
    );
    report.set("optim.eval_share", ga_eval / ga_total);
    let points = (ga_evaluations as usize * HEAVY_REPLAYS * EVAL_RATIOS.len()) as f64;
    report.set("engine.batch_ms_per_kpt", ga_eval * 1e3 * 1000.0 / points);
    report.set(
        "engine.overhead_share",
        1.0 - kernel.total_us() / (ga_eval * 1e6),
    );
    report.set("can.compile_us", mean(&kernel.compile_us));
    // Every GA analysis is permuted: its solves are incremental or
    // cold, none warm-starts.
    report.set("can.solve_cold_us", mean(&kernel.permuted_us));
    report.note("kernel_replayed_points", kernel.permuted_us.len());

    let v = SystemVariant::new(BaseSystem::new(nets[0].clone()), worst).with_jitter_ratio(0.25);
    let handler = traced[0]
        .handler
        .as_ref()
        .expect("traced pipeline keeps its handler");
    let evaluator = handler.evaluator();
    let _ = evaluator.evaluate(&v);
    let hit_us = time(&|| {
        for _ in 0..2000 {
            std::hint::black_box(evaluator.evaluate(&v).is_ok());
        }
    }) / 2000.0;
    report.set("engine.evaluate_hit_us", hit_us);
    let prob: Vec<f64> = (0..5)
        .map(|_| {
            let eval = Evaluator::builder().jobs(1).build();
            time(&|| drop(eval.evaluate_prob(&v)))
        })
        .collect();
    report.set("can.prob_us", median(&prob));
    report
}

/// The reference rows of input seed `seed`, one per fleet matrix, at
/// `jobs` engine jobs.
pub fn reference(seed: u64, jobs: usize) -> String {
    let rows: Vec<String> = round(&setup(seed), jobs, None)
        .iter()
        .map(|run| {
            assert_eq!(run.errors, 0, "seed {seed}: the pipeline failed");
            let (objectives, before, after) = outputs(run).expect("optimize answered");
            ObjectBuilder::new()
                .string("objectives", &objectives)
                .string("loss_before", &before)
                .string("loss_after", &after)
                .uint(
                    "evaluations",
                    run.summary.as_ref().map_or(0, |s| s.evaluations) as u64,
                )
                .build()
        })
        .collect();
    format!("[{}]", rows.join(", "))
}
