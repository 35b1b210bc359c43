//! `serve`: an open-loop HTTP load against a `carta-server` child.
//!
//! Eight tenants (an OEM and seven suppliers) each upload their own
//! seeded K-Matrix, then a Poisson mix of requests arrives from at
//! most `nproc` client threads, each holding one connection at a time.
//! Every request opens its own `connection: close` socket. Latency is
//! timed from the request's due time, so a stalled client charges the
//! wait to every request queued behind it; how late the generator sent
//! each request is reported separately.
//!
//! The server runs as a child process: `Server::bind` switches metrics
//! on process-wide, which would instrument every engine call of a
//! workload sharing its process.

use crate::common::{
    mean, median, peak_rss_mb, percentile, secs, timed, Report, RunConfig, SplitMix,
};
use crate::trace::{self, Layer, Tracer};
use carta_api::handler::load_network;
use carta_api::prelude::{Handler, Model, Request, ScenarioSpec};
use carta_api::wire;
use carta_can::compiled::CompiledBus;
use carta_can::frame::StuffingMode;
use carta_engine::prelude::{BaseSystem, Evaluator, Parallelism, Scenario, SystemVariant};
use carta_kmatrix::csv::to_csv;
use carta_kmatrix::generator::{powertrain_kmatrix, CaseStudyConfig};
use carta_obs::json::{self, Value};
use carta_server::http;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server's default resident-tenant limit; more would evict.
const TENANTS: usize = 8;
/// Requests per second "far below saturation".
const LOW_RPS: f64 = 30.0;
/// The busy rate.
const HIGH_RPS: f64 = 50.0;
/// The open-loop ladder behind `serve.max_rps`. Its top rung keeps
/// each tenant at 20 requests/s on average, under the default
/// admission budget of 32 per second, so failures on the ladder
/// measure overload rather than the per-tenant quota.
const LADDER_RPS: [f64; 4] = [20.0, 40.0, 80.0, 160.0];
/// Latency limit of the ladder.
const LIMIT_MS: f64 = 50.0;
/// Per-request client timeout; a request that times out fails.
const TIMEOUT: Duration = Duration::from_secs(30);
const SERVE_SETUP_REPS: usize = 3;
fn tenant_name(t: usize) -> String {
    if t == 0 {
        "oem".to_string()
    } else {
        format!("supplier-{t}")
    }
}

/// A running `carta-server` child; killed, reaped and its state
/// directory removed on drop.
struct ServerProc {
    child: Child,
    addr: String,
    state_dir: PathBuf,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    fn launch(bin: &Path, state_dir: PathBuf) -> Result<ServerProc, String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        // A clean environment: the server runs on its defaults whatever
        // `CARTA_SERVER_*` variables the benchmark's caller has set.
        let mut child = Command::new(bin)
            .env_clear()
            .env("CARTA_SERVER_ADDR", "127.0.0.1:0")
            .env("CARTA_SERVER_STATE_DIR", &state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
            }
        });
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            state_dir,
            stderr: Some(reader),
        };
        proc.addr = rx
            .recv_timeout(Duration::from_secs(20))
            .map_err(|_| "carta-server did not report its listen address".to_string())?;
        Ok(proc)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// The raw bytes of one `connection: close` request.
fn raw_request(method: &str, path: &str, tenant: Option<&str>, body: &[u8]) -> Vec<u8> {
    let tenant = tenant
        .map(|t| format!("x-carta-tenant: {t}\r\n"))
        .unwrap_or_default();
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: carta\r\nconnection: close\r\n{tenant}content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Sends one request and reads the whole response: status and body.
fn exchange(addr: &str, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.write_all(raw)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let status = std::str::from_utf8(&response[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1)?.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, response[head_end + 4..].to_vec()))
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Analyze,
    Load,
    Lint,
    ProbAnalyze,
    Loss,
    Sensitivity,
    Upload,
}

impl Kind {
    const ALL: [Kind; 7] = [
        Kind::Analyze,
        Kind::Load,
        Kind::Lint,
        Kind::ProbAnalyze,
        Kind::Loss,
        Kind::Sensitivity,
        Kind::Upload,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Load => "load",
            Kind::Lint => "lint",
            Kind::ProbAnalyze => "prob-analyze",
            Kind::Loss => "loss",
            Kind::Sensitivity => "sensitivity",
            Kind::Upload => "upload",
        }
    }

    fn metric(self) -> Option<&'static str> {
        Some(match self {
            Kind::Analyze => "api.handle_us.analyze",
            Kind::Load => "api.handle_us.load",
            Kind::Lint => "api.handle_us.lint",
            Kind::ProbAnalyze => "api.handle_us.prob-analyze",
            Kind::Loss => "api.handle_us.loss",
            Kind::Sensitivity => "api.handle_us.sensitivity",
            Kind::Upload => return None,
        })
    }
}

/// The request mix. The shares are assumed, not measured: the repository
/// holds no recorded traffic, and they only follow the order the
/// workload asks for (mostly cache-answered `analyze`, some parse-only
/// `load`/`lint`, a little heavy work, a trickle of fsync'd uploads).
/// `--mix` overrides them; `README.md` shows how far the end-to-end
/// figures move when they change.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Per-mille share of each kind; sums to 1000.
    kinds: [(Kind, u64); 7],
    /// Per mille of `analyze` requests naming the built-in case study
    /// instead of the tenant's session.
    analyze_case_study: u64,
}

impl Default for Mix {
    fn default() -> Mix {
        Mix {
            kinds: [
                (Kind::Analyze, 740),
                (Kind::Load, 80),
                (Kind::Lint, 80),
                (Kind::ProbAnalyze, 30),
                (Kind::Loss, 30),
                (Kind::Sensitivity, 30),
                (Kind::Upload, 10),
            ],
            analyze_case_study: 250,
        }
    }
}

impl Mix {
    /// Parses `name=per_mille,...` over the default mix; the kind
    /// shares must still sum to 1000.
    pub fn parse(text: &str) -> Result<Mix, String> {
        let mut mix = Mix::default();
        for item in text.split(',').filter(|i| !i.is_empty()) {
            let (name, share) = item
                .split_once('=')
                .ok_or(format!("--mix item `{item}` is not name=per_mille"))?;
            let share: u64 = share.parse().map_err(|e| format!("--mix {name}: {e}"))?;
            if name == "analyze-case-study" {
                if share > 1000 {
                    return Err("--mix analyze-case-study is a per-mille share".into());
                }
                mix.analyze_case_study = share;
                continue;
            }
            let slot = mix
                .kinds
                .iter_mut()
                .find(|(k, _)| k.name() == name)
                .ok_or(format!("--mix: unknown request kind `{name}`"))?;
            slot.1 = share;
        }
        let total: u64 = mix.kinds.iter().map(|(_, s)| s).sum();
        if total != 1000 {
            return Err(format!("--mix shares sum to {total}, not 1000"));
        }
        Ok(mix)
    }

    fn describe(&self) -> String {
        let mut parts: Vec<String> = self
            .kinds
            .iter()
            .map(|(k, s)| format!("{}={s}", k.name()))
            .collect();
        parts.push(format!("analyze-case-study={}", self.analyze_case_study));
        parts.join(",")
    }
}

/// Scenarios of `analyze`: all three spec forms.
const SCENARIOS: [ScenarioSpec; 4] = [
    ScenarioSpec::Worst,
    ScenarioSpec::Best,
    ScenarioSpec::SporadicMs(5),
    ScenarioSpec::SporadicMs(20),
];

/// One distinct request of the mix: who sends what.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Spec {
    tenant: usize,
    kind: Kind,
    /// Index into [`SCENARIOS`].
    scenario: usize,
    /// The built-in case study instead of the tenant's session.
    case_study: bool,
}

/// Everything the generator sends, prepared before any timing.
struct Catalog {
    csv: Vec<String>,
    /// The session id each tenant's requests name.
    session: Vec<String>,
    raw: HashMap<Spec, Vec<u8>>,
}

impl Catalog {
    /// The `index`-th request of a phase. Tenants take turns, so each
    /// sends an eighth of any stretch of the stream: an Erlang-spaced
    /// stream rather than a Poisson one, which keeps a tenant's count
    /// per admission window close to its mean.
    fn draw(mix: &Mix, index: usize, rng: &mut SplitMix) -> Spec {
        let tenant = index % TENANTS;
        let mut pick = rng.below(1000);
        let kind = mix
            .kinds
            .iter()
            .find(|(_, share)| {
                let hit = pick < *share;
                pick = pick.saturating_sub(*share);
                hit
            })
            .map_or(Kind::Analyze, |(k, _)| *k);
        let (scenario, case_study) = match kind {
            Kind::Analyze => (
                rng.below(SCENARIOS.len() as u64) as usize,
                rng.below(1000) < mix.analyze_case_study,
            ),
            Kind::ProbAnalyze | Kind::Loss | Kind::Sensitivity => (0, rng.below(2) == 0),
            _ => (0, false),
        };
        Spec {
            tenant,
            kind,
            scenario,
            case_study,
        }
    }

    /// Every spec the mix can draw.
    fn all_specs() -> Vec<Spec> {
        let mut specs = Vec::new();
        for tenant in 0..TENANTS {
            for kind in Kind::ALL {
                let scenarios = if kind == Kind::Analyze {
                    SCENARIOS.len()
                } else {
                    1
                };
                let sources: &[bool] = match kind {
                    Kind::Analyze | Kind::ProbAnalyze | Kind::Loss | Kind::Sensitivity => {
                        &[false, true]
                    }
                    _ => &[false],
                };
                for scenario in 0..scenarios {
                    for &case_study in sources {
                        specs.push(Spec {
                            tenant,
                            kind,
                            scenario,
                            case_study,
                        });
                    }
                }
            }
        }
        specs
    }

    fn request_body(spec: &Spec, session: &str) -> Vec<u8> {
        const PLACEHOLDER: &str = "session-placeholder";
        let model = if spec.case_study {
            Model::case_study()
        } else {
            Model::from_csv(PLACEHOLDER)
        };
        let scenario = SCENARIOS[spec.scenario];
        let request = match spec.kind {
            Kind::Analyze => Request::Analyze { model, scenario },
            Kind::Load => Request::Load { model },
            Kind::Lint => Request::Lint { model },
            Kind::ProbAnalyze => Request::ProbAnalyze { model, scenario },
            Kind::Loss => Request::Loss { model, scenario },
            Kind::Sensitivity => Request::Sensitivity {
                model,
                scenario,
                message: None,
            },
            Kind::Upload => unreachable!("uploads carry CSV, not an envelope"),
        };
        let body = wire::encode_request(&request);
        let inline = format!("{{\"kind\":\"csv\",\"csv\":\"{PLACEHOLDER}\"}}");
        let by_session = format!("{{\"kind\":\"session\",\"id\":\"{session}\"}}");
        let body = body.replacen(&inline, &by_session, 1);
        assert!(!body.contains(PLACEHOLDER), "session source substituted");
        body.into_bytes()
    }

    fn new(csv: Vec<String>, session: Vec<String>) -> Catalog {
        let raw = Self::all_specs()
            .into_iter()
            .map(|spec| {
                let tenant = tenant_name(spec.tenant);
                let raw = if spec.kind == Kind::Upload {
                    raw_request(
                        "POST",
                        &format!("/v1/tenants/{tenant}/sessions"),
                        None,
                        csv[spec.tenant].as_bytes(),
                    )
                } else {
                    raw_request(
                        "POST",
                        "/v1/requests",
                        Some(&tenant),
                        &Self::request_body(&spec, &session[spec.tenant]),
                    )
                };
                (spec, raw)
            })
            .collect();
        Catalog { csv, session, raw }
    }
}

/// The tenants' K-Matrices, each from its own generator seed derived
/// from the input seed.
fn tenant_csvs(input_seed: u64) -> Vec<String> {
    (0..TENANTS as u64)
        .map(|t| {
            to_csv(&powertrain_kmatrix(&CaseStudyConfig {
                seed: 1000 + input_seed * TENANTS as u64 + t,
                ..CaseStudyConfig::default()
            }))
        })
        .collect()
}

fn session_id(body: &[u8]) -> Option<String> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some(doc.get("result")?.get("id")?.as_str()?.to_string())
}

struct Served {
    server: ServerProc,
    catalog: Catalog,
    upload_ms: Vec<f64>,
}

/// Starts a server, uploads every tenant's matrix and sends each
/// distinct request once so the tenants' engine caches are warm.
fn setup(cfg: &RunConfig, bin: &Path, rep: usize) -> Result<Served, String> {
    let state_dir = cfg
        .work_dir
        .join(format!("serve-state-{}-{rep}", std::process::id()));
    let server = ServerProc::launch(bin, state_dir)?;
    let csv = tenant_csvs(cfg.input_seed());
    let mut session = Vec::with_capacity(TENANTS);
    let mut upload_ms = Vec::new();
    for (t, text) in csv.iter().enumerate() {
        let raw = raw_request(
            "POST",
            &format!("/v1/tenants/{}/sessions", tenant_name(t)),
            None,
            text.as_bytes(),
        );
        let t0 = Instant::now();
        let (status, body) =
            exchange(&server.addr, &raw).map_err(|e| format!("session upload failed: {e}"))?;
        upload_ms.push(secs(t0.elapsed()) * 1e3);
        if status != 201 {
            return Err(format!("session upload answered {status}"));
        }
        session.push(session_id(&body).ok_or("upload ack without a session id")?);
    }
    let catalog = Catalog::new(csv, session);
    let warm: Vec<&Vec<u8>> = catalog
        .raw
        .iter()
        .filter(|(spec, _)| spec.kind != Kind::Upload)
        .map(|(_, raw)| raw)
        .collect();
    let next = AtomicUsize::new(0);
    let threads = cfg.jobs.max(1);
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut failures = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(raw) = warm.get(i) else { break };
                        match exchange(&server.addr, raw) {
                            Ok((200, _)) => {}
                            Ok((status, body)) => failures.push(format!(
                                "warm-up answered {status}: {}",
                                String::from_utf8_lossy(&body)
                            )),
                            Err(e) => failures.push(format!("warm-up failed: {e}")),
                        }
                    }
                    failures
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    if let Some(first) = failures.first() {
        return Err(first.clone());
    }
    Ok(Served {
        server,
        catalog,
        upload_ms,
    })
}

/// One request as the client saw it.
struct Sample {
    spec: Spec,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    /// The body differed from the first body this thread received for
    /// the same request.
    diverged: bool,
}

impl Sample {
    fn ok(&self) -> bool {
        let expected = if self.spec.kind == Kind::Upload {
            201
        } else {
            200
        };
        self.status == expected && !self.diverged
    }

    fn latency_ms(&self) -> f64 {
        secs(self.done - self.due) * 1e3
    }

    fn lag_ms(&self) -> f64 {
        secs(self.sent - self.due) * 1e3
    }
}

/// The outcome of one phase.
struct Phase {
    /// Offered rate; `None` for the closed loop.
    rps: Option<f64>,
    /// Seconds from the phase start to its last response.
    elapsed: f64,
    samples: Vec<Sample>,
    /// Per distinct request, the first 200 body of every client thread
    /// that sent it, without repeats. A thread's later bodies are
    /// compared with its first as they arrive (`Sample::diverged`), so
    /// checking these after the window covers every 200 body.
    first_bodies: HashMap<Spec, Vec<Vec<u8>>>,
    /// Closed loop: requests the quota pacing held back.
    paced: usize,
}

impl Phase {
    /// Latencies with failures counted as missing every limit.
    fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| {
                if s.ok() {
                    s.latency_ms()
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies(), q)
    }

    /// Whether the generator fell further behind as the phase went on.
    fn backlog_grows(&self) -> bool {
        let n = self.samples.len();
        if n < 8 {
            return false;
        }
        let lag = |part: &[Sample]| mean(&part.iter().map(Sample::lag_ms).collect::<Vec<_>>());
        let first = lag(&self.samples[..n / 4]);
        let last = lag(&self.samples[n - n / 4..]);
        last > 2.0 * first + 5.0
    }

    /// Successful responses per second.
    fn ok_per_s(&self) -> f64 {
        self.samples.iter().filter(|x| x.ok()).count() as f64 / self.elapsed.max(1e-9)
    }

    fn holds_limit(&self) -> bool {
        self.p(0.99) <= LIMIT_MS && !self.backlog_grows()
    }
}

/// How long past its window an open-loop phase keeps sending; a
/// request still unsent then is abandoned and counts as failed.
const GRACE: Duration = Duration::from_secs(1);

/// Requests per second one tenant may send in the closed loop: under
/// the server's default admission budget of 32 per 1000 ms window,
/// with room for jitter between send and admission, so the closed
/// loop measures the server and never the quota. With tenants taking
/// turns, the loop is capped at `TENANTS` times this rate.
const SATURATION_TENANT_RPS: usize = 28;
/// Sends the closed loop allows in any one second, over all tenants.
const SATURATION_SENDS_PER_S: usize = TENANTS * SATURATION_TENANT_RPS;
/// Marks a closed-loop request not sent yet.
const UNSENT: u64 = u64::MAX;

/// Runs one phase from `threads` client threads, each holding one
/// connection at a time. Open loop (`rps` given): a seeded Poisson
/// stream of requests due over `seconds`, each sent when due or as
/// soon as a thread frees up. Closed loop (`rps` is `None`): every
/// thread sends back to back until `seconds` have passed, except that
/// request `i` waits until a second has passed since request
/// `i - SATURATION_SENDS_PER_S` was sent.
fn run_phase(
    addr: &str,
    catalog: &Catalog,
    mix: &Mix,
    rps: Option<f64>,
    seconds: f64,
    threads: usize,
    rng: &mut SplitMix,
) -> Phase {
    let mut schedule = Vec::new();
    match rps {
        Some(rps) => {
            let mut t = 0.0;
            loop {
                t += -(1.0 - rng.unit()).ln() / rps;
                if t >= seconds {
                    break;
                }
                let i = schedule.len();
                schedule.push((Some(Duration::from_secs_f64(t)), Catalog::draw(mix, i, rng)));
            }
        }
        // More than the pacing lets the closed loop send in `seconds`.
        None => {
            let n = (seconds.ceil() as usize + 1) * SATURATION_SENDS_PER_S;
            schedule.extend((0..n).map(|i| (None, Catalog::draw(mix, i, rng))))
        }
    }
    let sent_ns: Vec<AtomicU64> = match rps {
        Some(_) => Vec::new(),
        None => (0..schedule.len())
            .map(|_| AtomicU64::new(UNSENT))
            .collect(),
    };
    let start = Instant::now() + Duration::from_millis(5);
    let window_end = start + Duration::from_secs_f64(seconds);
    // When closed-loop request `i` may go out: not before its slot in
    // a steady stream of `SATURATION_SENDS_PER_S` per second, and not
    // within a second of request `i - SATURATION_SENDS_PER_S`, so that
    // catching up after a stall cannot burst a tenant over its budget.
    // `None` once the window is over.
    let pace = |i: usize| -> Option<Instant> {
        let slot = start + Duration::from_secs_f64(i as f64 / SATURATION_SENDS_PER_S as f64);
        let Some(back) = i.checked_sub(SATURATION_SENDS_PER_S) else {
            return Some(slot);
        };
        loop {
            if Instant::now() >= window_end {
                return None;
            }
            let ns = sent_ns[back].load(Ordering::Acquire);
            if ns != UNSENT {
                let free = start + Duration::from_nanos(ns) + Duration::from_secs(1);
                return Some(slot.max(free));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    let next = AtomicUsize::new(0);
    let paced = AtomicUsize::new(0);
    let (mut samples, mut first_bodies) = (Vec::new(), HashMap::<Spec, Vec<Vec<u8>>>::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut bodies: HashMap<Spec, Vec<u8>> = HashMap::new();
                    loop {
                        let now = Instant::now();
                        if rps.is_none() && now >= window_end {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some((offset, spec)) = schedule.get(i) else {
                            break;
                        };
                        let due = match offset {
                            Some(o) => start + *o,
                            None => match pace(i) {
                                Some(free) if free >= window_end => break,
                                Some(free) if free > now => {
                                    paced.fetch_add(1, Ordering::Relaxed);
                                    free
                                }
                                Some(_) => now,
                                None => break,
                            },
                        };
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        if let Some(slot) = sent_ns.get(i) {
                            let ns = sent.saturating_duration_since(start).as_nanos() as u64;
                            slot.store(ns, Ordering::Release);
                        }
                        let (status, diverged, done) = if sent > window_end + GRACE {
                            (0, false, sent)
                        } else {
                            let result = exchange(addr, &catalog.raw[spec]);
                            let done = Instant::now();
                            match result {
                                Ok((200, body)) => {
                                    let first = bodies.entry(*spec).or_insert_with(|| body.clone());
                                    (200, *first != body, done)
                                }
                                Ok((status, _)) => (status, false, done),
                                Err(_) => (0, false, done),
                            }
                        };
                        out.push((
                            i,
                            Sample {
                                spec: *spec,
                                due,
                                sent,
                                done,
                                status,
                                diverged,
                            },
                        ));
                    }
                    (out, bodies)
                })
            })
            .collect();
        let mut indexed = Vec::new();
        for h in handles {
            let (out, bodies) = h.join().expect("client thread");
            indexed.extend(out);
            for (spec, body) in bodies {
                let seen = first_bodies.entry(spec).or_default();
                if !seen.contains(&body) {
                    seen.push(body);
                }
            }
        }
        indexed.sort_by_key(|(i, _)| *i);
        samples = indexed.into_iter().map(|(_, s)| s).collect();
    });
    let elapsed = samples
        .iter()
        .map(|x| x.done)
        .max()
        .map_or(seconds, |last| secs(last.saturating_duration_since(start)));
    Phase {
        rps,
        elapsed,
        samples,
        first_bodies,
        paced: paced.into_inner(),
    }
}

/// Per-step timings of one request replayed in-process through the
/// server's public building blocks, µs.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    read: f64,
    decode: f64,
    handle: f64,
    load_network: f64,
    engine: f64,
    encode: f64,
    write: f64,
}

impl Replay {
    fn total(&self) -> f64 {
        self.read + self.decode + self.handle + self.encode + self.write
    }
}

/// In-process twins of the server's tenants: same evaluator settings
/// as the server's defaults (one job, 4096-entry cache).
struct Twins {
    handlers: Vec<Handler>,
}

impl Twins {
    fn new() -> Twins {
        let handlers = (0..TENANTS)
            .map(|_| {
                let eval = Evaluator::builder().jobs(1).cache_capacity(4096).build();
                Handler::with_evaluator(Arc::new(eval), Parallelism::new(1))
            })
            .collect();
        Twins { handlers }
    }

    /// Replays `raw` once; returns the response body the server must
    /// have sent and the step timings.
    fn replay(&self, catalog: &Catalog, spec: &Spec, raw: &[u8]) -> (String, Replay) {
        let mut r = Replay::default();
        let t0 = Instant::now();
        let req =
            http::read_request(&mut BufReader::new(raw), 1 << 20).expect("replayed request parses");
        let t1 = Instant::now();
        let text = std::str::from_utf8(&req.body).expect("UTF-8 body");
        let tenant = spec.tenant;
        let resolve =
            |id: &str| (id == catalog.session[tenant]).then(|| catalog.csv[tenant].clone());
        let request = wire::decode_request(text, &resolve).expect("replayed request decodes");
        let t2 = Instant::now();
        let handler = &self.handlers[tenant];
        let response = handler.handle(&request).expect("replayed request succeeds");
        let t3 = Instant::now();
        let body = wire::encode_response(&response);
        let t4 = Instant::now();
        let mut sink = Vec::with_capacity(body.len() + 256);
        http::write_response(&mut sink, 200, "application/json", &body, false, &[])
            .expect("in-memory write");
        let t5 = Instant::now();
        r.read = secs(t1 - t0) * 1e6;
        r.decode = secs(t2 - t1) * 1e6;
        r.handle = secs(t3 - t2) * 1e6;
        r.encode = secs(t4 - t3) * 1e6;
        r.write = secs(t5 - t4) * 1e6;
        // The handler's inner layers, replayed on their own.
        if let Some(model) = request_model(&request) {
            let t0 = Instant::now();
            let net = load_network(model).expect("model loads");
            r.load_network = secs(t0.elapsed()) * 1e6;
            if let Request::Analyze { scenario, .. } = &request {
                let t0 = Instant::now();
                let v = SystemVariant::new(BaseSystem::new(net), scenario.to_scenario());
                let ok = handler.evaluator().evaluate(&v).is_ok();
                r.engine = secs(t0.elapsed()) * 1e6;
                assert!(ok, "replayed analyze succeeds");
            } else if !matches!(request, Request::Load { .. } | Request::Lint { .. }) {
                // Sweeps run entirely below the API: everything in the
                // handle call besides loading the model is engine work.
                r.engine = (r.handle - r.load_network).max(0.0);
            }
        }
        (body, r)
    }
}

fn request_model(request: &Request) -> Option<&Model> {
    match request {
        Request::Analyze { model, .. }
        | Request::Load { model }
        | Request::Lint { model }
        | Request::ProbAnalyze { model, .. }
        | Request::Loss { model, .. }
        | Request::Sensitivity { model, .. } => Some(model),
        _ => None,
    }
}

/// Median step timings of every distinct request, plus the envelope
/// the server must have sent for it.
fn replay_all(catalog: &Catalog) -> HashMap<Spec, (String, Replay)> {
    let twins = Twins::new();
    let mut out = HashMap::new();
    for (spec, raw) in &catalog.raw {
        if spec.kind == Kind::Upload {
            continue;
        }
        let (body, _) = twins.replay(catalog, spec, raw); // warms the twin's cache
        let reps: Vec<Replay> = (0..5).map(|_| twins.replay(catalog, spec, raw).1).collect();
        let pick = |f: fn(&Replay) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let r = Replay {
            read: pick(|r| r.read),
            decode: pick(|r| r.decode),
            handle: pick(|r| r.handle),
            load_network: pick(|r| r.load_network),
            engine: pick(|r| r.engine),
            encode: pick(|r| r.encode),
            write: pick(|r| r.write),
        };
        out.insert(*spec, (body, r));
    }
    out
}

fn fetch_metrics(addr: &str) -> Result<Value, String> {
    let (status, body) = exchange(addr, &raw_request("GET", "/v1/metrics", None, b""))
        .map_err(|e| format!("GET /v1/metrics failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /v1/metrics answered {status}"));
    }
    json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("metrics document: {e}"))
}

fn counter(doc: &Value, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let bin = cfg
        .server_bin
        .clone()
        .ok_or("serve needs --server-bin PATH to the carta-server binary")?;
    if !bin.is_file() {
        return Err(format!(
            "no carta-server binary at {}: build `-p carta-server` first \
             (cargo build --release -p carta-server)",
            bin.display()
        ));
    }
    let mix = match &cfg.mix {
        Some(text) => Mix::parse(text)?,
        None => Mix::default(),
    };
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let mut report = Report::default();
    report.note("mix", mix.describe());
    // Each set-up starts its own server; the previous one is stopped
    // first, and the last one serves the timed window.
    let mut setup_times = Vec::with_capacity(SERVE_SETUP_REPS);
    let mut last: Option<Served> = None;
    for rep in 0..SERVE_SETUP_REPS {
        drop(last.take());
        let (s, served) = timed(|| setup(cfg, &bin, rep));
        setup_times.push(s);
        last = Some(served.map_err(|e| format!("serve set-up failed: {e}"))?);
    }
    let setup_s = median(&setup_times);
    let Served {
        server,
        catalog,
        mut upload_ms,
    } = last.expect("set-up ran");
    let threads = cfg.jobs.max(1);
    let mut rng = SplitMix::new(cfg.seed ^ 0x5e7e);
    let before = fetch_metrics(&server.addr)?;

    // Timed window. An untraced run spends most of its budget at the
    // light rate, then measures saturation throughput in a closed
    // loop. A traced run measures the light rate, the busy rate, and
    // the open-loop ladder up to its first failing rung.
    let s = cfg.seconds;
    let plan: Vec<(&str, Option<f64>, f64)> = if cfg.trace {
        [("low", Some(LOW_RPS), 0.3), ("high", Some(HIGH_RPS), 0.3)]
            .into_iter()
            .chain(LADDER_RPS.iter().map(|&r| ("ladder", Some(r), 0.08)))
            .collect()
    } else {
        vec![("low", Some(LOW_RPS), 0.85), ("saturation", None, 0.1)]
    };
    let origin = Instant::now();
    let mut phases: Vec<(&str, Phase)> = Vec::new();
    for (name, rps, share) in plan {
        let ladder_failed = phases
            .iter()
            .any(|(n, p)| *n == "ladder" && !p.holds_limit());
        if name == "ladder" && ladder_failed {
            continue;
        }
        let phase = run_phase(
            &server.addr,
            &catalog,
            &mix,
            rps,
            s * share,
            threads,
            &mut rng,
        );
        phases.push((name, phase));
    }
    let after = fetch_metrics(&server.addr)?;
    let rss = peak_rss_mb(Some(server.pid()));
    drop(server);
    let phase = |name: &str| {
        &phases
            .iter()
            .find(|(n, _)| *n == name)
            .expect("phase ran")
            .1
    };

    // Output checks, after the timed window: every 200 body must be
    // byte-identical to the envelope an in-process Handler produces for
    // the same request. Each thread's first body per request is
    // compared here, its later ones were compared with that first.
    let replays = replay_all(&catalog);
    let mut mismatched = 0u64;
    for (_, phase) in &phases {
        for (spec, bodies) in &phase.first_bodies {
            let mut expected = replays.get(spec).map(|(b, _)| b.clone().into_bytes());
            if cfg.corrupt_reference && spec.kind == Kind::Analyze {
                if let Some(e) = expected.as_mut() {
                    e.push(b' ');
                }
            }
            if bodies
                .iter()
                .any(|body| expected.as_deref() != Some(body.as_slice()))
            {
                mismatched += phase.samples.iter().filter(|x| x.spec == *spec).count() as u64;
            }
        }
    }
    let all: Vec<&Sample> = phases.iter().flat_map(|(_, p)| p.samples.iter()).collect();
    let failed_requests = all.iter().filter(|x| !x.ok()).count() as u64;
    let diverged = all.iter().filter(|x| x.diverged).count();
    report.check(
        "serve_bodies_match_in_process_handler",
        mismatched == 0,
        format!("{mismatched} responses differ from the in-process envelope"),
    );
    report.check(
        "serve_bodies_repeat",
        diverged == 0,
        format!("{diverged} responses differ from an earlier one to the same request"),
    );
    let mut statuses: HashMap<u16, usize> = HashMap::new();
    for x in &all {
        *statuses.entry(x.status).or_default() += 1;
    }
    let mut statuses: Vec<_> = statuses.into_iter().collect();
    statuses.sort_unstable();
    report.note("statuses", format!("{statuses:?}"));
    report.attempted = all.len() as u64;
    report.failed = (failed_requests + mismatched).min(report.attempted);
    let fail_share = report.failed as f64 / report.attempted.max(1) as f64;
    for (name, phase) in &phases {
        report.note(
            &format!("phase_{name}"),
            format!(
                "{} requests at {}, {:.1} ok/s, p50 {:.2} ms, p99 {:.2} ms, backlog {}",
                phase.samples.len(),
                phase
                    .rps
                    .map_or("saturation".to_string(), |r| format!("{r} rps")),
                phase.ok_per_s(),
                phase.p(0.5),
                phase.p(0.99),
                phase.backlog_grows()
            ),
        );
    }
    upload_ms.extend(
        all.iter()
            .filter(|x| x.spec.kind == Kind::Upload && x.ok())
            .map(|x| x.latency_ms()),
    );

    if !cfg.trace {
        let saturation = phase("saturation");
        // Near the quota-safe ceiling the pacing, not the server, sets
        // the rate: `rate_per_s` then reads a floor on what the server
        // could take.
        let limit = if saturation.ok_per_s() >= 0.9 * SATURATION_SENDS_PER_S as f64 {
            eprintln!(
                "warning: the closed loop reached {SATURATION_SENDS_PER_S} requests/s, the \
                 ceiling that keeps every tenant under its admission budget; rate_per_s \
                 reads that ceiling, not the server's capacity"
            );
            "admission-quota pacing"
        } else {
            "server"
        };
        report.note(
            "saturation_limited_by",
            format!(
                "{limit} ({} of {} requests paced)",
                saturation.paced,
                saturation.samples.len()
            ),
        );
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", rss);
        report.set("ok_share", 1.0 - fail_share);
        report.set("p50_ms", phase("low").p(0.5));
        report.set("rate_per_s", saturation.ok_per_s());
        return Ok(report);
    }

    let (low, high) = (phase("low"), phase("high"));
    let rungs: Vec<&Phase> = phases
        .iter()
        .filter(|(n, _)| *n == "ladder")
        .map(|(_, p)| p)
        .collect();
    report.set("serve.max_rps", max_rps(&rungs));
    report.set("fail_share", fail_share);
    // The spans below are built after the window from the samples and
    // the replays, so tracing adds nothing to a request's time.
    report.set("trace_overhead_share", 0.0);
    report.set("serve.p99_ms_low", low.p(0.99));
    report.set("serve.p50_ms_high", high.p(0.5));
    report.set("serve.p99_ms_high", high.p(0.99));
    report.set(
        "client.gen_lag_ms",
        percentile(
            &high.samples.iter().map(Sample::lag_ms).collect::<Vec<_>>(),
            0.99,
        ),
    );
    report.set("server.upload_p50_ms", median(&upload_ms));
    report.note("upload_samples", upload_ms.len());
    for name in [
        "server.requests.shed",
        "server.requests.degraded",
        "server.state.appended",
    ] {
        report.set(name, counter(&after, name) - counter(&before, name));
    }
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let (hits, misses) = (delta("engine.cache.hits"), delta("engine.cache.misses"));
    let (warm, cold) = (
        delta("engine.rta.warm_starts"),
        delta("engine.rta.cold_starts"),
    );
    report.set("engine.hit_rate", hits / (hits + misses).max(1.0));
    report.set("engine.warm_start_rate", warm / (warm + cold).max(1.0));
    report.set(
        "engine.compiles_per_kpt",
        delta("engine.rta.compiles") * 1000.0 / (hits + misses).max(1.0),
    );

    // Per-layer figures over the light-rate requests.
    let answered: Vec<(&Sample, &Replay)> = low
        .samples
        .iter()
        .filter(|x| x.ok() && x.spec.kind != Kind::Upload)
        .map(|x| (x, &replays[&x.spec].1))
        .collect();
    let avg = |f: fn(&Replay) -> f64| mean(&answered.iter().map(|(_, r)| f(r)).collect::<Vec<_>>());
    report.set("server.http_read_us", avg(|r| r.read));
    report.set("server.http_write_us", avg(|r| r.write));
    report.set("api.decode_us", avg(|r| r.decode));
    report.set("api.encode_us", avg(|r| r.encode));
    report.set("kmatrix.load_network_us", avg(|r| r.load_network));
    let residuals: Vec<f64> = answered
        .iter()
        .map(|(x, r)| x.latency_ms() - x.lag_ms() - r.total() / 1e3)
        .collect();
    report.set("server.residual_p50_ms", median(&residuals));
    report.set("server.residual_p99_ms", percentile(&residuals, 0.99));
    report.note("residual_samples", residuals.len());
    for kind in Kind::ALL {
        if let Some(metric) = kind.metric() {
            let us: Vec<f64> = replays
                .iter()
                .filter(|(spec, _)| spec.kind == kind)
                .map(|(_, (_, r))| r.handle)
                .collect();
            report.set(metric, median(&us));
        }
    }
    let analyze_engine: Vec<f64> = replays
        .iter()
        .filter(|(spec, _)| spec.kind == Kind::Analyze)
        .map(|(_, (_, r))| r.engine)
        .collect();
    report.set("engine.evaluate_hit_us", median(&analyze_engine));
    let oem = load_network(&Model::from_csv(catalog.csv[0].clone())).expect("OEM matrix loads");
    report.set("can.compile_us", compile_us(&oem));
    report.set("can.prob_us", prob_us(&oem));

    // Span decomposition of the light-rate requests: each request's
    // latency split into send lag, the replayed server-side steps, and
    // the residual (accept wait, queueing, sockets).
    let mut tracer = Tracer::new(origin);
    for x in low
        .samples
        .iter()
        .filter(|x| x.ok() && x.spec.kind != Kind::Upload)
    {
        let r = &replays[&x.spec].1;
        let root = tracer.record(None, "client.request", Layer::Op, x.due, x.done);
        tracer.record(Some(root), "client.send_lag", Layer::Client, x.due, x.sent);
        tracer.attribute(root, "server.http_read", Layer::Server, r.read);
        tracer.attribute(root, "api.decode", Layer::Api, r.decode);
        let handle = tracer.attribute(root, "api.handle", Layer::Api, r.handle);
        tracer.attribute(
            handle,
            "kmatrix.load_network",
            Layer::Kmatrix,
            r.load_network,
        );
        tracer.attribute(handle, "engine.evaluate", Layer::Engine, r.engine);
        tracer.attribute(root, "api.encode", Layer::Api, r.encode);
        tracer.attribute(root, "server.http_write", Layer::Server, r.write);
    }
    let spans = tracer.into_spans();
    trace::decompose(&mut report, &spans);
    report.spans = spans;
    Ok(report)
}

/// The highest rate whose p99 stays within the limit without a
/// growing backlog, interpolated between the last ladder rung that
/// holds and the first that does not (failures count as misses).
fn max_rps(ladder: &[&Phase]) -> f64 {
    let rate = |p: &Phase| p.rps.unwrap_or(0.0);
    let mut prev: Option<&Phase> = None;
    for &rung in ladder {
        if !rung.holds_limit() {
            let p99 = rung.p(0.99);
            return match prev {
                Some(ok) if p99.is_finite() && p99 > ok.p(0.99) => {
                    let frac = (LIMIT_MS - ok.p(0.99)) / (p99 - ok.p(0.99));
                    rate(ok) + frac.clamp(0.0, 1.0) * (rate(rung) - rate(ok))
                }
                Some(ok) => rate(ok),
                // Even the first rung misses: scale it by how far over.
                None => rate(rung) * (LIMIT_MS / p99.max(LIMIT_MS)).max(0.01),
            };
        }
        prev = Some(rung);
    }
    prev.map_or(0.0, rate)
}

fn compile_us(net: &carta_can::network::CanNetwork) -> f64 {
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let ok = CompiledBus::compile(net, StuffingMode::WorstCase).is_ok();
            let us = secs(t0.elapsed()) * 1e6;
            assert!(ok, "tenant network compiles");
            us
        })
        .collect();
    median(&samples)
}

fn prob_us(net: &carta_can::network::CanNetwork) -> f64 {
    let v = SystemVariant::new(BaseSystem::new(net.clone()), Scenario::worst_case());
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let eval = Evaluator::builder().jobs(1).build();
            let t0 = Instant::now();
            let ok = eval.evaluate_prob(&v).is_ok();
            let us = secs(t0.elapsed()) * 1e6;
            assert!(ok, "tenant network prob-analyzes");
            us
        })
        .collect();
    median(&samples)
}
