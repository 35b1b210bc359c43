//! The compiled RTA kernel: a compile/solve split of the busy-window
//! analysis.
//!
//! [`crate::rta::analyze_bus`] rebuilds the same per-topology data on
//! every call: priority-sorted index sets, worst/best-case frame-time
//! vectors, per-controller interference sets and error constants. For
//! workloads that analyze thousands of *variants* of one network
//! (jitter sweeps, identifier searches, fuzzing), that per-call work —
//! and its allocations — dominates. [`CompiledBus`] performs it once:
//!
//! * **compile** ([`CompiledBus::compile`]) derives everything that
//!   depends only on the topology (identifiers, payloads, senders,
//!   controllers, bit rate, stuffing mode): `c_max`/`c_min` vectors,
//!   hp/interference index sets, blocking and per-error-hit constants,
//!   and interned message names;
//! * **solve** ([`CompiledBus::solve`]) reads only the *event models*
//!   and deadlines from the network, so jitter and deadline overlays
//!   need no recompilation, and runs the busy-window fixpoints through
//!   a reusable [`RtaWorkspace`] that makes the steady state
//!   allocation-free and **warm-starts** each fixpoint from the
//!   previous solution when that is provably sound.
//!
//! # Warm-start soundness
//!
//! For message `i`, instance `q`, the busy window is the least fixpoint
//! of the monotone demand function
//!
//! ```text
//! f_q(w) = B_i + (q−1)·C_i + E(w + C_i) + Σ_{j ∈ I(i)} η⁺_j(w + τ)·C_j
//! ```
//!
//! Kleene iteration from any start `v ≤ lfp(f_q)` converges to exactly
//! `lfp(f_q)` (every iterate stays ≤ the fixpoint by monotonicity, and
//! the iteration cannot stop strictly below it). The previous
//! solution's fixpoint `w_q^old = lfp(f_q^old)` is therefore a valid
//! start whenever the *new* demand dominates the old one pointwise,
//! `f_q^new ≥ f_q^old`, which forces `lfp(f_q^old) ≤ lfp(f_q^new)`.
//! Note that a start *above* the least fixpoint would be unsound — the
//! iteration could settle on a larger post-fixpoint — and no local
//! probe at the old value can rule that out, so dominance of the demand
//! function itself is the gate:
//!
//! * the compiled tables (`C`, `B`, per-hit constant, interference
//!   sets) are unchanged — enforced by comparing the compile epoch;
//! * the error model and config are unchanged (`E` is the same
//!   monotone function);
//! * every interfering activation dominates its previous self:
//!   `η⁺_j^new ≥ η⁺_j^old` pointwise, for which
//!   `P_new ≤ P_old ∧ J_new ≥ J_old` plus a compatible `d_min` is
//!   sufficient (see [`eta_dominates`]).
//!
//! The message's *own* activation never appears in `f_q`, only in the
//! busy-period extension and the response-time subtraction — both are
//! evaluated fresh per solve — so it needs no dominance check. Because
//! the warm start converges to the *same* least fixpoint the cold start
//! would, the produced [`BusReport`] is bit-identical either way (the
//! `compiled-equals-naive` fuzz law in `carta-testkit` pins this).
//!
//! # One solve loop
//!
//! The solve phase reads exactly two things that vary between sweep
//! points: the activation models and the resolved deadlines. A
//! [`SolvePoint`] carries just those two dense vectors, so batch
//! workloads solve against the compiled `c_max`/`c_min`/interference
//! tables without materializing a network per point.
//! [`CompiledBus::solve_point_with`] is the one per-message loop: it
//! optionally polls a cancel token and optionally reuses the verdicts
//! of a previous report under another identifier assignment (the
//! incremental solve). [`CompiledBus::solve`],
//! [`CompiledBus::solve_point`] and [`CompiledBus::solve_incremental`]
//! are thin wrappers around it, and `MessageRow` is the one
//! definition of the interference set, blocking term and per-hit error
//! cost that both the compiled tables and [`crate::opa`] use.

use crate::backend::BackendConfig;
use crate::controller::ControllerType;
use crate::error_model::ErrorModel;
use crate::frame::{bit_time, StuffingMode};
use crate::message::CanId;
use crate::network::CanNetwork;
use crate::rta::{
    c_max_vector, test_mutations, AnalysisConfig, BusReport, IncrementalStats, MessageReport,
    ResponseOutcome,
};
use carta_core::analysis::{AnalysisError, DivergenceCause, MessageDiagnostic, ResponseBounds};
use carta_core::cancel::CancelToken;
use carta_core::event_model::EventModel;
use carta_core::time::Time;
use carta_obs::metrics::{self, Counter, Histogram};
use carta_obs::{event, span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Pre-resolved global-registry handles for the compiled kernel.
/// Recording happens only while [`metrics::enabled`].
struct CompiledMetrics {
    compile_ns: Arc<Histogram>,
    warm_starts: Arc<Counter>,
    iters_saved: Arc<Counter>,
}

fn compiled_metrics() -> &'static CompiledMetrics {
    static HANDLES: OnceLock<CompiledMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let registry = metrics::global();
        CompiledMetrics {
            compile_ns: registry.histogram("rta.compile_ns"),
            warm_starts: registry.counter("rta.warm_starts"),
            iters_saved: registry.counter("rta.fixpoint_iters_saved"),
        }
    })
}

/// Monotonically increasing compile identity. Two [`CompiledBus`]
/// values never share an epoch, so a workspace's warm state can be tied
/// to exactly the tables it was produced with.
fn next_epoch() -> u64 {
    static EPOCH: AtomicU64 = AtomicU64::new(1);
    EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// `η⁺_new(Δ) ≥ η⁺_old(Δ)` for every window `Δ` — the per-stream gate
/// of the warm start.
///
/// With `η⁺(Δ) = min(⌈(Δ+J)/P⌉, ⌈Δ/d⌉)` (the `d` term absent when
/// `d = 0`), a sufficient condition is that both branches grew:
/// `P_new ≤ P_old`, `J_new ≥ J_old`, and the `d` branch of the new
/// model is no tighter than the old one's (`d_new = 0` means
/// unconstrained, i.e. `+∞`). The activation kind never enters `η⁺`.
pub(crate) fn eta_dominates(new: &EventModel, old: &EventModel) -> bool {
    new == old
        || (new.period() <= old.period()
            && new.jitter() >= old.jitter()
            && (new.dmin().is_zero() || (!old.dmin().is_zero() && new.dmin() <= old.dmin())))
}

/// Work accounting of one [`CompiledBus::solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Messages whose busy-window fixpoints were warm-started from the
    /// workspace's previous solution.
    pub warm_messages: u64,
    /// Messages solved from a cold start.
    pub cold_messages: u64,
    /// Fixpoint iterations spent in this solve.
    pub iterations: u64,
    /// Estimated fixpoint iterations avoided by warm starts: for every
    /// warm-started message, the iterations its *previous* solve spent
    /// minus the iterations this solve spent (floored at zero). An
    /// estimate — the true cold cost of the new parameters is unknown
    /// without running it — but a faithful trend indicator.
    pub iters_saved: u64,
}

/// One solve-phase input in structure-of-arrays form: the per-message
/// activation models and resolved deadlines — everything the solve
/// phase reads that is not already in the compiled tables. Batch
/// workloads fill one point per variant and hand it to
/// [`CompiledBus::solve_point`] without materializing a network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolvePoint {
    activations: Vec<EventModel>,
    deadlines: Vec<Time>,
}

impl SolvePoint {
    /// An empty point (fill before solving).
    pub fn new() -> Self {
        Self::default()
    }

    /// The point describing `net` as-is: its activations and resolved
    /// deadlines, indexed like the network's messages.
    pub fn from_network(net: &CanNetwork) -> Self {
        let mut point = Self::default();
        point.fill_from_network(net);
        point
    }

    /// Rewrites this point from `net`, reusing the allocations.
    pub fn fill_from_network(&mut self, net: &CanNetwork) {
        let msgs = net.messages();
        self.fill_with(msgs.len(), |i| {
            let m = &msgs[i];
            (m.activation, m.resolved_deadline())
        });
    }

    /// Rewrites this point row by row: `row(i)` must return message
    /// `i`'s activation model and resolved deadline.
    pub fn fill_with(&mut self, n: usize, mut row: impl FnMut(usize) -> (EventModel, Time)) {
        self.activations.clear();
        self.deadlines.clear();
        self.activations.reserve(n);
        self.deadlines.reserve(n);
        for i in 0..n {
            let (activation, deadline) = row(i);
            self.activations.push(activation);
            self.deadlines.push(deadline);
        }
    }

    /// Number of messages in this point.
    pub fn len(&self) -> usize {
        self.activations.len()
    }

    /// `true` when the point has not been filled yet.
    pub fn is_empty(&self) -> bool {
        self.activations.is_empty()
    }

    /// The per-message activation models.
    pub fn activations(&self) -> &[EventModel] {
        &self.activations
    }

    /// The per-message resolved deadlines.
    pub fn deadlines(&self) -> &[Time] {
        &self.deadlines
    }
}

/// Reusable solve-phase state: busy-window warm-start data plus the
/// scratch buffers that make the steady state allocation-free.
///
/// A workspace belongs to one solving thread and may be reused across
/// arbitrary [`CompiledBus::solve`] calls — every warm-start gate
/// (compile epoch, error model, config, activation dominance) is
/// checked internally, so a stale or mismatched workspace degrades to a
/// cold start, never to a wrong result.
#[derive(Debug, Default)]
pub struct RtaWorkspace {
    /// Epoch of the [`CompiledBus`] the warm state belongs to
    /// (0 = no valid state).
    epoch: u64,
    /// `describe()` of the error model of the last solve.
    errors_desc: String,
    horizon: Time,
    max_instances: u64,
    /// Activations of the last solve, indexed like the network.
    activations: Vec<EventModel>,
    /// Converged per-instance busy windows of the last solve:
    /// `w[i][q-1]` is the least fixpoint of message `i`, instance `q`.
    /// May be a prefix when the last solve overloaded past it.
    w: Vec<Vec<Time>>,
    /// Per-message fixpoint iterations of the last solve.
    iters: Vec<u64>,
    /// Scratch: per-stream dominance flags of the current solve.
    dominates: Vec<bool>,
    /// Scratch: the window vector of the message being solved.
    w_next: Vec<Time>,
    /// Scratch: the SoA point [`CompiledBus::solve`] extracts from the
    /// network it is handed (reused so the steady state stays
    /// allocation-free).
    point: SolvePoint,
    /// Stats of the most recent solve.
    last: SolveStats,
}

impl RtaWorkspace {
    /// An empty workspace (first solve runs cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Work accounting of the most recent [`CompiledBus::solve`].
    pub fn last_stats(&self) -> SolveStats {
        self.last
    }

    /// Drops all warm-start state (subsequent solves run cold until
    /// they re-establish it).
    pub fn invalidate(&mut self) {
        self.epoch = 0;
    }

    fn resize(&mut self, n: usize) {
        self.w.resize_with(n, Vec::new);
        self.iters.resize(n, 0);
        self.dominates.resize(n, false);
    }
}

/// Precompiled per-topology tables of one CAN bus: everything the
/// busy-window solve needs that does not depend on event models or
/// deadlines.
#[derive(Debug, Clone)]
pub struct CompiledBus {
    epoch: u64,
    stuffing: StuffingMode,
    backend: BackendConfig,
    bit_rate: u64,
    /// One bit time on this bus.
    tau: Time,
    /// Interned message names, shared by every report produced from
    /// these tables (cloning an `Arc<str>` is a refcount bump) and by
    /// every reordering of them (one refcount bump for the whole list).
    names: Arc<[Arc<str>]>,
    ids: Vec<CanId>,
    c_max: Vec<Time>,
    c_min: Vec<Time>,
    /// `hp[i]`: indices of the messages that out-arbitrate `i`,
    /// ascending.
    hp: Vec<Vec<usize>>,
    /// `interference[i]`: the index set whose `η⁺` feeds message `i`'s
    /// demand (hp for fullCAN senders; hp plus other-node lp for
    /// basicCAN/FIFO senders).
    interference: Vec<Vec<usize>>,
    /// Total (bus + controller-local) blocking charged to message `i`.
    blocking: Vec<Time>,
    /// Error overhead per hit while `i` waits: error frame plus the
    /// longest retransmission among `interference[i] ∪ {i}`.
    per_hit: Vec<Time>,
}

impl CompiledBus {
    /// Compiles the per-topology tables of `net` under `stuffing`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidModel`] if the network fails
    /// [`CanNetwork::validate`].
    pub fn compile(net: &CanNetwork, stuffing: StuffingMode) -> Result<Self, AnalysisError> {
        net.validate()
            .map_err(|e| AnalysisError::InvalidModel(e.to_string()))?;
        let start = metrics::enabled().then(Instant::now);
        let names = net
            .messages()
            .iter()
            .map(|m| Arc::from(m.name.as_str()))
            .collect();
        let compiled = Self::tables(net, stuffing, names);
        if let Some(start) = start {
            compiled_metrics()
                .compile_ns
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Ok(compiled)
    }

    /// Recompiles only the identifier-dependent tables against `net`,
    /// reusing the interned names. `net` must be the compiled network
    /// with its identifiers re-assigned (same messages in the same
    /// order — exactly what a permutation overlay produces); everything
    /// else (payloads, senders, controllers, bit rate) is re-read from
    /// `net`, so a violated contract yields wrong *performance
    /// attribution* at worst, never a wrong report.
    ///
    /// The result carries a fresh epoch: warm-start state tied to the
    /// old tables is never applied to the new priority order.
    ///
    /// # Panics
    ///
    /// Panics if `net` has a different message count.
    pub fn reordered(&self, net: &CanNetwork) -> Self {
        assert_eq!(
            net.messages().len(),
            self.names.len(),
            "reordered() requires the compiled network with new identifiers"
        );
        Self::tables(net, self.stuffing, self.names.clone())
    }

    /// Shared table construction; `net` is already validated.
    ///
    /// Each message's arbitration key is derived once and the messages
    /// are sorted by it. Walking that order from the top, the indices
    /// passed so far are exactly the next message's hp set; walking it
    /// from the bottom, they are its lp set. Both walks keep the passed
    /// indices in one buffer sorted by index, so every set comes out in
    /// ascending index order (the order diagnostics print interference
    /// sets in) and costs one copy, not a scan of all `n` messages.
    /// Equal keys (never on a validated network) stay out of each
    /// other's sets, as a pairwise comparison would keep them.
    fn tables(net: &CanNetwork, stuffing: StuffingMode, names: Arc<[Arc<str>]>) -> Self {
        let msgs = net.messages();
        let n = msgs.len();
        let rate = net.bit_rate();
        let backend = net.backend();
        let c_max = c_max_vector(net, stuffing);
        let c_min: Vec<Time> = msgs
            .iter()
            .map(|m| backend.c_min(m.id.kind(), m.dlc, rate))
            .collect();
        let error_frame = Time::from_bits(backend.backend().error_frame_bits(), rate);
        let keys: Vec<u64> = msgs.iter().map(|m| m.id.arbitration_key()).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| keys[i]);
        let same_key = |a: &usize, b: &usize| keys[*a] == keys[*b];
        let mut passed: Vec<usize> = Vec::with_capacity(n);
        let pass = |passed: &mut Vec<usize>, group: &[usize]| {
            for &i in group {
                let at = passed.partition_point(|&j| j < i);
                passed.insert(at, i);
            }
        };
        let mut hp = vec![Vec::new(); n];
        for group in order.chunk_by(same_key) {
            for &i in group {
                hp[i] = passed.clone();
            }
            pass(&mut passed, group);
        }
        passed.clear();
        let mut interference = vec![Vec::new(); n];
        let mut blocking = vec![Time::ZERO; n];
        let mut per_hit = vec![Time::ZERO; n];
        for group in order.chunk_by(same_key).rev() {
            for &i in group {
                let row = MessageRow::new(net, &c_max, i, &hp[i], &passed, error_frame);
                interference[i] = row.interference;
                blocking[i] = row.blocking;
                per_hit[i] = row.per_hit;
            }
            pass(&mut passed, group);
        }
        CompiledBus {
            epoch: next_epoch(),
            stuffing,
            backend,
            bit_rate: rate,
            tau: bit_time(rate),
            names,
            ids: msgs.iter().map(|m| m.id).collect(),
            c_max,
            c_min,
            hp,
            interference,
            blocking,
            per_hit,
        }
    }

    /// Number of messages on the compiled bus.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` for an empty bus (never produced by [`CompiledBus::compile`],
    /// which rejects invalid networks).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The stuffing mode the tables were compiled under.
    pub fn stuffing(&self) -> StuffingMode {
        self.stuffing
    }

    /// The bus backend the tables were compiled under.
    pub fn backend(&self) -> BackendConfig {
        self.backend
    }

    /// The higher-priority index sets: `hp_sets()[i]` holds the
    /// indices of all messages that out-arbitrate message `i`, in
    /// ascending index order. With the report of a solve they form the
    /// reuse input of [`CompiledBus::solve_incremental`].
    pub fn hp_sets(&self) -> &[Vec<usize>] {
        &self.hp
    }

    /// The interference index sets: `interference_sets()[i]` holds the
    /// messages whose `η⁺` feeds message `i`'s busy-window demand (hp
    /// for fullCAN senders; hp plus other-node lp for basicCAN/FIFO
    /// senders). These are exactly the sets a divergence diagnostic
    /// names.
    pub fn interference_sets(&self) -> &[Vec<usize>] {
        &self.interference
    }

    /// One bit time on the compiled bus.
    pub(crate) fn tau(&self) -> Time {
        self.tau
    }

    /// Per-message error overhead per hit (error frame plus the longest
    /// retransmission among the interference set and the message
    /// itself).
    pub(crate) fn per_hit_vec(&self) -> &[Time] {
        &self.per_hit
    }

    /// The interned message names.
    pub(crate) fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The compiled identifiers.
    pub(crate) fn ids(&self) -> &[CanId] {
        &self.ids
    }

    /// Lifts an abandoned fixpoint into a degraded-mode diagnostic
    /// with interned names, recording the `rta.diverged` metric and a
    /// structured trace event.
    fn diagnose(&self, i: usize, abort: BusyAbort, recording: bool) -> MessageDiagnostic {
        if recording {
            crate::rta::rta_metrics().diverged.inc();
        }
        event!(
            "rta.diverged",
            msg = self.names[i],
            level = self.hp[i].len(),
            w = abort.w,
            q = abort.q,
            cause = abort.cause,
        );
        MessageDiagnostic {
            entity: self.names[i].clone(),
            priority_level: self.hp[i].len(),
            busy_window: abort.w,
            instances: abort.q,
            interference: self.interference[i]
                .iter()
                .map(|&j| self.names[j].clone())
                .collect(),
            cause: abort.cause,
        }
    }

    /// Runs the solve phase against `net`, which must be the compiled
    /// topology with possibly different event models and deadline
    /// policies (identifiers, payloads, senders and bit rate
    /// unchanged). Busy-window fixpoints warm-start from `ws` where the
    /// dominance gate allows; the report is bit-identical to a cold
    /// solve either way.
    ///
    /// # Panics
    ///
    /// Panics if `config.stuffing` differs from the compiled mode or
    /// the message count changed. Identifier agreement is the caller's
    /// contract (checked in debug builds).
    pub fn solve(
        &self,
        net: &CanNetwork,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        ws: &mut RtaWorkspace,
    ) -> BusReport {
        let msgs = net.messages();
        assert_eq!(
            msgs.len(),
            self.names.len(),
            "solve() requires the compiled topology"
        );
        debug_assert!(
            msgs.iter().zip(&self.ids).all(|(m, id)| m.id == *id),
            "identifiers diverged from the compiled tables; recompile or reorder first"
        );
        debug_assert_eq!(net.bit_rate(), self.bit_rate);
        debug_assert_eq!(
            net.backend(),
            self.backend,
            "bus backend diverged from the compiled tables; recompile first"
        );
        let mut point = std::mem::take(&mut ws.point);
        point.fill_from_network(net);
        let report = self.solve_point(&point, errors, config, ws);
        ws.point = point;
        report
    }

    /// Solves one structure-of-arrays point against the compiled
    /// tables, with the same warm-start behavior as
    /// [`CompiledBus::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `config.stuffing` differs from the compiled mode or
    /// the point's message count differs from the compiled topology.
    pub fn solve_point(
        &self,
        point: &SolvePoint,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        ws: &mut RtaWorkspace,
    ) -> BusReport {
        let Ok((report, _)) = self.solve_point_with(point, errors, config, None, None, ws) else {
            unreachable!("a solve without a cancel token never aborts");
        };
        report
    }

    /// Priority-aware incremental solve of `net`, which must differ
    /// from the network behind `previous` **only in its identifier
    /// assignment** (same messages in the same order, same activations,
    /// deadline policies, senders and controllers — exactly what an
    /// identifier-permutation overlay produces); `previous_hp` are the
    /// [`CompiledBus::hp_sets`] that report was solved with. See
    /// [`CompiledBus::solve_point_with`] for which verdicts are reused
    /// and when the solve falls back to a full one.
    pub fn solve_incremental(
        &self,
        net: &CanNetwork,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        previous: &BusReport,
        previous_hp: &[Vec<usize>],
    ) -> (BusReport, IncrementalStats) {
        let Ok(solved) = self.solve_point_with(
            &SolvePoint::from_network(net),
            errors,
            config,
            Some((previous, previous_hp)),
            None,
            &mut RtaWorkspace::new(),
        ) else {
            unreachable!("a solve without a cancel token never aborts");
        };
        solved
    }

    /// The solve loop behind every other solve method: one SoA point
    /// against the compiled tables, warm-started from `ws` where the
    /// dominance gate allows.
    ///
    /// `previous` — a report of this topology under another identifier
    /// assignment plus the higher-priority sets it was solved with —
    /// makes the solve incremental: a message whose higher-priority set,
    /// name and deadline are unchanged keeps its previous verdict
    /// without running its busy window, and only the others are
    /// recomputed. The report is used only when it is comparable (same
    /// message count, stuffing, backend, error model and frame-time
    /// vectors); otherwise the solve runs in full, so a contract
    /// violation degrades performance, not correctness — except for
    /// activation changes, which a [`BusReport`] cannot show and remain
    /// the caller's responsibility. An incremental solve neither reads
    /// nor seeds warm-start state: reused rows carry no converged
    /// windows.
    ///
    /// `cancel`, when present, is polled between per-message fixpoints.
    /// A tripped token abandons the point *whole* —
    /// `Err(AnalysisError::Cancelled)`, never a partial report — and
    /// invalidates the workspace's warm state so a half-solved point can
    /// never seed a later warm start. Points that complete before the
    /// trip are bit-identical to an uncancelled solve.
    ///
    /// # Panics
    ///
    /// Panics if `config.stuffing` differs from the compiled mode or
    /// the point's message count differs from the compiled topology.
    pub fn solve_point_with(
        &self,
        point: &SolvePoint,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        previous: Option<(&BusReport, &[Vec<usize>])>,
        cancel: Option<&CancelToken>,
        ws: &mut RtaWorkspace,
    ) -> Result<(BusReport, IncrementalStats), AnalysisError> {
        let acts = point.activations();
        let deadlines = point.deadlines();
        let n = acts.len();
        assert_eq!(n, self.names.len(), "solve requires the compiled topology");
        assert_eq!(n, deadlines.len(), "solve point rows must be complete");
        assert_eq!(
            config.stuffing, self.stuffing,
            "config stuffing must match the compiled tables"
        );
        let _span = span!("rta.bus", msgs = n);
        let desc = errors.describe();
        let hook = test_mutations::drop_blocking();
        // A permutation over a mixed standard/extended pool can change
        // transmission times, which feed every message's interference
        // sum; reuse is only sound when the whole vectors are unchanged.
        let previous = previous.filter(|(report, hp)| {
            report.messages.len() == n
                && hp.len() == n
                && report.stuffing == config.stuffing
                && report.backend == self.backend
                && report.error_model == desc
                && report
                    .messages
                    .iter()
                    .enumerate()
                    .all(|(j, p)| p.c_max == self.c_max[j] && p.c_min == self.c_min[j])
        });
        // Incremental solves keep out of warm state (reused rows carry
        // no converged windows), and so do fault-injected ones: the
        // hook can be flipped back off between solves, which would
        // break the demand-dominance premise.
        let uses_warm_state = !hook && previous.is_none();

        ws.resize(n);
        let warm_base = uses_warm_state
            && ws.epoch == self.epoch
            && ws.errors_desc == desc
            && ws.horizon == config.horizon
            && ws.max_instances == config.max_instances
            && ws.activations.len() == n;
        if warm_base {
            for (j, act) in acts.iter().enumerate() {
                ws.dominates[j] = eta_dominates(act, &ws.activations[j]);
            }
        }

        let recording = metrics::enabled();
        let mut stats = SolveStats::default();
        let mut incremental = IncrementalStats::default();
        let mut reports = Vec::with_capacity(n);
        for (i, &deadline) in deadlines.iter().enumerate() {
            if cancel.is_some_and(|token| token.is_cancelled()) {
                // A half-solved point must not seed warm starts: the
                // per-message `w`/`iters` rows past `i` still describe
                // the *previous* point.
                ws.invalidate();
                ws.last = stats;
                return Err(AnalysisError::Cancelled);
            }
            let blocking = if hook { Time::ZERO } else { self.blocking[i] };
            let reused = previous.and_then(|(report, hp)| {
                let prev = &report.messages[i];
                (prev.name == self.names[i] && prev.deadline == deadline && hp[i] == self.hp[i])
                    .then_some(prev)
            });
            let (outcome, instances) = match reused {
                Some(prev) => {
                    incremental.reused += 1;
                    (prev.outcome.clone(), prev.instances)
                }
                None => {
                    incremental.recomputed += 1;
                    let warm = warm_base && self.interference[i].iter().all(|&j| ws.dominates[j]);
                    let mut iterations = 0u64;
                    let mut w_next = std::mem::take(&mut ws.w_next);
                    let outcome = busy_window(
                        acts,
                        i,
                        &self.interference[i],
                        &self.c_max,
                        blocking,
                        self.tau,
                        errors,
                        self.per_hit[i],
                        config,
                        if warm { &ws.w[i] } else { &[] },
                        &mut w_next,
                        &mut iterations,
                    );
                    std::mem::swap(&mut ws.w[i], &mut w_next);
                    w_next.clear();
                    ws.w_next = w_next;
                    if warm {
                        stats.warm_messages += 1;
                        stats.iters_saved += ws.iters[i].saturating_sub(iterations);
                    } else {
                        stats.cold_messages += 1;
                    }
                    stats.iterations += iterations;
                    ws.iters[i] = iterations;
                    match outcome {
                        Ok((wcrt, q)) => (
                            ResponseOutcome::Bounded(ResponseBounds::new(
                                self.c_min[i],
                                wcrt.max(self.c_min[i]),
                            )),
                            q,
                        ),
                        Err(abort) => (
                            ResponseOutcome::Overload(self.diagnose(i, abort, recording)),
                            0,
                        ),
                    }
                }
            };
            if recording {
                crate::rta::rta_metrics().busy_instances.record(instances);
            }
            reports.push(MessageReport {
                index: i,
                name: self.names[i].clone(),
                id: self.ids[i],
                c_max: self.c_max[i],
                c_min: self.c_min[i],
                blocking,
                deadline,
                outcome,
                instances,
            });
        }

        if uses_warm_state {
            ws.epoch = self.epoch;
            ws.errors_desc.clear();
            ws.errors_desc.push_str(&desc);
            ws.horizon = config.horizon;
            ws.max_instances = config.max_instances;
            ws.activations.clear();
            ws.activations.extend_from_slice(acts);
        } else {
            ws.invalidate();
        }
        ws.last = stats;

        if recording {
            let handles = crate::rta::rta_metrics();
            handles.runs.inc();
            handles.messages.add(n as u64);
            handles.iterations.add(stats.iterations);
            if previous.is_some() {
                handles.incremental_runs.inc();
                handles.incremental_reused.add(incremental.reused as u64);
                handles
                    .incremental_recomputed
                    .add(incremental.recomputed as u64);
            }
            let compiled_handles = compiled_metrics();
            compiled_handles.warm_starts.add(stats.warm_messages);
            compiled_handles.iters_saved.add(stats.iters_saved);
        }
        Ok((
            BusReport {
                messages: reports,
                error_model: desc,
                stuffing: config.stuffing,
                backend: self.backend,
            },
            incremental,
        ))
    }
}

/// The per-message row of the busy-window analysis for explicit
/// higher-/lower-priority index sets: the interference set, the
/// blocking term and the per-hit error cost. The row depends only on
/// the *sets* (never on the order within them), which is exactly the
/// property Audsley's optimal priority assignment requires — see
/// [`crate::opa`].
///
/// Controller handling: for a fullCAN sender, lower-priority traffic
/// contributes one frame of non-preemption blocking. For basicCAN and
/// FIFO senders, the unrevokable local frame ahead of `i` can lose
/// arbitration *repeatedly* against other nodes' frames of any
/// priority, so **all** other-node messages are counted as full
/// interference (sound, conservative; their one just-started frame is
/// subsumed by `η⁺ ≥ 1`), while same-node frames ahead of `i` appear as
/// controller blocking.
#[derive(Debug)]
pub(crate) struct MessageRow {
    /// The messages whose `η⁺` feeds the demand of message `i`.
    pub(crate) interference: Vec<usize>,
    /// Total (bus + controller-local) blocking, without the
    /// fault-injection hook (solvers apply it, so compiled tables stay
    /// hook-agnostic).
    pub(crate) blocking: Time,
    /// Error overhead per hit while `i` waits: error frame plus the
    /// longest retransmission among the interference set and `i`.
    pub(crate) per_hit: Time,
}

impl MessageRow {
    /// The row of message `i` of `net` with higher-priority set `hp`
    /// and lower-priority set `lp`; `c_max` are the worst-case frame
    /// times of all messages and `error_frame` is the bus's error-frame
    /// time.
    pub(crate) fn new(
        net: &CanNetwork,
        c_max: &[Time],
        i: usize,
        hp: &[usize],
        lp: &[usize],
        error_frame: Time,
    ) -> Self {
        let msgs = net.messages();
        let m = &msgs[i];
        let controller = net.controller_of(m);
        let same_node = |j: usize| msgs[j].sender == m.sender;
        let interference = if matches!(controller, ControllerType::FullCan) {
            hp.to_vec()
        } else {
            let mut set = Vec::with_capacity(hp.len() + lp.len());
            set.extend_from_slice(hp);
            set.extend(lp.iter().copied().filter(|&j| !same_node(j)));
            set
        };
        let blocking = match controller {
            ControllerType::FullCan => lp.iter().map(|&j| c_max[j]).max().unwrap_or(Time::ZERO),
            ControllerType::BasicCan => lp
                .iter()
                .filter(|&&j| same_node(j))
                .map(|&j| c_max[j])
                .max()
                .unwrap_or(Time::ZERO),
            // The queue holds up to `depth - 1` same-node frames ahead
            // of `i`, of any priority.
            ControllerType::FifoQueue { depth } => {
                let mut same: Vec<Time> = (0..msgs.len())
                    .filter(|&j| j != i && same_node(j))
                    .map(|j| c_max[j])
                    .collect();
                same.sort_unstable_by(|a, b| b.cmp(a));
                same.into_iter().take(depth.saturating_sub(1)).sum()
            }
        };
        let retx = interference
            .iter()
            .map(|&j| c_max[j])
            .fold(c_max[i], Time::max);
        MessageRow {
            interference,
            blocking,
            per_hit: error_frame + retx,
        }
    }
}

/// Abort state of an abandoned busy-window fixpoint: how far the
/// window had grown, which instance was being examined, and which
/// budget ran out. [`CompiledBus::solve`] lifts this into a
/// [`MessageDiagnostic`] with the interned names of the interference
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BusyAbort {
    /// Busy-window length when the fixpoint was abandoned.
    pub(crate) w: Time,
    /// Instance under examination at the abort.
    pub(crate) q: u64,
    /// Which budget was exhausted.
    pub(crate) cause: DivergenceCause,
}

/// Busy-window iteration for one message; returns `(wcrt, instances)`
/// or the [`BusyAbort`] state on overload / budget exhaustion. Each
/// inner fixpoint step adds one to `iterations` — the convergence-cost
/// figure surfaced as the `rta.iterations` metric.
///
/// The hot loop reads only the dense `activations` vector (SoA layout,
/// indexed like the compiled tables) — never message structs — so
/// batch sweeps stride contiguous event models.
///
/// `warm[q-1]`, when present, is a known lower bound on instance `q`'s
/// least fixpoint (see the module docs for the soundness argument);
/// the iteration starts at the maximum of the cold start and that
/// bound. Every converged window is pushed to `out_w` (cleared first),
/// so the caller can feed them back as the next solve's warm hints.
#[allow(clippy::too_many_arguments)]
pub(crate) fn busy_window(
    activations: &[EventModel],
    i: usize,
    interference: &[usize],
    c_max: &[Time],
    blocking: Time,
    tau: Time,
    errors: &dyn ErrorModel,
    per_hit: Time,
    config: &AnalysisConfig,
    warm: &[Time],
    out_w: &mut Vec<Time>,
    iterations: &mut u64,
) -> Result<(Time, u64), BusyAbort> {
    let c_m = c_max[i];
    let own = &activations[i];
    out_w.clear();
    let mut wcrt = Time::ZERO;
    // Per-message divergence budget, measured against the shared
    // cumulative counter so the hot loop stays branch-light.
    let budget_end = iterations.saturating_add(config.max_iterations);
    // `w` carries over between instances: the demand is monotone in
    // both `w` and `q`, so the least fixpoint for q+1 is at least the
    // one for q, and a warm hint can only raise the start further —
    // never past the least fixpoint it came below.
    let mut w = Time::ZERO;
    let mut q = 1u64;
    loop {
        // Fixpoint iteration for instance q.
        w = w.max(blocking + c_m * (q - 1));
        if let Some(&hint) = warm.get((q - 1) as usize) {
            w = w.max(hint);
        }
        loop {
            if *iterations >= budget_end {
                return Err(BusyAbort {
                    w,
                    q,
                    cause: DivergenceCause::IterationBudget {
                        budget: config.max_iterations,
                    },
                });
            }
            *iterations += 1;
            let mut demand = blocking + c_m * (q - 1);
            demand = demand
                .saturating_add(per_hit.saturating_mul(errors.max_hits(w.saturating_add(c_m))));
            for &j in interference {
                let eta = activations[j].eta_plus(w.saturating_add(tau));
                demand = demand.saturating_add(c_max[j].saturating_mul(eta));
            }
            if demand > config.horizon {
                return Err(BusyAbort {
                    w: demand,
                    q,
                    cause: DivergenceCause::HorizonExceeded {
                        horizon: config.horizon,
                    },
                });
            }
            if demand <= w {
                break; // fixpoint reached (demand == w on the way up)
            }
            w = demand;
        }
        out_w.push(w);
        let finish = w + c_m;
        wcrt = wcrt.max(finish.saturating_sub(own.delta_min(q)));
        // Does the busy period extend to the next instance?
        if finish > own.delta_min(q + 1) {
            q += 1;
            if q > config.max_instances {
                return Err(BusyAbort {
                    w,
                    q: q - 1,
                    cause: DivergenceCause::InstanceLimit {
                        limit: config.max_instances,
                    },
                });
            }
        } else {
            return Ok((wcrt, q));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{NoErrors, SporadicErrors};
    use crate::frame::Dlc;
    use crate::message::CanMessage;
    use crate::network::Node;
    use crate::rta::analyze_bus;
    use carta_core::event_model::ActivationKind;

    fn net_with(messages: Vec<CanMessage>) -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        net.add_node(Node::new("A", ControllerType::FullCan));
        net.add_node(Node::new("B", ControllerType::BasicCan));
        for m in messages {
            net.add_message(m);
        }
        net
    }

    fn msg(name: &str, id: u32, dlc: u8, period_ms: u64, jitter_ms: u64, s: usize) -> CanMessage {
        CanMessage::new(
            name,
            CanId::standard(id).expect("valid id"),
            Dlc::new(dlc),
            Time::from_ms(period_ms),
            Time::from_ms(jitter_ms),
            s,
        )
    }

    fn same_rows(a: &BusReport, b: &BusReport) {
        assert_eq!(a.messages.len(), b.messages.len());
        for (x, y) in a.messages.iter().zip(&b.messages) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.id, y.id);
            assert_eq!(x.c_max, y.c_max);
            assert_eq!(x.c_min, y.c_min);
            assert_eq!(x.blocking, y.blocking);
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.outcome, y.outcome, "{}", x.name);
            assert_eq!(x.instances, y.instances, "{}", x.name);
        }
    }

    fn with_jitter(net: &CanNetwork, jitter: Time) -> CanNetwork {
        let mut out = net.clone();
        for m in out.messages_mut() {
            let a = m.activation;
            m.activation = EventModel::new(a.kind(), a.period(), jitter, a.dmin());
        }
        out
    }

    #[test]
    fn warm_started_sweep_is_bit_identical_to_cold() {
        let base = net_with(vec![
            msg("a", 0x100, 8, 5, 0, 0),
            msg("b", 0x140, 4, 10, 0, 1),
            msg("c", 0x180, 8, 10, 0, 0),
            msg("d", 0x200, 2, 20, 0, 1),
        ]);
        let config = AnalysisConfig::default();
        let errors = SporadicErrors::new(Time::from_ms(20));
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let mut ws = RtaWorkspace::new();
        // Ascending jitter: every step dominates the previous one, so
        // from the second point on the fixpoints warm-start.
        for (k, us) in [0u64, 200, 500, 1200, 2500].iter().enumerate() {
            let variant = with_jitter(&base, Time::from_us(*us));
            let fast = compiled.solve(&variant, &errors, &config, &mut ws);
            let naive = analyze_bus(&variant, &errors, &config).expect("valid");
            same_rows(&fast, &naive);
            if k > 0 {
                assert!(
                    ws.last_stats().warm_messages > 0,
                    "ascending jitter must warm-start (step {k}): {:?}",
                    ws.last_stats()
                );
            }
        }
        // Descending jitter breaks dominance: the solve must fall back
        // to cold starts and still agree. Only the top-priority fullCAN
        // message keeps its warm start — its interference set is empty,
        // so its demand function never depends on any activation.
        let variant = with_jitter(&base, Time::from_us(100));
        let fast = compiled.solve(&variant, &errors, &config, &mut ws);
        same_rows(
            &fast,
            &analyze_bus(&variant, &errors, &config).expect("valid"),
        );
        assert_eq!(ws.last_stats().warm_messages, 1);
    }

    #[test]
    fn error_model_change_rejects_warm_state() {
        let base = net_with(vec![
            msg("a", 0x100, 8, 5, 0, 0),
            msg("b", 0x200, 8, 5, 0, 1),
        ]);
        let config = AnalysisConfig::default();
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let mut ws = RtaWorkspace::new();
        compiled.solve(&base, &NoErrors, &config, &mut ws);
        let errors = SporadicErrors::new(Time::from_ms(10));
        let fast = compiled.solve(&base, &errors, &config, &mut ws);
        assert_eq!(ws.last_stats().warm_messages, 0, "error model changed");
        same_rows(&fast, &analyze_bus(&base, &errors, &config).expect("valid"));
    }

    #[test]
    fn reordered_tables_match_a_fresh_compile() {
        let base = net_with(vec![
            msg("a", 0x100, 8, 5, 1, 0),
            msg("b", 0x140, 4, 10, 0, 1),
            msg("c", 0x180, 8, 10, 2, 0),
        ]);
        let config = AnalysisConfig::default();
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let mut permuted = base.clone();
        let (a, c) = (permuted.messages()[0].id, permuted.messages()[2].id);
        permuted.messages_mut()[0].id = c;
        permuted.messages_mut()[2].id = a;
        let reordered = compiled.reordered(&permuted);
        let errors = NoErrors;
        let fast = reordered.solve(&permuted, &errors, &config, &mut RtaWorkspace::new());
        same_rows(
            &fast,
            &analyze_bus(&permuted, &errors, &config).expect("valid"),
        );
        // Names are shared, not re-interned.
        assert!(Arc::ptr_eq(&fast.messages[0].name, &compiled.names[0]));
        // Warm state from the old order must not leak into the new one.
        assert_ne!(reordered.epoch, compiled.epoch);
    }

    #[test]
    fn dominance_gate_matches_eta_plus_pointwise() {
        let p = |period_ms, jitter_ms, dmin_us| {
            EventModel::new(
                ActivationKind::Periodic,
                Time::from_ms(period_ms),
                Time::from_ms(jitter_ms),
                Time::from_us(dmin_us),
            )
        };
        let windows: Vec<Time> = (0..200u64).map(|k| Time::from_us(137 * k)).collect();
        let cases = [
            (p(10, 2, 0), p(10, 0, 0), true),     // jitter grew
            (p(10, 1, 0), p(10, 2, 0), false),    // jitter shrank
            (p(5, 1, 0), p(10, 1, 0), true),      // period shrank
            (p(20, 1, 0), p(10, 1, 0), false),    // period grew
            (p(10, 5, 400), p(10, 2, 500), true), // dmin tightened the cap less
            (p(10, 5, 0), p(10, 2, 500), true),   // cap dropped entirely
            (p(10, 5, 500), p(10, 2, 0), false),  // cap appeared
            (p(10, 2, 300), p(10, 2, 300), true), // identical
        ];
        for (new, old, expect) in cases {
            assert_eq!(eta_dominates(&new, &old), expect, "{new:?} vs {old:?}");
            if eta_dominates(&new, &old) {
                for w in &windows {
                    assert!(
                        new.eta_plus(*w) >= old.eta_plus(*w),
                        "dominance gate admitted a non-dominating pair at {w}: {new:?} vs {old:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_survives_overload_and_recovers() {
        // 135 bits every 200 us at 500 kbit/s: the bus is overloaded.
        let flood = CanMessage::new(
            "flood",
            CanId::standard(0x100).expect("valid"),
            Dlc::new(8),
            Time::from_us(200),
            Time::ZERO,
            0,
        );
        let net = net_with(vec![flood, msg("victim", 0x200, 8, 10, 0, 1)]);
        let config = AnalysisConfig::default();
        let compiled = CompiledBus::compile(&net, config.stuffing).expect("valid");
        let mut ws = RtaWorkspace::new();
        let first = compiled.solve(&net, &NoErrors, &config, &mut ws);
        assert!(!first.schedulable());
        // Re-solving with the overload-tainted workspace stays exact.
        let second = compiled.solve(&net, &NoErrors, &config, &mut ws);
        same_rows(&first, &second);
        same_rows(
            &second,
            &analyze_bus(&net, &NoErrors, &config).expect("valid"),
        );
    }

    fn swapped(net: &CanNetwork, a: usize, b: usize) -> CanNetwork {
        let mut out = net.clone();
        let (id_a, id_b) = (out.messages()[a].id, out.messages()[b].id);
        out.messages_mut()[a].id = id_b;
        out.messages_mut()[b].id = id_a;
        out
    }

    fn five_messages() -> CanNetwork {
        net_with(vec![
            msg("a", 0x100, 8, 5, 1, 0),
            msg("b", 0x140, 4, 10, 0, 1),
            msg("c", 0x180, 8, 10, 2, 0),
            msg("d", 0x1C0, 2, 20, 0, 1),
            msg("e", 0x200, 8, 20, 1, 0),
        ])
    }

    #[test]
    fn incremental_matches_full_analysis_on_id_swaps() {
        let config = AnalysisConfig::default();
        let errors = SporadicErrors::new(Time::from_ms(20));
        let base = five_messages();
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let previous = compiled.solve(&base, &errors, &config, &mut RtaWorkspace::new());

        // Swap the two weakest identifiers: only d and e change sets.
        let net = swapped(&base, 3, 4);
        let (incremental, stats) = compiled.reordered(&net).solve_incremental(
            &net,
            &errors,
            &config,
            &previous,
            compiled.hp_sets(),
        );
        assert_eq!(stats.reused, 3, "a, b, c keep their hp sets");
        assert_eq!(stats.recomputed, 2);
        same_rows(
            &incremental,
            &analyze_bus(&net, &errors, &config).expect("valid"),
        );
    }

    #[test]
    fn incremental_falls_back_when_not_comparable() {
        let net = net_with(vec![msg("a", 0x100, 8, 10, 0, 0)]);
        let config = AnalysisConfig::default();
        let compiled = CompiledBus::compile(&net, config.stuffing).expect("valid");
        let previous = compiled.solve(&net, &NoErrors, &config, &mut RtaWorkspace::new());
        // Different error model: the previous report is not comparable,
        // so everything is recomputed — against the new model.
        let errors = SporadicErrors::new(Time::from_s(1));
        let (report, stats) =
            compiled.solve_incremental(&net, &errors, &config, &previous, compiled.hp_sets());
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.recomputed, 1);
        same_rows(
            &report,
            &analyze_bus(&net, &errors, &config).expect("valid"),
        );
    }

    #[test]
    fn hp_sets_follow_arbitration_order() {
        let net = net_with(vec![
            msg("weak", 0x200, 8, 10, 0, 0),
            msg("strong", 0x100, 8, 10, 0, 1),
        ]);
        let compiled = CompiledBus::compile(&net, StuffingMode::WorstCase).expect("valid");
        assert_eq!(compiled.hp_sets(), &[vec![1], vec![]]);
    }

    #[test]
    fn cancelled_reuse_solve_invalidates_the_workspace() {
        let config = AnalysisConfig::default();
        let base = five_messages();
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let point = SolvePoint::from_network(&base);
        let mut ws = RtaWorkspace::new();
        let previous = compiled.solve_point(&point, &NoErrors, &config, &mut ws);
        let token = CancelToken::new();
        token.cancel();
        let result = compiled.solve_point_with(
            &point,
            &NoErrors,
            &config,
            Some((&previous, compiled.hp_sets())),
            Some(&token),
            &mut ws,
        );
        assert!(matches!(result, Err(AnalysisError::Cancelled)));
        // Left valid, the workspace would warm-start every message of
        // the identical point.
        compiled.solve_point(&point, &NoErrors, &config, &mut ws);
        assert_eq!(ws.last_stats().warm_messages, 0);
    }

    #[test]
    fn reuse_solve_never_seeds_warm_state() {
        let config = AnalysisConfig::default();
        let base = five_messages();
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let previous = compiled.solve(&base, &NoErrors, &config, &mut RtaWorkspace::new());
        let net = swapped(&base, 3, 4);
        let reordered = compiled.reordered(&net);
        let point = SolvePoint::from_network(&net);
        let mut ws = RtaWorkspace::new();
        let (_, stats) = reordered
            .solve_point_with(
                &point,
                &NoErrors,
                &config,
                Some((&previous, compiled.hp_sets())),
                None,
                &mut ws,
            )
            .expect("no cancel token");
        assert!(stats.reused > 0, "{stats:?}");
        // The reused rows left no converged windows behind, so the same
        // tables and point must solve cold.
        let full = reordered.solve_point(&point, &NoErrors, &config, &mut ws);
        assert_eq!(ws.last_stats().warm_messages, 0);
        same_rows(
            &full,
            &analyze_bus(&net, &NoErrors, &config).expect("valid"),
        );
    }

    #[test]
    fn compile_rejects_invalid_networks() {
        let empty = CanNetwork::new(500_000);
        assert!(matches!(
            CompiledBus::compile(&empty, StuffingMode::WorstCase),
            Err(AnalysisError::InvalidModel(_))
        ));
    }
}
