//! Benchmark-owned spans for traced runs.
//!
//! Spans wrap calls from the benchmark into the public functions of
//! each layer; nothing inside the program is instrumented. A root span
//! is one operation of the workload (a sweep pass, an HTTP request, an
//! optimize pipeline). Work inside a single call that the benchmark
//! cannot wrap — the CAN kernel inside `Evaluator::evaluate_batch`,
//! the server's phases inside an HTTP round trip — is attributed from
//! an in-process replay of the same inputs through the inner public
//! functions, as a child span marked `replay`.
//!
//! A span's self time is its duration minus its children's. The self
//! time of a root span is the named residual: time of the operation
//! no layer accounts for. Per-layer self times plus the residual
//! therefore sum to the operations' total duration by construction.
//! What can go wrong is a replay that ran longer than the call it
//! stands for: its charge is cut to what the parent has left, and the
//! cut time is counted and checked.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers a span can be charged to, named after the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The load generator itself (send lag).
    Client,
    Server,
    Api,
    Kmatrix,
    Engine,
    Can,
    Optim,
    /// Benchmark-side work the user of the library would also do
    /// (building variants, folding checksums).
    Bench,
    /// A root span: its self time is the residual.
    Op,
}

impl Layer {
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Client => "trace.self_ms.client",
            Layer::Server => "trace.self_ms.server",
            Layer::Api => "trace.self_ms.api",
            Layer::Kmatrix => "trace.self_ms.kmatrix",
            Layer::Engine => "trace.self_ms.engine",
            Layer::Can => "trace.self_ms.can",
            Layer::Optim => "trace.self_ms.optim",
            Layer::Bench => "trace.self_ms.bench",
            Layer::Op => "trace.self_ms.residual",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Server => "server",
            Layer::Api => "api",
            Layer::Kmatrix => "kmatrix",
            Layer::Engine => "engine",
            Layer::Can => "can",
            Layer::Optim => "optim",
            Layer::Bench => "bench",
            Layer::Op => "op",
        }
    }

    pub const ALL: [Layer; 9] = [
        Layer::Client,
        Layer::Server,
        Layer::Api,
        Layer::Kmatrix,
        Layer::Engine,
        Layer::Can,
        Layer::Optim,
        Layer::Bench,
        Layer::Op,
    ];
}

/// One recorded span; times in microseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: Layer,
    pub start_us: f64,
    pub dur_us: f64,
    /// Attributed from an in-process replay rather than timed in place.
    pub replay: bool,
    /// Replayed time that did not fit into the parent, µs.
    pub cut_us: f64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: Layer) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            start_us: self.now_us(),
            dur_us: 0.0,
            replay: false,
            cut_us: 0.0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].dur_us = self.now_us() - self.spans[id].start_us;
    }

    /// Records an already-measured span (times relative to `origin`).
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        layer: Layer,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let end_us = end.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_us,
            dur_us: (end_us - start_us).max(0.0),
            replay: false,
            cut_us: 0.0,
        });
        id
    }

    /// `parent`'s duration not yet covered by its children.
    fn left_us(&self, parent: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.dur_us)
            .sum();
        (self.spans[parent].dur_us - covered).max(0.0)
    }

    /// Charges `dur_us` of `parent`'s uncovered time to a replayed
    /// child. The charge is capped at what the parent has left, so a
    /// replay that ran slower than the real call never drives a self
    /// time negative; the part cut off is kept in `cut_us`.
    pub fn attribute(
        &mut self,
        parent: usize,
        name: &'static str,
        layer: Layer,
        dur_us: f64,
    ) -> usize {
        let left = self.left_us(parent);
        let dur_us = dur_us.max(0.0);
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            layer,
            start_us: self.spans[parent].start_us,
            dur_us: dur_us.min(left),
            replay: true,
            cut_us: (dur_us - left).max(0.0),
        });
        id
    }

    /// Charges `share` of `parent`'s duration to a replayed child, as
    /// [`Tracer::attribute`] does.
    pub fn attribute_share(
        &mut self,
        parent: usize,
        name: &'static str,
        layer: Layer,
        share: f64,
    ) -> usize {
        let dur_us = share * self.spans[parent].dur_us;
        self.attribute(parent, name, layer, dur_us)
    }

    /// Charges all of `parent`'s uncovered time to a child standing
    /// for the rest of the call; it can never be cut.
    pub fn attribute_rest(&mut self, parent: usize, name: &'static str, layer: Layer) -> usize {
        let left = self.left_us(parent);
        self.attribute(parent, name, layer, left)
    }

    /// Ids of the recorded spans called `name`, in recording order.
    pub fn ids_named(&self, name: &str) -> Vec<usize> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.id)
            .collect()
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans");
        self.spans
    }
}

/// Self time per layer (µs) over `spans`, plus the operations' total
/// duration. Root spans must have layer [`Layer::Op`].
pub fn self_times(spans: &[Span]) -> (BTreeMap<Layer, f64>, f64) {
    let mut child_sum = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_us;
        }
    }
    let mut by_layer: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
    let mut whole = 0.0;
    for s in spans {
        if s.parent.is_none() {
            assert_eq!(
                s.layer,
                Layer::Op,
                "root span {} is not an operation",
                s.name
            );
            whole += s.dur_us;
        }
        *by_layer.entry(s.layer).or_default() += s.dur_us - child_sum[s.id];
    }
    (by_layer, whole)
}

/// How much replayed time, as a share of the whole, may be cut off
/// before the decomposition counts as wrong.
const MAX_CUT_SHARE: f64 = 0.01;

/// Fills the `trace.*` metrics of `report`: mean milliseconds per
/// operation for the whole and for every layer's self time.
pub fn decompose(report: &mut crate::common::Report, spans: &[Span]) {
    let ops = spans.iter().filter(|s| s.parent.is_none()).count().max(1) as f64;
    let (by_layer, whole) = self_times(spans);
    report.set("trace.whole_ms", whole / ops / 1e3);
    for (layer, us) in &by_layer {
        report.set(layer.metric(), us / ops / 1e3);
    }
    // A replay slower than the call it stands for makes the split
    // wrong, not just imprecise: the layer is undercharged and some
    // other span overcharged. Allow a little of it, for timing noise.
    let cut: f64 = spans.iter().map(|s| s.cut_us).sum();
    let cut_spans = spans.iter().filter(|s| s.cut_us > 0.0).count();
    report.check(
        "trace_replays_fit",
        cut <= MAX_CUT_SHARE * whole,
        format!(
            "{cut_spans} replayed spans cut by {cut:.1} us in total, {:.3} % of the whole",
            100.0 * cut / whole.max(1e-9)
        ),
    );
    report.note("trace.ops", ops);
}

/// Writes spans as JSON lines (one object per span).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3},\"replay\":{},\"cut_us\":{:.3}}}",
            s.id,
            parent,
            s.name,
            s.layer.name(),
            s.start_us,
            s.dur_us,
            s.replay,
            s.cut_us
        )?;
    }
    out.flush()
}
