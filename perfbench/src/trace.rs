//! The traced run's span recorder and self-time fold.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (name, start, end, parent, op id) and stay
//! in memory until the run ends. Work inside a call that has no public
//! entry point of its own is attributed from the aggregates the program
//! already publishes: `tm_telemetry` span self times and counters, and
//! (for the server) its flight-recorder phases.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name (see [`layer_metric`]).
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Op id the span belongs to (0 = set-up).
    pub op: u64,
    /// Library-span self time (`tm_telemetry`) recorded inside this
    /// span, children included.
    pub lib_ns: u64,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
    static NOTES: RefCell<Vec<(&'static str, f64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for this thread, together with the
/// program's own telemetry collection and flight recording.
pub fn set_enabled(on: bool) {
    let _ = epoch();
    ON.with(|c| c.set(on));
    tm_telemetry::set_thread_enabled(Some(on));
    tm_telemetry::flight::set_thread_recording(Some(on));
}

/// Whether this thread records spans.
pub fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Starts op `op` on this thread: later spans carry its id, and the
/// program's telemetry registry and flight ring start empty.
pub fn begin_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
    if enabled() {
        tm_telemetry::reset();
        tm_telemetry::flight::drain_thread();
    }
}

/// Sum of library span self times recorded on this thread so far. The
/// library's spans nest properly on one thread, so their self times
/// partition the interval they cover.
fn lib_self_ns() -> u64 {
    tm_telemetry::snapshot()
        .spans
        .iter()
        .map(|s| s.self_ns)
        .sum()
}

/// Runs `f` inside a span named `name` (a no-op wrapper when recording
/// is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let lib0 = lib_self_ns();
    let index = REC.with(|r| {
        let mut r = r.borrow_mut();
        let span = Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: r.stack.last().copied(),
            op: r.op,
            lib_ns: 0,
        };
        r.spans.push(span);
        let index = r.spans.len() - 1;
        r.stack.push(index);
        index
    });
    let out = f();
    let end = now_ns();
    let lib = lib_self_ns().saturating_sub(lib0);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.pop();
        let s = &mut r.spans[index];
        s.end_ns = end;
        s.lib_ns = lib;
    });
    out
}

/// Adds `v` to the per-layer value `metric` from inside an op (folded
/// after the op ends).
pub fn note(metric: &'static str, v: f64) {
    NOTES.with(|n| n.borrow_mut().push((metric, v)));
}

/// Takes this thread's notes.
pub fn take_notes() -> Vec<(&'static str, f64)> {
    NOTES.with(|n| std::mem::take(&mut *n.borrow_mut()))
}

/// Takes this thread's recorded spans.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// The per-layer self-time metric a span or library-span name feeds.
pub fn layer_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "sta.new" => "sta.ms",
        "masking.extract" => "netlist.extract.ms",
        "masking.synthesize" => "masking.synthesize.ms",
        "masking.spcf" => "masking.spcf.ms",
        "masking.covers" => "masking.covers.ms",
        "masking.map" => "masking.map.ms",
        "masking.slack" => "masking.slack.ms",
        "masking.verify" => "masking.verify.ms",
        "spcf.short_path" => "spcf.short_path.ms",
        "spcf.path_based" => "spcf.path_based.ms",
        "spcf.node_based" => "spcf.node_based.ms",
        "fleet.run_epoch" | "fleet.epoch" => "fleet.epoch.ms",
        "monitor.assess" => "monitor.assess_ms",
        _ => return None,
    })
}

/// Accumulated per-layer figures of a traced run.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Traced ops folded in.
    pub ops: u64,
    /// Sum of traced op wall times, ms.
    pub wall_ms: f64,
    /// Self time per layer metric, summed over ops, ms. These partition
    /// op wall time; the rest is printed as unattributed.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Other per-layer values (counts, ratios, per-call means), keyed
    /// by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    /// Adds `ms` of self time to `metric`.
    pub fn add_self(&mut self, metric: &'static str, ms: f64) {
        *self.self_ms.entry(metric).or_default() += ms;
    }

    /// Adds `v` to the value `metric`.
    pub fn add(&mut self, metric: &'static str, v: f64) {
        *self.values.entry(metric).or_default() += v;
    }

    /// Raises the value `metric` to at least `v`.
    pub fn max(&mut self, metric: &'static str, v: f64) {
        let e = self.values.entry(metric).or_default();
        *e = e.max(v);
    }

    /// Folds one thread's spans: each span's self time (its duration
    /// minus child spans and the library spans inside it) goes to its
    /// layer. Set-up spans (op 0) are kept apart from the op partition.
    pub fn fold_spans(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_lib = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_lib[p] += s.lib_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let own_lib = s.lib_ns.saturating_sub(child_lib[i]);
            let self_ms = (s.end_ns - s.start_ns)
                .saturating_sub(child_ns[i])
                .saturating_sub(own_lib) as f64
                / 1e6;
            match (s.op, s.name, layer_metric(s.name)) {
                (0, "sta.new", _) => self.add("sta.setup_ms", self_ms),
                (0, _, _) | (_, _, None) => {}
                (_, _, Some(metric)) => self.add_self(metric, self_ms),
            }
        }
    }

    /// Folds the library span self times recorded during one op.
    pub fn fold_library(&mut self, snap: &tm_telemetry::Snapshot) {
        for s in &snap.spans {
            if let Some(metric) = layer_metric(&s.name) {
                self.add_self(metric, s.self_ns as f64 / 1e6);
            }
        }
    }
}
