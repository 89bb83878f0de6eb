//! Flight recorder: fixed-size per-thread ring buffers of structured
//! trace events, request-scoped trace contexts, a slow-request capture
//! log, and a hand-rolled Chrome trace-event JSON exporter.
//!
//! The span/metrics machinery in this crate answers "where does time go
//! *on average*"; the flight recorder answers "where did time go in
//! *this request*". Every recording thread owns a bounded ring of
//! [`TraceEvent`]s (overwrite-oldest, with exact drop accounting), so
//! the recorder is always on once enabled and never grows without
//! bound. A server request opens a [`RequestTrace`]: events recorded
//! while it is active carry its process-unique trace id and are
//! buffered lock-free in the context, then flushed to the ring as one
//! contiguous block when the request finishes. Requests whose wall time
//! exceeds a caller-chosen threshold are additionally copied into a
//! bounded global slow log, so the full phase tree of an outlier
//! survives long after the ring has wrapped.
//!
//! [`chrome_trace`] renders ring + slow-log contents as Chrome
//! trace-event JSON (the `traceEvents` array format), loadable in
//! Perfetto / `chrome://tracing`, written by hand against
//! `tm_testkit::json` — zero registry dependencies (DESIGN.md §5).
//!
//! # Gating
//!
//! Recording is off by default and costs one branch per call site when
//! off. It turns on per thread via [`set_thread_recording`], process
//! wide via [`force_recording`] (the serving daemon does this at boot),
//! or ambiently when `TM_TRACE` is set. Event names must be registered
//! in [`crate::schema::KNOWN_EVENTS`] — the trace validator
//! (`tm_profile --check`) rejects names it does not know, exactly like
//! the metrics schema.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Instant;
use tm_testkit::json::Json;

/// Events kept per thread ring before overwrite-oldest kicks in.
pub const RING_CAPACITY: usize = 4096;
/// Slow-request captures kept before the oldest is evicted.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// One structured trace event. `dur_ns == u64::MAX` marks an instant
/// event (a point, not an interval).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Registered event name (see [`crate::schema::KNOWN_EVENTS`]).
    pub name: &'static str,
    /// The request trace id this event belongs to (0 = none).
    pub trace_id: u64,
    /// Recorder-assigned thread id (dense, process-unique).
    pub tid: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; `u64::MAX` marks an instant event.
    pub dur_ns: u64,
    /// Small numeric payload rendered into the Chrome `args` object.
    pub args: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// Whether this is an instant (point) event.
    pub fn is_instant(&self) -> bool {
        self.dur_ns == u64::MAX
    }
}

/// A completed request's summary, returned by [`RequestTrace::finish`].
#[derive(Clone, Debug)]
pub struct RequestSummary {
    /// The request's process-unique trace id.
    pub trace_id: u64,
    /// Wall time from context open (minus queue backdating) to finish.
    pub wall_ns: u64,
    /// Events recorded under this context (including the root event).
    pub events: u64,
    /// Whether the request exceeded the slow threshold and was captured.
    pub slow: bool,
}

/// One slow request's full event capture.
#[derive(Clone, Debug)]
pub struct SlowCapture {
    /// The request's trace id.
    pub trace_id: u64,
    /// The request's wall time.
    pub wall_ns: u64,
    /// Every event recorded under the request, root last.
    pub events: Vec<TraceEvent>,
}

/// Aggregate recorder state, for the `stats` verb.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlightStats {
    /// Live recording threads (rings registered and not yet dropped).
    pub threads: u64,
    /// Events currently buffered across all rings.
    pub buffered: u64,
    /// Events ever recorded into rings, exited threads' included.
    pub recorded: u64,
    /// Events overwritten before export (exact drop count, exited
    /// threads' included).
    pub dropped: u64,
    /// Slow-request captures taken.
    pub slow_captured: u64,
    /// Slow captures evicted from the bounded slow log.
    pub slow_evicted: u64,
}

// ---------------------------------------------------------------------
// Recording gate
// ---------------------------------------------------------------------

/// Process-wide force flag: 0 = unset (fall through to `TM_TRACE`),
/// 1 = force on, 2 = force off.
static FORCE: AtomicU8 = AtomicU8::new(0);

thread_local! {
    static THREAD_RECORDING: Cell<Option<bool>> = const { Cell::new(None) };
    static AMBIENT_TRACE_ID: Cell<u64> = const { Cell::new(0) };
    static ACTIVE: RefCell<Option<ActiveRequest>> = const { RefCell::new(None) };
}

/// Whether the current thread is recording flight events.
///
/// Resolution order: per-thread override, then [`force_recording`],
/// then the `TM_TRACE` environment gate.
#[inline]
pub fn recording() -> bool {
    if let Some(on) = THREAD_RECORDING.with(|o| o.get()) {
        return on;
    }
    match FORCE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => crate::trace_level() > 0,
    }
}

/// Overrides flight recording for the current thread (`None` restores
/// the process default). Used by tests and by fleet shard workers
/// inheriting the spawning thread's state.
pub fn set_thread_recording(on: Option<bool>) {
    let _ = epoch();
    THREAD_RECORDING.with(|o| o.set(on));
}

/// Forces flight recording on or off process-wide (the serving daemon
/// calls `force_recording(true)` at boot so the recorder is always on,
/// independent of `TM_TRACE`).
///
/// Also pins the trace epoch to now-or-earlier: the epoch otherwise
/// initializes at the first recorded event, and a first request whose
/// root is back-dated (queue wait) would saturate its timestamps at 0.
pub fn force_recording(on: bool) {
    let _ = epoch();
    FORCE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Epoch and ids
// ---------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first recorder use).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The trace id events on this thread currently attach to: the active
/// request context's id, else the ambient id set by
/// [`set_ambient_trace_id`] (worker threads), else 0.
pub fn current_trace_id() -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map(|r| r.trace_id)).unwrap_or_else(|| {
        AMBIENT_TRACE_ID.with(|t| t.get())
    })
}

/// Sets the ambient trace id for events recorded on this thread outside
/// any request context (fleet shard workers inherit the spawning
/// thread's id this way). Returns the previous value.
pub fn set_ambient_trace_id(id: u64) -> u64 {
    AMBIENT_TRACE_ID.with(|t| t.replace(id))
}

// ---------------------------------------------------------------------
// Per-thread rings and the global registry
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
}

#[derive(Debug)]
struct ThreadRing {
    tid: u64,
    ring: Mutex<Ring>,
}

static REGISTRY: Mutex<Vec<Weak<ThreadRing>>> = Mutex::new(Vec::new());
/// `recorded` and `dropped` totals of rings whose threads have exited,
/// folded in when the ring drops so the process-wide totals keep them.
static RETIRED_RECORDED: AtomicU64 = AtomicU64::new(0);
static RETIRED_DROPPED: AtomicU64 = AtomicU64::new(0);
static SLOW_LOG: Mutex<VecDeque<SlowCapture>> = Mutex::new(VecDeque::new());
static SLOW_CAPTURED: AtomicU64 = AtomicU64::new(0);
static SLOW_EVICTED: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static THREAD_RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(Ring::default()),
        });
        let mut reg = lock(&REGISTRY);
        reg.retain(|w| w.strong_count() > 0); // prune dead threads
        reg.push(Arc::downgrade(&ring));
        ring
    };
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        let ring = self.ring.get_mut().unwrap_or_else(|poisoned| poisoned.into_inner());
        RETIRED_RECORDED.fetch_add(ring.recorded, Ordering::Relaxed);
        RETIRED_DROPPED.fetch_add(ring.dropped, Ordering::Relaxed);
    }
}

/// The recorder-assigned dense thread id for the current thread.
pub fn thread_id() -> u64 {
    THREAD_RING.with(|r| r.tid)
}

fn ring_push(ring: &ThreadRing, ev: TraceEvent) {
    let mut g = lock(&ring.ring);
    if g.buf.len() >= RING_CAPACITY {
        g.buf.pop_front();
        g.dropped += 1;
    }
    g.buf.push_back(ev);
    g.recorded += 1;
}

fn record_event(ev: TraceEvent) {
    let buffered = ACTIVE.with(|a| {
        if let Some(req) = a.borrow_mut().as_mut() {
            req.events.push(ev.clone());
            true
        } else {
            false
        }
    });
    if !buffered {
        THREAD_RING.with(|r| ring_push(r, ev));
    }
}

// ---------------------------------------------------------------------
// Event recording API
// ---------------------------------------------------------------------

fn make_event(name: &'static str, ts_ns: u64, dur_ns: u64, args: &[(&'static str, f64)]) -> TraceEvent {
    TraceEvent {
        name,
        trace_id: current_trace_id(),
        tid: thread_id(),
        ts_ns,
        dur_ns,
        args: args.to_vec(),
    }
}

/// Records an instant (point) event. No-op unless [`recording`].
#[inline]
pub fn instant(name: &'static str, args: &[(&'static str, f64)]) {
    if !recording() {
        return;
    }
    record_event(make_event(name, now_ns(), u64::MAX, args));
}

/// Records a complete event with an explicit start and duration (used
/// to back-date phases measured outside the recorder, e.g. queue wait).
/// No-op unless [`recording`].
#[inline]
pub fn complete(name: &'static str, ts_ns: u64, dur_ns: u64, args: &[(&'static str, f64)]) {
    if !recording() {
        return;
    }
    record_event(make_event(name, ts_ns, dur_ns, args));
}

/// RAII guard recording a complete event covering its own lifetime.
#[must_use = "the phase ends when the guard is dropped"]
#[derive(Debug)]
pub struct PhaseGuard {
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, f64)>,
    live: bool,
}

/// Opens a phase: a complete event from now until the guard drops.
/// Inert (records nothing) unless [`recording`].
#[inline]
pub fn phase(name: &'static str) -> PhaseGuard {
    phase_with(name, &[])
}

/// [`phase`] with a numeric argument payload.
#[inline]
pub fn phase_with(name: &'static str, args: &[(&'static str, f64)]) -> PhaseGuard {
    let live = recording();
    PhaseGuard {
        name,
        start_ns: if live { now_ns() } else { 0 },
        args: if live { args.to_vec() } else { Vec::new() },
        live,
    }
}

impl PhaseGuard {
    /// Appends a numeric argument to the phase's payload (e.g. a
    /// pool-hit flag learned mid-phase).
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if self.live {
            self.args.push((key, value));
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let dur = now_ns().saturating_sub(self.start_ns);
        record_event(TraceEvent {
            name: self.name,
            trace_id: current_trace_id(),
            tid: thread_id(),
            ts_ns: self.start_ns,
            dur_ns: dur,
            args: std::mem::take(&mut self.args),
        });
    }
}

// ---------------------------------------------------------------------
// Request contexts
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ActiveRequest {
    trace_id: u64,
    name: &'static str,
    start_ns: u64,
    events: Vec<TraceEvent>,
}

/// A request-scoped trace context (see module docs). Obtained from
/// [`request_begin`]; consumed by [`RequestTrace::finish`] (or `Drop`,
/// which finishes without slow-capture).
#[must_use = "the request trace flushes when finished or dropped"]
#[derive(Debug)]
pub struct RequestTrace {
    trace_id: u64, // 0 = inert (not recording, or a context was already active)
}

/// Opens a request trace context on this thread. Events recorded until
/// `finish` carry a fresh process-unique trace id and are buffered in
/// the context, then flushed to the thread ring as one block. The
/// context start is back-dated by `queue_ns` so the root event covers
/// time spent queued before this thread picked the request up.
///
/// Returns an inert guard when not [`recording`] or when a context is
/// already active on this thread (contexts do not nest).
pub fn request_begin(name: &'static str, queue_ns: u64) -> RequestTrace {
    if !recording() {
        return RequestTrace { trace_id: 0 };
    }
    let nested = ACTIVE.with(|a| a.borrow().is_some());
    if nested {
        return RequestTrace { trace_id: 0 };
    }
    let trace_id = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns().saturating_sub(queue_ns);
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(ActiveRequest { trace_id, name, start_ns, events: Vec::new() })
    });
    RequestTrace { trace_id }
}

impl RequestTrace {
    /// The context's trace id (0 for an inert guard).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Closes the context: appends the root complete event covering the
    /// whole request, flushes the buffered events to the thread ring,
    /// and — when wall time reaches `slow_threshold_ns` — copies the
    /// full capture into the global slow log. Returns `None` for inert
    /// guards.
    pub fn finish(mut self, slow_threshold_ns: u64) -> Option<RequestSummary> {
        self.close(slow_threshold_ns)
    }

    fn close(&mut self, slow_threshold_ns: u64) -> Option<RequestSummary> {
        if self.trace_id == 0 {
            return None;
        }
        let trace_id = std::mem::replace(&mut self.trace_id, 0);
        let req = ACTIVE.with(|a| a.borrow_mut().take())?;
        debug_assert_eq!(req.trace_id, trace_id, "request contexts must close in LIFO order");
        let wall_ns = now_ns().saturating_sub(req.start_ns);
        let mut events = req.events;
        events.push(TraceEvent {
            name: req.name,
            trace_id,
            tid: thread_id(),
            ts_ns: req.start_ns,
            dur_ns: wall_ns,
            args: vec![("wall_ns", wall_ns as f64)],
        });
        let slow = wall_ns >= slow_threshold_ns;
        if slow {
            SLOW_CAPTURED.fetch_add(1, Ordering::Relaxed);
            let mut log = lock(&SLOW_LOG);
            if log.len() >= SLOW_LOG_CAPACITY {
                log.pop_front();
                SLOW_EVICTED.fetch_add(1, Ordering::Relaxed);
            }
            log.push_back(SlowCapture { trace_id, wall_ns, events: events.clone() });
        }
        let n = events.len() as u64;
        THREAD_RING.with(|r| {
            for ev in events {
                ring_push(r, ev);
            }
        });
        Some(RequestSummary { trace_id, wall_ns, events: n, slow })
    }
}

impl Drop for RequestTrace {
    fn drop(&mut self) {
        // Abandoned guard (e.g. a panicking handler): flush without
        // slow-capture so the ring still sees the events.
        let _ = self.close(u64::MAX);
    }
}

// ---------------------------------------------------------------------
// Cross-thread absorption (fleet shard workers)
// ---------------------------------------------------------------------

/// Takes every event buffered in the current thread's ring, leaving the
/// ring empty (drop/record counters are preserved). The worker half of
/// deterministic cross-thread absorption: parallel workers drain just
/// before finishing and the spawning thread folds the batches back in
/// **worker order** with [`absorb_events`].
pub fn drain_thread() -> Vec<TraceEvent> {
    THREAD_RING.with(|r| {
        let mut g = lock(&r.ring);
        g.buf.drain(..).collect()
    })
}

/// Folds a drained worker batch into the current thread's context (when
/// a request is active) or ring. Events keep their original tid and
/// timestamps, so per-thread nesting stays valid in the export.
pub fn absorb_events(events: Vec<TraceEvent>) {
    if events.is_empty() || !recording() {
        return;
    }
    let buffered = ACTIVE.with(|a| {
        if let Some(req) = a.borrow_mut().as_mut() {
            req.events.extend(events.iter().cloned());
            true
        } else {
            false
        }
    });
    if !buffered {
        THREAD_RING.with(|r| {
            for ev in events {
                ring_push(r, ev);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

/// A point-in-time export of the recorder.
#[derive(Clone, Debug, Default)]
pub struct Export {
    /// Ring contents across all live threads, ordered by `(ts, tid)`.
    pub events: Vec<TraceEvent>,
    /// Events dropped (newest-first truncation by `limit`, plus ring
    /// overwrites, exited threads' included) — exact.
    pub dropped: u64,
    /// Slow-request captures (oldest first).
    pub slow: Vec<SlowCapture>,
}

/// Snapshots recorder statistics (for the `stats` verb).
pub fn stats() -> FlightStats {
    // Retired totals are read first: a ring this walk upgrades can only
    // retire after the walk has counted it.
    let mut s = FlightStats {
        recorded: RETIRED_RECORDED.load(Ordering::Relaxed),
        dropped: RETIRED_DROPPED.load(Ordering::Relaxed),
        slow_captured: SLOW_CAPTURED.load(Ordering::Relaxed),
        slow_evicted: SLOW_EVICTED.load(Ordering::Relaxed),
        ..FlightStats::default()
    };
    let mut reg = lock(&REGISTRY);
    reg.retain(|w| w.strong_count() > 0);
    for w in reg.iter() {
        if let Some(ring) = w.upgrade() {
            let g = lock(&ring.ring);
            s.threads += 1;
            s.buffered += g.buf.len() as u64;
            s.recorded += g.recorded;
            s.dropped += g.dropped;
        }
    }
    s
}

/// Copies the recorder contents: every live ring (sorted by start time,
/// then tid) capped to the `limit` most recent events, plus the slow
/// log. Does not consume the rings.
pub fn export(limit: usize) -> Export {
    let mut events = Vec::new();
    let mut dropped = RETIRED_DROPPED.load(Ordering::Relaxed);
    {
        let mut reg = lock(&REGISTRY);
        reg.retain(|w| w.strong_count() > 0);
        for w in reg.iter() {
            if let Some(ring) = w.upgrade() {
                let g = lock(&ring.ring);
                dropped += g.dropped;
                events.extend(g.buf.iter().cloned());
            }
        }
    }
    events.sort_by(|a, b| (a.ts_ns, a.tid).cmp(&(b.ts_ns, b.tid)));
    if events.len() > limit {
        let cut = events.len() - limit;
        dropped += cut as u64;
        events.drain(..cut);
    }
    let slow = lock(&SLOW_LOG).iter().cloned().collect();
    Export { events, dropped, slow }
}

// ---------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------

/// Process id used for live ring events in the Chrome export.
pub const PID_FLIGHT: u64 = 1;
/// Process id used for slow-log captures in the Chrome export.
pub const PID_SLOW: u64 = 2;

fn chrome_event(ev: &TraceEvent, pid: u64) -> Json {
    let mut args: Vec<(&'static str, Json)> = Vec::with_capacity(ev.args.len() + 1);
    if ev.trace_id != 0 {
        args.push(("trace", Json::Num(ev.trace_id as f64)));
    }
    for (k, v) in &ev.args {
        args.push((*k, Json::Num(*v)));
    }
    let ts_us = ev.ts_ns as f64 / 1000.0;
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("name", Json::str(ev.name)),
        ("cat", Json::str(ev.name.split('.').next().unwrap_or("event"))),
        ("ph", Json::str(if ev.is_instant() { "i" } else { "X" })),
        ("pid", Json::Num(pid as f64)),
        ("tid", Json::Num(ev.tid as f64)),
        ("ts", Json::Num(ts_us)),
    ];
    if ev.is_instant() {
        fields.push(("s", Json::str("t"))); // thread-scoped instant
    } else {
        fields.push(("dur", Json::Num(ev.dur_ns as f64 / 1000.0)));
    }
    fields.push(("args", Json::obj(args)));
    Json::obj(fields)
}

fn process_name(pid: u64, name: &str) -> Json {
    Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Num(pid as f64)),
        ("tid", Json::Num(0.0)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
}

/// Renders an [`Export`] as a Chrome trace-event JSON object
/// (`{"displayTimeUnit": "ms", "traceEvents": [...]}`) loadable in
/// Perfetto. Live ring events render under pid [`PID_FLIGHT`]; each
/// slow capture renders under pid [`PID_SLOW`] so outlier requests stay
/// visible even after the rings wrapped past them.
pub fn chrome_trace(export: &Export) -> Json {
    let mut events = Vec::with_capacity(export.events.len() + 2);
    events.push(process_name(PID_FLIGHT, "tm flight recorder"));
    if !export.slow.is_empty() {
        events.push(process_name(PID_SLOW, "tm slow requests"));
    }
    for ev in &export.events {
        events.push(chrome_event(ev, PID_FLIGHT));
    }
    for cap in &export.slow {
        for ev in &cap.events {
            events.push(chrome_event(ev, PID_SLOW));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the recording tests: `stats()` sums every live ring in
    /// the process, so another test recording at the same time would
    /// shift this test's exact deltas.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Restores the thread recording override on drop, then lets the
    /// next recording test run.
    struct RecordOn {
        prev: Option<bool>,
        _serial: MutexGuard<'static, ()>,
    }
    impl RecordOn {
        fn new() -> Self {
            let serial = lock(&SERIAL);
            let prev = THREAD_RECORDING.with(|o| o.replace(Some(true)));
            drain_thread(); // start from an empty ring
            RecordOn { prev, _serial: serial }
        }
    }
    impl Drop for RecordOn {
        fn drop(&mut self) {
            THREAD_RECORDING.with(|o| o.set(self.prev));
            // The test thread's ring is unregistered only when the
            // thread exits, which may be in the middle of the next
            // recording test: leave nothing behind in the sums.
            THREAD_RING.with(|r| *lock(&r.ring) = Ring::default());
        }
    }

    #[test]
    fn dormant_thread_records_nothing() {
        set_thread_recording(Some(false));
        instant("bdd.publish", &[]);
        let _p = phase("serve.parse");
        drop(_p);
        let req = request_begin("serve.request", 0);
        assert_eq!(req.trace_id(), 0);
        assert!(req.finish(0).is_none());
        assert!(drain_thread().is_empty());
        set_thread_recording(None);
    }

    #[test]
    fn request_context_buffers_and_flushes_one_block() {
        let _on = RecordOn::new();
        let req = request_begin("serve.request", 1000);
        let id = req.trace_id();
        assert!(id > 0);
        {
            let mut p = phase("serve.parse");
            p.arg("bytes", 42.0);
        }
        instant("bdd.publish", &[("nodes", 7.0)]);
        // Buffered in the context — the ring stays empty until finish.
        assert!(drain_thread().is_empty());
        let summary = req.finish(u64::MAX).expect("live context");
        assert_eq!(summary.trace_id, id);
        assert_eq!(summary.events, 3);
        assert!(!summary.slow);
        let events = drain_thread();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.trace_id == id), "{events:?}");
        let root = events.last().expect("root event");
        assert_eq!(root.name, "serve.request");
        assert!(root.dur_ns >= 1000, "root back-dated by queue_ns: {root:?}");
        // Phases nest within the root interval.
        for ev in &events[..2] {
            assert!(ev.ts_ns >= root.ts_ns);
            if !ev.is_instant() {
                assert!(ev.ts_ns + ev.dur_ns <= root.ts_ns + root.dur_ns);
            }
        }
    }

    #[test]
    fn ring_overwrites_oldest_with_exact_drop_accounting() {
        let _on = RecordOn::new();
        let before = stats();
        for _ in 0..RING_CAPACITY + 100 {
            instant("bdd.publish", &[]);
        }
        let events = drain_thread();
        assert_eq!(events.len(), RING_CAPACITY);
        let after = stats();
        assert_eq!(after.dropped - before.dropped, 100, "exactly the overflow is dropped");
        assert_eq!(after.recorded - before.recorded, (RING_CAPACITY + 100) as u64);
    }

    #[test]
    fn exited_threads_keep_their_totals() {
        let _on = RecordOn::new();
        let before = stats();
        std::thread::spawn(|| {
            set_thread_recording(Some(true));
            for _ in 0..RING_CAPACITY + 7 {
                instant("bdd.publish", &[]);
            }
        })
        .join()
        .expect("recording thread");
        let after = stats();
        assert_eq!(after.recorded - before.recorded, (RING_CAPACITY + 7) as u64);
        assert_eq!(after.dropped - before.dropped, 7);
        assert!(export(0).dropped >= 7);
    }

    #[test]
    fn slow_requests_are_captured() {
        let _on = RecordOn::new();
        let req = request_begin("serve.request", 0);
        let id = req.trace_id();
        {
            let _p = phase("serve.compute");
        }
        let summary = req.finish(0).expect("live context"); // threshold 0 → everything is slow
        assert!(summary.slow);
        let caps = export(usize::MAX).slow;
        let cap = caps.iter().find(|c| c.trace_id == id).expect("captured");
        assert_eq!(cap.events.len(), 2);
        assert_eq!(cap.events.last().map(|e| e.name), Some("serve.request"));
        drain_thread();
    }

    #[test]
    fn absorb_preserves_worker_tid_and_trace_id() {
        let _on = RecordOn::new();
        let parent_tid = thread_id();
        let req = request_begin("serve.request", 0);
        let id = req.trace_id();
        let batch = std::thread::scope(|s| {
            s.spawn(move || {
                set_thread_recording(Some(true));
                let prev = set_ambient_trace_id(id);
                instant("spcf.output", &[("output", 3.0)]);
                set_ambient_trace_id(prev);
                drain_thread()
            })
            .join()
            .expect("worker")
        });
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].trace_id, id, "worker inherits the request id");
        let worker_tid = batch[0].tid;
        assert_ne!(worker_tid, parent_tid);
        absorb_events(batch);
        req.finish(u64::MAX);
        let events = drain_thread();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tid, worker_tid, "absorbed event keeps its tid");
    }

    #[test]
    fn chrome_export_is_well_formed_and_parsable() {
        let _on = RecordOn::new();
        let req = request_begin("serve.request", 500);
        {
            let _p = phase("serve.parse");
        }
        instant("resilience.exhausted", &[("kind", 1.0)]);
        req.finish(0); // capture into the slow log too
        let ex = export(usize::MAX);
        let json = chrome_trace(&ex);
        let rendered = json.render();
        let parsed = Json::parse(&rendered).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert!(events.len() >= 5, "metadata + 3 events + slow copy: {}", events.len());
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
            assert!(matches!(ph, "X" | "i" | "M"), "unexpected ph {ph}");
            assert!(ev.get("name").and_then(Json::as_str).is_some());
            assert!(ev.get("pid").and_then(Json::as_num).is_some());
            if ph == "X" {
                assert!(ev.get("dur").and_then(Json::as_num).expect("dur") >= 0.0);
            }
        }
        // The slow capture renders under PID_SLOW.
        assert!(
            events.iter().any(|e| e.get("pid").and_then(Json::as_num) == Some(PID_SLOW as f64)
                && e.get("ph").and_then(Json::as_str) == Some("X")),
            "slow capture present"
        );
        drain_thread();
    }

    #[test]
    fn export_limit_truncates_oldest_and_counts_drops() {
        let _on = RecordOn::new();
        for i in 0..10 {
            complete("serve.compute", 1_000 + i, 10, &[]);
        }
        let ex = export(4);
        assert_eq!(ex.events.len(), 4);
        assert!(ex.dropped >= 6);
        // Newest survive.
        assert!(ex.events.iter().all(|e| e.ts_ns >= 1_006));
        drain_thread();
    }
}
